"""Ablation: priority-driven reservation assignment (paper section 6).

"One promising research direction is to combine priority-based
mechanisms in conjunction with reservation mechanisms, using the
priority paradigm to drive who gets reservations and to what degree."

Three periodic tasks want more reserved CPU than exists.  Two
allocation policies are compared under saturating background load:

* arrival order — reserves are granted first come, first served;
* priority order — :meth:`EndToEndQoSManager.allocate_reservations`
  hands capacity out most-important-first.

Only the priority-driven allocation keeps the critical task's
deadlines once capacity runs out.

The arm and its renderer live in :mod:`repro.experiments.ablations`;
this file asserts over its payloads.
"""

from repro.experiments.ablations import deadline_misses
from repro.experiments.scenario_registry import FIGURES, figure_specs

from _shared import publish, run_figure

NAME = "ablation_priority_driven_reservation"


def test_ablation_priority_driven_reservation(benchmark):
    payloads = benchmark.pedantic(
        lambda: run_figure(NAME, figure_specs()[NAME]), rounds=1, iterations=1)
    publish(NAME, FIGURES[NAME].render(payloads))
    arrival, prioritized = (payload["response"] for payload in payloads)

    # Arrival order starves the late-arriving critical task...
    assert deadline_misses(arrival["navigation"]) > 5
    # ...priority order protects it completely.
    assert deadline_misses(prioritized["navigation"]) == 0
    # Two reserved tasks share the boost band, so the mean response is
    # bounded by both compute demands — still inside the period.
    assert prioritized["navigation"].stats().mean < 1.0
    # Capacity is conserved: exactly one task loses out either way.
    assert deadline_misses(prioritized["logging"]) > 5
    assert deadline_misses(arrival["logging"]) == 0
