"""Ablation: HARD vs SOFT CPU-reserve enforcement.

DESIGN.md calls out the enforcement-policy choice.  Both policies give
identical *guarantees* to the reserved task; they differ in what the
task may take beyond its reservation: a SOFT reserve degrades to
ordinary competition when its budget is spent, while a HARD reserve
suspends — protecting background work from reservation overruns at the
cost of reserved-task throughput.

The arm and its renderer live in :mod:`repro.experiments.ablations`;
this file asserts over its payloads.
"""

from repro.experiments.ablations import (
    RESERVE_POLICY_DURATION as DURATION,
    RESERVE_POLICY_PARAMS as RESERVE,
)
from repro.experiments.scenario_registry import FIGURES, figure_specs

from _shared import publish, run_figure

NAME = "ablation_reserve_policy"


def test_ablation_reserve_policy(benchmark):
    hard, soft = benchmark.pedantic(
        lambda: run_figure(NAME, figure_specs()[NAME]), rounds=1, iterations=1)
    publish(NAME, FIGURES[NAME].render([hard, soft]))

    utilization = RESERVE["compute"] / RESERVE["period"]
    # HARD: the reserved task gets exactly its reservation, no more.
    assert abs(hard["reserved_cpu"] / DURATION - utilization) < 0.02
    # ...so the background work gets everything else.
    assert hard["background_cpu"] / DURATION > 0.65
    # SOFT: the reserved task overruns into idle/low-priority time.
    assert soft["reserved_cpu"] / DURATION > utilization + 0.1
    # Both meet the guarantee.
    assert soft["reserved_cpu"] / DURATION >= utilization - 0.01
