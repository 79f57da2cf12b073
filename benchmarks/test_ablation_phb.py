"""Ablation: strict-priority DiffServ PHB vs plain FIFO at the router.

Isolates the network half of the Fig 6 result: the same marked video
flow under the same congestion, with the only difference being whether
the bottleneck queue honours DSCPs.  With FIFO, marking is ink on a
dead letter; with the DiffServ PHB it is the whole ballgame.

The arm and its renderer live in :mod:`repro.experiments.ablations`;
this file asserts over its payloads.
"""

from repro.experiments.scenario_registry import FIGURES, figure_specs

from _shared import publish, run_figure

NAME = "ablation_phb"


def test_ablation_phb(benchmark):
    payloads = benchmark.pedantic(
        lambda: run_figure(NAME, figure_specs()[NAME]), rounds=1, iterations=1)
    publish(NAME, FIGURES[NAME].render(payloads))
    fifo, diffserv = (payload["recorder"] for payload in payloads)

    # EF marking is useless without an honouring PHB...
    assert fifo.delivery_fraction() < 0.7
    assert fifo.latency.stats().mean > 0.05
    # ...and decisive with one.
    assert diffserv.delivery_fraction() > 0.99
    assert diffserv.latency.stats().mean < 0.01
