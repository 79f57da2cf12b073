"""Ablation: tail-drop FIFO vs RED+ECN at a bottleneck carrying GIOP.

The paper points at the IP header's ECN bits but never evaluates them.
This ablation completes the picture: a bulk CORBA transfer through a
deep tail-drop queue builds hundreds of milliseconds of standing
queue (hurting every interactive request sharing the path), while
RED+ECN holds the queue near its thresholds at nearly the same
throughput.

The arm and its renderer live in :mod:`repro.experiments.ablations`;
this file asserts over its payloads.
"""

from repro.experiments.scenario_registry import FIGURES, figure_specs

from _shared import publish, run_figure

NAME = "ablation_ecn"


def test_ablation_ecn(benchmark):
    fifo, red = benchmark.pedantic(
        lambda: run_figure(NAME, figure_specs()[NAME]), rounds=1, iterations=1)
    publish(NAME, FIGURES[NAME].render([fifo, red]))
    # RED+ECN keeps the standing queue about an order of magnitude
    # shorter, which interactive probes feel directly...
    assert red["max_queue"] < fifo["max_queue"] / 3
    assert red["mean_probe_rtt"] < fifo["mean_probe_rtt"] / 2
    # ...without giving up meaningful bulk throughput or causing drops.
    assert red["bulk_throughput_mbps"] > fifo["bulk_throughput_mbps"] * 0.6
    assert red["marked"] > 0
    assert red["dropped"] == 0
