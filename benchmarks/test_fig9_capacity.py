"""Figure 9: multi-stream capacity sweep behind admission control.

The capacity figure the paper lacks: N concurrent MPEG streams share
the section 5 topology across four arms (best-effort, per-stream
priority lanes, reserves + admission, reserves + admission + QuO
adaptation).  The headline shape: admission control holds every
admitted stream at contracted rate no matter how many streams arrive,
while without it per-stream QoS collapses past the knee; QuO
adaptation makes the rejected class shed load instead of drowning the
bottleneck.
"""

from repro.experiments.reporting import group_sweeps
from repro.experiments.scenario_registry import FIGURES, figure_specs
from repro.scale.capacity_exp import (
    RESERVE_BPS,
    UTILIZATION_BOUND,
    VIDEO_FPS,
)

from _shared import publish, run_figure

NAME = "fig9_capacity"

#: Streams the 10 Mb/s bottleneck can carry at the 0.9 RSVP bound.
SATURATION_ADMITTED = int(10e6 * UTILIZATION_BOUND / RESERVE_BPS)


def test_fig9_capacity(benchmark):
    payloads = benchmark.pedantic(
        lambda: run_figure(NAME, figure_specs()[NAME]), rounds=1, iterations=1)
    publish(NAME, FIGURES[NAME].render(payloads))
    sweeps = group_sweeps(payloads, "streams")

    def at(arm, streams):
        return next(r for r in sweeps[arm] if r.streams == streams)

    # Uncontended, every arm delivers the nominal 30 fps.
    for arm in sweeps:
        assert at(arm, 1).mean_fps() > 0.9 * VIDEO_FPS

    # Without admission the sweep collapses: at N=64 the best-effort
    # arm's per-stream rate is far below half nominal and nearly every
    # frame misses its deadline.
    flooded = at("best-effort", 64)
    assert flooded.mean_fps() < 0.5 * VIDEO_FPS
    assert flooded.mean_miss_rate() > 0.9

    # Priority lanes beat the background load at moderate N (where
    # best-effort has already degraded) but can't beat each other, so
    # the arm still collapses at saturation.
    assert at("priority", 8).mean_fps() > at("best-effort", 8).mean_fps()
    assert at("priority", 64).mean_fps() < 0.5 * VIDEO_FPS

    # The capacity claim: admission control admits exactly the streams
    # the bottleneck budget carries and holds every one of them at
    # >= 90% of contracted rate even at N=64.
    for arm in ("reserves", "adaptive"):
        peak = at(arm, 64)
        assert peak.admitted_count == SATURATION_ADMITTED
        assert peak.min_fps(True) >= 0.9 * VIDEO_FPS
        assert peak.mean_miss_rate(True) < 0.1
        # Below the admission knee everything is admitted.
        assert at(arm, 4).admitted_count == 4

    # QuO adaptation changes the rejected class's behaviour: the
    # qosket-governed streams shed to the rate that fits the leftover
    # capacity instead of blasting full rate into the full bottleneck.
    def rejected_sent(result):
        return sum(row.sent for row in result.class_rows(False))

    shed = at("adaptive", 16)
    blind = at("reserves", 16)
    assert rejected_sent(shed) < 0.5 * rejected_sent(blind)
    assert shed.total("filtered") > 0
    # Even at N=64, where the leftover capacity is spread across 58
    # streams, shedding never sends more than blind streaming.
    assert rejected_sent(at("adaptive", 64)) < rejected_sent(
        at("reserves", 64))
    blind = at("reserves", 64)

    # The admission books match the physics at saturation: the
    # bottleneck's committed bandwidth is within its RSVP budget.
    assert blind.bottleneck_committed_bps <= 10e6 * UTILIZATION_BOUND + 1e-6
    assert blind.bottleneck_committed_bps == (
        blind.admitted_count * RESERVE_BPS)
