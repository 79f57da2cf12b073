"""Figure 4: control runs — equal priorities, no network management.

(a) idle network: latency low (~ms) and flat for both senders;
(b) with 16 Mbps cross traffic: "performance and predictability
degrade significantly.  Latency fluctuates widely between a few
milliseconds to over a second for both streams."
"""

from repro.experiments.scenario_registry import FIGURES, figure_specs

from _shared import publish, run_figure

NAME = "fig4_control_runs"


def test_fig4_control_runs(benchmark):
    idle, congested = benchmark.pedantic(
        lambda: run_figure(NAME, figure_specs()[NAME]), rounds=1, iterations=1)
    publish(NAME, FIGURES[NAME].render([idle, congested]))

    # (a): low, flat, symmetric.
    for name in ("sender1", "sender2"):
        assert idle.stats(name).mean < 0.02
        assert idle.stats(name).std < 0.01
    # (b): latency swings from milliseconds past a second.
    for name in ("sender1", "sender2"):
        stats = congested.stats(name)
        assert stats.minimum < 0.05
        assert stats.maximum > 1.0
        assert stats.std > 0.1
