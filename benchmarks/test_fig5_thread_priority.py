"""Figure 5: thread priorities alone (no network management).

(a) with competing CPU load: "the higher priority task (Sender 1)
exhibits significantly lower latency than the lower priority task";
(b) adding network congestion: "thread priorities are not sufficient
to maintain QoS.  The system becomes unpredictable even with RT-CORBA
priorities set."
"""

from repro.experiments.scenario_registry import FIGURES, figure_specs

from _shared import publish, run_figure

NAME = "fig5_thread_priority"


def test_fig5_thread_priority(benchmark):
    quiet, congested = benchmark.pedantic(
        lambda: run_figure(NAME, figure_specs()[NAME]), rounds=1, iterations=1)
    publish(NAME, FIGURES[NAME].render([quiet, congested]))
    # (a) thread priority protects the high-priority sender's send path.
    assert quiet.stats("sender1").mean * 3 < quiet.stats("sender2").mean
    # (b) but cannot fix the network: both unpredictable, with spikes.
    for name in ("sender1", "sender2"):
        assert congested.stats(name).maximum > 0.3
        assert congested.stats(name).std > 0.05
    # The high-priority sender no longer reliably wins (possible
    # priority inversion across the network bottleneck).
    assert congested.stats("sender1").maximum > 10 * quiet.stats(
        "sender1").maximum
