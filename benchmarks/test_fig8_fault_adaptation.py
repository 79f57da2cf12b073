"""Figure 8: frame delivery through injected faults, with and without
adaptation.

The new chaos figure: the section 5.2 video pipeline runs through the
canonical fault gauntlet (a long bandwidth collapse, a link flap, a
correlated loss burst, and a router crash-and-restart) twice — once
unmanaged, once with the QuO frame-filtering contract listening to a
``FaultReporterSC``.  The unmanaged 30 fps stream swamps the degraded
bottleneck and loses almost everything it sends; the adaptive arm
sheds to the I-frames that fit the surviving capacity and keeps them
arriving.  After the last fault clears, both arms return to full
rate — "operating through" failures, not just congestion.
"""

from repro.experiments.scenario_registry import FIGURES, figure_specs

from _shared import publish, run_figure

NAME = "fig8_fault_adaptation"


def test_fig8_fault_adaptation(benchmark):
    static, adaptive = benchmark.pedantic(
        lambda: run_figure(NAME, figure_specs()[NAME]), rounds=1, iterations=1)
    publish(NAME, FIGURES[NAME].render([static, adaptive]))

    # Unmanaged, the stream keeps blasting 30 fps into the faults and
    # almost every frame loses at least one fragment.
    assert static.sent_in_fault_windows() > 2000
    loss = 1 - (static.delivered_in_fault_windows()
                / static.sent_in_fault_windows())
    assert loss > 0.9
    # The contract sheds load instead: far fewer frames sent, and the
    # overwhelming majority of them arrive.
    assert (adaptive.delivered_in_fault_windows()
            >= 0.8 * adaptive.sent_in_fault_windows())
    # The headline: adaptation delivers measurably more frames through
    # the same faults than blind full-rate streaming.
    assert (adaptive.delivered_in_fault_windows()
            > 1.3 * static.delivered_in_fault_windows())
    # During the long bandwidth collapse the shed stream fits the
    # surviving capacity almost perfectly.
    degrade = adaptive.per_window_counts()[0]
    assert degrade[0].startswith("link_degrade")
    assert degrade[4] >= 0.95 * degrade[3]
    # Only the adaptive arm wires a reporter; it saw every windowed
    # fault in the gauntlet.
    assert adaptive.faults_reported == 4
    assert static.faults_reported == 0
    # After the last fault clears, both arms are back at full rate.
    assert static.recovery_rate_fps(10.0) > 27.0
    assert adaptive.recovery_rate_fps(10.0) > 27.0
