"""Table 2: summary of CPU reservation experimental results.

Kirsch/Prewitt/Sobel per-image processing times on the ATR server:
no load, with competing CPU load (times inflate — the paper measured
+41 % / +13 % / +30 % — and variance grows), and with the load plus a
resource-kernel CPU reserve (times and variance restored to baseline).
"""

from repro.experiments.scenario_registry import FIGURES, figure_specs

from _shared import publish, run_figure

NAME = "table2_cpu_reservation"


def test_table2_cpu_reservation(benchmark):
    baseline, loaded, reserved = benchmark.pedantic(
        lambda: run_figure(NAME, figure_specs()[NAME]), rounds=1, iterations=1)
    publish(NAME, FIGURES[NAME].render([baseline, loaded, reserved]))

    for algorithm in ("Kirsch", "Prewitt", "Sobel"):
        base = baseline.stats(algorithm)
        under = loaded.stats(algorithm)
        restored = reserved.stats(algorithm)
        # "Under load, the execution time ... increased significantly"
        assert under.mean > base.mean * 1.10
        # "the execution times ... varied more than when there was no
        # load, as illustrated by the higher standard deviations"
        assert under.std > base.std + 0.005
        # "Adding a CPU reservation reduced the execution time under
        # load to values that are comparable to those exhibited with
        # no load", with much smaller variability.
        assert abs(restored.mean - base.mean) / base.mean < 0.10
        assert restored.std < under.std / 3
