"""Fig 10 at N=10^6: the stream count is a parameter, not a loop.

Bulk streams are count-weighted cohorts and admission is batched, so a
million offered streams cost what a hundred do: a handful of fluid
flows, the ~700 grants the pools hold, and O(1) for the rejected tail.
"""

import pytest

from repro.scale.capacity_exp import RESERVE_BPS, UTILIZATION_BOUND
from repro.scale.fig10 import (
    SCALE_BOTTLENECK_BPS,
    SCALE_TENANTS,
    run_scale_experiment,
    scale_arms,
)

MILLION = 1_000_000
#: Short enough to stay cheap, long enough for the measured cohort to
#: bind through a saturated bottleneck.
DURATION = 4.0
#: Admissions the four tenant pools hold at the fig 10 defaults.
SATURATED = (int(SCALE_BOTTLENECK_BPS * UTILIZATION_BOUND / SCALE_TENANTS
                 / RESERVE_BPS) * SCALE_TENANTS)


@pytest.mark.parametrize("arm", scale_arms(), ids=lambda arm: arm.name)
def test_million_streams_cost_what_a_hundred_do(arm):
    small = run_scale_experiment(arm, streams=100, duration=DURATION)
    large = run_scale_experiment(arm, streams=MILLION, duration=DURATION)
    assert large.streams == MILLION
    # Cohorts: the measured streams are packet load, the rest few flows.
    assert len(large.engine.flows()) <= 8
    if arm.admission:
        assert SATURATED == 692
        assert large.admitted_count == SATURATED
        assert large.requests_rejected == MILLION - SATURATED
    else:
        assert large.admitted_count == 0
        assert large.requests_rejected == 0
    classes = (large.admitted_stats, large.best_effort_stats)
    assert sum(stats.count for stats in classes if stats) == MILLION
    assert large.events_executed < 10 * small.events_executed
