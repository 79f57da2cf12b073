"""Figure 12: declarative-QoS pub-sub fan-out gauntlet.

Seven arms publish the same K-writer x 8-topic workload through
``repro.pubsub`` while the subscriber population sweeps across the
fan-out bottleneck (128 fits; 1024 and 2048 are ~5x and ~10x
oversubscribed, with the bulk of the population carried as fluid
aggregates).  Headline separation:

* **best-effort** endpoints collapse past the knee — the fluid share
  squeezes the unreserved band and delivery craters;
* **reliable** (RELIABLE + KEEP_ALL) endpoints claim reserve budget at
  match time and stay exactly-once at every population, paying for it
  in deadline misses while retransmissions drain;
* **deadline-adaptive** readers ride missed-deadline events through a
  QuO contract down the 30 -> 10 -> 2 fps pacing ladder and keep a
  contracted floor that best effort cannot hold;
* **ownership** failover detects a crashed primary by liveliness-lease
  expiry and re-arbitrates to the strongest live backup within one
  lease period at nominal load;
* **durable** (TRANSIENT_LOCAL) writers replay their history caches to
  a late-joiner wave that registers mid-run, duplicate-free;
* **filtered** readers declare complementary content filters the
  writers evaluate before send — half the stream never hits the wire;
* **partition** runs the ownership workload through a broker-isolating
  link cut plus a primary crash: the readers' partition elects the
  strongest *reachable* writer and everything re-arbitrates on heal.
"""

from repro.experiments.reporting import group_sweeps
from repro.experiments.scenario_registry import FIGURES, figure_specs
from repro.pubsub.fig12 import (
    ADAPT_LADDER,
    LATE_JOIN_FRACTION,
    LEASE,
    MEASURED_PER_TOPIC,
    TOPIC_RATE_HZ,
    TOPICS,
)

from _shared import BENCH_ENTRIES, publish, run_figure

NAME = "fig12_pubsub"

MEASURED = TOPICS * MEASURED_PER_TOPIC
#: The contracted floor: the deepest ladder rung still delivers this.
FLOOR_FPS = TOPIC_RATE_HZ / ADAPT_LADDER[-1]


def test_fig12_pubsub(benchmark):
    payloads = benchmark.pedantic(
        lambda: run_figure(NAME, figure_specs()[NAME]), rounds=1, iterations=1)
    publish(NAME, FIGURES[NAME].render(payloads))
    sweeps = group_sweeps(payloads, "subscribers")

    def at(arm, subs):
        return next(r for r in sweeps[arm] if r.subscribers == subs)

    counts = sorted(r.subscribers for r in sweeps["reliable"])
    assert counts == [128, 1024, 2048]

    # Discovery formed the full measured mesh in every arm (the
    # ownership arms run a backup writer per topic, so double; the
    # durable arm's late-joiner wave adds one reader per topic).
    for subs in counts:
        for arm in ("best-effort", "reliable", "adaptive", "filtered"):
            assert at(arm, subs).matches_formed == MEASURED
        for arm in ("ownership", "partition"):
            assert at(arm, subs).matches_formed == 2 * MEASURED
        assert at("durable", subs).matches_formed == MEASURED + TOPICS

    # --- reliable: exactly-once at every population.  RELIABLE +
    # KEEP_ALL claimed reserve budget for all 16 matches, so delivery
    # survives both the loss burst and 10x oversubscription...
    for subs in counts:
        point = at("reliable", subs)
        assert point.grants == MEASURED
        assert point.exactly_once
        assert point.delivery_fraction >= 0.999
        # ...but not for free: retransmission latency shows up as
        # deadline misses that the best-effort arm never pays at the
        # uncontended bottom of the sweep.
        assert point.total_deadline_misses > 0
    # Best effort never reserves, and drops mean it is not exactly-once
    # even when capacity fits (the loss burst bites).
    assert at("best-effort", 128).grants == 0
    assert not at("best-effort", 128).exactly_once
    assert at("best-effort", 128).delivery_fraction >= 0.9

    # --- best effort collapses past the knee; some reader starves
    # entirely while reliable holds 100% at the same population.
    for subs in (1024, 2048):
        flooded = at("best-effort", subs)
        assert flooded.delivery_fraction < 0.25
        assert flooded.min_fps == 0.0
    assert (at("best-effort", 2048).delivery_fraction
            < at("best-effort", 1024).delivery_fraction + 1e-9)

    # --- deadline adaptation: missed-deadline events drive the QuO
    # contract down the pacing ladder; every reader keeps a usable
    # rate where best effort starves outright.
    clean = at("adaptive", 128)
    assert clean.total_deadline_misses == 0
    assert clean.exactly_once
    for subs in (1024, 2048):
        adapted = at("adaptive", subs)
        # The ladder engaged (region churn beyond the initial entry)...
        assert adapted.contract_transitions > MEASURED
        # ...and holds every measured reader above the contracted
        # floor, far above the best-effort arm's starved readers.
        assert adapted.min_fps >= FLOOR_FPS
        assert adapted.min_fps > 5 * max(at("best-effort", subs).min_fps,
                                         1.0)
        assert adapted.delivery_fraction >= 0.8
        assert adapted.mean_fps >= 3 * at("best-effort", subs).mean_fps

    # --- ownership failover: the node crash silences the primaries'
    # heartbeats, their leases expire, arbitration hands the topics to
    # the strongest live backups, and revival hands them back.
    for subs in counts:
        owner = at("ownership", subs)
        assert owner.liveliness_lost >= 1
        assert owner.liveliness_revived >= 1
        # Initial arbitration (one per topic) + failover + failback.
        assert owner.ownership_changes > TOPICS
        # EXCLUSIVE filtering: readers deliver one writer's stream even
        # though primary and backup both publish.
        assert owner.delivery_fraction < 0.6
        assert not owner.exactly_once  # backup samples are filtered
    # At nominal load the delivery hole is bounded by the lease: the
    # backup's stream is flowing within one lease of the crash.
    assert at("ownership", 128).failover_gap <= LEASE
    # Under 10x oversubscription congestion stretches detection but
    # failover still completes within two leases.
    for subs in (1024, 2048):
        assert at("ownership", subs).failover_gap <= 2 * LEASE

    # --- durability: the late-joiner wave registers at 45% of the run
    # and catches up from the writers' TRANSIENT_LOCAL caches.
    for subs in counts:
        point = at("durable", subs)
        assert point.grants == MEASURED + TOPICS  # late matches reserve too
        late = point.late_rows
        assert len(late) == TOPICS
        # Each late reader replays the full pre-join backlog...
        backlog = LATE_JOIN_FRACTION * point.duration * TOPIC_RATE_HZ
        assert all(row.replayed >= backlog - 3 for row in late)
        assert point.replays == sum(row.replayed for row in late)
        # ...and catch-up never double-delivers: replay + live traffic
        # stays duplicate-free at every population.
        assert all(row.duplicates == 0 for row in point.reader_rows)
    # At nominal load the catch-up completes inside the horizon: every
    # late reader received 100% of its in-depth history plus the live
    # stream, exactly once.
    nominal = at("durable", 128)
    assert nominal.exactly_once
    assert all(row.delivered == row.sent_to for row in nominal.late_rows)
    assert nominal.delivery_fraction >= 0.999

    # --- content filters: complementary seq%2 filters split each
    # topic between its two measured readers writer-side.  Rejected
    # samples never hit the wire, so each reader runs at half rate and
    # the (fault-free, reserved) arm stays exactly-once throughout.
    for subs in counts:
        point = at("filtered", subs)
        assert point.grants == MEASURED
        assert point.sends_filtered > 0
        assert point.exactly_once
        assert point.delivery_fraction >= 0.999
        assert abs(point.mean_fps - TOPIC_RATE_HZ / 2.0) <= 1.0
        assert point.min_fps >= TOPIC_RATE_HZ / 2.0 - 1.0

    # --- partition-aware ownership: cutting the broker's uplink used
    # to stall arbitration entirely; now the readers' partition elects
    # the strongest *reachable* writer when the primary's host crashes
    # inside the cut, and the heal re-arbitrates everything back.
    for subs in counts:
        point = at("partition", subs)
        # The partition elected owners without the broker's home view
        # (the crashed primaries' topics moved to reachable backups).
        assert point.partition_elections >= 2
        assert point.ownership_changes > TOPICS
        # The broker-side lease view lost (and revived) every writer
        # during the cut — heartbeats could not cross the partition.
        assert point.liveliness_lost >= 2 * TOPICS
        assert point.liveliness_revived >= 2 * TOPICS
        # EXCLUSIVE filtering still halves delivery (two writers per
        # topic publish; readers accept exactly one stream).
        assert point.delivery_fraction < 0.6
        # The stall fix's headline: no measured reader starves, and
        # re-arbitration completes within two leases of any handoff.
        assert point.min_fps > FLOOR_FPS
        assert point.failover_gap <= 2 * LEASE

    # The hybrid model's perf claim: 16x the population costs nowhere
    # near 16x the events (the tail is fluid, not packets).
    for arm in sweeps:
        assert (at(arm, 2048).events_executed
                < 4 * at(arm, 128).events_executed)
        assert at(arm, 2048).fluid_epochs >= 1

    # Wall-clock acceptance for the whole 12-point figure.
    entry = BENCH_ENTRIES["fig12_pubsub"]
    if not entry["cache_hits"]:
        assert entry["wall_seconds"] < 120.0
