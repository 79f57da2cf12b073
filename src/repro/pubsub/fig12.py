"""Fig 12: the pub-sub fan-out gauntlet.

Figs 9-11 stress point-to-point streams; fig 12 asks how *declarative*
per-endpoint QoS behaves when K publishers fan M topics out to
thousands of subscribers through one bottleneck.  The population is
split like fig 10: a measured cohort of packet-simulated
:class:`~repro.pubsub.core.DataReader` endpoints (two per topic, on
the subscriber host) keeps real transports, real deadline monitors and
real ownership arbitration in the loop, while the remaining
subscribers become per-topic :class:`~repro.fluid.engine.FluidFlow`
aggregates whose byte/loss ledgers give the population tail.

Arms (each a different QoS declaration, same topology):

``best-effort``
    BEST_EFFORT / KEEP_LAST(8).  A mid-run loss burst on the
    bottleneck plus the fan-out overload: samples are simply gone, and
    past the bottleneck's capacity the measured readers collapse.
``reliable``
    RELIABLE / KEEP_ALL endpoints: matches claim reserve budget from
    the admission controller (EF on the wire) and ride the stream
    transport's bounded-retransmit machinery.  The same loss burst is
    repaired by retransmission — every measured reader ends the run
    having seen every sample exactly once.
``adaptive``
    BEST_EFFORT plus a per-reader QuO pacing contract: sustained
    deadline misses step the reader's requested rate down a
    30 -> 10 -> 2 fps ladder (send divisors 1/3/15 applied at the
    *writer*, so shed samples never cross the wire); sustained on-time
    delivery steps back up.  Under overload the readers hold the
    contracted floor instead of collapsing.
``ownership``
    EXCLUSIVE ownership, two writers per topic (primary strength 10,
    backup strength 5, lease 0.6 s).  A node crash kills the strongest
    publisher host mid-run: heartbeats stop at the first hop, the
    lease expires, and the broker fails every affected topic over to
    its backup — measured by the largest delivery gap any reader saw.
``durable``
    RELIABLE endpoints that also declare TRANSIENT_LOCAL durability.
    A late-joiner wave (one extra reader per topic) registers mid-run
    and must receive the writer's entire in-cache history, replayed
    through the same reliable reserved path, duplicate-free — then
    ride live traffic seamlessly.
``filtered``
    RELIABLE endpoints where each reader declares a content filter
    (``seq % 2 == j``): the writer evaluates the filter before send,
    so rejected samples never cross the wire or consume reserve, and
    the *filtered* stream is still delivered exactly once.
``partition``
    The ownership topology plus a broker partition: the broker's
    uplink flaps mid-run while the strongest publisher host also
    crashes.  Readers cut off from the broker elect the strongest
    reachable writer inside their own partition (instead of freezing
    on the broker's last word) and re-arbitrate on heal.

The sweep scales total subscribers past the bottleneck's capacity, so
the arms separate exactly where fan-out outgrows provisioning.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.sim.kernel import Kernel
from repro.sim.rng import RngRegistry
from repro.oskernel.host import Host
from repro.net.packet import HEADER_BYTES
from repro.net.queues import GuaranteedRateQueue
from repro.net.topology import Network
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.fluid.engine import FluidEngine
from repro.quo.contract import Contract, Region
from repro.quo.syscond import ValueSC
from repro.scale.admission import AdmissionController
from repro.pubsub.broker import Broker, RESERVE_HEADROOM
from repro.pubsub.core import DataReader, DataWriter, Topic
from repro.pubsub.policies import (
    Durability,
    HistoryKind,
    OwnershipKind,
    QosPolicy,
    Reliability,
)

__all__ = [
    "PubSubArm", "pubsub_arms", "fig12_subscriber_counts", "ReaderRow",
    "PubSubResult", "run_pubsub_experiment", "render_fig12_pubsub",
    "expected_matches",
]

#: One sample's payload (single datagram, no fragmentation) and rate.
SAMPLE_BYTES = 1200
TOPIC_RATE_HZ = 30.0
#: On-wire rate of one writer->subscriber feed (payload + header).
WIRE_RATE_BPS = (SAMPLE_BYTES + HEADER_BYTES) * 8.0 * TOPIC_RATE_HZ

PUBLISHERS = 4
TOPICS = 8
MEASURED_PER_TOPIC = 2

ACCESS_BPS = 1e9
#: The fan-out bottleneck (router -> subscriber host).  The subscriber
#: sweep deliberately crosses this capacity.
FANOUT_BOTTLENECK_BPS = 60e6
UTILIZATION_BOUND = 0.9
BAND_CAPACITY = 200

#: Liveliness lease offered by every writer; heartbeats every lease/3.
LEASE = 0.6
#: Writers promise a sample every frame; readers tolerate three.
WRITER_DEADLINE = 1.0 / TOPIC_RATE_HZ
READER_DEADLINE = 3.0 / TOPIC_RATE_HZ
#: Latency budgets, additive along the match (0.02 + 0.03 = 0.05 s).
OFFERED_BUDGET = 0.02
REQUESTED_BUDGET = 0.03
#: KEEP_ALL resource bound: generous enough for a full run's samples.
KEEP_ALL_DEPTH = 4096
#: The 30 -> 10 -> 2 fps pacing ladder (send divisors).
ADAPT_LADDER = (1, 3, 15)
#: Publishers stop this long before the horizon so reliable
#: retransmissions drain and "delivered == sent" is exact.
DRAIN_GRACE = 0.5

OWNER_PRIMARY_STRENGTH = 10
OWNER_BACKUP_STRENGTH = 5

#: When the durable arm's late-joiner wave registers (fraction of the
#: run).  Early enough that replay + remaining live traffic drains
#: through the reserved band before the horizon, late enough that the
#: in-cache history is a real catch-up burst.
LATE_JOIN_FRACTION = 0.45
#: Late joiners per topic in the durable arm.
LATE_PER_TOPIC = 1


@dataclass(frozen=True, slots=True)
class PubSubArm:
    """One fig 12 arm: which QoS declaration the endpoints make."""

    name: str
    reliable: bool = False
    adaptive: bool = False
    ownership: bool = False
    faults: bool = False
    durable: bool = False
    filtered: bool = False
    partition: bool = False


def pubsub_arms() -> List[PubSubArm]:
    return [
        PubSubArm("best-effort", faults=True),
        PubSubArm("reliable", reliable=True, faults=True),
        PubSubArm("adaptive", adaptive=True),
        PubSubArm("ownership", ownership=True, faults=True),
        PubSubArm("durable", reliable=True, durable=True),
        PubSubArm("filtered", reliable=True, filtered=True),
        PubSubArm("partition", ownership=True, partition=True, faults=True),
    ]


def expected_matches(arm: PubSubArm) -> int:
    """Matches the broker must form for one run of ``arm``.

    Every measured reader matches every writer on its topic (two for
    the ownership arms); the durable arm's late-joiner wave adds one
    more reader per topic.
    """
    per_reader = 2 if arm.ownership else 1
    reader_count = TOPICS * MEASURED_PER_TOPIC
    if arm.durable:
        reader_count += TOPICS * LATE_PER_TOPIC
    return reader_count * per_reader


def fig12_subscriber_counts() -> List[int]:
    """Total subscribers swept across the bottleneck's capacity.

    128 fits at full rate; 1024 is ~5x oversubscribed (only the 2 fps
    pacing floor fits); 2048 is ~10x oversubscribed, the largest
    population whose contracted floor still fits the bottleneck — past
    it no declaration can hold the floor, so the sweep stops where the
    adaptive arm's promise is still physically meaningful.
    """
    return [128, 1024, 2048]


#: One measured reader's ledgers; plain data for stable payloads.
ReaderRow = namedtuple("ReaderRow", [
    "name",
    "topic",
    "writers",            # matched writer count
    "sent_to",            # samples writers pushed toward this reader
    "delivered",          # accepted exactly-once deliveries
    "duplicates",
    "filtered",           # dropped by EXCLUSIVE ownership arbitration
    "unmatched",          # arrived without an active match (must be 0)
    "deadline_misses",
    "budget_violations",
    "history_rejected",   # KEEP_ALL resource-bound refusals
    "fps",                # delivered / publish window
    "mean_latency",
    "max_gap",            # largest inter-arrival gap (failover probe)
    "divisor",            # final pacing divisor (1 unless adaptive)
    "replayed",           # durable samples replayed at match time
    "downsampled",        # dropped locally while pacing ahead of grant
    "stale",              # dropped below a writer's dedup trim floor
    "joined_at",          # registration time (0.0 for the initial cohort)
])


class PacingQosket:
    """Reader-side QuO contract driving the 30 -> 10 -> 2 fps ladder.

    The reader's deadline monitor feeds a pacing *level* system
    condition; the contract's regions (full / degraded / severe) apply
    the matching send divisor at the writer through the broker.  The
    level goes up after two consecutive paced misses and comes back
    down only after ``PATIENCE`` consecutive clean checks, so the
    ladder cannot flap — and "clean" is judged against the *paced*
    inter-arrival expectation, not the raw deadline, so a reader
    parked at 2 fps can still observe that congestion cleared.
    """

    MISS_STREAK = 2
    PATIENCE = 10
    #: Clean means an arrival within this many paced periods.
    PACE_SLACK = 2.5

    def __init__(self, kernel: Kernel, reader: DataReader) -> None:
        self.kernel = kernel
        self.reader = reader
        self.level = 0
        self._ok_streak = 0
        self._miss_streak = 0
        self.level_sc = ValueSC(kernel, f"{reader.name}.pace", initial=0.0)
        self.contract = Contract(kernel, f"pace:{reader.name}", regions=[
            Region("severe", lambda s: s[f"{reader.name}.pace"] >= 2,
                   on_enter=self._apply),
            Region("degraded", lambda s: s[f"{reader.name}.pace"] >= 1,
                   on_enter=self._apply),
            Region("full", on_enter=self._apply),
        ])
        self.contract.attach(self.level_sc)
        self.contract.evaluate()
        reader.on_deadline_check = self._on_check

    def _apply(self, contract: Contract) -> None:
        self.reader.request_divisor(ADAPT_LADDER[self.level])

    def _on_check(self, reader: DataReader, missed: bool) -> None:
        period = ADAPT_LADDER[self.level] / TOPIC_RATE_HZ
        threshold = max(reader.qos.deadline or 0.0, self.PACE_SLACK * period)
        stale = (reader.last_arrival is None
                 or self.kernel.now - reader.last_arrival > threshold)
        if stale:
            self._ok_streak = 0
            self._miss_streak += 1
            if self._miss_streak >= self.MISS_STREAK and self.level < 2:
                self.level += 1
                self._miss_streak = 0
                self.level_sc.set(float(self.level))
        else:
            self._miss_streak = 0
            self._ok_streak += 1
            if self._ok_streak >= self.PATIENCE and self.level > 0:
                self.level -= 1
                self._ok_streak = 0
                self.level_sc.set(float(self.level))


class PubSubResult:
    """One (arm, subscribers) fig 12 point; pickles without live actors."""

    def __init__(self, arm: PubSubArm, subscribers: int,
                 duration: float) -> None:
        self.arm = arm
        self.subscribers = int(subscribers)
        self.duration = float(duration)
        self.lease = LEASE
        self.topics = TOPICS
        self.publishers = PUBLISHERS
        self.reader_rows: List[ReaderRow] = []
        self.matches_formed = 0
        self.matches_rejected = 0
        self.ownership_changes = 0
        self.liveliness_lost = 0
        self.liveliness_revived = 0
        self.grants = 0
        self.grant_denials = 0
        self.heartbeats_sent = 0
        self.contract_transitions = 0
        #: Durable samples replayed to late joiners (broker total).
        self.replays = 0
        #: Sends skipped by reader content filters (writer total).
        self.sends_filtered = 0
        #: Owner elections decided for partitions without the broker.
        self.partition_elections = 0
        self.divisor_grants = 0
        #: Fluid tail: per-subscriber delivered fps and loss fraction.
        self.tail_count = 0
        self.tail_per_sub_fps = 0.0
        self.tail_loss_fraction = 0.0
        self.events_executed = 0
        self.fluid_epochs = 0
        # Live actors, nulled before pickling.
        self.broker: Optional[Broker] = None
        self.engine: Optional[FluidEngine] = None
        self.writers: Optional[List[DataWriter]] = None
        self.readers: Optional[List[DataReader]] = None
        self.qoskets: Optional[List[PacingQosket]] = None

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state["broker"] = None
        state["engine"] = None
        state["writers"] = None
        state["readers"] = None
        state["qoskets"] = None
        return state

    # -- derived views --------------------------------------------------
    @property
    def mean_fps(self) -> float:
        rows = self.reader_rows
        return sum(r.fps for r in rows) / len(rows) if rows else 0.0

    @property
    def min_fps(self) -> float:
        return min((r.fps for r in self.reader_rows), default=0.0)

    @property
    def delivery_fraction(self) -> float:
        """Accepted deliveries / samples pushed (ownership filtering
        and loss both lower it)."""
        sent = sum(r.sent_to for r in self.reader_rows)
        got = sum(r.delivered for r in self.reader_rows)
        return got / sent if sent else 0.0

    @property
    def exactly_once(self) -> bool:
        """Every measured reader saw every pushed sample exactly once."""
        return all(r.delivered == r.sent_to and r.duplicates == 0
                   for r in self.reader_rows)

    @property
    def failover_gap(self) -> float:
        """Largest delivery gap any measured reader observed."""
        return max((r.max_gap for r in self.reader_rows), default=0.0)

    @property
    def late_rows(self) -> List[ReaderRow]:
        """Rows for the durable arm's late-joiner wave."""
        return [r for r in self.reader_rows if r.joined_at > 0.0]

    @property
    def total_deadline_misses(self) -> int:
        return sum(r.deadline_misses for r in self.reader_rows)


def _arm_policies(arm: PubSubArm, strength: int = 0):
    """(writer QoS, reader QoS) for one arm."""
    reliability = (Reliability.RELIABLE if arm.reliable
                   else Reliability.BEST_EFFORT)
    history = HistoryKind.KEEP_ALL if arm.reliable else HistoryKind.KEEP_LAST
    depth = KEEP_ALL_DEPTH if arm.reliable else 8
    ownership = (OwnershipKind.EXCLUSIVE if arm.ownership
                 else OwnershipKind.SHARED)
    durability = (Durability.TRANSIENT_LOCAL if arm.durable
                  else Durability.VOLATILE)
    offered = QosPolicy(
        reliability=reliability, history=history, depth=depth,
        deadline=WRITER_DEADLINE, latency_budget=OFFERED_BUDGET,
        lease=LEASE, ownership=ownership, strength=strength,
        durability=durability)
    requested = QosPolicy(
        reliability=reliability, history=history, depth=depth,
        deadline=READER_DEADLINE, latency_budget=REQUESTED_BUDGET,
        lease=None, ownership=ownership, durability=durability)
    return offered, requested


def _fault_plan(arm: PubSubArm, duration: float) -> List[Dict]:
    if not arm.faults:
        return []
    if arm.partition:
        # Cut the broker's uplink (partitioning control from data),
        # then crash the strongest publisher host *inside* the window:
        # the readers' partition must elect the reachable backups on
        # its own, and everything re-arbitrates after the heal.
        return [
            {"kind": "link_flap", "link": ["brk", "router"],
             "at": 0.40 * duration, "duration": 0.25 * duration},
            {"kind": "node_crash", "node": "pub0",
             "at": 0.45 * duration, "duration": 0.25 * duration},
        ]
    if arm.ownership:
        # Kill the strongest publisher host mid-run; restore later so
        # the lease-revival (and ownership preemption) path runs too.
        return [{"kind": "node_crash", "node": "pub0",
                 "at": 0.55 * duration, "duration": 0.25 * duration}]
    # Correlated loss on the fan-out bottleneck: best-effort samples
    # are gone, reliable ones come back via retransmission.
    return [{"kind": "loss_burst", "link": ["router", "sub"],
             "at": 0.3 * duration, "duration": 1.0, "loss": 0.35}]


def run_pubsub_experiment(
    arm: PubSubArm,
    subscribers: int = 1024,
    duration: float = 8.0,
    seed: int = 1,
    bottleneck_bps: float = FANOUT_BOTTLENECK_BPS,
    fault_plan: Optional[List[Dict[str, Any]]] = None,
    checks=None,
) -> PubSubResult:
    """Run one fig 12 arm at one total-subscriber count.

    ``fault_plan`` overrides the arm's canonical plan (the soak
    harness injects random faults this way); pass ``[]`` for a
    fault-free run of a faulted arm.
    """
    measured_total = TOPICS * MEASURED_PER_TOPIC
    if subscribers < measured_total:
        raise ValueError(
            f"need at least {measured_total} subscribers, got {subscribers}")
    kernel = Kernel()
    rng = RngRegistry(seed=seed)
    interval = 1.0 / TOPIC_RATE_HZ

    # --- topology: K publisher hosts + broker + subscriber host around
    # one router; the router->sub link is the fan-out bottleneck.
    net = Network(kernel, default_bandwidth_bps=ACCESS_BPS)
    host_names = [f"pub{i}" for i in range(PUBLISHERS)] + ["brk", "sub"]
    hosts = {name: Host(kernel, name) for name in host_names}
    for host in hosts.values():
        net.attach_host(host)
    router = net.add_router("router")

    def q(name: str) -> GuaranteedRateQueue:
        return GuaranteedRateQueue(kernel, band_capacity=BAND_CAPACITY,
                                   name=name)

    for name in host_names[:-1]:
        net.link(name, router, bandwidth_bps=ACCESS_BPS,
                 qdisc_a=q(f"{name}-out"), qdisc_b=q(f"rtr-to-{name}"))
    bottleneck = net.link(router, "sub", bandwidth_bps=bottleneck_bps,
                          qdisc_a=q("bottleneck"), qdisc_b=q("sub-out"))
    net.compute_routes()
    net.enable_intserv(utilization_bound=UTILIZATION_BOUND)

    controller = AdmissionController.from_network(
        net, link_bound=UTILIZATION_BOUND)
    broker = Broker(kernel, nic=net.nic_of("brk"), admission=controller,
                    network=net)

    # --- endpoints: topic t_i published from pub{i%K}; ownership arm
    # adds a weaker backup writer on the next host over.
    topics = [Topic(f"t{i}", SAMPLE_BYTES, TOPIC_RATE_HZ)
              for i in range(TOPICS)]
    writers: List[DataWriter] = []
    for i, topic in enumerate(topics):
        offered, _ = _arm_policies(arm, strength=OWNER_PRIMARY_STRENGTH)
        writer = DataWriter(kernel, topic, offered, f"w{i}.p",
                            nic=net.nic_of(f"pub{i % PUBLISHERS}"))
        broker.register_writer(writer)
        writers.append(writer)
        if arm.ownership:
            offered_b, _ = _arm_policies(
                arm, strength=OWNER_BACKUP_STRENGTH)
            backup = DataWriter(
                kernel, topic, offered_b, f"w{i}.b",
                nic=net.nic_of(f"pub{(i + 1) % PUBLISHERS}"))
            broker.register_writer(backup)
            writers.append(backup)

    readers: List[DataReader] = []
    qoskets: List[PacingQosket] = []
    joined_at: Dict[str, float] = {}
    for i, topic in enumerate(topics):
        for j in range(MEASURED_PER_TOPIC):
            _, requested = _arm_policies(arm)
            # Content filters split each topic's seq stream between
            # its two measured readers (writer-side evaluation).
            filter_expr = f"seq % 2 == {j % 2}" if arm.filtered else None
            reader = DataReader(kernel, topic, requested, f"r{i}.{j}",
                                nic=net.nic_of("sub"),
                                filter_expr=filter_expr)
            if arm.adaptive:
                qoskets.append(PacingQosket(kernel, reader))
            broker.register_reader(reader)
            readers.append(reader)

    # --- durable arm: a late-joiner wave registers mid-run and must
    # catch up from the writers' TRANSIENT_LOCAL caches.  (The wave is
    # deliberately absent from the fluid mirror below: its reserved
    # rate is a small constant on top of an already-booked band.)
    late_join_time = LATE_JOIN_FRACTION * duration

    def join_late() -> None:
        for i, topic in enumerate(topics):
            for j in range(LATE_PER_TOPIC):
                _, requested = _arm_policies(arm)
                reader = DataReader(kernel, topic, requested,
                                    f"r{i}.late{j}", nic=net.nic_of("sub"))
                joined_at[reader.name] = kernel.now
                broker.register_reader(reader)
                readers.append(reader)

    if arm.durable:
        kernel.schedule(late_join_time, join_late)

    # --- fluid tail: the remaining subscribers as per-topic aggregates
    engine = FluidEngine(kernel, quantum=1e-3)
    fl_bott = engine.attach_interface(
        "router->sub", bottleneck.a,
        queue_bytes=BAND_CAPACITY * (SAMPLE_BYTES + HEADER_BYTES))
    for reader in readers:
        for match in reader.matched.values():
            # Reserved matches booked headroom above nominal (retransmit
            # slack); mirror the same rate into the fluid share math.
            rate = (RESERVE_HEADROOM * WIRE_RATE_BPS if match.reserved
                    else WIRE_RATE_BPS)
            fl_bott.register_packet_load(rate, reserved=match.reserved)
    tail_total = subscribers - measured_total
    tail_counts = [tail_total // TOPICS] * TOPICS
    for i in range(tail_total % TOPICS):
        tail_counts[i] += 1
    # The tail adapts whenever the arm does; the ownership arm's tail
    # also adapts so the failover gap probes arbitration, not queueing.
    tail_adaptive = arm.adaptive or arm.ownership
    for topic, count in zip(topics, tail_counts):
        if count <= 0:
            continue
        engine.add_flow(f"tail:{topic.name}", count * WIRE_RATE_BPS,
                        [fl_bott], adaptive=tail_adaptive,
                        deadline=READER_DEADLINE)

    # --- faults -------------------------------------------------------
    plan = (fault_plan if fault_plan is not None
            else _fault_plan(arm, duration))
    if plan:
        injector = FaultInjector(kernel, network=net,
                                 rng=rng.stream("fault-injector"))
        injector.install(FaultPlan.from_dicts(plan))

    # --- publish loops: staggered rearm timers, stopped DRAIN_GRACE
    # before the horizon so in-flight retransmissions drain.
    publish_until = duration - DRAIN_GRACE

    def make_publisher(writer: DataWriter):
        def tick() -> None:
            if kernel.now > publish_until:
                return
            writer.write(writer.seq)
            kernel.schedule(interval, tick)
        return tick

    for k, writer in enumerate(writers):
        kernel.schedule(k * interval / max(1, len(writers)),
                        make_publisher(writer))

    def stop_monitors() -> None:
        # Publishing is over: freeze the deadline monitors (and with
        # them the pacing ladders) so the drain window cannot register
        # spurious misses.
        for reader in readers:
            reader.stop_deadline_monitor()

    kernel.schedule(publish_until, stop_monitors)

    if checks is not None:
        from repro.check.world import World
        checks.install(World(
            kernel, network=net, hosts=list(hosts.values()),
            contracts=[qk.contract for qk in qoskets],
            admission=controller, fluid=engine, pubsub=broker))

    kernel.run(until=duration)
    engine.finalize()
    if checks is not None:
        checks.final_check()

    # --- capture ------------------------------------------------------
    result = PubSubResult(arm, subscribers, duration)
    window = publish_until
    for reader in readers:
        divisor = max((m.divisor for m in reader.matched.values()),
                      default=1)
        result.reader_rows.append(ReaderRow(
            name=reader.name,
            topic=reader.topic.name,
            writers=len(reader.matched),
            sent_to=sum(m.sent for m in reader.matched.values()),
            delivered=reader.delivered,
            duplicates=reader.duplicates,
            filtered=reader.ownership_filtered,
            unmatched=reader.from_unmatched,
            deadline_misses=reader.deadline_misses,
            budget_violations=reader.budget_violations,
            history_rejected=reader.history.rejected,
            fps=reader.delivered / window if window > 0 else 0.0,
            mean_latency=reader.mean_latency,
            max_gap=reader.max_gap,
            divisor=divisor,
            replayed=sum(m.replayed for m in reader.matched.values()),
            downsampled=reader.downsampled,
            stale=reader.stale_drops,
            joined_at=joined_at.get(reader.name, 0.0),
        ))
    result.matches_formed = broker.matches_formed
    result.matches_rejected = broker.matches_rejected
    result.ownership_changes = broker.ownership_changes
    result.replays = broker.replays
    result.partition_elections = broker.partition_elections
    result.divisor_grants = broker.divisor_grants
    result.sends_filtered = sum(w.sends_filtered for w in writers)
    for monitor in broker.monitors.values():
        result.liveliness_lost += monitor.lost_count
        result.liveliness_revived += sum(
            1 for kind, _ in monitor.transitions if kind == "revived")
    result.grants = broker.grants
    result.grant_denials = broker.grant_denials
    result.heartbeats_sent = sum(w.heartbeats_sent for w in writers)
    result.contract_transitions = sum(
        len(qk.contract.transitions) for qk in qoskets)

    wire_sample_bytes = WIRE_RATE_BPS / 8.0 / TOPIC_RATE_HZ
    result.tail_count = tail_total
    offered = served = lost = 0.0
    for flow in engine.flows():
        offered += flow.offered_bytes
        served += flow.served_bytes
        lost += flow.lost_bytes
    if tail_total > 0 and duration > 0:
        result.tail_per_sub_fps = (
            served / wire_sample_bytes / duration / tail_total)
    result.tail_loss_fraction = lost / offered if offered > 0 else 0.0
    result.events_executed = kernel.events_executed
    result.fluid_epochs = engine.epochs
    engine.close()
    broker.close()
    result.broker = broker
    result.engine = engine
    result.writers = writers
    result.readers = readers
    result.qoskets = qoskets
    return result


# ----------------------------------------------------------------------
# Rendering (shared by the CLI and the fig12 benchmark)
# ----------------------------------------------------------------------
def render_fig12_pubsub(payloads: "List[PubSubResult]") -> str:
    """One table per arm over the subscriber sweep + failover recap."""
    from repro.experiments.reporting import group_sweeps, render_table

    sweeps = group_sweeps(payloads, "subscribers")

    sections = []
    ownership_results: List[PubSubResult] = []
    durable_results: List[PubSubResult] = []
    filtered_results: List[PubSubResult] = []
    partition_results: List[PubSubResult] = []
    for arm_name, results in sweeps.items():
        rows = []
        for result in results:
            rows.append((
                result.subscribers,
                result.matches_formed,
                f"{result.mean_fps:.2f}",
                f"{result.min_fps:.2f}",
                f"{result.delivery_fraction * 100:.1f}%",
                result.total_deadline_misses,
                "yes" if result.exactly_once else "no",
                f"{result.tail_per_sub_fps:.2f}",
                f"{result.tail_loss_fraction * 100:.1f}%",
                f"{result.failover_gap:.3f}",
                result.events_executed,
            ))
            if arm_name == "ownership":
                ownership_results.append(result)
            elif arm_name == "durable":
                durable_results.append(result)
            elif arm_name == "filtered":
                filtered_results.append(result)
            elif arm_name == "partition":
                partition_results.append(result)
        table = render_table(
            ("subs", "matches", "fps", "min fps", "delivery",
             "misses", "1x", "tail fps", "tail loss", "max gap", "events"),
            rows)
        sections.append(f"Fig 12 — pub-sub fan-out gauntlet — {arm_name}\n"
                        f"{table}")

    if ownership_results:
        lines = ["ownership failover (lease "
                 f"{ownership_results[0].lease:g} s; gap = largest "
                 "delivery hole at any measured reader):"]
        for result in ownership_results:
            lines.append(
                f"  subs={result.subscribers:>5}: "
                f"lost={result.liveliness_lost} "
                f"revived={result.liveliness_revived} "
                f"handoffs={result.ownership_changes} "
                f"gap={result.failover_gap:.3f} s")
        sections.append("\n".join(lines))

    if durable_results:
        lines = ["durable late-joiner catch-up (TRANSIENT_LOCAL replay "
                 "from the writer history cache at match time):"]
        for result in durable_results:
            late = result.late_rows
            replayed = sum(r.replayed for r in late)
            dup = sum(r.duplicates for r in late)
            complete = all(r.delivered == r.sent_to for r in late)
            lines.append(
                f"  subs={result.subscribers:>5}: "
                f"late_readers={len(late)} "
                f"replayed={replayed} duplicates={dup} "
                f"complete={'yes' if complete else 'no'}")
        sections.append("\n".join(lines))

    if filtered_results:
        lines = ["content filters (seq % 2 == j, evaluated writer-side; "
                 "filtered samples never cross the wire):"]
        for result in filtered_results:
            lines.append(
                f"  subs={result.subscribers:>5}: "
                f"sends_filtered={result.sends_filtered} "
                f"mean_fps={result.mean_fps:.2f} "
                f"1x={'yes' if result.exactly_once else 'no'}")
        sections.append("\n".join(lines))

    if partition_results:
        lines = ["partition/heal cycle (broker uplink flap + primary "
                 "crash; readers elect reachable writers per partition):"]
        for result in partition_results:
            lines.append(
                f"  subs={result.subscribers:>5}: "
                f"elections={result.partition_elections} "
                f"handoffs={result.ownership_changes} "
                f"lost={result.liveliness_lost} "
                f"revived={result.liveliness_revived} "
                f"gap={result.failover_gap:.3f} s")
        sections.append("\n".join(lines))
    return "\n\n".join(sections)
