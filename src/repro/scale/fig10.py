"""Fig 10: admission control at 10^2..10^5 streams via the hybrid model.

Fig 9 answers the paper's capacity question at N <= 64, the most the
per-packet simulation affords: every background packet costs an
enqueue, a dequeue and a transmit callback.  Fig 10 asks the same
question at "millions of users" scale by splitting the workload:

* a small **measured** cohort (a handful of admitted and rejected
  streams) stays fully packet-simulated — real MPEG sources, real
  fragmentation, real qdiscs, real RSVP reservations — so packet-level
  QoS metrics (latency distributions, per-frame deadline misses) come
  from the genuine mechanisms;
* the remaining tens of thousands of streams and the cross traffic
  become :class:`~repro.fluid.engine.FluidFlow` aggregates, costing one
  share recompute per rate-change epoch instead of millions of packet
  events, with byte/loss/latency ledgers integrated analytically.
  Each run of consecutive same-class streams is one cohort flow, and
  admission is batched, so N is a parameter rather than a loop.

The two halves are coupled through the bottleneck's hybrid service
model (fluid residual capacity + shared qdisc budget), and the hybrid
is validated against the pure packet-level run at N <= 64 by
``tests/scale/test_fig10_hybrid_validation.py`` with the error bounds
stated there.

Arms:

``best-effort``
    No admission: all N streams compete for the bottleneck.
``reserves``
    :class:`~repro.scale.admission.AdmissionController` with per-tenant
    reserve pools; admitted streams get reservations, rejected ones
    fall back to best effort.
``adaptive``
    Reserves plus adaptation: rejected streams shed toward the rate
    that fits (QuO qosket for measured streams, the fluid governor for
    aggregate ones).
``overload``
    Reserves under a skewed tenant storm: tenant 0 demands half the
    streams; its pool caps the damage and the other tenants' admission
    is unaffected — the isolation claim at scale.

CPU reserves are deliberately out of the picture (``thread=None``,
zero encode cost): fig 9 showed the encode-host utilization bound
saturating at ~10 streams, so carrying the CPU model to N=10^5 would
only measure that same wall.  Fig 10 isolates the *network* admission
axis; the access fabric is provisioned to keep the shared bottleneck
link the only contended resource.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Optional, Tuple

from repro.sim.coalesce import PeriodicTicker
from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.sim.quantize import repeat_add
from repro.sim.rng import RngRegistry
from repro.net.diffserv import Dscp
from repro.net.packet import HEADER_BYTES
from repro.avstreams.endpoints import FRAGMENT_BYTES
from repro.net.traffic import CbrTrafficSource
from repro.orb.core import Orb
from repro.orb.rt import DscpMapping
from repro.avstreams.service import StreamCtrl, StreamQoS
from repro.fluid.engine import FluidEngine
from repro.scale.admission import AdmissionController
from repro.scale.capacity_exp import (
    BAND_CAPACITY,
    BASE_CORBA_PRIORITY,
    DEADLINE,
    LANE_STEP,
    RESERVE_BPS,
    RESERVE_BUCKET_BYTES,
    StreamRow,
    UTILIZATION_BOUND,
    VIDEO_BITRATE_BPS,
    VIDEO_FPS,
    av_devices,
    farm_network,
    farm_stream,
    stream_row,
)
from repro.scale.farm import FarmStreamReceiver, FarmStreamSender

#: Nominal frame payload and its fragmentation (matches FlowProducer).
FRAME_BYTES = int(VIDEO_BITRATE_BPS / 8.0 / VIDEO_FPS)
_FRAGMENTS = -(-FRAME_BYTES // FRAGMENT_BYTES)  # ceil division
#: Actual on-wire rate of one nominal stream (payload + per-fragment
#: headers) — the rate a fluid flow must offer so the aggregate loads
#: the bottleneck exactly like its packet-simulated counterpart.
WIRE_RATE_BPS = (FRAME_BYTES + _FRAGMENTS * HEADER_BYTES) * 8.0 * VIDEO_FPS
#: Mean on-wire fragment size; converts the qdisc's packet-count band
#: budget into the byte backlog the fluid delay estimate uses.
MEAN_FRAGMENT_BYTES = (FRAME_BYTES + _FRAGMENTS * HEADER_BYTES) / _FRAGMENTS

#: Fig 10 sweep defaults: a 1 Gbps bottleneck (so admission holds
#: hundreds of reserves) swept to 10^5 offered streams.
SCALE_BOTTLENECK_BPS = 1e9
SCALE_CROSS_TRAFFIC_BPS = 100e6
SCALE_TENANTS = 4
#: Measured cohort size per class (admitted / best-effort).
MEASURED_PER_CLASS = 4


@dataclass(frozen=True, slots=True)
class ScaleArm:
    """One fig 10 arm: admission / adaptation / tenant-skew switches."""

    name: str
    admission: bool = False
    adaptation: bool = False
    overload: bool = False


def scale_arms() -> List[ScaleArm]:
    return [
        ScaleArm("best-effort"),
        ScaleArm("reserves", admission=True),
        ScaleArm("adaptive", admission=True, adaptation=True),
        ScaleArm("overload", admission=True, overload=True),
    ]


def fig10_stream_counts() -> List[int]:
    """The canonical N sweep: 10^2 .. 10^5 offered streams."""
    return [100, 1000, 10_000, 100_000]


#: Per-class aggregate over measured + fluid streams; plain data so
#: payload bytes are stable across workers.
ScaleClassStats = namedtuple("ScaleClassStats", [
    "count",          # streams in the class (measured + fluid)
    "measured",       # packet-simulated subset size
    "mean_fps",       # delivered frames / s, averaged over the class
    "min_fps",
    "loss_rate",      # lost / offered (bytes for fluid, frames measured)
    "miss_rate",      # 1 - on-time fraction of generated
    "mean_latency",   # class mean delivery latency (s)
    "p95_latency",    # p95 over measured deliveries (None if unmeasured)
])


def _tenant_batches(arm: ScaleArm, streams: int,
                    tenants: int) -> List[Tuple[int, Tuple[str, ...]]]:
    """(size, tenant cycle) of each admission batch, in stream order;
    a batch's ``k``-th stream belongs to ``cycle[k % len(cycle)]``."""
    if tenants <= 1:
        return [(streams, ("t0",))]
    if not arm.overload:
        return [(streams, tuple(f"t{j}" for j in range(tenants)))]
    # The storm: tenant 0 floods the first half of the offered load;
    # the rest cycles over the other tenants by stream index.
    storm = streams // 2
    others = tenants - 1
    return [(storm, ("t0",)),
            (streams - storm,
             tuple(f"t{1 + (storm + j) % others}" for j in range(others)))]


def _class_runs(streams: int, admitted: List[int],
                measured: List[int]) -> List[list]:
    """Maximal runs of same-class streams in index order, as
    ``[start, stop, admitted, measured]``; a measured stream is a run
    of its own.  Runs keep the per-stream order of every sum over the
    population, which is what makes cohorts exact."""
    admitted_set = set(admitted)
    measured_set = set(measured)
    cuts = sorted({0, streams}.union(
        *((i, i + 1) for i in admitted_set | measured_set)))
    runs: List[list] = []
    for start, stop in zip(cuts, cuts[1:]):
        flag = start in admitted_set
        if start in measured_set:
            runs.append([start, stop, flag, True])
        elif runs and not runs[-1][3] and runs[-1][2] == flag:
            runs[-1][1] = stop
        else:
            runs.append([start, stop, flag, False])
    return runs


class ScaleResult:
    """One (arm, N) fig 10 point; pickles without per-flow bulk."""

    def __init__(self, arm: ScaleArm, streams: int, duration: float,
                 deadline: float, fluid: bool, tenants: int) -> None:
        self.arm = arm
        self.streams = int(streams)
        self.duration = float(duration)
        self.deadline = float(deadline)
        self.fluid = bool(fluid)
        self.tenants = int(tenants)
        self.measure_start = 0.0
        #: Packet-simulated cohort, fig 9's row schema.
        self.measured_rows: List[StreamRow] = []
        #: Class aggregates over the *whole* population.
        self.admitted_stats: Optional[ScaleClassStats] = None
        self.best_effort_stats: Optional[ScaleClassStats] = None
        self.admitted_count = 0
        #: tenant -> (committed bps, pool bps or None).
        self.tenant_books: Dict[str, Tuple[float, Optional[float]]] = {}
        self.requests_rejected = 0
        self.events_executed = 0
        self.fluid_epochs = 0
        self.governor_transitions = 0
        self.clock_ticks = 0
        self.bottleneck_committed_bps = 0.0
        # Live actors, nulled before pickling.
        self.senders: Optional[List[FarmStreamSender]] = None
        self.receivers: Optional[List[FarmStreamReceiver]] = None
        self.engine: Optional[FluidEngine] = None

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state["senders"] = None
        state["receivers"] = None
        state["engine"] = None
        return state


def _percentile(values: List[float], fraction: float) -> Optional[float]:
    if not values:
        return None
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def run_scale_experiment(
    arm: ScaleArm,
    streams: int = 100,
    duration: float = 8.0,
    seed: int = 1,
    fluid: bool = True,
    bottleneck_bps: float = SCALE_BOTTLENECK_BPS,
    cross_traffic_bps: float = SCALE_CROSS_TRAFFIC_BPS,
    tenants: int = SCALE_TENANTS,
    measured_per_class: int = MEASURED_PER_CLASS,
    deadline: float = DEADLINE,
    checks=None,
) -> ScaleResult:
    """Run N offered streams through one arm, hybrid or pure packet.

    ``fluid=False`` packet-simulates every stream (the validation
    ground truth; only sensible at N <= a few hundred).  ``fluid=True``
    packet-simulates ``measured_per_class`` streams per class and
    models the rest as fluid aggregates.
    """
    if streams < 1:
        raise ValueError(f"need at least one stream, got {streams}")
    if measured_per_class < 1:
        raise ValueError("need at least one measured stream per class")
    kernel = Kernel()
    rng = RngRegistry(seed=seed)
    n = int(streams)
    tenants = max(1, tenants)
    interval = 1.0 / VIDEO_FPS

    # --- topology: like fig 9, but the access fabric is provisioned so
    # the shared bottleneck is the only contended resource at any N.
    net, hosts, bottleneck = farm_network(
        kernel, max(1e9, 2.0 * n * RESERVE_BPS),
        max(100e6, 2.0 * cross_traffic_bps), bottleneck_bps)

    # --- ORBs + A/V devices for the measured cohort -------------------
    orbs = {name: Orb(kernel, hosts[name], net) for name in ("src", "dst")}
    devices, refs = av_devices(kernel, orbs)

    # --- admission with per-tenant pools ------------------------------
    controller = AdmissionController.from_network(
        net, link_bound=UTILIZATION_BOUND)
    pool = bottleneck_bps * UTILIZATION_BOUND / tenants
    for j in range(tenants):
        controller.set_tenant_pool(f"t{j}", pool)

    admitted_idx: List[int] = []
    if arm.admission:
        first = 0
        for size, cycle in _tenant_batches(arm, n, tenants):
            admitted_idx += [first + i for i in controller.request_many(
                size, lambda i, first=first: f"s{first + i:05d}",
                src="src", dst="dst", rate_bps=RESERVE_BPS, tenants=cycle)]
            first += size

    # --- split the population: measured packet cohort vs fluid bulk ---
    if fluid:
        admitted_set = set(admitted_idx)
        rejected = (i for i in range(n) if i not in admitted_set)
        measured_idx = sorted(admitted_idx[:measured_per_class]
                              + list(islice(rejected, measured_per_class)))
    else:
        measured_idx = list(range(n))
    runs = _class_runs(n, admitted_idx, measured_idx)

    # --- fluid engine + cohort flows ----------------------------------
    engine: Optional[FluidEngine] = None
    if fluid:
        engine = FluidEngine(kernel, quantum=1e-3)
        fl_bott = engine.attach_interface(
            "router->dst", bottleneck.a,
            queue_bytes=BAND_CAPACITY * MEAN_FRAGMENT_BYTES)
        for start, stop, admitted, measured in runs:
            if measured:
                fl_bott.register_packet_load(WIRE_RATE_BPS,
                                             reserved=admitted)
                continue
            engine.add_flow(
                f"s{start:05d}", WIRE_RATE_BPS, [fl_bott],
                reserved=admitted, adaptive=arm.adaptation and not admitted,
                deadline=deadline, count=stop - start)
        if cross_traffic_bps > 0:
            engine.add_flow("cross", cross_traffic_bps, [fl_bott])
    elif cross_traffic_bps > 0:
        cross = CbrTrafficSource(kernel, net.nic_of("load"), "dst",
                                 cross_traffic_bps, dscp=Dscp.BE)
        cross.start()

    # --- bind the measured cohort, then start the shared clock --------
    result = ScaleResult(arm, n, duration, deadline, fluid, tenants)
    clock = PeriodicTicker(kernel, interval)
    ctrl = StreamCtrl(kernel, orbs["src"])
    dscp_mapping = DscpMapping()
    senders: List[FarmStreamSender] = []
    receivers: List[FarmStreamReceiver] = []
    measured_plan = [  # (name, corba, admitted)
        (f"s{i:05d}",
         BASE_CORBA_PRIORITY - (i % 1024) * (LANE_STEP // 5)
         if admitted else None,
         admitted)
        for i, _stop, admitted, measured in runs if measured]

    def driver():
        for name, corba, admitted in measured_plan:
            if admitted:
                dscp = dscp_mapping.to_dscp(corba)
                qos = StreamQoS(dscp=dscp, reserve_rate_bps=RESERVE_BPS,
                                bucket_bytes=RESERVE_BUCKET_BYTES,
                                mandatory=True)
            else:
                qos = StreamQoS(dscp=Dscp.BE)
            yield from ctrl.bind(name, refs["src"], refs["dst"], qos)
            sender, receiver = farm_stream(
                kernel, devices, clock, name, rng, deadline,
                arm.adaptation and not admitted)
            senders.append(sender)
            receivers.append(receiver)
        result.measure_start = kernel.now
        clock.start()

    if checks is not None:
        from repro.check.world import World
        checks.install(World(kernel, network=net,
                             hosts=list(hosts.values()),
                             admission=controller, fluid=engine))

    Process(kernel, driver(), name="scale-driver")
    kernel.run(until=duration)
    if engine is not None:
        engine.finalize()
    if checks is not None:
        checks.final_check()
    if len(senders) != len(measured_plan):
        raise RuntimeError(
            f"measured setup failed for arm {arm.name!r}: "
            f"{len(senders)}/{len(measured_plan)} streams bound")

    # --- capture: measured rows ---------------------------------------
    window = duration - result.measure_start
    for sender, receiver, (name, corba, admitted) in zip(
            senders, receivers, measured_plan):
        result.measured_rows.append(stream_row(name, admitted, corba, sender,
                                               receiver, window))

    # --- capture: per-class aggregates over the whole population ------
    # One term per measured stream and per cohort, in frames: (members,
    # fps, sent, lost, generated, on time, mean latency).
    # Sums run left to right, each term once per member (``sum`` would
    # compensate on 3.12+), so they match the per-stream loop exactly.
    frame_bytes = WIRE_RATE_BPS / 8.0 / VIDEO_FPS
    cohorts = [flow for flow in (engine.flows() if engine is not None
                                 else []) if flow.name != "cross"]
    for admitted in (True, False):
        rows = [row for row in result.measured_rows
                if row.admitted == admitted]
        terms = [(1, row.fps, row.sent, row.sent - row.delivered,
                  row.generated, row.on_time, row.mean_latency)
                 for row in rows]
        for flow in cohorts:
            if flow.reserved != admitted:
                continue
            active = flow.active_seconds or duration
            volumes = ((flow.offered_bytes, flow.lost_bytes,
                        flow.offered_bytes + flow.shed_bytes,
                        flow.served_on_time_bytes)
                       if flow.offered_bytes > 0 else (0.0,) * 4)
            terms.append((
                flow.count,
                flow.served_bytes / frame_bytes / active if active > 0
                else 0.0,
                *(volume / frame_bytes for volume in volumes),
                flow.mean_latency))
        stats = None
        if terms:
            count = sum(term[0] for term in terms)
            sums = [0.0] * 6
            for members, *values in terms:
                sums = [repeat_add(total, value, members)
                        for total, value in zip(sums, values)]
            fps, offered, lost, generated, on_time, latency = sums
            stats = ScaleClassStats(
                count=count,
                measured=len(rows),
                mean_fps=fps / count,
                min_fps=min(term[1] for term in terms),
                loss_rate=lost / offered if offered > 0 else 0.0,
                miss_rate=(1.0 - on_time / generated
                           if generated > 0 else 0.0),
                mean_latency=latency / count,
                p95_latency=_percentile(
                    [row.mean_latency for row in rows if row.delivered],
                    0.95),
            )
        if admitted:
            result.admitted_stats = stats
        else:
            result.best_effort_stats = stats

    result.admitted_count = len(admitted_idx)
    for j in range(tenants):
        tenant = f"t{j}"
        result.tenant_books[tenant] = (
            controller.tenant_committed(tenant),
            controller.tenant_pool(tenant))
    result.requests_rejected = controller.requests_rejected
    result.bottleneck_committed_bps = controller.link_committed(
        "router", "dst")
    result.events_executed = kernel.events_executed
    result.clock_ticks = clock.ticks
    if engine is not None:
        result.fluid_epochs = engine.epochs
        result.governor_transitions = engine.governor_transitions
        engine.close()
    result.senders = senders
    result.receivers = receivers
    result.engine = engine
    return result


# ----------------------------------------------------------------------
# Rendering (shared by the CLI and the fig10 benchmark)
# ----------------------------------------------------------------------
def render_fig10_scale(payloads: "List[ScaleResult]") -> str:
    """The fig 10 text figure: one table per arm + tenant isolation recap."""
    from repro.experiments.reporting import group_sweeps, render_table

    sweeps = group_sweeps(payloads, "streams")

    def fps(stats: Optional[ScaleClassStats]) -> str:
        return f"{stats.mean_fps:.2f}" if stats else "-"

    def pct(stats: Optional[ScaleClassStats], field: str) -> str:
        return f"{getattr(stats, field) * 100:.1f}%" if stats else "-"

    sections = []
    overload: Optional[ScaleResult] = None
    for arm_name, results in sweeps.items():
        rows = []
        for result in results:
            adm = result.admitted_stats
            be = result.best_effort_stats
            rows.append((
                result.streams,
                result.admitted_count,
                fps(adm),
                pct(adm, "miss_rate"),
                fps(be),
                pct(be, "loss_rate"),
                pct(be, "miss_rate"),
                result.fluid_epochs,
                result.events_executed,
            ))
            if arm_name == "overload":
                overload = result
        table = render_table(
            ("streams", "admitted", "adm fps", "adm miss",
             "b/e fps", "b/e loss", "b/e miss", "epochs", "events"),
            rows)
        sections.append(f"Fig 10 — hybrid scale sweep — {arm_name}\n{table}")

    if overload is not None:
        lines = [f"tenant isolation under overload (N={overload.streams}, "
                 f"tenant 0 floods {overload.streams // 2} streams):"]
        for tenant, (committed, pool) in sorted(overload.tenant_books.items()):
            cap = f"{pool / 1e6:.1f}" if pool is not None else "-"
            lines.append(
                f"  {tenant}: committed {committed / 1e6:>7.1f} / "
                f"{cap} Mbps pool")
        sections.append("\n".join(lines))
    return "\n\n".join(sections)
