"""Fig 9: multi-stream capacity sweep behind reserve-based admission.

The paper's evaluation protects *one* video stream; its claim — that
priorities, reservations and QuO adaptation compose to protect QoS
under contention — is only stressed when many streams compete for the
same CPU and links.  This experiment stands up N concurrent MPEG
sender/receiver pairs on the section 5 topology and sweeps N across
four arms:

``best-effort``
    No mechanisms: every stream is DSCP BE at the bottom native thread
    priority, competing with cross traffic and a CPU load generator.
``priority``
    Per-stream RT-CORBA priority lanes: each stream gets its own CORBA
    priority, mapped to a native encode-thread priority and a DiffServ
    codepoint (section 5.1's mechanisms).  Streams beat the background
    load but not each other, so the arm still collapses once aggregate
    demand crosses the bottleneck.
``reserves``
    Priority lanes plus an :class:`~repro.scale.admission.AdmissionController`:
    each stream asks for a CPU reserve (utilization-bound test, then a
    HARD reserve from :class:`~repro.oskernel.reserve.ReserveManager`)
    and an RSVP reservation (link-budget test, then a mandatory
    reservation through :mod:`repro.net.intserv`).  Rejected streams
    fall back to best-effort.
``adaptive``
    Reserves plus QuO: every rejected stream runs a
    :class:`~repro.core.adaptation.FrameFilteringQosket`, shedding to
    the frame rate that fits the leftover capacity instead of drowning
    the bottleneck.

Delivered fps and deadline-miss rate per stream class make the fig 9
capacity curve: admission holds admitted-stream QoS flat while the
best-effort arms collapse.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.sim.coalesce import PeriodicTicker
from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.oskernel.host import Host
from repro.oskernel.loadgen import CpuLoadGenerator
from repro.oskernel.reserve import EnforcementPolicy
from repro.net.diffserv import Dscp
from repro.net.queues import GuaranteedRateQueue
from repro.net.topology import Network
from repro.net.traffic import CbrTrafficSource
from repro.orb.core import Orb
from repro.orb.rt import DscpMapping, LinearPriorityMapping
from repro.media.filtering import FrameFilter
from repro.media.mpeg import MpegStream
from repro.avstreams.service import MMDeviceServant, StreamCtrl, StreamQoS
from repro.core.adaptation import FrameFilteringQosket
from repro.scale.admission import AdmissionController
from repro.scale.farm import FarmStreamReceiver, FarmStreamSender, stream_rng

#: Nominal per-stream video parameters (the paper's 1.2 Mbps / 30 fps).
VIDEO_BITRATE_BPS = 1.2e6
VIDEO_FPS = 30.0
#: Reservation per admitted stream: nominal rate plus fragmentation
#: overhead and jitter headroom (matches the section 5.2 full arm).
RESERVE_BPS = 1.3e6
RESERVE_BUCKET_BYTES = 40_000
#: CPU-seconds to encode one frame on the sender host.
ENCODE_COST = 0.002
#: Reserve headroom over the raw encode cost (C = cost * headroom).
ENCODE_RESERVE_HEADROOM = 1.5
#: Topology: fast access links into one 10 Mbps bottleneck.
ACCESS_BPS = 1e9
LOAD_LINK_BPS = 100e6
BOTTLENECK_BPS = 10e6
#: Background contention on the shared path and the shared sender CPU.
CROSS_TRAFFIC_BPS = 4e6
CPU_LOAD_DUTY = 0.35
CPU_LOAD_PRIORITY = 50
UTILIZATION_BOUND = 0.9
#: Every farm qdisc's per-band budget (packets).
BAND_CAPACITY = 200
#: A frame delivered later than this after generation missed its deadline.
DEADLINE = 0.25
#: Per-stream RT-CORBA lanes step down from here (all land in the EF
#: band of the default DSCP mapping; earlier streams get the stronger
#: native priority).
BASE_CORBA_PRIORITY = 32000
LANE_STEP = 25


@dataclass(frozen=True, slots=True)
class CapacityArm:
    """One fig 9 arm: which mechanisms the farm turns on."""

    name: str
    priorities: bool = False
    admission: bool = False
    adaptation: bool = False


def all_arms() -> List[CapacityArm]:
    return [
        CapacityArm("best-effort"),
        CapacityArm("priority", priorities=True),
        CapacityArm("reserves", priorities=True, admission=True),
        CapacityArm("adaptive", priorities=True, admission=True,
                    adaptation=True),
    ]


def fig9_stream_counts() -> List[int]:
    """The canonical N sweep: 1..64 streams, geometric."""
    return [1, 2, 4, 8, 16, 32, 64]


#: Per-stream outcome row; plain data so payload bytes are stable.
StreamRow = namedtuple("StreamRow", [
    "name",            # stream id
    "admitted",        # bool: holds a CPU reserve + RSVP reservation
    "corba_priority",  # int lane, or None in the best-effort arm
    "generated",       # frames produced by the MPEG model
    "filtered",        # frames shed by the QuO contract
    "skipped",         # frames dropped at the drowning encoder
    "sent",            # frames that actually left the producer
    "delivered",       # frames fully reassembled at the receiver
    "on_time",         # delivered within the deadline
    "fps",             # delivered / measurement window
    "miss_rate",       # 1 - on_time / generated
    "mean_latency",    # mean delivery latency (s), 0.0 if none arrived
])


def farm_network(kernel: Kernel, access_bps: float, load_bps: float,
                 bottleneck_bps: float):
    """The farm topology, src/load -- router -- dst, with IntServ on:
    (network, hosts by name, the router -> dst bottleneck link)."""
    net = Network(kernel, default_bandwidth_bps=access_bps)
    hosts = {name: Host(kernel, name) for name in ("src", "dst", "load")}
    for host in hosts.values():
        net.attach_host(host)
    router = net.add_router("router")

    def q(name: str) -> GuaranteedRateQueue:
        return GuaranteedRateQueue(kernel, band_capacity=BAND_CAPACITY,
                                   name=name)

    net.link("src", router, bandwidth_bps=access_bps,
             qdisc_a=q("src-out"), qdisc_b=q("rtr-to-src"))
    net.link("load", router, bandwidth_bps=load_bps,
             qdisc_a=q("load-out"), qdisc_b=q("rtr-to-load"))
    bottleneck = net.link(router, "dst", bandwidth_bps=bottleneck_bps,
                          qdisc_a=q("bottleneck"), qdisc_b=q("dst-out"))
    net.compute_routes()
    net.enable_intserv(utilization_bound=UTILIZATION_BOUND)
    return net, hosts, bottleneck


def av_devices(kernel: Kernel, orbs: Dict[str, Orb]):
    """Activate an A/V device on every ORB: (devices, refs) by host."""
    devices = {}
    refs = {}
    for name, orb in orbs.items():
        devices[name] = MMDeviceServant(kernel, orb)
        refs[name] = orb.create_poa("av").activate_object(
            devices[name], oid="mmdevice")
    return devices, refs


def farm_stream(kernel: Kernel, devices, clock: PeriodicTicker, name: str,
                rng: RngRegistry, deadline: float, adaptive: bool,
                thread=None, encode_cost: float = 0.0):
    """Start the sender/receiver pair of one bound stream on ``clock``;
    an adaptive stream sheds through a frame-filtering qosket."""
    producer = devices["src"].producer(name)
    consumer = devices["dst"].consumer(name)
    stream = MpegStream(name, bitrate_bps=VIDEO_BITRATE_BPS,
                        fps=VIDEO_FPS, rng=stream_rng(rng, name))
    frame_filter = None
    qosket = None
    if adaptive:
        frame_filter = FrameFilter()
        qosket = FrameFilteringQosket(
            kernel, frame_filter, name=f"qosket:{name}",
            degrade_threshold=0.05)
    sender = FarmStreamSender(
        kernel, producer, stream, thread=thread, encode_cost=encode_cost,
        frame_filter=frame_filter, qosket=qosket)
    receiver = FarmStreamReceiver(kernel, consumer, sender, deadline)
    clock.subscribe(sender.on_tick)
    sender.start()
    return sender, receiver


def stream_row(name: str, admitted: bool, corba: Optional[int],
               sender: FarmStreamSender, receiver: FarmStreamReceiver,
               window: float) -> StreamRow:
    """Stop one farm stream and report it as a row."""
    sender.stop()
    delivered = receiver.frames_delivered
    generated = sender.frames_generated
    return StreamRow(
        name=name,
        admitted=admitted,
        corba_priority=corba,
        generated=generated,
        filtered=sender.frames_filtered,
        skipped=sender.frames_skipped,
        sent=sender.frames_sent,
        delivered=delivered,
        on_time=receiver.frames_on_time,
        fps=delivered / window if window > 0 else 0.0,
        miss_rate=(1.0 - receiver.frames_on_time / generated
                   if generated else 0.0),
        mean_latency=(receiver.latency.stats().mean
                      if delivered else 0.0),
    )


class CapacityResult:
    """Everything fig 9 needs for one (arm, N) point; pickles cleanly."""

    def __init__(self, arm: CapacityArm, streams: int, duration: float,
                 deadline: float) -> None:
        self.arm = arm
        self.streams = int(streams)
        self.duration = float(duration)
        self.deadline = float(deadline)
        #: Simulated time at which every stream was bound and the
        #: shared frame clock started; fps is measured from here.
        self.measure_start = 0.0
        self.rows: List[StreamRow] = []
        self.admitted_count = 0
        self.events_executed = 0
        self.clock_ticks = 0
        #: Controller books after all admissions (src host / bottleneck).
        self.cpu_utilization = 0.0
        self.bottleneck_committed_bps = 0.0
        # Live actors, nulled before pickling.
        self.senders: Optional[List[FarmStreamSender]] = None
        self.receivers: Optional[List[FarmStreamReceiver]] = None

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state["senders"] = None
        state["receivers"] = None
        return state

    # -- figure metrics -------------------------------------------------
    @property
    def rejected_count(self) -> int:
        return self.streams - self.admitted_count

    def class_rows(self, admitted: Optional[bool] = None) -> List[StreamRow]:
        if admitted is None:
            return list(self.rows)
        return [row for row in self.rows if row.admitted == admitted]

    def mean_fps(self, admitted: Optional[bool] = None) -> float:
        rows = self.class_rows(admitted)
        if not rows:
            return 0.0
        return sum(row.fps for row in rows) / len(rows)

    def min_fps(self, admitted: Optional[bool] = None) -> float:
        rows = self.class_rows(admitted)
        if not rows:
            return 0.0
        return min(row.fps for row in rows)

    def mean_miss_rate(self, admitted: Optional[bool] = None) -> float:
        rows = self.class_rows(admitted)
        if not rows:
            return 0.0
        return sum(row.miss_rate for row in rows) / len(rows)

    def total(self, field: str) -> int:
        return sum(getattr(row, field) for row in self.rows)


def run_capacity_experiment(
    arm: CapacityArm,
    streams: int = 8,
    duration: float = 12.0,
    seed: int = 1,
    bottleneck_bps: float = BOTTLENECK_BPS,
    cross_traffic_bps: float = CROSS_TRAFFIC_BPS,
    deadline: float = DEADLINE,
    fault_plan: Optional[Sequence[dict]] = None,
    checks=None,
) -> CapacityResult:
    """Run N concurrent streams through one arm's mechanisms.

    ``fault_plan`` optionally injects faults (dicts accepted by
    :meth:`~repro.faults.plan.FaultPlan.from_dicts`) and ``checks``
    optionally installs a :class:`~repro.check.invariants.CheckSuite`
    over the run — both default off and leave the baseline byte-identical.
    """
    if streams < 1:
        raise ValueError(f"need at least one stream, got {streams}")
    kernel = Kernel()
    rng = RngRegistry(seed=seed)
    n = int(streams)
    interval = 1.0 / VIDEO_FPS

    # --- shared topology: src/load -- router -- dst -------------------
    net, hosts, _bottleneck = farm_network(kernel, ACCESS_BPS, LOAD_LINK_BPS,
                                           bottleneck_bps)

    if fault_plan:
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan
        injector = FaultInjector(kernel, network=net,
                                 rng=rng.stream("fault-injector"))
        injector.install(FaultPlan.from_dicts(list(fault_plan)))

    # --- ORBs + A/V devices ------------------------------------------
    orbs = {name: Orb(kernel, hosts[name], net) for name in ("src", "dst")}
    devices, refs = av_devices(kernel, orbs)

    # --- admission: controller books mirror the enforcement layers ----
    controller = AdmissionController.from_network(
        net, link_bound=UTILIZATION_BOUND)
    native_mapping = LinearPriorityMapping()
    dscp_mapping = DscpMapping()
    src_host = hosts["src"]
    reserve_compute = ENCODE_COST * ENCODE_RESERVE_HEADROOM

    plans = []  # (name, corba, admitted, thread, qos)
    for i in range(n):
        name = f"cap{i:02d}"
        corba = (BASE_CORBA_PRIORITY - i * LANE_STEP
                 if arm.priorities else None)
        admitted = False
        if arm.admission:
            decision = controller.request(
                name, src="src", dst="dst", rate_bps=RESERVE_BPS,
                cpu={"src": (reserve_compute, interval)})
            admitted = decision.admitted
        if admitted or (arm.priorities and not arm.admission):
            dscp = dscp_mapping.to_dscp(corba)
            native = native_mapping.to_native(corba, src_host.os_type)
        else:
            # Best-effort arm, or a rejected stream falling back.
            dscp = Dscp.BE
            native = None
        thread = src_host.spawn_thread(f"enc-{name}", priority=native)
        if admitted:
            # The controller said yes, so these cannot raise: its books
            # apply the same bounds the enforcement layers do.
            src_host.reserve_manager.request(
                thread, reserve_compute, interval, EnforcementPolicy.HARD)
            qos = StreamQoS(dscp=dscp, reserve_rate_bps=RESERVE_BPS,
                            bucket_bytes=RESERVE_BUCKET_BYTES,
                            mandatory=True)
        else:
            qos = StreamQoS(dscp=dscp)
        plans.append((name, corba, admitted, thread, qos))

    # --- background contention ---------------------------------------
    if cross_traffic_bps > 0:
        cross = CbrTrafficSource(kernel, net.nic_of("load"), "dst",
                                 cross_traffic_bps, dscp=Dscp.BE)
        cross.start()
    loadgen = CpuLoadGenerator(kernel, src_host, priority=CPU_LOAD_PRIORITY,
                               duty_cycle=CPU_LOAD_DUTY,
                               rng=rng.stream("cpu-load"))
    loadgen.start()

    # --- bind every stream, then start the shared clock ---------------
    result = CapacityResult(arm, n, duration, deadline)
    clock = PeriodicTicker(kernel, interval)
    ctrl = StreamCtrl(kernel, orbs["src"])
    senders: List[FarmStreamSender] = []
    receivers: List[FarmStreamReceiver] = []

    def driver():
        for name, corba, admitted, thread, qos in plans:
            yield from ctrl.bind(name, refs["src"], refs["dst"], qos)
            sender, receiver = farm_stream(
                kernel, devices, clock, name, rng, deadline,
                arm.adaptation and not admitted, thread=thread,
                encode_cost=ENCODE_COST)
            senders.append(sender)
            receivers.append(receiver)
        result.measure_start = kernel.now
        clock.start()

    if checks is not None:
        from repro.check.world import World
        checks.install(World(kernel, network=net,
                             hosts=list(hosts.values()),
                             admission=controller))

    Process(kernel, driver(), name="capacity-driver")
    kernel.run(until=duration)
    if checks is not None:
        checks.final_check()
    if len(senders) != n:
        raise RuntimeError(
            f"stream setup failed for arm {arm.name!r}: "
            f"{len(senders)}/{n} streams bound")

    # --- capture -------------------------------------------------------
    window = duration - result.measure_start
    for sender, receiver, (name, corba, admitted, _t, _q) in zip(
            senders, receivers, plans):
        result.rows.append(stream_row(name, admitted, corba, sender,
                                      receiver, window))
    result.admitted_count = sum(1 for row in result.rows if row.admitted)
    result.events_executed = kernel.events_executed
    result.clock_ticks = clock.ticks
    result.cpu_utilization = controller.cpu_utilization("src")
    result.bottleneck_committed_bps = controller.link_committed(
        "router", "dst")
    result.senders = senders
    result.receivers = receivers
    return result


# ----------------------------------------------------------------------
# Rendering (shared by the CLI and the fig9 benchmark)
# ----------------------------------------------------------------------
def render_fig9_capacity(payloads: "List[CapacityResult]") -> str:
    """The fig 9 text figure: one table per arm plus a saturation recap."""
    from repro.experiments.reporting import group_sweeps, render_table

    sweeps = group_sweeps(payloads, "streams")

    def fmt(value: float) -> str:
        return f"{value:.2f}"

    sections = []
    for arm_name, results in sweeps.items():
        rows = []
        for result in results:
            protected = result.class_rows(True)
            unprotected = result.class_rows(False)
            rows.append((
                result.streams,
                result.admitted_count,
                fmt(result.mean_fps(True)) if protected else "-",
                (f"{result.mean_miss_rate(True) * 100:.1f}%"
                 if protected else "-"),
                fmt(result.mean_fps(False)) if unprotected else "-",
                (f"{result.mean_miss_rate(False) * 100:.1f}%"
                 if unprotected else "-"),
                result.total("delivered"),
                result.total("sent"),
            ))
        table = render_table(
            ("streams", "admitted", "adm fps", "adm miss",
             "b/e fps", "b/e miss", "delivered", "sent"),
            rows)
        sections.append(f"Fig 9 — capacity sweep — {arm_name}\n{table}")

    # Saturation recap at the largest common N.
    common = None
    for results in sweeps.values():
        counts = {result.streams for result in results}
        common = counts if common is None else common & counts
    if common:
        peak = max(common)
        lines = [f"saturation recap (N={peak}, nominal "
                 f"{VIDEO_FPS:.0f} fps/stream):"]
        for arm_name, results in sweeps.items():
            at_peak = next(r for r in results if r.streams == peak)
            if at_peak.admitted_count:
                lines.append(
                    f"  {arm_name:<12} admitted {at_peak.admitted_count:>2}: "
                    f"mean {at_peak.mean_fps(True):.2f} fps "
                    f"(min {at_peak.min_fps(True):.2f}); "
                    f"rejected {at_peak.rejected_count:>2}: "
                    f"mean {at_peak.mean_fps(False):.2f} fps")
            else:
                lines.append(
                    f"  {arm_name:<12} all {at_peak.streams} best-effort: "
                    f"mean {at_peak.mean_fps(False):.2f} fps, "
                    f"miss {at_peak.mean_miss_rate(False) * 100:.1f}%")
        sections.append("\n".join(lines))
    return "\n\n".join(sections)
