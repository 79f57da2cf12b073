"""Fault-injection experiment: frame delivery through injected faults.

The new results figure (fig 8): the section 5.2 video pipeline is run
through a gauntlet of injected faults — a bandwidth collapse, a hard
link flap, a correlated loss burst, and a router crash-and-restart —
once without any adaptation and once with the QuO frame-filtering
contract wired to a :class:`~repro.quo.syscond.FaultReporterSC`.

The adaptation story mirrors the paper's: when the bottleneck
degrades, an unmanaged 30 fps / 1.2 Mbps stream swamps it and almost
every frame loses at least one fragment, while the adaptive arm sheds
to 2 fps I-frames that fit the surviving capacity and keep arriving.
After the last fault clears, both arms return to full rate — the
"operating through" claim, now under five distinct failure shapes.

Every fault is driven by a JSON-able :class:`~repro.faults.FaultPlan`
riding in the RunSpec parameters, so chaos arms are cached and
byte-reproducible at any worker count like every other scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.oskernel.host import Host
from repro.net.queues import GuaranteedRateQueue
from repro.net.topology import Network
from repro.orb.core import Orb
from repro.media.filtering import FrameFilter
from repro.media.mpeg import MpegStream
from repro.avstreams.service import MMDeviceServant, StreamCtrl, StreamQoS
from repro.core.adaptation import FrameFilteringQosket
from repro.core.metrics import DeliveryRecorder
from repro.experiments.actors import AvVideoReceiver, AvVideoSender
from repro.experiments.reporting import (
    render_cumulative_delivery,
    render_table,
)
from repro.faults import FaultInjector, FaultPlan
from repro.quo.syscond import FaultReporterSC


@dataclass(frozen=True, slots=True)
class FaultArm:
    """One chaos arm: the same faults, with or without adaptation."""

    name: str
    adaptive: bool


def all_arms() -> list:
    return [FaultArm("static", False), FaultArm("adaptive", True)]


def default_fault_plan(duration: float = 120.0) -> List[Dict[str, Any]]:
    """The canonical fig 8 fault timeline, scaled to ``duration``.

    Windows are placed at fixed fractions of the run so the same
    shape works for the full figure and for short CI smoke runs; the
    final quarter of the run is fault-free recovery time.
    """
    def w(a: float, b: float) -> Tuple[float, float]:
        start = round(duration * a, 1)
        return start, round(duration * b - start, 1)

    # The bandwidth collapse is the long, headline fault — the regime
    # where shedding to I-frames-only keeps frames flowing while the
    # unmanaged stream drowns the bottleneck queue.  The flap, loss
    # burst and crash are short punctuations; the final ~15 % of the
    # run is fault-free so both arms can demonstrate recovery.
    degrade_at, degrade_for = w(0.125, 0.700)
    flap_at, flap_for = w(0.733, 0.758)
    burst_at, burst_for = w(0.775, 0.804)
    crash_at, crash_for = w(0.833, 0.858)
    return [
        {"kind": "link_degrade", "link": ["router", "dst"],
         "at": degrade_at, "duration": degrade_for, "factor": 0.03},
        {"kind": "link_flap", "link": ["router", "dst"],
         "at": flap_at, "duration": flap_for},
        {"kind": "loss_burst", "link": ["router", "dst"],
         "at": burst_at, "duration": burst_for, "loss": 0.45},
        {"kind": "node_crash", "node": "router",
         "at": crash_at, "duration": crash_for},
    ]


class FaultExperimentResult:
    """Everything fig 8 needs for one arm; pickles cleanly."""

    def __init__(self, arm: FaultArm, duration: float,
                 fault_windows: Sequence[Tuple[str, float, float]]) -> None:
        self.arm = arm
        self.duration = duration
        #: (label, start, end) per injected fault.
        self.fault_windows = list(fault_windows)
        self.sender: Optional[AvVideoSender] = None
        self.receiver: Optional[AvVideoReceiver] = None
        self.sender_delivery: Optional[DeliveryRecorder] = None
        self.receiver_frames_by_type: Dict[str, int] = {}
        self.events_executed = 0
        #: Fault windows the reporter saw (adaptive arm only).
        self.faults_reported = 0

    def capture(self, events_executed: int,
                reporter: Optional[FaultReporterSC]) -> None:
        self.sender_delivery = self.sender.delivery
        self.receiver_frames_by_type = dict(self.receiver.frames_by_type)
        self.events_executed = events_executed
        self.faults_reported = 0 if reporter is None else reporter.faults_seen

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state["sender"] = None
        state["receiver"] = None
        return state

    # -- figure metrics -------------------------------------------------
    @property
    def faulted_span(self) -> Tuple[float, float]:
        """First fault onset to last fault clearance."""
        return (min(s for _, s, _ in self.fault_windows),
                max(e for _, _, e in self.fault_windows))

    def delivered_during_faults(self) -> int:
        start, end = self.faulted_span
        return self.sender_delivery.received_count(start, end)

    def sent_during_faults(self) -> int:
        start, end = self.faulted_span
        return self.sender_delivery.sent_count(start, end)

    def delivered_in(self, start: float, end: float) -> int:
        return self.sender_delivery.received_count(start, end)

    def recovery_rate_fps(self, settle: float = 5.0) -> float:
        """Delivered frame rate from after the post-fault settle to
        the end of the run."""
        _, fault_end = self.faulted_span
        start = fault_end + settle
        span = self.duration - start
        if span <= 0:
            return 0.0
        return self.sender_delivery.received_count(start, self.duration) / span

    def delivered_in_fault_windows(self) -> int:
        """Frames delivered while some fault was actually active."""
        return sum(row[4] for row in self.per_window_counts())

    def sent_in_fault_windows(self) -> int:
        return sum(row[3] for row in self.per_window_counts())

    def per_window_counts(self) -> List[Tuple[str, float, float, int, int]]:
        """(label, start, end, sent, delivered) per fault window."""
        return [
            (label, start, end,
             self.sender_delivery.sent_count(start, end),
             self.sender_delivery.received_count(start, end))
            for label, start, end in self.fault_windows
        ]

    def cumulative_counts(self, bin_width: float = 5.0):
        return self.sender_delivery.cumulative_counts(
            bin_width, self.duration)


def run_fault_injection_experiment(
    arm: FaultArm,
    duration: float = 120.0,
    plan: Optional[List[Dict[str, Any]]] = None,
    link_bps: float = 10e6,
    video_bitrate_bps: float = 1.2e6,
    seed: int = 1,
) -> FaultExperimentResult:
    """Run the video pipeline through ``plan`` (default fault gauntlet).

    ``plan`` is a list of fault-event dicts
    (:meth:`repro.faults.FaultPlan.to_dicts` form) so it can travel
    inside RunSpec parameters.
    """
    kernel = Kernel()
    rng = RngRegistry(seed=seed)
    fault_plan = FaultPlan.from_dicts(
        default_fault_plan(duration) if plan is None else plan)

    # --- network: src -- router -- dst -------------------------------
    net = Network(kernel, default_bandwidth_bps=link_bps)
    hosts = {}
    for name in ("src", "dst"):
        hosts[name] = Host(kernel, name)
        net.attach_host(hosts[name])
    router = net.add_router("router")

    def q(name):
        return GuaranteedRateQueue(kernel, band_capacity=200, name=name)

    net.link("src", router, qdisc_a=q("src-out"), qdisc_b=q("rtr-to-src"))
    net.link(router, "dst", qdisc_a=q("bottleneck"), qdisc_b=q("dst-out"))
    net.compute_routes()

    # --- ORBs + A/V devices ------------------------------------------
    orbs = {name: Orb(kernel, hosts[name], net) for name in ("src", "dst")}
    devices = {}
    refs = {}
    for name, orb in orbs.items():
        device = MMDeviceServant(kernel, orb)
        poa = orb.create_poa("av")
        devices[name] = device
        refs[name] = poa.activate_object(device, oid="mmdevice")

    result = FaultExperimentResult(arm, duration, fault_plan.windows())
    reporter = (FaultReporterSC(kernel, "injected-faults")
                if arm.adaptive else None)

    ctrl = StreamCtrl(kernel, orbs["src"])

    def driver():
        yield from ctrl.bind("uav-video", refs["src"], refs["dst"],
                             StreamQoS())
        producer = devices["src"].producer("uav-video")
        consumer = devices["dst"].consumer("uav-video")
        stream = MpegStream(
            "uav-video",
            bitrate_bps=video_bitrate_bps,
            fps=30.0,
            rng=rng.stream("video"),
        )
        frame_filter = None
        qosket = None
        if arm.adaptive:
            frame_filter = FrameFilter()
            qosket = FrameFilteringQosket(
                kernel, frame_filter, degrade_threshold=0.05)
            qosket.attach_fault_reporter(reporter)
        sender = AvVideoSender(
            kernel, producer, stream,
            frame_filter=frame_filter, qosket=qosket,
        )
        receiver = AvVideoReceiver(kernel, consumer, sender=sender)
        result.sender = sender
        result.receiver = receiver
        sender.start()

    Process(kernel, driver(), name="fault-experiment-driver")

    # --- the faults ---------------------------------------------------
    injector = FaultInjector(kernel, net, reporter=reporter,
                             rng=rng.stream("faults"))
    injector.install(fault_plan)

    kernel.run(until=duration)
    if result.sender is None:
        raise RuntimeError(f"stream setup failed for arm {arm.name!r}")
    result.sender.stop()
    result.capture(kernel.events_executed, reporter)
    return result


def render_fig8_fault_adaptation(
        payloads: List[FaultExperimentResult]) -> str:
    """Per arm: the fault-window table, recovery rate and delivery curve."""
    sections = []
    for result in payloads:
        mode = "on" if result.arm.adaptive else "off"
        window_table = render_table(
            ("fault", "start", "end", "sent", "delivered"),
            [(label, f"{start:.1f}", f"{end:.1f}", sent, delivered)
             for label, start, end, sent, delivered
             in result.per_window_counts()])
        sections.append("\n".join([
            f"Fig 8 — {result.arm.name} (adaptation {mode})",
            window_table,
            f"in fault windows: sent={result.sent_in_fault_windows()} "
            f"delivered={result.delivered_in_fault_windows()}",
            "post-fault recovery rate: "
            f"{result.recovery_rate_fps(10.0):.1f} fps",
            render_cumulative_delivery(
                "cumulative delivery",
                result.cumulative_counts(bin_width=result.duration / 12)),
        ]))
    return "\n\n".join(sections)
