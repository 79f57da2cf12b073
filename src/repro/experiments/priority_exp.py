"""Section 5.1: priority-based end-to-end QoS experiments (Figs 4-6).

Testbed (mirrors the paper's): four machines — a sender host running
two identical video-sender tasks (~1.2 Mbps of GIOP messages each), a
receiver host with two servants in two POAs, a DiffServ-capable
router, and a cross-traffic host.  The bottleneck is the router ->
receiver segment (10 Mbps); cross traffic is 16 Mbps of best-effort
UDP; sender-side CPU load is bursty and sits between the two senders'
managed thread priorities.

The five arms differ only in which mechanisms are enabled:

========  =================  ======  =========  =============
figure    thread priorities  DSCP    CPU load   cross traffic
========  =================  ======  =========  =============
Fig 4(a)  no                 no      no         no
Fig 4(b)  no                 no      no         yes
Fig 5(a)  yes                no      yes        no
Fig 5(b)  yes                no      yes        yes
Fig 6     yes                yes     yes        yes
========  =================  ======  =========  =============
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sim.kernel import Kernel
from repro.sim.rng import RngRegistry
from repro.oskernel.host import Host
from repro.oskernel.loadgen import CpuLoadGenerator
from repro.oskernel.priorities import OsType
from repro.net.diffserv import Dscp
from repro.net.queues import DiffServQueue
from repro.net.topology import Network
from repro.net.traffic import CbrTrafficSource
from repro.orb.core import Orb
from repro.orb.rt import PriorityModel, ThreadPool
from repro.media.mpeg import MpegStream
from repro.core.binding import EndToEndPriorityBinding
from repro.core.metrics import LatencyRecorder
from repro.experiments.actors import GiopVideoSender, VideoReceiverServant
from repro.experiments.reporting import render_latency_table, render_series

#: CORBA priorities of the two sender tasks when managed.
HIGH_PRIORITY = 30000  # maps to DSCP EF under the default bands
LOW_PRIORITY = 8000  # maps to DSCP AF11

#: The unmanaged (control) native priority both senders share.
EQUAL_NATIVE_PRIORITY = 10


@dataclass(frozen=True, slots=True)
class PriorityArm:
    """One experimental configuration."""

    name: str
    thread_priorities: bool = False
    dscp: bool = False
    cpu_load: bool = False
    cross_traffic: bool = False

    @classmethod
    def figure4a(cls) -> "PriorityArm":
        return cls("fig4a-control-idle")

    @classmethod
    def figure4b(cls) -> "PriorityArm":
        return cls("fig4b-control-congested", cross_traffic=True)

    @classmethod
    def figure5a(cls) -> "PriorityArm":
        return cls("fig5a-threads-cpuload",
                   thread_priorities=True, cpu_load=True)

    @classmethod
    def figure5b(cls) -> "PriorityArm":
        return cls("fig5b-threads-cpuload-congested",
                   thread_priorities=True, cpu_load=True, cross_traffic=True)

    @classmethod
    def figure6(cls) -> "PriorityArm":
        return cls("fig6-threads-dscp-congested",
                   thread_priorities=True, dscp=True,
                   cpu_load=True, cross_traffic=True)


class PriorityExperimentResult:
    """Latency recorders and config for one arm."""

    def __init__(self, arm: PriorityArm, duration: float) -> None:
        self.arm = arm
        self.duration = duration
        self.latency: Dict[str, LatencyRecorder] = {}
        self.frames_sent: Dict[str, int] = {}
        #: Kernel event count for the run (throughput observability).
        #: Everything here is plain data, so results pickle cleanly
        #: across the parallel runner's process boundary.
        self.events_executed = 0

    def series(self, sender: str, bin_width: float = 0.5):
        """Binned mean latency — the Fig 4-6 curves."""
        return self.latency[sender].series.binned(bin_width, "mean")

    def stats(self, sender: str):
        return self.latency[sender].stats()


def run_priority_experiment(
    arm: PriorityArm,
    duration: float = 30.0,
    seed: int = 1,
    video_bitrate_bps: float = 1.2e6,
    cross_rate_bps: float = 16e6,
    bottleneck_bps: float = 10e6,
    access_bps: float = 10e6,
    cpu_load_duty: float = 0.85,
    tracer=None,
) -> PriorityExperimentResult:
    """Build the section 5.1 testbed and run one arm.

    ``tracer`` is an optional :class:`repro.obs.Tracer` attached to the
    kernel before any component is built, so the trace covers the whole
    run.  Tracing never changes results (see
    ``tests/properties/test_trace_invariants.py``).
    """
    kernel = Kernel()
    if tracer is not None:
        tracer.attach(kernel)
    rng = RngRegistry(seed=seed)

    # --- hosts and network -------------------------------------------------
    sender_host = Host(kernel, "sender", os_type=OsType.LINUX)
    receiver_host = Host(kernel, "receiver", os_type=OsType.LINUX)
    cross_host = Host(kernel, "crosshost", os_type=OsType.LINUX)
    net = Network(kernel, default_bandwidth_bps=access_bps)
    for host in (sender_host, receiver_host, cross_host):
        net.attach_host(host)
    router = net.add_router("router")
    net.link(sender_host, router)
    net.link(cross_host, router)
    # The bottleneck segment; its router-side egress is the
    # DiffServ-capable queue (all-BE traffic degenerates to FIFO, so
    # the control arms see exactly a best-effort router).
    net.link(
        router,
        receiver_host,
        bandwidth_bps=bottleneck_bps,
        qdisc_a=DiffServQueue(band_capacity=300, name="bottleneck"),
    )
    net.compute_routes()

    # --- ORBs ---------------------------------------------------------------
    sender_orb = Orb(kernel, sender_host, net)
    receiver_orb = Orb(kernel, receiver_host, net)

    # --- receiver: two servants in two POAs on a laned RT pool ---------------
    pool = ThreadPool(
        kernel,
        receiver_host,
        receiver_orb.mapping_manager,
        lanes=[(0, 1), (LOW_PRIORITY, 1), (HIGH_PRIORITY, 1)],
        name="video-pool",
    )
    servants = {}
    refs = {}
    for index in (1, 2):
        poa = receiver_orb.create_poa(
            f"video{index}",
            thread_pool=pool,
            priority_model=PriorityModel.CLIENT_PROPAGATED,
        )
        servant = VideoReceiverServant(kernel, name=f"sender{index}")
        servants[f"sender{index}"] = servant
        # Explicit oid: auto-numbered oids vary with process history,
        # changing object-key byte lengths and hence wire timing.
        refs[f"sender{index}"] = poa.activate_object(servant, oid="sink")

    # --- senders --------------------------------------------------------
    senders: Dict[str, GiopVideoSender] = {}
    priorities = {"sender1": HIGH_PRIORITY, "sender2": LOW_PRIORITY}
    for name in ("sender1", "sender2"):
        thread = sender_host.spawn_thread(
            name, priority=EQUAL_NATIVE_PRIORITY
        )
        priority: Optional[int] = None
        dscp: Optional[Dscp] = None
        if arm.thread_priorities:
            priority = priorities[name]
            binding = EndToEndPriorityBinding(
                sender_orb, priority, use_dscp=arm.dscp
            )
            binding.apply_to_thread(thread)
            dscp = binding.dscp
        stream = MpegStream(
            name,
            bitrate_bps=video_bitrate_bps,
            fps=30.0,
            rng=rng.stream(f"video.{name}"),
        )
        senders[name] = GiopVideoSender(
            kernel,
            sender_orb,
            refs[name],
            stream,
            thread,
            priority=priority,
            dscp=dscp,
        )

    # --- interference ----------------------------------------------------
    if arm.cpu_load:
        # Between the two managed native priorities: preempts the low
        # sender, is preempted by the high one (Fig 5's configuration).
        load = CpuLoadGenerator(
            kernel,
            sender_host,
            priority=50,
            duty_cycle=cpu_load_duty,
            burst_mean=0.05,
            rng=rng.stream("cpuload"),
        )
        load.start()
    if arm.cross_traffic:
        cross = CbrTrafficSource(
            kernel,
            net.nic_of("crosshost"),
            "receiver",
            rate_bps=cross_rate_bps,
            dscp=Dscp.BE,
        )
        cross.start()

    # --- run ---------------------------------------------------------------
    # Half-a-frame stagger between the senders so their frames do not
    # collide at identical instants (two free-running encoders are
    # never phase-locked).
    senders["sender1"].start()
    kernel.schedule(
        senders["sender2"].stream.frame_interval / 2,
        senders["sender2"].start,
    )
    kernel.run(until=duration)

    result = PriorityExperimentResult(arm, duration)
    result.events_executed = kernel.events_executed
    for name, servant in servants.items():
        result.latency[name] = servant.latency
        result.frames_sent[name] = senders[name].frames_sent
    return result


def all_arms() -> List[PriorityArm]:
    return [
        PriorityArm.figure4a(),
        PriorityArm.figure4b(),
        PriorityArm.figure5a(),
        PriorityArm.figure5b(),
        PriorityArm.figure6(),
    ]


# ----------------------------------------------------------------------
# Figure renderers: payloads in spec order -> the published text
# ----------------------------------------------------------------------
def _latency_table(payloads: List[PriorityExperimentResult],
                   labels: Dict[str, str]) -> str:
    return render_latency_table({
        labels[result.arm.name]: {
            sender: result.stats(sender) for sender in ("sender1", "sender2")
        }
        for result in payloads
    })


def render_fig4_control_runs(payloads: List[PriorityExperimentResult]) -> str:
    """Fig 4: the latency table, then each arm's binned sender-1 curve."""
    table = _latency_table(payloads, {
        "fig4a-control-idle": "fig4a (idle)",
        "fig4b-control-congested": "fig4b (16 Mbps cross)",
    })
    return "\n\n".join([table] + [
        render_series(
            f"{result.arm.name.split('-')[0]} sender1 latency (binned mean)",
            result.series("sender1", 1.0))
        for result in payloads
    ])


def render_fig5_thread_priority(
        payloads: List[PriorityExperimentResult]) -> str:
    return _latency_table(payloads, {
        "fig5a-threads-cpuload": "fig5a (CPU load)",
        "fig5b-threads-cpuload-congested": "fig5b (CPU load + congestion)",
    })


def render_fig6_combined_priority(
        payloads: List[PriorityExperimentResult]) -> str:
    return _latency_table(payloads, {
        "fig5b-threads-cpuload-congested": "fig5b (threads only)",
        "fig6-threads-dscp-congested": "fig6 (threads + DSCP)",
    })
