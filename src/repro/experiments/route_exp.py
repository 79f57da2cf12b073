"""Routing-failover experiment: fig 8's gauntlet on generated graphs.

The fig 11 scenario family: a reserved 30 fps video stream crosses a
*generated* topology (50-500 routers: seeded Waxman, fat-tree, or
multi-PoP WAN) and a backbone link on its path is cut permanently.
Four arms cross the two recovery mechanisms:

* ``static``            — one-shot SPF tables, no re-signaling;
* ``static-resignal``   — static tables, RSVP re-signal after the cut
  (the control showing signaling alone cannot route around a failure);
* ``dynamic``           — link-state routing re-converges, but the
  reservation stays on the old path, so the detour is best-effort;
* ``dynamic-resignal``  — SPF convergence triggers make-before-break
  re-signaling, restoring the guaranteed-rate lane on the new path.

Every arm starts from the *same* converged SPF tables
(:func:`~repro.net.routing.install_spf_routes`), runs the same QuO
frame-filtering adaptation, and faces the same congested detour: a
12 Mbps CBR cross-traffic source parks on the middle edge of the
predicted post-failure path, so surviving the reroute at full rate
requires the reservation to move too.  What separates the arms is
purely who heals what: the forwarding plane, the reservation, both,
or neither.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.oskernel.host import Host
from repro.net.queues import GuaranteedRateQueue
from repro.net.topology import Network, generate_topology
from repro.net.routing import (
    LinkStateRouting,
    ReservationResignaler,
    install_spf_routes,
    predict_path,
)
from repro.net.traffic import CbrTrafficSource
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

#: SPF hold-down used by the dynamic arms.
SPF_DELAY = 0.2
#: Debounce between SPF convergence and the re-signal round (and the
#: delay after the cut at which the static-resignal arm re-signals, so
#: both re-signal arms act on the same schedule).
RESIGNAL_DELAY = 0.25


@dataclass(frozen=True, slots=True)
class RouteArm:
    """One fig 11 arm: {static, dynamic} x {re-signal on, off}."""

    name: str
    dynamic: bool
    resignal: bool


def route_arms() -> List[RouteArm]:
    return [
        RouteArm("static", False, False),
        RouteArm("static-resignal", False, True),
        RouteArm("dynamic", True, False),
        RouteArm("dynamic-resignal", True, True),
    ]


class RouteExperimentResult:
    """Everything fig 11 needs for one arm; pickles cleanly."""

    def __init__(self, arm: RouteArm, duration: float, fail_at: float,
                 topology: str, router_count: int, link_count: int,
                 primary_path: List[str], backbone: Tuple[str, str],
                 detour_edge: Tuple[str, str]) -> None:
        self.arm = arm
        self.duration = duration
        self.fail_at = fail_at
        self.topology = topology
        self.router_count = router_count
        self.link_count = link_count
        #: src -> dst forwarding path before the cut (device names).
        self.primary_path = list(primary_path)
        #: The router-router link the fault removes.
        self.backbone = tuple(backbone)
        #: The congested edge of the predicted post-failure path.
        self.detour_edge = tuple(detour_edge)
        self.sender: Optional[AvVideoSender] = None
        self.receiver: Optional[AvVideoReceiver] = None
        self.sender_delivery: Optional[DeliveryRecorder] = None
        self.receiver_frames_by_type: Dict[str, int] = {}
        self.events_executed = 0
        self.spf_runs = 0
        self.lsas_flooded = 0
        self.resignal_rounds = 0
        self.unroutable_drops = 0

    def capture(self, events_executed: int,
                routing: Optional[LinkStateRouting],
                resignaler: Optional[ReservationResignaler],
                network: Network) -> None:
        self.sender_delivery = self.sender.delivery
        self.receiver_frames_by_type = dict(self.receiver.frames_by_type)
        self.events_executed = events_executed
        if routing is not None:
            self.spf_runs = routing.spf_runs
            self.lsas_flooded = routing.lsas_flooded
        if resignaler is not None:
            self.resignal_rounds = resignaler.resignals
        self.unroutable_drops = sum(
            router.unroutable for router in network.routers)

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state["sender"] = None
        state["receiver"] = None
        return state

    # -- figure metrics -------------------------------------------------
    def pre_fail_fps(self, warmup: float = 2.0) -> float:
        """Delivered frame rate between warm-up and the cut."""
        span = self.fail_at - warmup
        if span <= 0:
            return 0.0
        return self.sender_delivery.received_count(
            warmup, self.fail_at) / span

    def recovery_rate_fps(self, settle: float = 5.0) -> float:
        """Delivered frame rate once the post-cut transient settles."""
        start = self.fail_at + settle
        span = self.duration - start
        if span <= 0:
            return 0.0
        return self.sender_delivery.received_count(
            start, self.duration) / span

    def delivered_in(self, start: float, end: float) -> int:
        return self.sender_delivery.received_count(start, end)

    def cumulative_counts(self, bin_width: float = 2.0):
        return self.sender_delivery.cumulative_counts(
            bin_width, self.duration)


# ----------------------------------------------------------------------
# Deterministic site selection on the generated graph
# ----------------------------------------------------------------------
def _router_distances(net: Network, origin: str) -> Dict[str, int]:
    """Hop distances from ``origin`` over router-router up links."""
    routers = {router.name for router in net.routers}
    dist = {origin: 0}
    frontier = deque([origin])
    while frontier:
        current = frontier.popleft()
        for neighbor, iface in sorted(net._adjacency[current],
                                      key=lambda entry: entry[0]):
            if neighbor in dist or neighbor not in routers:
                continue
            if iface.link is None or not iface.link.up:
                continue
            dist[neighbor] = dist[current] + 1
            frontier.append(neighbor)
    return dist


def _farthest_router_pair(net: Network) -> Tuple[str, str]:
    """The lexicographically-least router pair at maximal hop distance."""
    best: Optional[Tuple[int, str, str]] = None
    for router in sorted(net.routers, key=lambda r: r.name):
        for name, hops in _router_distances(net, router.name).items():
            a, b = sorted((router.name, name))
            candidate = (-hops, a, b)
            if best is None or candidate < best:
                best = candidate
    if best is None or best[0] == 0:  # pragma: no cover - degenerate
        raise RuntimeError("generated topology has no router pairs")
    return best[1], best[2]


def _router_edges(path: List[str],
                  routers: set) -> List[Tuple[str, str]]:
    return [
        (path[i], path[i + 1])
        for i in range(len(path) - 1)
        if path[i] in routers and path[i + 1] in routers
    ]


def _middle(edges: List[Tuple[str, str]]) -> Tuple[str, str]:
    return edges[(len(edges) - 1) // 2]


# ----------------------------------------------------------------------
def run_route_experiment(
    arm: RouteArm,
    routers: int = 56,
    topology: str = "waxman",
    duration: float = 40.0,
    fail_at: float = 10.0,
    seed: int = 1,
    link_bps: float = 10e6,
    video_bitrate_bps: float = 1.2e6,
    reserve_rate_bps: float = 1.4e6,
    cross_rate_bps: float = 12e6,
) -> RouteExperimentResult:
    """Run one fig 11 arm on a generated ``routers``-node topology.

    The video endpoints attach at a hop-distance-maximized router
    pair; the cut removes the middle router-router link of the
    stream's forwarding path, and the cross traffic congests the
    middle new edge of the *predicted* post-failure path — so the
    reroute always lands on contested ground.
    """
    kernel = Kernel()
    rng = RngRegistry(seed=seed)

    # --- generated topology -------------------------------------------
    net = Network(kernel, default_bandwidth_bps=link_bps)

    def q() -> GuaranteedRateQueue:
        return GuaranteedRateQueue(kernel, band_capacity=200)

    generated = generate_topology(net, topology, routers, seed=seed,
                                  qdisc_factory=q)
    src_router, dst_router = _farthest_router_pair(net)

    hosts = {}
    for name, attach in (("src", src_router), ("dst", dst_router)):
        hosts[name] = Host(kernel, name)
        net.attach_host(hosts[name])
        net.link(name, attach, qdisc_a=q(), qdisc_b=q())

    # --- failure site and contested detour ----------------------------
    router_names = {router.name for router in net.routers}
    primary = predict_path(net, "src", "dst")
    primary_edges = _router_edges(primary, router_names)
    if not primary_edges:
        raise RuntimeError(
            f"src/dst pair {src_router}-{dst_router} has no backbone hop")
    backbone = _middle(primary_edges)
    backbone_link = net.link_between(*backbone)
    detour = predict_path(net, "src", "dst",
                          down=frozenset((backbone_link,)))
    primary_both = {frozenset(edge) for edge in primary_edges}
    new_edges = [edge for edge in _router_edges(detour, router_names)
                 if frozenset(edge) not in primary_both]
    if not new_edges:  # pragma: no cover - 2-edge-connected generators
        raise RuntimeError("post-failure path introduces no new edge")
    detour_edge = _middle(new_edges)

    for name, attach in (("xsrc", detour_edge[0]), ("xdst", detour_edge[1])):
        hosts[name] = Host(kernel, name)
        net.attach_host(hosts[name])
        net.link(name, attach, qdisc_a=q(), qdisc_b=q())

    # --- routing plane -------------------------------------------------
    # Every arm starts from identical converged SPF tables; the dynamic
    # arms additionally run the live protocol on top of them.
    install_spf_routes(net)
    routing: Optional[LinkStateRouting] = None
    if arm.dynamic:
        routing = LinkStateRouting(kernel, net, spf_delay=SPF_DELAY)
        routing.start()

    net.enable_intserv(refresh_interval=None)
    sender_agent = net.nic_of("src").rsvp_agent

    resignaler: Optional[ReservationResignaler] = None
    if arm.resignal:
        if routing is not None:
            resignaler = ReservationResignaler(
                kernel, routing, [sender_agent], delay=RESIGNAL_DELAY)
        else:
            # Static tables produce no convergence events; re-signal on
            # the same schedule the dynamic arm would (cut + SPF
            # hold-down + debounce) to isolate the routing axis.
            kernel.schedule(fail_at + SPF_DELAY + RESIGNAL_DELAY,
                            sender_agent.resignal_all)

    result = RouteExperimentResult(
        arm, duration, fail_at, generated.kind,
        len(generated.routers), len(generated.links),
        primary, backbone, detour_edge)

    # --- ORBs + A/V stream over the reserved lane ---------------------
    orbs = {name: Orb(kernel, hosts[name], net) for name in ("src", "dst")}
    devices = {}
    refs = {}
    for name, orb in orbs.items():
        device = MMDeviceServant(kernel, orb)
        poa = orb.create_poa("av")
        devices[name] = device
        refs[name] = poa.activate_object(device, oid="mmdevice")

    ctrl = StreamCtrl(kernel, orbs["src"])

    def driver():
        yield from ctrl.bind(
            "uav-video", refs["src"], refs["dst"],
            StreamQoS(reserve_rate_bps=reserve_rate_bps, mandatory=True))
        producer = devices["src"].producer("uav-video")
        consumer = devices["dst"].consumer("uav-video")
        stream = MpegStream(
            "uav-video",
            bitrate_bps=video_bitrate_bps,
            fps=30.0,
            rng=rng.stream("video"),
        )
        frame_filter = FrameFilter()
        qosket = FrameFilteringQosket(
            kernel, frame_filter, degrade_threshold=0.05)
        sender = AvVideoSender(
            kernel, producer, stream,
            frame_filter=frame_filter, qosket=qosket,
        )
        receiver = AvVideoReceiver(kernel, consumer, sender=sender)
        result.sender = sender
        result.receiver = receiver
        sender.start()

    Process(kernel, driver(), name="route-experiment-driver")

    # --- contested detour + the cut -----------------------------------
    cross = CbrTrafficSource(
        kernel, net.nic_of("xsrc"), "xdst", rate_bps=cross_rate_bps)
    kernel.schedule(0.5, cross.start)

    injector = FaultInjector(kernel, net)
    injector.install(FaultPlan.from_dicts([
        {"kind": "link_down", "link": list(backbone), "at": fail_at},
    ]))

    kernel.run(until=duration)
    if result.sender is None:
        raise RuntimeError(f"stream setup failed for arm {arm.name!r}")
    result.sender.stop()
    cross.stop()
    result.capture(kernel.events_executed, routing, resignaler, net)
    return result


def render_fig11_route(payloads: List[RouteExperimentResult]) -> str:
    """The topology header, the per-arm summary, then delivery curves."""
    first = payloads[0]
    summary = render_table(
        ("arm", "pre-fail fps", "recovery fps", "spf runs", "lsas",
         "resignals", "unroutable"),
        [(result.arm.name,
          f"{result.pre_fail_fps():.2f}",
          f"{result.recovery_rate_fps():.2f}",
          result.spf_runs, result.lsas_flooded,
          result.resignal_rounds, result.unroutable_drops)
         for result in payloads])
    sections = ["\n".join([
        f"Fig 11 — rerouting gauntlet ({first.router_count}-router "
        f"{first.topology}, {first.link_count} links)",
        f"primary path: {' -> '.join(first.primary_path)}",
        f"backbone cut at t={first.fail_at:g}s: "
        f"{first.backbone[0]}-{first.backbone[1]}; cross traffic on "
        f"{first.detour_edge[0]}-{first.detour_edge[1]}",
        summary,
    ])]
    for result in payloads:
        sections.append(render_cumulative_delivery(
            f"cumulative delivery — {result.arm.name}",
            result.cumulative_counts(bin_width=result.duration / 10)))
    return "\n\n".join(sections)
