"""Ablation arm runners, importable by benchmarks and the CLI.

Each function builds one self-contained simulation arm and returns a
*picklable* payload (plain dicts of floats, recorders, and stats), so
the arms can ride the parallel :mod:`repro.experiments.runner` exactly
like the paper's main experiments.  Each ablation's ``render_*``
function turns its two payloads, in spec order, into the published
table; the ``benchmarks/test_ablation_*`` files assert over them.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.sim import Kernel, Process
from repro.sim.rng import RngRegistry
from repro.oskernel import CpuLoadGenerator, EnforcementPolicy, Host
from repro.oskernel.reserve import AdmissionError
from repro.net import (
    CbrTrafficSource,
    DatagramSocket,
    DiffServQueue,
    Dscp,
    FifoQueue,
    Network,
    StreamConnection,
    StreamListener,
)
from repro.net.aqm import RedQueue
from repro.orb import Orb, compile_idl
from repro.orb.core import raise_if_error
from repro.core import EndToEndQoSManager, ReservationPolicy
from repro.core.metrics import DeliveryRecorder, LatencyRecorder
from repro.experiments.reporting import render_table

# ----------------------------------------------------------------------
# Tail-drop FIFO vs RED+ECN at a GIOP bottleneck
# ----------------------------------------------------------------------
ECN_BULK_BYTES = 4_000_000
ECN_BOTTLENECK_BPS = 5e6

_PROBE_IDL = "interface Probe { long rtt(in long n); };"
_PROBE = compile_idl(_PROBE_IDL)["Probe"]


class _ProbeServant(_PROBE.skeleton_class):
    def rtt(self, n):
        return n


def run_ecn_arm(use_red: bool) -> Dict[str, float]:
    """One bottleneck arm: bulk CORBA transfer + interactive probes."""
    kernel = Kernel()
    net = Network(kernel, default_bandwidth_bps=100e6)
    for name in ("client", "server"):
        net.attach_host(Host(kernel, name))
    router = net.add_router("r")
    if use_red:
        qdisc = RedQueue(capacity=400, min_threshold=10, max_threshold=40,
                         max_probability=0.2, weight=0.25,
                         rng=random.Random(5), name="red")
    else:
        qdisc = FifoQueue(capacity=400, name="tail-drop")
    net.link("client", router)
    net.link(router, "server", bandwidth_bps=ECN_BOTTLENECK_BPS,
             qdisc_a=qdisc)
    net.compute_routes()
    client_orb = Orb(kernel, net.host("client"), net)
    server_orb = Orb(kernel, net.host("server"), net)
    poa = server_orb.create_poa("probe")
    probe_ref = poa.activate_object(_ProbeServant())

    # Bulk transfer on a raw stream sharing the bottleneck.
    StreamListener(kernel, net.nic_of("server"), port=4000)
    bulk = StreamConnection.connect(
        kernel, net.nic_of("client"), "server", 4000)
    bulk.send_message("bulk", ECN_BULK_BYTES)

    probe_rtts = []
    done = {}

    def prober():
        stub = _PROBE.stub_class(client_orb, probe_ref)
        while not done and kernel.now < 30.0:
            started = kernel.now
            result = yield stub.rtt(1)
            raise_if_error(result)
            probe_rtts.append(kernel.now - started)
            yield 0.25

    depths = []

    def sampler():
        while len(bulk._backlog) + len(bulk._in_flight) > 0:
            depths.append(len(qdisc))
            yield 0.05
        done["finished_at"] = kernel.now

    Process(kernel, prober(), name="prober")
    Process(kernel, sampler(), name="sampler")
    kernel.run(until=30.0)
    throughput = ECN_BULK_BYTES * 8 / done.get("finished_at", 30.0)
    return {
        "max_queue": max(depths) if depths else 0,
        "mean_probe_rtt": sum(probe_rtts) / len(probe_rtts),
        "worst_probe_rtt": max(probe_rtts),
        "bulk_throughput_mbps": throughput / 1e6,
        "marked": getattr(qdisc, "ecn_marked", 0),
        "dropped": qdisc.dropped,
        "events": kernel.events_executed,
    }


# ----------------------------------------------------------------------
# Strict-priority DiffServ PHB vs plain FIFO at the router
# ----------------------------------------------------------------------
PHB_DURATION = 20.0


def run_phb_arm(diffserv: bool) -> Dict[str, object]:
    """Marked video under congestion with/without a DSCP-honouring PHB."""
    kernel = Kernel()
    net = Network(kernel, default_bandwidth_bps=10e6)
    for name in ("src", "dst", "noise"):
        net.attach_host(Host(kernel, name))
    router = net.add_router("r")
    net.link("src", router)
    net.link("noise", router)
    qdisc = (
        DiffServQueue(band_capacity=150)
        if diffserv else FifoQueue(capacity=150)
    )
    net.link(router, "dst", qdisc_a=qdisc)
    net.compute_routes()

    recorder = DeliveryRecorder("video")

    def on_receive(payload, packet):
        recorder.record_received(kernel.now, sent_at=packet.created_at)

    DatagramSocket(kernel, net.nic_of("dst"), port=7000,
                   on_receive=on_receive)
    sender = DatagramSocket(kernel, net.nic_of("src"))

    def send(i):
        recorder.record_sent(kernel.now)
        sender.send_to("dst", 7000, i, payload_bytes=1000,
                       dscp=Dscp.EF, flow_id="video")

    for i in range(int(PHB_DURATION * 100)):  # 100 pps, 0.8 Mbps + headers
        kernel.schedule_at(i / 100.0, send, i)
    noise = CbrTrafficSource(kernel, net.nic_of("noise"), "dst",
                             rate_bps=16e6, dscp=Dscp.BE)
    noise.run_for(PHB_DURATION)
    kernel.run(until=PHB_DURATION + 2.0)
    return {"recorder": recorder, "events": kernel.events_executed}


# ----------------------------------------------------------------------
# HARD vs SOFT CPU-reserve enforcement
# ----------------------------------------------------------------------
RESERVE_POLICY_DURATION = 60.0
RESERVE_POLICY_PARAMS = dict(compute=0.3, period=1.0)


def run_reserve_policy_arm(policy: str) -> Dict[str, float]:
    """CPU shares under one enforcement policy (``"HARD"``/``"SOFT"``)."""
    kernel = Kernel()
    host = Host(kernel, "h")
    reserved = host.spawn_thread("reserved", priority=10)
    host.reserve_manager.request(
        reserved, policy=EnforcementPolicy[policy], **RESERVE_POLICY_PARAMS)
    # Bursty competitor *below* the reserved thread's native priority:
    # exactly the work a HARD reserve protects and a SOFT reserve eats.
    load = CpuLoadGenerator(
        kernel, host, priority=5, duty_cycle=1.0, burst_mean=0.05,
        rng=RngRegistry(seed=3).stream("load"),
    )
    load.start()
    host.cpu.submit(reserved, 10_000.0)  # insatiable reserved demand
    kernel.run(until=RESERVE_POLICY_DURATION)
    host.cpu.reschedule()  # charge in-flight slices
    return {
        "reserved_cpu": reserved.cpu_time,
        "background_cpu": load.thread.cpu_time,
        "events": kernel.events_executed,
    }


# ----------------------------------------------------------------------
# Priority-driven reservation assignment (paper section 6)
# ----------------------------------------------------------------------
PRIORITY_DRIVEN_DURATION = 60.0
#: (task name, CORBA priority, per-period compute demand), in arrival
#: order — the critical task arrives last, after the capacity is gone.
PRIORITY_DRIVEN_TASKS = [
    ("telemetry", 100, 0.30),
    ("logging", 10, 0.30),
    ("navigation", 30000, 0.30),
]
PRIORITY_DRIVEN_PERIOD = 1.0
_POLICY = ReservationPolicy(cpu_compute=0.31, cpu_period=PRIORITY_DRIVEN_PERIOD)


def run_priority_driven_arm(priority_driven: bool) -> Dict[str, object]:
    """Three over-subscribed periodic tasks under one allocation policy."""
    kernel = Kernel()
    host = Host(kernel, "h", reserve_bound=0.7)  # room for two of three
    net = Network(kernel)
    manager = EndToEndQoSManager(kernel, net)
    threads = {
        name: host.spawn_thread(name, priority=10)
        for name, _, _ in PRIORITY_DRIVEN_TASKS
    }
    if priority_driven:
        manager.allocate_reservations(
            host,
            [(threads[name], priority, _POLICY)
             for name, priority, _ in PRIORITY_DRIVEN_TASKS],
        )
    else:
        for name, _, _ in PRIORITY_DRIVEN_TASKS:  # arrival order
            try:
                host.reserve_manager.request(
                    threads[name], compute=_POLICY.cpu_compute,
                    period=_POLICY.cpu_period)
            except AdmissionError:
                pass
    load = CpuLoadGenerator(
        kernel, host, priority=50, duty_cycle=1.0, burst_mean=0.05,
        rng=RngRegistry(seed=7).stream("load"),
    )
    load.start()
    response = {name: LatencyRecorder(name)
                for name, _, _ in PRIORITY_DRIVEN_TASKS}

    def periodic(name, demand):
        while True:
            released = kernel.now
            request = host.cpu.submit(threads[name], demand)
            yield request.done
            response[name].record(kernel.now, kernel.now - released)
            remainder = released + PRIORITY_DRIVEN_PERIOD - kernel.now
            if remainder > 0:
                yield remainder

    for name, _, demand in PRIORITY_DRIVEN_TASKS:
        Process(kernel, periodic(name, demand), name=name)
    kernel.run(until=PRIORITY_DRIVEN_DURATION)
    return {"response": response, "events": kernel.events_executed}


def deadline_misses(recorder: LatencyRecorder) -> int:
    """Jobs that finished late, plus released jobs that never finished.

    A starved task completes few or no jobs; every job it should have
    released but did not complete is a miss too.
    """
    late = sum(1 for value in recorder.series.values
               if value > PRIORITY_DRIVEN_PERIOD)
    expected = int(PRIORITY_DRIVEN_DURATION / PRIORITY_DRIVEN_PERIOD) - 1
    unfinished = max(0, expected - recorder.count)
    return late + unfinished


# ----------------------------------------------------------------------
# Renderers: each ablation's (off, on) payload pair -> the published text
# ----------------------------------------------------------------------
def render_ablation_ecn(payloads: List[Dict[str, float]]) -> str:
    rows = [
        (name,
         r["max_queue"],
         f"{r['mean_probe_rtt'] * 1e3:.1f} ms",
         f"{r['worst_probe_rtt'] * 1e3:.1f} ms",
         f"{r['bulk_throughput_mbps']:.2f} Mbps",
         r["marked"], r["dropped"])
        for name, r in zip(("tail-drop FIFO", "RED + ECN"), payloads)
    ]
    return render_table(
        ("bottleneck qdisc", "max queue (pkts)", "probe RTT (mean)",
         "probe RTT (worst)", "bulk throughput", "ECN marks", "drops"),
        rows)


def render_ablation_phb(payloads: List[Dict[str, object]]) -> str:
    rows = []
    for name, payload in zip(("FIFO", "DiffServ strict-priority"), payloads):
        recorder = payload["recorder"]
        stats = recorder.latency.stats()
        rows.append((
            name,
            f"{recorder.delivery_fraction() * 100:.1f}%",
            f"{stats.mean * 1e3:.1f} ms",
            f"{stats.std * 1e3:.1f} ms",
        ))
    return render_table(
        ("bottleneck qdisc", "delivered", "mean latency", "std"), rows)


def render_ablation_reserve_policy(payloads: List[Dict[str, float]]) -> str:
    rows = [
        (name,
         f"{r['reserved_cpu'] / RESERVE_POLICY_DURATION * 100:.1f}%",
         f"{r['background_cpu'] / RESERVE_POLICY_DURATION * 100:.1f}%")
        for name, r in zip(("HARD", "SOFT"), payloads)
    ]
    return render_table(
        ("enforcement", "reserved-task CPU share", "background CPU share"),
        rows)


def render_ablation_priority_driven(
        payloads: List[Dict[str, object]]) -> str:
    rows = []
    for policy_name, payload in zip(("arrival order", "priority order"),
                                    payloads):
        response = payload["response"]
        for task, _, _ in PRIORITY_DRIVEN_TASKS:
            stats = response[task].stats()
            rows.append((
                policy_name, task, stats.count,
                f"{stats.mean * 1e3:.0f} ms",
                deadline_misses(response[task]),
            ))
    return render_table(
        ("allocation", "task", "jobs", "mean response", "deadline misses"),
        rows)
