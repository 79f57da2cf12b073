"""Section 5.2: CPU-reservation experiments (Table 2).

"We constructed an experiment where image frame data were transmitted
from a client program to a C++ CORBA middleware-based image processing
server ... The receiver processed the image by invoking the Kirsch,
Prewitt, and Sobel edge detection algorithms in sequence.  We executed
the algorithms without load, with competing CPU load, and with
competing CPU load and a CPU reservation, and recorded the time that
each algorithm took to process the image."

The three arms:

* ``no_load`` — control run.
* ``load`` — a bursty ("variable and not sustained") CPU load at a
  priority above the ATR worker thread.
* ``load_reserve`` — the same load, plus a (C, T) CPU reserve on the
  ATR worker, admitted through the host's resource-kernel manager.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.oskernel.host import Host
from repro.oskernel.loadgen import CpuLoadGenerator
from repro.oskernel.reserve import EnforcementPolicy, Reserve
from repro.net.topology import Network
from repro.orb.cdr import OpaquePayload
from repro.orb.core import Orb, raise_if_error
from repro.orb.rt import ThreadPool
from repro.core.metrics import SeriesStats
from repro.experiments.actors import ATR, AtrServant
from repro.experiments.reporting import render_table2

#: The paper's image: 400x250 RGB PPM, 300,060 bytes.
IMAGE_BYTES = 300_060


@dataclass(frozen=True, slots=True)
class CpuArm:
    """One Table 2 condition."""

    name: str
    cpu_load: bool
    reservation: bool

    @classmethod
    def no_load(cls) -> "CpuArm":
        return cls("no-load", cpu_load=False, reservation=False)

    @classmethod
    def load(cls) -> "CpuArm":
        return cls("load", cpu_load=True, reservation=False)

    @classmethod
    def load_reserve(cls) -> "CpuArm":
        return cls("load+reserve", cpu_load=True, reservation=True)


def all_arms() -> list:
    return [CpuArm.no_load(), CpuArm.load(), CpuArm.load_reserve()]


class CpuExperimentResult:
    """Per-algorithm execution-time statistics for one arm."""

    def __init__(self, arm: CpuArm) -> None:
        self.arm = arm
        self.images_processed = 0
        self.algorithm_stats: Dict[str, SeriesStats] = {}
        self.reserve: Optional[Reserve] = None
        #: Kernel event count for the run (throughput observability).
        self.events_executed = 0

    def stats(self, algorithm: str) -> SeriesStats:
        return self.algorithm_stats[algorithm]

    def __getstate__(self) -> Dict[str, object]:
        # The live Reserve references the kernel; everything else is
        # plain data, so results pickle across the parallel runner's
        # process boundary with only the reserve handle dropped.
        state = dict(self.__dict__)
        state["reserve"] = None
        return state


def run_cpu_reservation_experiment(
    arm: CpuArm,
    duration: float = 120.0,
    seed: int = 1,
    load_duty: float = 0.25,
    load_burst_mean: float = 0.08,
    reserve_compute: float = 0.45,
    reserve_period: float = 0.5,
    algorithm_costs: Optional[Dict[str, float]] = None,
) -> CpuExperimentResult:
    """Build the Table 2 testbed and run one arm.

    The client streams images back-to-back (next image as soon as the
    previous reply returns) for ``duration`` simulated seconds.
    """
    kernel = Kernel()
    rng = RngRegistry(seed=seed)

    client_host = Host(kernel, "client")
    server_host = Host(kernel, "atr-server")
    net = Network(kernel, default_bandwidth_bps=100e6)
    net.attach_host(client_host)
    net.attach_host(server_host)
    net.link(client_host, server_host)
    net.compute_routes()

    client_orb = Orb(kernel, client_host, net)
    server_orb = Orb(kernel, server_host, net)

    pool = ThreadPool(
        kernel, server_host, server_orb.mapping_manager,
        lanes=[(0, 1)], name="atr-pool",
    )
    poa = server_orb.create_poa("atr", thread_pool=pool)
    servant = AtrServant(kernel, algorithm_costs=algorithm_costs)
    objref = poa.activate_object(servant, oid="atr")
    worker_thread = pool.lanes[0].threads[0]

    result = CpuExperimentResult(arm)

    if arm.cpu_load:
        load = CpuLoadGenerator(
            kernel,
            server_host,
            priority=60,  # above the ATR worker: genuine interference
            duty_cycle=load_duty,
            burst_mean=load_burst_mean,
            rng=rng.stream("cpuload"),
        )
        load.start()
    if arm.reservation:
        result.reserve = server_host.reserve_manager.request(
            worker_thread,
            compute=reserve_compute,
            period=reserve_period,
            policy=EnforcementPolicy.SOFT,
        )

    client_thread = client_host.spawn_thread("imagesource", priority=10)
    stub = ATR.stub_class(client_orb, objref, thread=client_thread)

    def client():
        index = 0
        while kernel.now < duration:
            image = OpaquePayload({"image": index % 4}, nbytes=IMAGE_BYTES)
            reply = yield stub.detect(image)
            raise_if_error(reply)
            index += 1

    Process(kernel, client(), name="image-client")
    kernel.run(until=duration)

    result.images_processed = servant.images_processed
    result.events_executed = kernel.events_executed
    for algorithm, recorder in servant.timings.items():
        result.algorithm_stats[algorithm] = recorder.stats()
    return result


def render_table2_cpu_reservation(payloads: List[CpuExperimentResult]) -> str:
    return render_table2({result.arm.name: result.algorithm_stats
                          for result in payloads})
