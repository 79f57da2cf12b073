"""Differential golden-parity harness: heap vs calendar schedulers.

The ``REPRO_SCHEDULER`` switch selects the kernel's pending-event
backend (:mod:`repro.sim.eventq`).  The determinism contract says the
choice can never change results — both backends pop in identical
``(time, seq)`` order — so every registered scenario family must
produce *pickle-identical* payloads under either backend.  Payloads
are what the figure renderers consume, so payload parity implies the
published ``results/*.txt`` are byte-identical too.

Each scenario family runs here at a scaled-down duration (the full
figures belong to ``benchmarks/``); the suite still exercises every
code path that schedules events — priority lanes, network and CPU
reservation, fault injection and recovery, the capacity farm's
frame clock, the soak harness's invariant checkers, and all four
ablations.

This file also pins the tie-break rules themselves:

* same-timestamp events fire in schedule order (FIFO) under both
  backends, including through a :class:`~repro.sim.TickCoalescer`;
* worker fan-out cannot reorder anything — ``--jobs 1`` and
  ``--jobs 4`` produce identical payloads.
"""

from __future__ import annotations

import pickle
from dataclasses import asdict

import pytest

from repro.experiments.runner import ExperimentRunner, RunSpec
from repro.experiments.priority_exp import PriorityArm
from repro.experiments.reservation_cpu_exp import CpuArm
from repro.experiments.reservation_net_exp import NetworkArm
from repro.experiments.fault_exp import FaultArm
from repro.experiments.route_exp import RouteArm, route_arms
from repro.scale.capacity_exp import CapacityArm
from repro.scale.fig10 import ScaleArm
from repro.pubsub.fig12 import PubSubArm, pubsub_arms
from repro.check.soak import generate_case
from repro.sim import Kernel, TickCoalescer
from repro.sim.eventq import SCHEDULER_BACKENDS, SCHEDULER_ENV

BACKENDS = sorted(SCHEDULER_BACKENDS)


def _parity_specs():
    """One scaled-down spec per registered scenario family."""
    return {
        "priority": RunSpec(
            "priority",
            {"arm": asdict(PriorityArm.figure4a()),
             "duration": 3.0}, seed=1),
        "reservation_net": RunSpec(
            "reservation_net",
            {"arm": asdict(NetworkArm("3-full", "full", False)),
             "duration": 30.0, "load_start": 5.0, "load_end": 15.0}, seed=1),
        "reservation_cpu": RunSpec(
            "reservation_cpu",
            {"arm": asdict(CpuArm.load_reserve()),
             "duration": 10.0}, seed=1),
        "faults": RunSpec(
            "faults",
            {"arm": asdict(FaultArm("adaptive", True)),
             "duration": 30.0}, seed=1),
        "capacity": RunSpec(
            "capacity",
            {"arm": asdict(
                CapacityArm("adaptive", True, True, True)),
             "streams": 4, "duration": 4.0}, seed=1),
        "scale": RunSpec(
            "scale",
            {"arm": asdict(
                ScaleArm("adaptive", admission=True, adaptation=True)),
             "streams": 40, "duration": 2.0, "fluid": True,
             "bottleneck_bps": 10e6, "cross_traffic_bps": 4e6}, seed=1),
        "route": RunSpec(
            "route",
            {"arm": asdict(
                RouteArm("dynamic-resignal", True, True)),
             "routers": 12, "duration": 12.0, "fail_at": 3.0}, seed=1),
        "pubsub": RunSpec(
            "pubsub",
            {"arm": asdict(
                PubSubArm("ownership", ownership=True, faults=True)),
             "subscribers": 64, "duration": 4.0}, seed=1),
        "soak_case": RunSpec(
            "soak_case",
            {"case": generate_case(1, 0, duration=3.0, max_streams=4)}),
        "ablation_ecn": RunSpec("ablation_ecn", {"use_red": True}),
        "ablation_phb": RunSpec("ablation_phb", {"diffserv": True}),
        "ablation_reserve_policy": RunSpec(
            "ablation_reserve_policy", {"policy": "SOFT"}),
        "ablation_priority_driven": RunSpec(
            "ablation_priority_driven", {"priority_driven": True}),
    }


def _run_under(monkeypatch, backend, spec):
    """Execute ``spec`` in-process under ``backend``, cache off."""
    monkeypatch.setenv(SCHEDULER_ENV, backend)
    runner = ExperimentRunner(jobs=1, cache=False)
    (result,) = runner.run([spec])
    return result


@pytest.mark.parametrize("family", sorted(_parity_specs()))
def test_scenario_payload_parity(monkeypatch, family):
    """Every scenario family yields pickle-identical payloads."""
    spec = _parity_specs()[family]
    outcomes = {}
    for backend in BACKENDS:
        result = _run_under(monkeypatch, backend, spec)
        outcomes[backend] = (pickle.dumps(result.payload), result.events)
    reference = outcomes[BACKENDS[0]]
    for backend in BACKENDS[1:]:
        payload, events = outcomes[backend]
        assert events == reference[1], (
            f"{family}: {backend} executed {events} events, "
            f"{BACKENDS[0]} executed {reference[1]}")
        assert payload == reference[0], (
            f"{family}: payload bytes diverge between "
            f"{BACKENDS[0]} and {backend}")


def test_quickstart_trace_stream_parity(monkeypatch):
    """The dispatch-level trace stream is identical across backends."""
    import importlib
    import itertools

    from repro.experiments.scenarios import run_quickstart
    from repro.obs.trace import Tracer

    # Entity ids (packets, requests, oids, threads, ...) come from
    # process-global counters that keep counting across runs; pin every
    # one so the two in-process runs are comparable verbatim.
    counter_globals = [
        ("repro.net.intserv", "_session_ids"),
        ("repro.net.transport", "_message_ids"),
        ("repro.net.packet", "_packet_ids"),
        ("repro.orb.core", "_request_ids"),
        ("repro.orb.poa", "_oid_counter"),
        ("repro.services.events", "_event_ids"),
        ("repro.media.mpeg", "_stream_ids"),
        ("repro.oskernel.reserve", "_reserve_ids"),
        ("repro.oskernel.cpu", "_request_ids"),
        ("repro.oskernel.thread", "_thread_ids"),
    ]

    streams = {}
    for backend in BACKENDS:
        for mod_name, attr in counter_globals:
            monkeypatch.setattr(importlib.import_module(mod_name), attr,
                                itertools.count(1))
        monkeypatch.setenv(SCHEDULER_ENV, backend)
        tracer = Tracer()
        run_quickstart(tracer=tracer, verbose=False)
        streams[backend] = [
            (r.time, r.layer, r.kind, r.phase, r.span, r.flow,
             r.request, r.fields)
            for r in tracer.records
        ]
    reference = streams[BACKENDS[0]]
    assert reference, "quickstart produced no trace records"
    for backend in BACKENDS[1:]:
        assert streams[backend] == reference


@pytest.mark.parametrize("backend", BACKENDS)
def test_same_time_ties_fire_in_schedule_order(backend):
    """Ties on the timestamp fire strictly in schedule order."""
    kernel = Kernel(scheduler=backend)
    fired = []
    # Deliberately scheduled out of label order, all at t=1.0.
    for label in ("a", "b", "c", "d", "e"):
        kernel.schedule(1.0, fired.append, label)
    # A cancellation between ties must not shift its neighbours.
    doomed = kernel.schedule(1.0, fired.append, "doomed")
    kernel.schedule(1.0, fired.append, "f")
    doomed.cancel()
    # Later-scheduled events at an *earlier* time still fire first.
    kernel.schedule(0.5, fired.append, "early")
    kernel.run()
    assert fired == ["early", "a", "b", "c", "d", "e", "f"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_coalesced_ties_preserve_registration_order(backend):
    """Coalescing same-tick wakeups cannot reorder them."""
    kernel = Kernel(scheduler=backend)
    fired = []
    grid = TickCoalescer(kernel, quantum=0.010)
    # All three quantize to the same 10 ms tick; a plain event at the
    # exact tick time scheduled *after* the first wakeup fires after
    # the whole batch (the batch occupies the first wakeup's slot).
    grid.call_at(0.0101, fired.append, "w1")
    kernel.schedule_at(0.020, fired.append, "plain")
    grid.call_at(0.0150, fired.append, "w2")
    grid.call_at(0.020, fired.append, "w3")
    kernel.run()
    assert fired == ["w1", "w2", "w3", "plain"]


@pytest.mark.parametrize("jobs", [1, 4])
def test_worker_fanout_parity(monkeypatch, jobs, tmp_path):
    """``--jobs 1`` and ``--jobs 4`` produce identical payloads.

    The capacity farm leans hardest on the frame-clock/coalescing path,
    so its arms are the sharpest probe that worker fan-out cannot
    perturb tie-breaking.  Both runs execute with the cache disabled;
    the reference bytes are stored per-test-session by parametrization
    order (jobs=1 runs first and seeds the expectation file).
    """
    specs = [
        RunSpec("capacity",
                {"arm": asdict(arm), "streams": 3,
                 "duration": 2.0}, seed=1)
        for arm in (CapacityArm("best-effort", False, False, False),
                    CapacityArm("priority", True, False, False),
                    CapacityArm("reserves", True, True, False),
                    CapacityArm("adaptive", True, True, True))
    ]
    runner = ExperimentRunner(jobs=jobs, cache=False)
    results = runner.run(specs)
    blob = pickle.dumps([r.payload for r in results])
    marker = tmp_path.parent / "parity_jobs_reference.pkl"
    if marker.exists():
        assert blob == marker.read_bytes(), (
            f"jobs={jobs} diverged from the earlier worker count")
    else:
        marker.write_bytes(blob)


@pytest.mark.parametrize("jobs", [1, 4])
def test_worker_fanout_parity_pubsub(monkeypatch, jobs, tmp_path):
    """Fig 12's pub-sub arms survive worker fan-out unchanged.

    The pub-sub family exercises yet another scheduler surface —
    liveliness leases racing heartbeat datagrams, the two-phase
    same-tick expiry confirmation, deadline monitors and pacing
    contracts all keyed to identical timestamps — so it gets its own
    jobs=1-vs-4 pin.  Payloads are pickled one by one (see the route
    pin above for why)."""
    specs = [
        RunSpec("pubsub",
                {"arm": asdict(arm), "subscribers": 64,
                 "duration": 4.0}, seed=1)
        for arm in pubsub_arms()
    ]
    runner = ExperimentRunner(jobs=jobs, cache=False)
    results = runner.run(specs)
    blob = pickle.dumps([pickle.dumps(r.payload) for r in results])
    marker = tmp_path.parent / "parity_jobs_pubsub_reference.pkl"
    if marker.exists():
        assert blob == marker.read_bytes(), (
            f"jobs={jobs} diverged from the earlier worker count")
    else:
        marker.write_bytes(blob)


@pytest.mark.parametrize("jobs", [1, 4])
def test_worker_fanout_parity_route(monkeypatch, jobs, tmp_path):
    """Fig 11's rerouting arms survive worker fan-out unchanged.

    The routing gauntlet stresses a different scheduler surface than
    the capacity farm — LSA flood fan-out, coalesced SPF timers, and
    RSVP make-before-break re-signaling all race on identical
    timestamps — so it gets its own jobs=1-vs-4 pin.

    Payloads are pickled one by one: a single dump of the whole list
    would also encode *cross-payload* string sharing (interning makes
    in-process payloads share router-name objects, worker round-trips
    don't), which is pickle-memo trivia, not a determinism signal."""
    specs = [
        RunSpec("route",
                {"arm": asdict(arm), "routers": 12,
                 "duration": 12.0, "fail_at": 3.0}, seed=1)
        for arm in route_arms()
    ]
    runner = ExperimentRunner(jobs=jobs, cache=False)
    results = runner.run(specs)
    blob = pickle.dumps([pickle.dumps(r.payload) for r in results])
    marker = tmp_path.parent / "parity_jobs_route_reference.pkl"
    if marker.exists():
        assert blob == marker.read_bytes(), (
            f"jobs={jobs} diverged from the earlier worker count")
    else:
        marker.write_bytes(blob)
