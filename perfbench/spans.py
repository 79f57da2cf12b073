"""Span recording around the public functions of each simulator layer.

Everything here patches class attributes of ``repro`` from outside, in
the process that calls :meth:`Recorder.install`; nothing under ``src/``
knows it is being measured.  Two modes share one recorder:

* **boundary** (the untraced run): only ``Kernel.run`` is wrapped.  That
  costs one timestamp pair per ``run()`` call, nothing per event, and
  yields each arm's build / run / analysis split.
* **trace** (the traced run): every function listed by :func:`_layers`
  is wrapped as well.  Hot functions are called millions of times, so their
  spans are aggregated in memory by ``(name, parent)`` as count, total
  and self time.  Full spans are kept only for the arm, build, run and
  analysis boundaries.

Self time of a span is its duration minus the time its child spans
cover.  A layer's self time is the sum over its spans.  Code that no
wrapper covers (private callbacks dispatched straight from the event
loop, application actors) counts as self time of the nearest wrapped
caller, which for dispatched callbacks is ``Kernel.run`` -- see
``NOTES.md``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple


def _admitted(decision: Any) -> bool:
    return bool(decision.admitted)


def _layers() -> List[Tuple[str, Any, Tuple[str, ...], Optional[Callable]]]:
    """(span name, class, methods, outcome predicate) for the traced run.

    The span name's part before the last ``.`` is its layer.  An
    outcome predicate marks calls whose result counts as a failure
    (a qdisc drop, an admission rejection).
    """
    from repro.fluid.engine import FluidEngine, FluidLink
    from repro.net.link import Interface
    from repro.net.nic import Nic
    from repro.net.queues import QueueDiscipline
    from repro.net.router import Router
    from repro.net.transport import StreamConnection
    from repro.orb.core import Orb
    from repro.oskernel.cpu import CPU
    from repro.oskernel.reserve import Reserve, ReserveManager
    from repro.pubsub.broker import Broker
    from repro.pubsub.core import DataWriter
    from repro.scale.admission import AdmissionController
    from repro.scale.farm import FarmStreamSender
    from repro.sim.kernel import Kernel

    table = [
        ("sim.schedule", Kernel, ("schedule", "schedule_at", "rearm"), None),
        ("net.link.send", Interface, ("send",), None),
        ("net.router.hop", Router, ("receive", "forward"), None),
        ("net.nic.hop", Nic, ("receive", "send"), None),
        ("net.transport.send_message", StreamConnection,
         ("send_message",), None),
        ("oskernel.cpu.submit", CPU, ("submit",), None),
        ("oskernel.cpu.reschedule", CPU, ("reschedule",), None),
        ("oskernel.reserve.budget", Reserve, ("consume", "sync"), None),
        ("oskernel.reserve.request", ReserveManager, ("request",), None),
        ("orb.invoke", Orb, ("invoke",), None),
        ("orb.send_reply", Orb, ("send_reply",), None),
        ("fluid.add_flow", FluidEngine, ("add_flow",), None),
        ("fluid.set_rate", FluidEngine, ("set_rate",), None),
        ("fluid.engine", FluidEngine,
         ("add_link", "attach_interface", "remove_flow", "finalize",
          "close"), None),
        ("fluid.packet_load", FluidLink, ("register_packet_load",), None),
        ("scale.admission.request", AdmissionController, ("request",),
         _admitted),
        ("scale.admission.revoke", AdmissionController, ("revoke",), None),
        ("scale.farm.tick", FarmStreamSender, ("start", "stop", "on_tick"),
         None),
        ("pubsub.write.call", DataWriter, ("write",), None),
        ("pubsub.register.call", Broker,
         ("register_reader", "register_writer"), None),
    ]
    # Every queue discipline, each wrapped where it defines the method,
    # so a subclass calling its base records a nested span.
    pending = [QueueDiscipline]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "enqueue" in vars(cls):
            table.append(("net.qdisc.enqueue", cls, ("enqueue",), bool))
        if "dequeue" in vars(cls):
            table.append(("net.qdisc.dequeue", cls, ("dequeue",), None))
    return table


class SetupDone(Exception):
    """Raised at the first ``Kernel.run`` of a set-up-only repetition."""


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


class Recorder:
    """Span stack, aggregate table and boundary spans of one process."""

    def __init__(self) -> None:
        #: Open frames: [name, time covered by children].
        self.stack: List[list] = [["process", 0.0]]
        #: (name, parent) -> [count, total_s, self_s, failed_outcomes]
        self.agg: Dict[Tuple[str, str], list] = {}
        #: Full boundary spans: (name, start, end, parent).
        self.boundaries: List[Tuple[str, float, float, str]] = []
        self._run_starts: List[float] = []
        self._run_ends: List[float] = []
        self._run_s = 0.0
        #: StreamConnections built during the current arm (traced run).
        self.connections: List[Any] = []
        #: Stop every arm at its first ``Kernel.run`` (set-up probes).
        self.setup_only = False

    # -- wrappers -------------------------------------------------------
    def _wrap(self, cls: Any, attr: str, name: str,
              outcome: Optional[Callable[[Any], bool]]) -> None:
        original = vars(cls)[attr]
        stack = self.stack
        agg = self.agg

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                parent[1] += duration
                key = (name, parent[0])
                row = agg.get(key)
                if row is None:
                    row = agg[key] = [0, 0.0, 0.0, 0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[1]
            if outcome is not None and not outcome(result):
                row[3] += 1
            return result

        setattr(cls, attr, wrapper)

    def _wrap_run(self) -> None:
        from repro.sim.kernel import Kernel

        original = vars(Kernel)["run"]
        stack = self.stack
        agg = self.agg

        def run(kernel: Any, until: Optional[float] = None) -> None:
            if self.setup_only:
                self._run_starts.append(perf_counter())
                raise SetupDone
            parent = stack[-1]
            frame = ["sim.run", 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                original(kernel, until)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent[1] += duration
                row = agg.setdefault(("sim.run", parent[0]),
                                     [0, 0.0, 0.0, 0])
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[1]
                self._run_starts.append(start)
                self._run_ends.append(end)
                self._run_s += duration
                self.boundaries.append(("run", start, end, "arm"))

        Kernel.run = run  # type: ignore[method-assign]

    def _track_connections(self) -> None:
        from repro.net.transport import StreamConnection

        original = vars(StreamConnection)["__init__"]
        connections = self.connections

        def __init__(conn: Any, *args: Any, **kwargs: Any) -> None:
            original(conn, *args, **kwargs)
            connections.append(conn)

        StreamConnection.__init__ = __init__  # type: ignore[method-assign]

    def install(self, trace: bool) -> None:
        self._wrap_run()
        if trace:
            for name, cls, methods, outcome in _layers():
                for attr in methods:
                    self._wrap(cls, attr, name, outcome)
            self._track_connections()

    # -- arm boundaries -------------------------------------------------
    def run_arm(self, call: Callable[[], Any]) -> Tuple[Any, Dict[str, float]]:
        """Run one arm under an ``arm`` frame; return its boundary split.

        ``build_s`` runs from the arm's start to its first
        ``Kernel.run``; ``analysis_s`` from the last ``Kernel.run``
        return to the payload.  An arm that never runs a kernel is all
        build.
        """
        del self._run_starts[:], self._run_ends[:]
        self._run_s = 0.0
        frame = ["arm", 0.0]
        self.stack.append(frame)
        start = perf_counter()
        try:
            result = call()
        except SetupDone:
            result = None
        finally:
            end = perf_counter()
            self.stack.pop()
        first = self._run_starts[0] if self._run_starts else end
        last = self._run_ends[-1] if self._run_ends else end
        self.boundaries.append(("arm", start, end, "process"))
        self.boundaries.append(("build", start, first, "arm"))
        self.boundaries.append(("analysis", last, end, "arm"))
        split = {"wall_s": end - start, "build_s": first - start,
                 "run_s": self._run_s, "analysis_s": end - last}
        return result, split

    def take_transport_counters(self) -> Dict[str, int]:
        """Sum the public counters of this arm's connections, then forget
        them (so finished worlds can be freed)."""
        conns = self.connections
        counters = {
            "segments": sum(c.segments_sent for c in conns),
            "retransmissions": sum(c.retransmissions for c in conns),
        }
        conns.clear()
        return counters

    # -- summaries ------------------------------------------------------
    def totals(self) -> Dict[str, list]:
        """name -> [count, total_s, self_s, outer_failed, outer_count].

        The first three sum over all parents.  The ``outer_`` entries
        count only calls whose parent span is in another layer, so a
        qdisc that hands a packet to an inner qdisc counts it once.
        """
        out: Dict[str, list] = {}
        for (name, parent), (count, total, self_s, failed) in self.agg.items():
            row = out.setdefault(name, [0, 0.0, 0.0, 0, 0])
            row[0] += count
            row[1] += total
            row[2] += self_s
            if layer_of(parent) != layer_of(name):
                row[3] += failed
                row[4] += count
        return out

    def layer_self(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for (name, _parent), row in self.agg.items():
            layer = layer_of(name)
            out[layer] = out.get(layer, 0.0) + row[2]
        return out

    def dump(self) -> Dict[str, Any]:
        return {
            "aggregate": [[name, parent, *row]
                          for (name, parent), row in sorted(self.agg.items())],
            "boundaries": [list(span) for span in self.boundaries],
        }
