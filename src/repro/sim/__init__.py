"""Discrete-event simulation kernel.

This package is the foundation of the reproduction: every host CPU,
network link, router queue, and middleware actor in :mod:`repro` runs on
the simulated clock provided here rather than on wall-clock time.  That
substitution is what makes a Python reproduction of a real-time systems
paper deterministic and laptop-scale (see DESIGN.md, section 2).

Public surface
--------------

``Kernel``
    The event loop: a time-ordered queue of scheduled callbacks plus a
    simulated clock.  The pending-event store is pluggable
    (``REPRO_SCHEDULER``): a binary heap by default, and a
    calendar-queue/timer-wheel backend as the differential reference.

``PeriodicTicker`` / ``TickCoalescer``
    Kernel-level timer coalescing: batch N same-tick wakeups into one
    kernel event (the stream farm's frame-clock trick, generalized).

``Process``
    A generator-based coroutine executing on a kernel.  Processes yield
    :class:`Timeout`, :class:`Signal`, or other processes to suspend.

``Signal``
    A broadcast wake-up primitive with optional payload.

``RngRegistry``
    Named, independently seeded random streams so that adding a new
    stochastic component never perturbs existing ones.
"""

from repro.sim.coalesce import PeriodicTicker, TickCoalescer
from repro.sim.eventq import (
    CalendarEventQueue,
    HeapEventQueue,
    make_event_queue,
    scheduler_from_env,
)
from repro.sim.kernel import Kernel, ScheduledEvent, SimulationError
from repro.sim.process import (
    AnyOf,
    Interrupt,
    Process,
    ProcessError,
    Signal,
    Timeout,
)
from repro.sim.rng import RngRegistry

__all__ = [
    "AnyOf",
    "CalendarEventQueue",
    "HeapEventQueue",
    "Interrupt",
    "Kernel",
    "PeriodicTicker",
    "Process",
    "ProcessError",
    "RngRegistry",
    "ScheduledEvent",
    "Signal",
    "SimulationError",
    "TickCoalescer",
    "Timeout",
    "make_event_queue",
    "scheduler_from_env",
]
