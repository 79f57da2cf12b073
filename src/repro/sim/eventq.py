"""Pluggable pending-event queues for the simulation kernel.

The kernel's job is to pop scheduled events in exact ``(time, seq)``
order; *how* the pending set is stored is a pure implementation detail
that never changes results.  This module provides the two backends
behind the ``REPRO_SCHEDULER`` switch:

``HeapEventQueue`` (``REPRO_SCHEDULER=heap``, the default)
    A binary heap of ``(time, seq, event)`` tuples, so every comparison
    happens in C instead of through a Python-level ``__lt__``.  The
    pending set of the per-packet figures is tiny (fig7's arms hold at
    most 7 events), and C ``heappush``/``heappop`` on it beat the
    calendar queue's Python-level bucket logic: cold and serial on a
    2-core host, fig7's three arms ran 11.2-12.8 s against
    13.3-15.0 s, and no other figure workload was slower.

``CalendarEventQueue`` (``REPRO_SCHEDULER=calendar``)
    A calendar queue / bucketed timer wheel: near-future events are
    hashed into fixed-width time buckets (sorted lazily when the clock
    reaches them, O(1) amortized push/pop), far-future events overflow
    into a small binary heap and migrate into the wheel as its window
    advances.  The bucket width adapts to the observed event density —
    oversized buckets split, long empty-bucket scans widen — so both
    packet-rate microsecond timers and sparse second-scale timeouts
    stay cheap.  Kept as the reference backend: it is structurally
    unlike the heap, so the parity suite's heap-vs-calendar runs catch
    any ordering bug in either.

Determinism contract
--------------------

Both backends pop in strictly increasing ``(time, seq)`` order, where
``seq`` is the kernel's global schedule counter.  Ties on ``time``
therefore fire in schedule order (FIFO), identically under either
backend, which is what makes old-vs-new differential runs
(``tests/sim/test_scheduler_parity.py``) byte-identical.  Bucket
resizes, window refills and tombstone compaction only move entries
between containers — the ``(time, seq)`` sort key is immutable, so no
structural operation can ever reorder a pop sequence.

Entries are array-of-struct style ``(time, seq, event)`` tuples; the
``event`` is the caller's cancellation handle
(:class:`~repro.sim.kernel.ScheduledEvent`).  ``seq`` is unique, so
tuple comparisons never fall through to the event object.
"""

from __future__ import annotations

import os
from bisect import insort
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Tuple

__all__ = [
    "SCHEDULER_ENV",
    "DEFAULT_SCHEDULER",
    "SCHEDULER_BACKENDS",
    "scheduler_from_env",
    "make_event_queue",
    "HeapEventQueue",
    "CalendarEventQueue",
]

#: Environment variable selecting the kernel's pending-event backend.
SCHEDULER_ENV = "REPRO_SCHEDULER"
DEFAULT_SCHEDULER = "heap"


def scheduler_from_env() -> str:
    """Backend name from ``REPRO_SCHEDULER`` (default ``heap``)."""
    name = os.environ.get(SCHEDULER_ENV, "").strip().lower()
    if not name:
        return DEFAULT_SCHEDULER
    if name not in SCHEDULER_BACKENDS:
        valid = ", ".join(sorted(SCHEDULER_BACKENDS))
        raise ValueError(
            f"{SCHEDULER_ENV}={name!r} is not a scheduler backend "
            f"(valid: {valid})"
        )
    return name


def make_event_queue(name: Optional[str] = None):
    """Instantiate a backend by name (``None``: the environment choice)."""
    if name is None:
        name = scheduler_from_env()
    try:
        cls = SCHEDULER_BACKENDS[name]
    except KeyError:
        valid = ", ".join(sorted(SCHEDULER_BACKENDS))
        raise ValueError(
            f"unknown scheduler backend {name!r} (valid: {valid})"
        ) from None
    return cls()


class HeapEventQueue:
    """Default backend: one binary heap of ``(time, seq, event)`` tuples.

    The calendar queue is its differential reference (selectable via
    ``REPRO_SCHEDULER=calendar``): any ordering bug in either structure
    shows up as a payload or trace divergence against the other.
    """

    name = "heap"

    __slots__ = ("_heap", "stale")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, object]] = []
        #: Cancelled entries still occupying slots (tombstones).
        self.stale = 0

    # -- mutation ------------------------------------------------------
    def push(self, time: float, seq: int, event) -> None:
        heappush(self._heap, (time, seq, event))

    def pop_due(self, limit: Optional[float]):
        """Pop and return the next live event, or ``None``.

        Tombstones at the front are pruned regardless of ``limit``; a
        live front event with ``time > limit`` is left in place and
        ``None`` is returned.  The returned event's ``_kernel`` link is
        cleared (it has left the queue).
        """
        heap = self._heap
        while heap:
            entry = heappop(heap)
            event = entry[2]
            if event.cancelled:
                event._kernel = None
                self.stale -= 1
                continue
            if limit is not None and entry[0] > limit:
                # Rare (once per bounded run): put it back.  Keys are
                # unique, so the pop order is unaffected.
                heappush(heap, entry)
                return None
            event._kernel = None
            return event
        return None

    def note_cancel(self) -> None:
        self.stale += 1

    def compact(self) -> None:
        """Drop tombstones and re-heapify; pop order is unaffected."""
        live = []
        for entry in self._heap:
            if entry[2].cancelled:
                entry[2]._kernel = None
            else:
                live.append(entry)
        self._heap = live
        heapify(live)
        self.stale = 0

    # -- inspection ----------------------------------------------------
    def peek(self) -> Optional[float]:
        """Time of the next live event (front tombstones are pruned)."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2].cancelled:
                heappop(heap)
                entry[2]._kernel = None
                self.stale -= 1
                continue
            return entry[0]
        return None

    def size(self) -> int:
        """Entries held, including tombstones."""
        return len(self._heap)

    def live(self) -> int:
        return len(self._heap) - self.stale

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HeapEventQueue size={len(self._heap)} stale={self.stale}>"


class CalendarEventQueue:
    """Calendar-queue backend: near wheel + far heap.

    Structure
    ---------
    * ``_slots``: dict mapping *absolute* bucket index
      ``int(time / width)`` to an append-only list of entries.  Keying
      by absolute index (instead of ``index % nslots``) means a bucket
      never mixes events from different wheel revolutions, so there is
      no per-pop "same year?" filtering.
    * The wheel window covers bucket indices ``[_cur, _limit)``.  Its
      size scales with the pending population — ``max(nslots, n / 8)``
      buckets, like a classic Brown calendar queue resizing its bucket
      array — so a large pending set stays inside the wheel instead of
      thrashing through the overflow heap.  Pushes beyond ``_limit`` go
      to the ``_far`` heap and migrate into the wheel when its window
      advances past them.  The window is recomputed only when the
      wheel is empty (anchor, far-refill) or on a full rebuild:
      growing it mid-stream would let wheel buckets overlap far-heap
      times and break pop order.
    * A bucket is *activated* when the consumer reaches it: sorted once
      (C tuple sort), then drained through an index cursor (``_ai``) —
      no per-pop sift.  Pushes landing in the active bucket
      ``bisect.insort`` behind the cursor, which preserves exact order
      because their time is ``>= now`` and their seq is the largest yet.

    Adaptation
    ----------
    Bucket width follows event density: an activated bucket holding
    more than ``BIG_BUCKET`` entries at distinct times narrows the
    width; sparse buckets widen it — either a long empty-bucket scan
    in one activation (``WIDE_SCAN``) or a low mean occupancy over the
    last ``ADAPT_PERIOD`` activations (``SPARSE_OCCUPANCY``), which
    keeps the per-event share of activation overhead (scan + sort +
    bookkeeping) small.  A resize re-buckets pending entries
    (``resizes`` counts them) and cannot reorder pops — order lives in
    the ``(time, seq)`` keys, not the containers.

    Rewind
    ------
    ``run(until=...)`` can leave the consumer parked on a future
    bucket; a subsequent push may legally target an earlier bucket
    (time is only constrained to ``>= now``).  The push path detects
    ``index < _cur``, parks the active bucket's remainder back in its
    slot, and rewinds the consumer — a rare, cheap path covered by the
    property suite.
    """

    name = "calendar"

    #: Minimum wheel window size in buckets (grows with the pending
    #: population, see :meth:`_window`).
    NSLOTS = 256
    #: Initial bucket width in simulated seconds (auto-adapts).
    INITIAL_WIDTH = 1e-3
    #: Activated-bucket population that triggers a narrowing resize.
    BIG_BUCKET = 192
    #: Empty buckets scanned in one activation that trigger widening.
    WIDE_SCAN = 128
    #: Occupancy review period, in bucket activations.
    ADAPT_PERIOD = 64
    #: Mean entries-per-activated-bucket below which the width widens.
    #: Post-widening occupancy lands around ``8 * RESIZE_FACTOR``,
    #: comfortably below the ``BIG_BUCKET`` narrowing trigger, so the
    #: two adaptations cannot oscillate.
    SPARSE_OCCUPANCY = 8
    #: Resize step and clamp range for the bucket width.
    RESIZE_FACTOR = 8.0
    MIN_WIDTH = 1e-9
    MAX_WIDTH = 1e9
    #: Never resize below this population (not worth re-bucketing).
    RESIZE_MIN_EVENTS = 64

    __slots__ = ("_slots", "_far", "_active", "_ai", "_cur", "_limit",
                 "_width", "_nslots", "_n", "_act_buckets", "_act_events",
                 "stale", "resizes", "migrations")

    def __init__(self, width: Optional[float] = None,
                 nslots: Optional[int] = None) -> None:
        if width is not None and width <= 0:
            raise ValueError(f"bucket width must be positive, got {width}")
        if nslots is not None and nslots < 4:
            raise ValueError(f"need at least 4 slots, got {nslots}")
        self._width = float(width) if width is not None else self.INITIAL_WIDTH
        self._nslots = int(nslots) if nslots is not None else self.NSLOTS
        #: absolute bucket index -> [(time, seq, event), ...]
        self._slots: Dict[int, List[Tuple[float, int, object]]] = {}
        #: overflow heap for events beyond the wheel window
        self._far: List[Tuple[float, int, object]] = []
        self._active: Optional[List[Tuple[float, int, object]]] = None
        self._ai = 0
        self._cur: Optional[int] = None
        self._limit = 0
        self._n = 0
        #: Occupancy window: buckets activated / entries they held.
        self._act_buckets = 0
        self._act_events = 0
        #: Cancelled entries still occupying slots (tombstones).
        self.stale = 0
        #: Width adaptations performed (observability / tests).
        self.resizes = 0
        #: Entries migrated far-heap -> wheel (observability / tests).
        self.migrations = 0

    # -- mutation ------------------------------------------------------
    def push(self, time: float, seq: int, event) -> None:
        self._n += 1
        cur = self._cur
        if cur is None:
            # Empty queue: anchor the wheel window at this event.
            idx = int(time / self._width)
            self._cur = idx
            self._limit = idx + self._window()
            self._slots[idx] = [(time, seq, event)]
            return
        idx = int(time / self._width)
        if idx == cur:
            active = self._active
            if active is not None:
                # Active bucket is sorted and partially drained; the
                # new entry's time is >= every consumed time and its
                # seq is the largest yet, so insort lands it at or
                # behind the cursor — order preserved exactly.
                insort(active, (time, seq, event))
                return
        elif idx >= self._limit:
            heappush(self._far, (time, seq, event))
            return
        elif idx < cur:
            # Rewind (see class docstring): park the active remainder
            # and move the consumer back.
            active = self._active
            if active is not None:
                if self._ai:
                    del active[: self._ai]
                self._active = None
                self._ai = 0
            self._cur = idx
        bucket = self._slots.get(idx)
        if bucket is None:
            self._slots[idx] = [(time, seq, event)]
        else:
            bucket.append((time, seq, event))

    def pop_due(self, limit: Optional[float]):
        """Pop and return the next live event, or ``None``.

        Same contract as :meth:`HeapEventQueue.pop_due`.  The common
        case — a live entry under the cursor of an already-activated
        bucket — is handled inline; everything else (tombstones, bucket
        transitions, window refills) drops to :meth:`_front`.
        """
        active = self._active
        if active is not None:
            i = self._ai
            if i < len(active):
                entry = active[i]
                event = entry[2]
                if not event.cancelled:
                    if limit is not None and entry[0] > limit:
                        return None
                    self._ai = i + 1
                    self._n -= 1
                    event._kernel = None
                    return event
        entry = self._front()
        if entry is None:
            return None
        if limit is not None and entry[0] > limit:
            return None
        self._ai += 1
        self._n -= 1
        event = entry[2]
        event._kernel = None
        return event

    def note_cancel(self) -> None:
        self.stale += 1

    def compact(self) -> None:
        """Rebuild every container without its tombstones."""
        self._distribute(sorted(self._collect_live()), self._width)

    # -- inspection ----------------------------------------------------
    def peek(self) -> Optional[float]:
        entry = self._front()
        return entry[0] if entry is not None else None

    def size(self) -> int:
        """Entries held, including tombstones."""
        return self._n

    def live(self) -> int:
        return self._n - self.stale

    # -- internals -----------------------------------------------------
    def _front(self):
        """Advance to, and return, the next live entry (not consumed).

        Prunes tombstones, activates buckets, refills the wheel from
        the far heap, and applies width adaptation along the way.
        """
        while True:
            active = self._active
            if active is not None:
                i = self._ai
                while i < len(active):
                    entry = active[i]
                    event = entry[2]
                    if not event.cancelled:
                        self._ai = i
                        return entry
                    # Remove the tombstone outright rather than
                    # cursor-skipping it: a skipped tombstone with a
                    # *future* time would sit behind the cursor, and a
                    # later same-bucket push with an earlier time would
                    # insort behind the cursor too — and be lost.  With
                    # removal, everything behind the cursor is a popped
                    # live entry, whose (time, seq) key is strictly
                    # below any future push's key.
                    del active[i]
                    self._n -= 1
                    self.stale -= 1
                    event._kernel = None
                self._ai = i
                # Bucket drained: retire it and advance the consumer.
                del self._slots[self._cur]
                self._active = None
                self._ai = 0
                self._cur += 1
            if self._n == 0:
                # Queue empty: drop the anchor so the next push can
                # re-center the window wherever it lands.
                self._reset()
                return None
            slots = self._slots
            if slots:
                cur = self._cur
                bucket = slots.get(cur)
                scanned = 0
                while bucket is None:
                    cur += 1
                    scanned += 1
                    if scanned > self.WIDE_SCAN:
                        # Long gap (tiny width, or a post-rewind window
                        # spanning far more than nslots buckets): jump
                        # straight to the earliest occupied bucket
                        # instead of probing every index on the way.
                        # Every key is >= the consumer position, so the
                        # minimum is exactly the next bucket due.
                        cur = min(slots)
                        bucket = slots[cur]
                        break
                    bucket = slots.get(cur)
                self._cur = cur
                bucket.sort()
                blen = len(bucket)
                if self._n >= self.RESIZE_MIN_EVENTS:
                    if (blen > self.BIG_BUCKET
                            and bucket[0][0] < bucket[-1][0]
                            and self._width > self.MIN_WIDTH):
                        self._rebuild(self._width / self.RESIZE_FACTOR)
                        continue
                    if (scanned > self.WIDE_SCAN
                            and self._width < self.MAX_WIDTH):
                        self._rebuild(self._width * self.RESIZE_FACTOR)
                        continue
                # Occupancy review: if the last ADAPT_PERIOD activated
                # buckets averaged fewer than SPARSE_OCCUPANCY entries,
                # the per-event share of activation overhead is too
                # high — widen so each activation serves more pops.
                ab = self._act_buckets + 1
                if ab >= self.ADAPT_PERIOD:
                    events = self._act_events + blen
                    self._act_buckets = 0
                    self._act_events = 0
                    if (events < ab * self.SPARSE_OCCUPANCY
                            and self._n >= self.RESIZE_MIN_EVENTS
                            and self._width < self.MAX_WIDTH):
                        self._rebuild(self._width * self.RESIZE_FACTOR)
                        continue
                else:
                    self._act_buckets = ab
                    self._act_events += blen
                self._active = bucket
                self._ai = 0
                continue
            # Wheel exhausted: advance the window to the far heap's
            # earliest event and migrate everything that now fits.
            far = self._far
            width = self._width
            cur = int(far[0][0] / width)
            limit = cur + self._window()
            self._cur = cur
            self._limit = limit
            migrated = 0
            while far:
                time = far[0][0]
                idx = int(time / width)
                if idx >= limit:
                    break
                entry = heappop(far)
                bucket = slots.get(idx)
                if bucket is None:
                    slots[idx] = [entry]
                else:
                    bucket.append(entry)
                migrated += 1
            self.migrations += migrated

    def _window(self) -> int:
        """Wheel window size in buckets for the current population.

        ``n / 8`` buckets targets a mean occupancy of ~8 once the width
        has adapted, while the floor keeps small queues at a fixed,
        cheap geometry.
        """
        return max(self._nslots, self._n >> 3)

    def _rebuild(self, new_width: float) -> None:
        """Re-bucket everything at ``new_width`` (order is unaffected)."""
        new_width = min(max(new_width, self.MIN_WIDTH), self.MAX_WIDTH)
        if new_width == self._width:
            return
        self.resizes += 1
        self._distribute(sorted(self._collect_live()), new_width)

    def _distribute(self, live, width: float) -> None:
        """Reset and re-seat ``live`` (sorted entries) at ``width``.

        Bulk equivalent of pushing each entry: the window is computed
        once for the full population, so a large set lands directly in
        the wheel instead of overflowing through the far heap.
        """
        self._reset()
        self._width = width
        if not live:
            return
        n = len(live)
        self._n = n
        cur = int(live[0][0] / width)
        limit = cur + max(self._nslots, n >> 3)
        self._cur = cur
        self._limit = limit
        slots = self._slots
        far = self._far
        for entry in live:
            idx = int(entry[0] / width)
            if idx < limit:
                bucket = slots.get(idx)
                if bucket is None:
                    slots[idx] = [entry]
                else:
                    bucket.append(entry)
            else:
                far.append(entry)
        # ``live`` is sorted, so ``far`` was appended in heap order
        # already; heapify is a cheap O(n) safety net.
        heapify(far)

    def _collect_live(self):
        """Every live entry, in container order; tombstones dropped."""
        live = []
        active = self._active
        for bucket in self._slots.values():
            start = self._ai if bucket is active else 0
            for j in range(start, len(bucket)):
                entry = bucket[j]
                if entry[2].cancelled:
                    entry[2]._kernel = None
                else:
                    live.append(entry)
        for entry in self._far:
            if entry[2].cancelled:
                entry[2]._kernel = None
            else:
                live.append(entry)
        return live

    def _reset(self) -> None:
        self._slots = {}
        self._far = []
        self._active = None
        self._ai = 0
        self._cur = None
        self._limit = 0
        self._n = 0
        self._act_buckets = 0
        self._act_events = 0
        self.stale = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<CalendarEventQueue size={self._n} stale={self.stale} "
                f"width={self._width:g} resizes={self.resizes}>")


SCHEDULER_BACKENDS = {
    HeapEventQueue.name: HeapEventQueue,
    CalendarEventQueue.name: CalendarEventQueue,
}
