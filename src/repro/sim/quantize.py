"""Shared numeric policy for resource-accounting hot paths.

Token buckets (:mod:`repro.net.queues`) and CPU reserves
(:mod:`repro.oskernel.reserve`) both subtract consumption from a
float budget across millions of small operations.  IEEE subtraction of
``a - b`` with ``a >= b`` never goes negative, but *comparisons* against
the budget accumulate representation error, so both layers used to carry
their own ad-hoc epsilon.  This module is the single source of truth:

``EPSILON``
    One simulated nanosecond (or one nano-unit of whatever the budget
    measures).  Residue at or below this is treated as exactly zero —
    coarse enough that ``now + slice`` is always a representable later
    float, fine enough that no real budget is ever confused with noise.

``clamp``
    Range-restrict a float accumulator so stored values satisfy their
    documented interval invariant (``tokens in [0, depth]``,
    ``budget in [0, compute]``) *exactly*, not just up to drift.

``repeat_add``
    ``n`` sequential ``+=`` of one value in O(log n) steps, bit for bit:
    how cohort ledgers equal their per-member sums exactly.
"""

from __future__ import annotations

import math

__all__ = ["EPSILON", "clamp", "is_zero", "repeat_add"]

#: The one epsilon for budget/token comparisons across the stack.
EPSILON = 1e-9


def clamp(value: float, lo: float, hi: float) -> float:
    """Restrict ``value`` to ``[lo, hi]``."""
    if value < lo:
        return lo
    if value > hi:
        return hi
    return value


def is_zero(value: float) -> bool:
    """True if ``value`` is indistinguishable from an exhausted budget."""
    return value <= EPSILON


def repeat_add(acc: float, x: float, n: int) -> float:
    """``acc`` after ``n`` sequential ``acc += x``, bit for bit.

    ``acc + n * x`` rounds once where the loop rounds ``n`` times.  In
    one binade (ulp ``u``) a step adds a ``d`` that depends on ``acc``
    only through the parity of ``acc / u`` (ties go to even), and a
    step taken wholly inside the binade settles that parity: after two
    such steps every further one adds the same ``d``, so the loop jumps
    to the binade's edge.  That is O(log n) steps in all.
    """
    settled = False
    while n > 0:
        if not math.isfinite(acc):
            return acc + x  # inf and nan absorb every further addend
        before = acc
        acc += x
        n -= 1
        if n == 0 or acc == before:
            return acc  # done, or a fixed point every step repeats
        # The interior of acc's binade, one ulp inside either edge: a
        # step that starts and ends there was rounded on its grid.
        u = math.ulp(acc)
        base = math.ldexp(1.0, math.frexp(acc)[1] - 1)
        lo, hi = base + u, base + (base - u)
        inside = (lo <= abs(acc) <= hi and lo <= abs(before) <= hi
                  and (acc < 0.0) == (before < 0.0))
        if inside and settled:
            step = acc - before
            room = (hi - abs(acc) if (step > 0.0) == (acc > 0.0)
                    else abs(acc) - lo)
            jumps = min(n, int(room / u) // int(abs(step) / u))
            acc += jumps * step
            n -= jumps
        settled = inside
    return acc
