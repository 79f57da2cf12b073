"""Property tests: ``repeat_add`` is n sequential ``+=``, bit for bit.

Fluid cohorts add one member value ``count`` times into shared link
ledgers, and their payloads stay identical to the per-flow engine only
if that n-fold addition rounds exactly like the plain loop.  Every case
here compares :func:`repro.sim.quantize.repeat_add` with
``for _ in range(n): acc += x`` on the raw IEEE bits, over the places
where a shortcut would drift:

- increments that land exactly half an ulp past a float, where
  ties-to-even makes the first step differ from the rest;
- sums that cross one or many binades, where the ulp doubles;
- ``x`` far above ``acc`` and ``acc == 0``;
- ``n`` of 0, 1 and 2, and ``n`` up to 10^6.
"""

import math
import struct

from hypothesis import example, given, settings, strategies as st

from repro.sim.quantize import repeat_add

FINITE = st.floats(allow_nan=False, allow_infinity=False)
ANY = st.floats(allow_nan=True, allow_infinity=True)
SMALL_N = st.integers(min_value=0, max_value=2000)


def plain(acc, x, n):
    for _ in range(n):
        acc += x
    return acc


def same_bits(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


def check(acc, x, n):
    expected = plain(acc, x, n)
    got = repeat_add(acc, x, n)
    assert same_bits(got, expected), (acc, x, n, got, expected)


@given(ANY, ANY, SMALL_N)
@settings(max_examples=400, deadline=None)
def test_prop_matches_the_loop_for_any_floats(acc, x, n):
    check(acc, x, n)


@given(ANY, ANY, st.sampled_from((0, 1, 2)))
@settings(max_examples=200, deadline=None)
def test_prop_zero_one_and_two_additions(acc, x, n):
    check(acc, x, n)


@given(
    st.integers(min_value=-60, max_value=60),          # binade exponent
    st.integers(min_value=2 ** 52, max_value=2 ** 53 - 1),  # acc mantissa
    st.integers(min_value=0, max_value=64),             # whole ulps in x
    st.booleans(),                                      # negate both
    SMALL_N,
)
@settings(max_examples=300, deadline=None)
def test_prop_ties_to_even_increments(exponent, mantissa, ulps, negate, n):
    """``x`` is a whole number of ulps plus exactly one half: every step
    is a tie, and the parity of ``acc`` decides the first rounding."""
    ulp = math.ldexp(1.0, exponent - 52)
    acc = mantissa * ulp
    x = (ulps + 0.5) * ulp
    if negate:
        acc, x = -acc, -x
    check(acc, x, n)


@given(
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=4000),   # ulps from the edge
    st.floats(min_value=1e-3, max_value=1e3),   # x relative to the ulp
    st.integers(min_value=1, max_value=20_000),
)
@settings(max_examples=200, deadline=None)
def test_prop_binade_crossings(exponent, away, scale, n):
    """``acc`` starts just under a power of two and grows into binades
    whose ulp is 2x, 4x, ... the starting one; or starts just over it
    and shrinks into binades with ever finer ulps."""
    edge = math.ldexp(1.0, exponent)
    ulp = math.ulp(edge / 2.0)
    check(edge - away * ulp, scale * ulp, n)
    check(edge + away * 2.0 * ulp, -scale * ulp, n)
    check(-(edge + away * 2.0 * ulp), scale * ulp, n)


@given(FINITE.filter(lambda v: v != 0.0),
       st.integers(min_value=10, max_value=300), SMALL_N)
@settings(max_examples=200, deadline=None)
def test_prop_x_far_above_acc_and_zero_acc(x, gap, n):
    check(0.0, x, n)
    check(-0.0, x, n)
    check(x * math.ldexp(1.0, -gap), x, n)


@given(
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e12)),
    st.one_of(st.floats(min_value=1e-9, max_value=1e9),
              st.sampled_from((163_722.666_666_666_66, 0.1, 1e-300))),
    st.integers(min_value=100_000, max_value=1_000_000),
)
@example(0.0, 0.1, 1_000_000)
@example(2.0 ** 53, 1.5, 1_000_000)
@example(1.0, 1e-20, 1_000_000)
@settings(max_examples=8, deadline=None)
def test_prop_large_n(acc, x, n):
    check(acc, x, n)
