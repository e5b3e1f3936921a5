import json
import math
import random
import re
from fractions import Fraction
from itertools import islice
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqfix import (
    BoundedSeq,
    EmbeddedMap,
    FiniteArityMap,
    LinearSeqMap,
    SeqMap,
    SupHalfMap,
    dist_p_geom,
    dist_sup_geom,
    embed_finite,
    empirical_lip_lower_bound,
    find_p_certificate,
    find_sup_certificate,
    solve_fixed_point,
    truncate,
)
from seqfix.maps import _lip_lower_bounds, _random_seq
from seqfix.sequences import _left_sum

# the recurring worked example: b_n = 1/(3 * 2^n), offset 1
RECUR = LinearSeqMap(head_coeffs=(1.0 / 3.0,), tail_coeff=1.0 / 6.0, tail_ratio=0.5, offset=1.0)
# at q = 0.25 the p = 2 series terms of b_0 and of the tail's first coefficient are equal, 0.25 each
TIED = LinearSeqMap((0.5,), 0.25, 0.1, 1.0)


def brute_eval(f, x, terms=2000):
    return f.offset + math.fsum(f.coeff_at(n) * x.at(n) for n in range(terms))


def brute_lip_sup(f, q, terms=600):
    return math.fsum(abs(f.coeff_at(n)) / q**n for n in range(terms))


def brute_lip_p(f, p, q, terms=400):
    # conj/p = 1/(p-1), so each series term is (|b_n| / q**(n/p))**conj
    conj = p / (p - 1.0)
    return math.fsum((abs(f.coeff_at(n)) / q ** (n / p)) ** conj for n in range(terms)) ** (1.0 / conj)


def random_linear(rng, abs_sum=None, ratio_span=0.5):
    head = tuple(rng.uniform(-1, 1) for _ in range(rng.randrange(0, 5)))
    beta = rng.choice((-1, 1)) * rng.uniform(0.1, 1.0)
    rho = rng.uniform(-ratio_span, ratio_span)
    f = LinearSeqMap(head, beta, rho, rng.uniform(-2, 2))
    if abs_sum is not None:
        scale = abs_sum / f.sum_abs_coeffs()
        f = LinearSeqMap(tuple(b * scale for b in head), beta * scale, rho, f.offset)
    return f


def random_seq(rng, span=2.0):
    k = rng.randrange(0, 7)
    return BoundedSeq(tuple(rng.uniform(-span, span) for _ in range(k)), rng.uniform(-span, span))


def test_coeff_at():
    assert RECUR.coeff_at(0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert RECUR.coeff_at(1) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert RECUR.coeff_at(4) == pytest.approx(1.0 / 48.0, abs=1e-15)
    with pytest.raises(ValueError):
        RECUR.coeff_at(-1)


def test_tail_sum_from_a_negative_index_is_a_value_error():
    f = LinearSeqMap((0.5, 0.25), 0.1, 0.5, 1.0)
    assert f.tail_sum_from(1) == 0.25 + 0.1 / 0.5
    with pytest.raises(ValueError, match="^coefficient index must be nonnegative$"):
        f.tail_sum_from(-1)


def test_ratio_must_be_summable():
    with pytest.raises(ValueError):
        LinearSeqMap((), 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        LinearSeqMap((), 1.0, -1.2, 0.0)


def test_eval_fixed_point_of_recursion_map():
    assert RECUR.eval(BoundedSeq.constant(3.0)) == pytest.approx(3.0, abs=1e-12)


def test_eval_constant_map():
    f = LinearSeqMap(offset=7.0)
    assert f.eval(BoundedSeq((1.0, -2.0, 3.0), 0.5)) == 7.0


def test_eval_matches_series():
    rng = random.Random(3)
    for _ in range(200):
        f = random_linear(rng, ratio_span=0.9)
        x = random_seq(rng)
        assert f.eval(x) == pytest.approx(brute_eval(f, x), abs=1e-9)


def test_diagonal():
    rng = random.Random(5)
    for _ in range(50):
        f = random_linear(rng)
        t = rng.uniform(-3, 3)
        assert f.diagonal(t) == pytest.approx(f.offset + f.sum_coeffs() * t, abs=1e-10)
    assert SupHalfMap().diagonal(1.0) == 0.5
    assert RECUR.diagonal(3.0) == pytest.approx(3.0, abs=1e-12)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def hex_or_error(fn, t):
    """``fn(t)`` in hex, or the message of the ``ValueError`` it raises."""
    try:
        return fn(t).hex()
    except ValueError as e:
        return str(e)


@settings(max_examples=300)
@given(st.lists(FINITE, max_size=5), FINITE, st.floats(-0.999, 0.999), FINITE, st.floats())
@example([0.5], 0.0, 0.0, 0.0, 0.0)
@example([0.5], 0.0, 0.0, -0.0, -0.0)  # -0.0 + (-0.0) * 0.5 keeps the sign
@example([0.5, 0.75], 0.25, 0.5, 1.0, 1e308)  # t * sum_n b_n overflows to inf
@example([1e308, 1e308], 0.0, 0.0, 0.0, 1.0)  # sum_n b_n overflows, then the value
@example([-0.5], 0.0, 0.0, 1e308, -1e308)  # offset + t * sum_n b_n overflows
@example([0.5], 1e308, 0.5, 0.0, 0.0)  # sum_n b_n overflows, and the zero t adds nothing
@example([0.5], 1e308, 0.5, -0.0, -0.0)
@example([1e-16, 1.0], -1.0, 0.0, 0.0, 1.0)  # sum_n b_n depends on the order of summation
@example([0.5], 0.0, 0.0, 1.0, math.inf)
@example([0.5], 0.0, 0.0, 1.0, -math.inf)
@example([0.5], 0.0, 0.0, 1.0, math.nan)
def test_linear_diagonal_is_eval_on_the_constant_sequence_bit_for_bit(head, tail_coeff, tail_ratio, offset, t):
    f = LinearSeqMap(tuple(head), tail_coeff, tail_ratio, offset)
    ours = hex_or_error(f.diagonal, t)
    assert ours == hex_or_error(lambda v: f.eval(BoundedSeq.constant(v)), t)
    if not math.isfinite(t):
        assert ours == f"tail must be finite, got {t!r}"


def full_loop_eval(f, x):
    """``f.eval(x)`` through every prefix coordinate's ``coeff_at``, left to right, then the tail.

    A zero tail adds nothing where its product is NaN (0.0 times a tail sum that overflowed).
    """
    m = len(x.prefix)
    acc = f.offset
    for n in range(m):
        acc += f.coeff_at(n) * x.prefix[n]
    term = x.tail * f.tail_sum_from(m)
    return acc if math.isnan(term) and x.tail == 0.0 else acc + term


def full_loop_differences(f, pairs):
    """``f.differences(pairs)`` through every prefix coordinate's ``coeff_at``, pair by pair.

    A term with a zero factor adds nothing: a zero coefficient (every one past
    the map's live count is zero), a zero difference, and a tail whose sum or
    difference is zero.
    """
    out = []
    for a, b in pairs:
        m = max(len(a.prefix), len(b.prefix))
        terms = [(f.coeff_at(n), u - v) for n, (u, v) in enumerate(zip(a.head(m), b.head(m)))]
        acc = 0.0
        for c, d in terms + [(f.tail_sum_from(m), a.tail - b.tail)]:
            if c and d:
                acc += c * d
        out.append(abs(acc))
    return out


SIGNED_ZERO = st.sampled_from([0.0, -0.0])
ENTRIES = st.one_of(SIGNED_ZERO, st.sampled_from([1.0, -1.0, 1e308, -1e308]), FINITE)
SEQUENCES = st.builds(BoundedSeq, st.one_of(st.lists(ENTRIES, max_size=8), st.lists(ENTRIES, max_size=300)), ENTRIES)


@st.composite
def vanishing_tail_maps(draw):
    """A zero tail coefficient, or a zero ratio under a nonzero one, or else a tailed control; heads of 0-8."""
    head = tuple(draw(st.lists(st.one_of(SIGNED_ZERO, st.floats(-1.0, 1.0), FINITE), max_size=8)))
    nonzero_tail = FINITE.filter(lambda b: b != 0.0)
    tail, ratio = draw(st.one_of(
        st.tuples(SIGNED_ZERO, st.floats(-0.999, 0.999)),
        st.tuples(nonzero_tail, SIGNED_ZERO),
        st.tuples(nonzero_tail, st.floats(-0.999, 0.999).filter(lambda r: r != 0.0)),
    ))
    return LinearSeqMap(head, tail, ratio, draw(st.one_of(SIGNED_ZERO, FINITE)))


@settings(max_examples=300, deadline=None)
@given(vanishing_tail_maps(), SEQUENCES, SEQUENCES)
@example(LinearSeqMap((-0.5,), 0.0, 0.0, -0.0), BoundedSeq((0.0, 1.0), -1.0), BoundedSeq())  # -0.0 + 0.0 is 0.0
@example(LinearSeqMap((0.5,)), BoundedSeq((0.0, 1e308)), BoundedSeq((0.0, -1e308)))  # an unread 1e308 + 1e308
@example(LinearSeqMap((0.5,)), BoundedSeq((0.0,), 1e308), BoundedSeq((0.0,), -1e308))  # a tail whose sum is zero
@example(LinearSeqMap((), 0.5, 0.5), BoundedSeq((1.0, 1.0)), BoundedSeq())  # the tail's powers from r**0
def test_a_vanishing_tail_reads_the_head_and_keeps_every_bit(f, x, y):
    for z in (x, y):
        assert f.eval(z).hex() == full_loop_eval(f, z).hex()
    pairs = [(x, y), (y, x), (x, x)]
    assert [d.hex() for d in f.differences(pairs)] == [d.hex() for d in full_loop_differences(f, pairs)]


@st.composite
def tailed_maps(draw):
    """A nonzero tail coefficient under a nonzero ratio, heads of 0-8; coefficients reach ±1e308 and signed zeros."""
    head = tuple(draw(st.lists(ENTRIES, max_size=8)))
    tail = draw(ENTRIES.filter(lambda b: b != 0.0))
    ratio = draw(st.one_of(st.sampled_from([0.5, -0.5]), st.floats(-0.999, 0.999).filter(lambda r: r != 0.0)))
    return LinearSeqMap(head, tail, ratio, draw(ENTRIES))


@settings(max_examples=300, deadline=None)
@given(tailed_maps(), SEQUENCES, SEQUENCES)
@example(LinearSeqMap((0.5,), 1e308, 0.5), BoundedSeq((3.0,), 2.0), BoundedSeq((3.0,), 2.0))  # 0.0 * inf tail sum
@example(LinearSeqMap((1.0,), 1e308, -0.5), BoundedSeq((1e308,), -1e308), BoundedSeq((-1e308,), 1e308))  # inf - inf
def test_a_tailed_map_sums_each_pair_as_the_full_loop_does(f, x, y):
    pairs = [(x, y), (y, x), (x, x)]
    assert [d.hex() for d in f.differences(pairs)] == [d.hex() for d in full_loop_differences(f, pairs)]


@pytest.mark.parametrize("f, x, y", [
    # x_1 - y_1 overflows at a coordinate past the head
    (LinearSeqMap((0.5,)), BoundedSeq((0.0, 1e308)), BoundedSeq((0.0, -1e308))),
    # the tails' difference overflows under a zero tail sum
    (LinearSeqMap((0.5,)), BoundedSeq((0.0,), 1e308), BoundedSeq((0.0,), -1e308)),
    # x_0 - y_0 overflows at a zero head coefficient
    (LinearSeqMap((0.0, 0.5)), BoundedSeq((1e308, 0.0)), BoundedSeq((-1e308, 0.0))),
    # equal sequences under a tail sum, 1e308 / (1 - 0.5), that overflows
    (LinearSeqMap((0.5,), 1e308, 0.5), BoundedSeq((3.0,), 2.0), BoundedSeq((3.0,), 2.0)),
], ids=["past-the-head", "zero-tail-sum", "zero-head-coefficient", "overflowing-tail-sum"])
def test_an_overflow_the_map_does_not_weigh_adds_nothing(f, x, y):
    assert f.differences([(x, y), (y, x)]) == [0.0, 0.0]


@pytest.mark.parametrize("value, want", [
    # x_0 = 1.0 under the tail sum from 1, 1e308 / (1 - 0.5), that overflows
    (lambda f: f.eval(BoundedSeq((1.0,), 0.0)), 0.5),
    (lambda f: f.diagonal(0.0), 0.0),
    (lambda f: f.diagonal(-0.0), 0.0),
], ids=["eval", "diagonal", "diagonal-negative-zero"])
def test_a_zero_tail_adds_nothing_to_a_tail_sum_that_overflows(value, want):
    assert value(LinearSeqMap((0.5,), 1e308, 0.5)).hex() == want.hex()


class CoeffCountingMap(LinearSeqMap):
    """A linear map that counts its ``coeff_at`` calls."""

    calls = 0

    def coeff_at(self, n):
        CoeffCountingMap.calls += 1
        return super().coeff_at(n)


class ReadCountingTuple(tuple):
    """A prefix that records each index read from it, one at a time or by slice."""

    def __getitem__(self, key):
        self.reads.extend(range(len(self))[key] if isinstance(key, slice) else [key])
        return super().__getitem__(key)


@pytest.mark.parametrize("head, tail, ratio, offset, calls, reads", [
    ((0.49, 0.49), 0.0, 0.0, 1.0, 2, 2),  # the zero tail coefficient leaves the head
    ((0.5,), 0.25, 0.0, 0.0, 1, 2),  # the zero ratio leaves the head and the first tail coefficient
    ((0.5,), 0.25, 0.5, 0.0, 1, 2000),  # a tail reaches every coordinate
], ids=["zero-tail", "zero-ratio", "tailed"])
def test_eval_reads_the_live_coordinates_and_only_the_head_through_coeff_at(
        monkeypatch, head, tail, ratio, offset, calls, reads):
    monkeypatch.setattr(CoeffCountingMap, "calls", 0)
    f = CoeffCountingMap(head, tail, ratio, offset)
    prefix = ReadCountingTuple(float(n + 1) for n in range(2000))
    prefix.reads = []
    value = f.eval(BoundedSeq._trusted(prefix, 0.0))
    assert (CoeffCountingMap.calls, len(prefix.reads)) == (calls, reads)
    x = BoundedSeq(tuple(prefix), 0.0)
    assert value.hex() == full_loop_eval(LinearSeqMap(head, tail, ratio, offset), x).hex()


class FullLoopMap(LinearSeqMap):
    """A linear map that evaluates through every prefix coordinate, and lifts through that ``eval``.

    ``LinearSeqMap.iterates`` evaluates through its own coefficient table,
    so the reference takes the protocol's default lifted step instead.
    """

    iterates = SeqMap.iterates

    def eval(self, x):
        return full_loop_eval(self, x)


def solve_against_the_full_loop(head, tail, ratio, offset):
    """Solve from the zero sequence at tol 1e-9 with the map's lifts and with :func:`full_loop_eval`'s; return k_used.

    The values, step counts and every trace step agree bit for bit.
    """
    f, full = LinearSeqMap(head, tail, ratio, offset), FullLoopMap(head, tail, ratio, offset)
    cert = find_sup_certificate(f)
    ours, theirs = (solve_fixed_point(g, BoundedSeq.constant(0.0), cert, 1e-9) for g in (f, full))
    assert (ours.value.hex(), ours.k_used) == (theirs.value.hex(), theirs.k_used)
    assert [repr(s) for s in ours.trace.steps] == [repr(s) for s in theirs.trace.steps]  # repr keeps every bit
    return ours.k_used


def test_a_zero_tail_solve_is_the_full_loop_solve_bit_for_bit():
    assert solve_against_the_full_loop((0.49, 0.49), 0.0, 0.0, 1.0) == 1861


@pytest.mark.parametrize("head, tail, ratio, offset, k_used", [
    ((1.0 / 3.0,), 1.0 / 6.0, 0.5, 1.0, 123),  # README's map, b_n = 1/(3 * 2^n)
    ((0.3, -0.2), 0.1, -0.7, -1.5, 37),  # an alternating tail
], ids=["readme", "negative-ratio"])
def test_a_tailed_solve_is_the_full_loop_solve_bit_for_bit(head, tail, ratio, offset, k_used):
    assert solve_against_the_full_loop(head, tail, ratio, offset) == k_used


@pytest.mark.parametrize("head, tail, ratio, offset, calls", [
    ((0.49, 0.49), 0.0, 0.0, 1.0, 2),  # the zero tail coefficient leaves the head
    ((0.5,), 0.25, 0.0, 0.0, 2),  # the zero ratio leaves the head and the first tail coefficient
    ((0.5,), 0.25, -0.5, 0.0, 501),  # a tail reaches every coordinate, 2 + 499 at the last lift
    ((-0.5,), 0.0, 0.0, -0.0, 501),  # every sum is zero, so every lift re-reads the zero terms past the head
], ids=["zero-tail", "zero-ratio", "tailed", "zero-sum"])
def test_a_run_reads_each_live_coefficient_once_and_lifts_as_the_full_loop(
        monkeypatch, head, tail, ratio, offset, calls):
    monkeypatch.setattr(CoeffCountingMap, "calls", 0)
    x0 = BoundedSeq((0.0, 1.0), -1.0)
    ours = [v.hex() for v in islice(CoeffCountingMap(head, tail, ratio, offset).iterates(x0), 500)]
    assert CoeffCountingMap.calls == calls
    assert ours == [v.hex() for v in islice(FullLoopMap(head, tail, ratio, offset).iterates(x0), 500)]


def test_coefficient_sums():
    assert RECUR.sum_coeffs() == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert LinearSeqMap().sum_coeffs() == 0.0
    assert LinearSeqMap().sum_abs_coeffs() == 0.0
    # b_n = b^n with b_0 = 0
    half = LinearSeqMap((0.0,), 0.5, 0.5)
    assert half.sum_abs_coeffs() == 1.0
    # alternating tail: signed and absolute sums disagree
    alt = LinearSeqMap((), 1.0, -0.5)
    assert alt.sum_coeffs() == pytest.approx(1.0 / 1.5, abs=1e-15)
    assert alt.sum_abs_coeffs() == pytest.approx(2.0, abs=1e-15)


def test_lip_sup_geometric_coefficients():
    for b in (0.1, 0.3, 0.45):
        f = LinearSeqMap((0.0,), b, b)
        for q in (2 * b + 0.05, 0.7, 0.9):
            assert f.lip_sup(q) == pytest.approx(b / (q - b), abs=1e-12)
        assert f.lip_sup(b) == math.inf
        assert f.lip_sup(b / 2) == math.inf


def test_lip_sup_recursion_map():
    assert RECUR.lip_sup(0.8) == pytest.approx(8.0 / 9.0, abs=1e-13)


def test_lip_sup_nonincreasing_in_q():
    rng = random.Random(9)
    for _ in range(50):
        f = random_linear(rng, ratio_span=0.3)
        values = [f.lip_sup(q) for q in (0.4, 0.5, 0.7, 0.9, 1.0)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_lip_sup_at_one_is_abs_sum():
    rng = random.Random(13)
    for _ in range(50):
        f = random_linear(rng)
        assert f.lip_sup(1.0) == f.sum_abs_coeffs()


def test_lip_p_single_coefficient():
    for b in (0.25, 0.6, 1.0 - 1e-9):
        f = LinearSeqMap((0.0, b))
        for p in (1.0, 2.0, 5.0):
            for q in (0.2, 0.5, 0.8):
                assert f.lip_p(p, q) == pytest.approx(b / q ** (1.0 / p), abs=1e-12)


def test_lip_p_degenerate_and_divergent():
    assert LinearSeqMap((1.0,)).lip_p(2.0, 0.5) == pytest.approx(1.0, abs=1e-14)
    assert LinearSeqMap().lip_p(3.0, 0.5) == 0.0
    # tail ratio too heavy: |rho|^p >= q diverges
    f = LinearSeqMap((), 1.0, 0.6)
    assert f.lip_p(2.0, 0.25) == math.inf
    assert f.lip_p(1.0, 0.5) == math.inf  # |rho| > q
    # |rho| == q: every tail term equals 1, the sup stays finite
    assert LinearSeqMap((), 1.0, 0.5).lip_p(1.0, 0.5) == 1.0


# 0.5 * x_0 with 399 zero coefficients behind it: q**k underflows inside the head
SPARSE = LinearSeqMap((0.5,) + (0.0,) * 399)


def unguarded_lip_sup(f, q):
    """The sup-family closed form summed over every coefficient, zeros included."""
    total = _left_sum(abs(b) / q**k for k, b in enumerate(f.head_coeffs))
    if f.tail_coeff != 0.0:
        r = abs(f.tail_ratio)
        if r >= q:
            return math.inf
        total += (abs(f.tail_coeff) / q ** len(f.head_coeffs)) / (1.0 - r / q)
    return total


def test_lip_constants_skip_zero_coefficients_past_underflow():
    for q in (0.9, 0.1, 1e-6, 1e-300):
        assert SPARSE.lip_sup(q) == 0.5
        assert SPARSE.lip_p(1.0, q) == 0.5
    assert SPARSE.lip_p(2.0, 1e-6) == pytest.approx(0.5, rel=1e-15)
    assert find_sup_certificate(SPARSE).lip == 0.5


def test_lip_constants_are_inf_when_a_weight_underflows():
    deep_head = LinearSeqMap((0.5,) + (0.0,) * 398 + (1e-3,))
    deep_tail = LinearSeqMap((0.0,) * 400, 0.1, 0.05)
    for f in (deep_head, deep_tail):
        assert f.lip_sup(0.1) == math.inf
        assert f.lip_p(1.0, 0.1) == math.inf
        assert f.lip_sup(0.9) == unguarded_lip_sup(f, 0.9)


def test_lip_p_is_inf_past_the_float_range():
    # the p = 2 constant at q = 1e-300 is about 1e600 (head) or 1e1200 (tail)
    for f in (LinearSeqMap((0.1,) * 4), LinearSeqMap((0.1,) * 4, 0.1, 0.0)):
        assert f.lip_p(2.0, 1e-300) == math.inf
        assert math.isfinite(f.lip_p(2.0, 1e-100))
    assert find_p_certificate(LinearSeqMap((0.1,) * 4), 1e-300) is not None


def test_lip_sup_is_unchanged_where_no_weight_underflows():
    rng = random.Random(29)
    for _ in range(200):
        f = random_linear(rng, ratio_span=0.3)
        head = tuple(b if rng.random() < 0.5 else 0.0 for b in f.head_coeffs) + (0.0,) * rng.randrange(3)
        f = LinearSeqMap(head, rng.choice((0.0, f.tail_coeff)), f.tail_ratio, f.offset)
        q = rng.uniform(0.05, 1.0)
        assert f.lip_sup(q) == unguarded_lip_sup(f, q)


def test_empirical_bound_survives_underflowing_weights():
    assert empirical_lip_lower_bound(SPARSE, 1e-6) == 0.5
    assert empirical_lip_lower_bound(SPARSE, 1e-6, p=2.0) == pytest.approx(0.5, rel=1e-15)
    # witness coordinates 1/q**k overflow from k = 52 on: the witness stops there
    low = empirical_lip_lower_bound(RECUR, 1e-6)
    assert 0.0 < low < math.inf == RECUR.lip_sup(1e-6)
    deep = LinearSeqMap((0.0,) * 60 + (0.5,))
    for p in (None, 1.5, 2.0):
        assert math.isfinite(empirical_lip_lower_bound(deep, 1e-6, p=p))


def test_lip_p_matches_series():
    rng = random.Random(17)
    for _ in range(100):
        f = random_linear(rng, ratio_span=0.3)
        p = rng.choice((1.5, 2.0, 3.0, 6.0))
        q = rng.uniform(0.5, 0.9)
        assert f.lip_p(p, q) == pytest.approx(brute_lip_p(f, p, q), rel=1e-10)


def test_lip_sup_matches_series():
    rng = random.Random(19)
    for _ in range(100):
        f = random_linear(rng, ratio_span=0.3)
        q = rng.uniform(0.5, 1.0)
        assert f.lip_sup(q) == pytest.approx(brute_lip_sup(f, q), rel=1e-10)


def test_lipschitz_inequality_holds_on_samples():
    rng = random.Random(23)
    for _ in range(100):
        f = random_linear(rng, ratio_span=0.3)
        q = rng.uniform(0.5, 0.9)
        x, y = random_seq(rng), random_seq(rng)
        gap = abs(f.eval(x) - f.eval(y))
        assert gap <= f.lip_sup(q) * dist_sup_geom(x, y, q) + 1e-9
        p = rng.choice((1.0, 2.0, 4.0))
        assert gap <= f.lip_p(p, q) * dist_p_geom(x, y, p, q) + 1e-9


def test_bridge_between_lipschitz_families():
    # a p-family constant controls every sup-family constant at larger q'
    rng = random.Random(29)
    for _ in range(30):
        f = random_linear(rng, abs_sum=rng.uniform(0.1, 0.9), ratio_span=0.3)
        for p in (1.0, 2.0, 4.0):
            for q in (0.3, 0.6):
                lip_pq = f.lip_p(p, q)
                root = q ** (1.0 / p)
                for u in (0.3, 0.7):
                    qq = root + (1.0 - root) * u
                    bound = lip_pq / (1.0 - q / qq**p) ** (1.0 / p)
                    assert f.lip_sup(qq) <= bound + 1e-9


def test_fixed_point():
    assert RECUR.fixed_point() == pytest.approx(3.0, abs=1e-12)
    assert LinearSeqMap(offset=7.0).fixed_point() == 7.0
    assert LinearSeqMap((0.5,), offset=1.0).fixed_point() == pytest.approx(2.0, abs=1e-14)
    with pytest.raises(ValueError):
        LinearSeqMap((0.0,), 0.5, 0.5).fixed_point()  # coefficients sum to 1


def test_sup_half_map():
    f = SupHalfMap()
    assert f.eval(BoundedSeq((0.6,), 0.0)) == 0.3
    assert f.eval(BoundedSeq.constant(1.0)) == 0.5
    with pytest.raises(ValueError):
        f.eval(BoundedSeq((1.5,), 0.0))
    with pytest.raises(ValueError):
        f.eval(BoundedSeq((0.5,), -0.1))


def test_sup_half_empirical_constant():
    f = SupHalfMap()
    got = empirical_lip_lower_bound(f, 1.0, trials=300, seed=4)
    assert got <= 0.5 + 1e-12


def test_finite_arity_map_checks():
    g = FiniteArityMap(2, lambda a, b: (a + b) / 4 + 1, 0.5)
    assert g(2.0, 2.0) == 2.0
    with pytest.raises(ValueError):
        g(1.0)
    with pytest.raises(ValueError):
        FiniteArityMap(0, lambda: 0.0)
    with pytest.raises(ValueError):
        FiniteArityMap(1, lambda a: a, -0.5)


@pytest.mark.parametrize("hint", [None, 0.0, 0.5, math.inf])
def test_a_lipschitz_hint_is_none_or_a_nonnegative_number(hint):
    assert FiniteArityMap(1, lambda a: a, hint).lipschitz_hint == hint


@pytest.mark.parametrize("hint", [math.nan, -0.1, "0.5", [0.5]])
def test_any_other_lipschitz_hint_is_a_value_error(hint):
    with pytest.raises(ValueError, match=f"^lipschitz_hint must be nonnegative, got {re.escape(repr(hint))}$"):
        FiniteArityMap(1, lambda a: a, hint)


def test_embed_finite_reads_leading_coordinates():
    ident = embed_finite(FiniteArityMap(1, lambda a: a))
    assert ident.eval(BoundedSeq((9.0, 1.0), 0.0)) == 9.0
    g = embed_finite(FiniteArityMap(2, lambda a, b: (a + b) / 4 + 1, 0.5))
    assert g.eval(BoundedSeq.constant(2.0)) == 2.0


def test_a_finite_arity_map_is_its_own_embedding():
    g = FiniteArityMap(2, lambda a, b: (a + b) / 4 + 1, 0.5)
    assert embed_finite(g) is g
    assert EmbeddedMap is FiniteArityMap


def test_float_sums_add_left_to_right_on_every_python():
    # compensated summation, which sum() of floats does from Python 3.12 on, gives 2.0 and 1e16 + 2
    assert LinearSeqMap((1.0, 1e100, 1.0, -1e100)).sum_coeffs() == 0.0
    f = LinearSeqMap((1e16, 1.0, 1.0))  # 1e16 + 1.0 is a tie that rounds back to 1e16
    assert f.lip_sup(1.0) == f.sum_abs_coeffs() == f.truncation_hint(3) == 1e16


def test_embedding_lipschitz_bound():
    # Lip(g) = 1/2 and q = 0.8 certify constant 1/2 / 0.8 = 0.625 for the
    # q-weighted sup distance
    g = embed_finite(FiniteArityMap(2, lambda a, b: (a + b) / 4 + 1, 0.5))
    rng = random.Random(31)
    for _ in range(200):
        x, y = random_seq(rng), random_seq(rng)
        gap = abs(g.eval(x) - g.eval(y))
        assert gap <= 0.625 * dist_sup_geom(x, y, 0.8) + 1e-12


def test_truncate_linear_closed_form():
    rng = random.Random(37)
    for _ in range(50):
        f = random_linear(rng, ratio_span=0.4)
        n = rng.randrange(1, 6)
        base = rng.uniform(-2, 2)
        fn = truncate(f, n, base)
        args = tuple(rng.uniform(-2, 2) for _ in range(n))
        want = f.offset + sum(f.coeff_at(k) * args[k] for k in range(n)) + base * f.tail_sum_from(n)
        assert fn(*args) == pytest.approx(want, abs=1e-10)
        assert fn.lipschitz_hint == pytest.approx(sum(abs(f.coeff_at(k)) for k in range(n)), abs=1e-12)


def test_truncate_sup_half_floor():
    base = 0.4
    for n in (1, 3, 7):
        fn = truncate(SupHalfMap(), n, base)
        assert fn.lipschitz_hint == 0.5
        for args in ((0.0,) * n, (0.1,) * n, tuple(min(1.0, 0.1 * k) for k in range(n))):
            assert fn(*args) >= base / 2


def test_truncate_respects_domain():
    with pytest.raises(ValueError):
        truncate(SupHalfMap(), 3, 2.0)
    with pytest.raises(ValueError):
        truncate(RECUR, 0, 0.0)


@pytest.mark.parametrize("call, message", [
    (lambda: SupHalfMap().eval(BoundedSeq((0.5, 1.5), 0.0)), "coordinate 1.5 outside map domain [0.0, 1.0]"),
    (lambda: next(SupHalfMap().iterates(BoundedSeq((0.5,), -0.1))), "coordinate -0.1 outside map domain [0.0, 1.0]"),
    (lambda: SupHalfMap().diagonal(2.0), "coordinate 2.0 outside map domain [0.0, 1.0]"),
    (lambda: truncate(SupHalfMap(), 1, 2.0), "base point 2.0 outside map domain [0.0, 1.0]"),
], ids=["eval", "iterates", "diagonal", "truncate-base"])
def test_a_value_outside_the_domain_is_named_exactly(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_values_at_the_domain_edges_pass():
    f = SupHalfMap()
    edges = BoundedSeq((0.0, 1.0), 0.0)
    assert f.eval(edges) == 0.5
    assert next(f.iterates(edges)) == 0.5
    assert (f.diagonal(0.0), f.diagonal(1.0)) == (0.0, 0.5)
    assert (truncate(f, 1, 0.0)(1.0), truncate(f, 1, 1.0)(0.0)) == (0.5, 0.5)


@pytest.mark.parametrize("arity", [2.5, 2.0, "2"])
@pytest.mark.parametrize("build", [
    lambda n: FiniteArityMap(n, lambda *a: 0.0),
    lambda n: truncate(RECUR, n, 0.0),
    lambda n: truncate(SupHalfMap(), n, 0.0),
], ids=["finite-arity", "truncate-linear", "truncate-sup-half"])
def test_an_arity_that_is_not_an_integer_is_a_value_error(build, arity):
    with pytest.raises(ValueError, match=f"arity must be an integer.*, got {arity!r}$"):
        build(arity)


def test_truncate_then_embed_round_trip():
    rng = random.Random(41)
    for _ in range(50):
        f = random_linear(rng, ratio_span=0.4)
        n = rng.randrange(1, 6)
        base = rng.uniform(-1, 1)
        emb = embed_finite(truncate(f, n, base))
        x = random_seq(rng)
        assert emb.eval(x) == f.eval(BoundedSeq(x.head(n), base))


def test_truncations_converge_to_the_map():
    x = BoundedSeq((1.5, -0.5, 2.0), 0.7)
    target = RECUR.eval(x)
    errs = [abs(truncate(RECUR, n, 0.0)(*x.head(n)) - target) for n in (2, 5, 10, 40, 60)]
    assert all(a >= b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-10


def test_empirical_lower_bound_zero_map():
    assert empirical_lip_lower_bound(LinearSeqMap(), 0.8, trials=20, seed=0) == 0.0


def test_empirical_never_exceeds_analytic():
    rng = random.Random(43)
    for i in range(20):
        f = random_linear(rng, ratio_span=0.4)
        got = empirical_lip_lower_bound(f, 0.8, trials=40, seed=i)
        assert got <= f.lip_sup(0.8) * (1 + 1e-12)
        for p in (1.0, 2.0):
            got_p = empirical_lip_lower_bound(f, 0.8, p=p, trials=40, seed=i)
            assert got_p <= f.lip_p(p, 0.8) * (1 + 1e-12)
    # the tail's p = 2 series term ties the head's at q = 0.25: 0.25**2 / 0.25 == 0.5**2
    assert empirical_lip_lower_bound(TIED, 0.25, p=2.0, trials=40, seed=0) <= TIED.lip_p(2.0, 0.25) * (1 + 1e-12)


def test_empirical_survives_offset_cancellation():
    # a unit-vector witness's signal b_k can lie far below the offset; the
    # ratio must not be polluted by cancellation against it
    got = empirical_lip_lower_bound(RECUR, 0.5, p=1.0, trials=200, seed=7)
    lip = RECUR.lip_p(1.0, 0.5)  # every term |b_n|/q^n equals 1/3
    assert 0.99 * lip <= got <= lip * (1 + 1e-12)


def test_empirical_witnesses_are_sharp():
    rng = random.Random(47)
    for i in range(10):
        f = random_linear(rng, abs_sum=rng.uniform(0.2, 0.9), ratio_span=0.4)
        lip = f.lip_sup(0.8)
        assert empirical_lip_lower_bound(f, 0.8, trials=10, seed=i) >= 0.99 * lip
        # the p = 1 constant is finite for |tail_ratio| <= q, here always below it
        assert abs(f.tail_ratio) < 0.8
        assert empirical_lip_lower_bound(f, 0.8, 1.0, trials=10, seed=i) >= 0.99 * f.lip_p(1.0, 0.8)


def p1_bound_over_every_unit_vector(f, q, trials, seed):
    """The p = 1 bound as it was scored over every unit vector e_0..e_64, and the first k whose e_k sets their maximum.

    Each ratio is taken through ``f.differences`` and ``dist_p_geom``; a pair at distance 0.0 is not
    scored, and a NaN ratio cannot raise the running maximum.
    """
    rng = random.Random(seed)
    pairs = [(_random_seq(rng, -1.0, 1.0), _random_seq(rng, -1.0, 1.0)) for _ in range(trials)]
    zero = BoundedSeq.constant(0.0)
    units = [(BoundedSeq((0.0,) * k + (1.0,), 0.0), zero) for k in range(65)]
    ratios = []
    for (a, b), diff in zip(pairs + units, f.differences(pairs + units)):
        d = dist_p_geom(a, b, 1.0, q)
        ratios.append(diff / d if d > 0.0 else None)
    top = max([0.0] + [r for r in ratios if r is not None])
    scored = [(k, r) for k, r in enumerate(ratios[trials:]) if r is not None]
    unit_top = max(r for _, r in scored)
    return top, next(k for k, r in scored if r == unit_top)


P1_COEFFS = st.one_of(SIGNED_ZERO, st.floats(-1.0, 1.0), st.sampled_from([1e308, -1e308]), FINITE)


@st.composite
def p1_maps_and_weights(draw):
    """A linear map and q for the p = 1 family.

    Heads hold zero coefficients; tails and ratios are signed zeros as often as not; the ratio ties
    q in absolute value a third of the time; q reaches 1e-160, where |b_2| / q**2 overflows to inf,
    and 1e-200 and below, where q**k underflows to 0.0 inside the witness depth.
    """
    q = draw(st.one_of(st.floats(0.01, 0.99), st.sampled_from([0.5, 0.25, 1e-5, 1e-160, 1e-200, 1e-300]),
                       st.floats(5e-324, 1e-100)))
    head = tuple(draw(st.lists(P1_COEFFS, max_size=8)))
    tail = draw(st.one_of(SIGNED_ZERO, P1_COEFFS))
    ratio = draw(st.one_of(SIGNED_ZERO, st.sampled_from([q, -q]), st.floats(-0.999, 0.999)))
    return LinearSeqMap(head, tail, ratio), q


@settings(max_examples=200, deadline=None)
@given(p1_maps_and_weights(), st.integers(1, 20), st.integers(0, 2**32))
@example((RECUR, 0.5), 200, 7)  # every |b_k| / q**k is 1/3: the first depth, e_0 = (1.0,), is the witness
@example((LinearSeqMap(), 1e-200), 1, 0)  # every ratio ties at 0.0, and q**k underflows from k = 2 on
@example((LinearSeqMap((0.0, 1e-10), 1.0, 1e-160), 1e-160), 3, 1)  # |b_2| / q**2 overflows to inf; tail_ratio == q
@example((LinearSeqMap((0.5,), 1e308, 0.5), 0.5), 3, 2)  # tail sums overflow: e_k scores |b_k| / q**k all the same
def test_one_p1_witness_gives_the_bound_of_every_unit_vector(map_and_weight, trials, seed):
    f, q = map_and_weight
    want, k = p1_bound_over_every_unit_vector(f, q, trials, seed)
    assert list(f.witnesses(q, 1.0)) == [BoundedSeq((0.0,) * k + (1.0,), 0.0)]
    assert empirical_lip_lower_bound(f, q, 1.0, trials, seed).hex() == want.hex()


def test_the_readme_map_has_its_p1_witness_at_the_first_coordinate():
    assert list(RECUR.witnesses(0.5, 1.0)) == [BoundedSeq((1.0,), 0.0)]


def map_gap_loop(f, a, b):
    """LinearSeqMap.differences of one pair as it read every coordinate through at()."""
    m = max(len(a.prefix), len(b.prefix))
    acc = 0.0
    for n in range(m):
        acc += f.coeff_at(n) * (a.at(n) - b.at(n))
    acc += (a.tail - b.tail) * f.tail_sum_from(m)
    return abs(acc)


def assert_gaps_bit_exact(f, pairs):
    assert [d.hex() for d in f.differences(pairs)] == [map_gap_loop(f, a, b).hex() for a, b in pairs]


def test_map_gap_is_bit_exact():
    rng = random.Random(41)
    for _ in range(500):
        f = random_linear(rng, ratio_span=0.9)
        a, b = random_seq(rng, span=rng.choice((1e-300, 2.0, 1e300))), random_seq(rng)
        if rng.random() < 0.3:
            b = BoundedSeq(b.prefix, rng.choice((0.0, -0.0)))
        assert_gaps_bit_exact(f, [(a, b), (b, a)])
    # indices deep in the coefficient tail, down to where tail_ratio**(n - N) underflows;
    # one call also takes a short pair, which reads the same tables
    for _ in range(100):
        f = random_linear(rng, ratio_span=0.99)
        depth = rng.choice((10, 100, 1100))
        a = BoundedSeq(tuple(rng.uniform(-2.0, 2.0) for _ in range(depth)), rng.uniform(-2.0, 2.0))
        b = random_seq(rng)
        assert_gaps_bit_exact(f, [(a, b), (b, a), (b, BoundedSeq.constant(0.0))])
    assert LinearSeqMap((0.5,)).differences([]) == []


def random_seq_through_uniform(rng, lo, hi):
    """_random_seq as it was written, with rng.uniform."""
    k = rng.randrange(0, 9)
    return BoundedSeq(tuple(rng.uniform(lo, hi) for _ in range(k)), rng.uniform(lo, hi))


def drawn(rng, lo, hi, draw):
    """The drawn sequence's bits, or the exception's message, and the generator's state after it."""
    try:
        seq = draw(rng, lo, hi)
        got = [v.hex() for v in seq.values()]
    except ValueError as e:
        got = str(e)
    return got, rng.getstate()


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=2**64), st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False), st.integers(min_value=0, max_value=3))
@example(0, -1.0, 1.0, 0)
@example(5, 0.0, 1.0, 2)
@example(1, -1e308, 1e308, 0)  # hi - lo overflows: both raise after the same draws
def test_random_seq_draws_as_uniform_does(seed, lo, hi, repeats):
    ours, reference = random.Random(seed), random.Random(seed)
    for _ in range(repeats + 1):
        assert drawn(ours, lo, hi, _random_seq) == drawn(reference, lo, hi, random_seq_through_uniform)


SIGNED = LinearSeqMap((0.25, -0.125, 0.0, 0.0625), -0.05, -0.4, 2.0)
PRESIC = embed_finite(FiniteArityMap(2, lambda a, b: 0.49 * a + 0.49 * b + 1.0, 0.98))


@pytest.mark.parametrize("f, q, p, seed, expected", [
    (RECUR, 0.75, None, 0, "0.9999999999964188"),
    (RECUR, 0.5, 1.0, 7, "0.3333333333333334"),
    (SIGNED, 0.8, 2.0, 3, "0.31191351215120516"),
    (SIGNED, 0.9, 64.0, 11, "0.5105522710749215"),
    (SPARSE, 0.1, 3.5, 2, "0.5"),
    (SupHalfMap(), 1.0, None, 5, "0.5"),
    (PRESIC, 0.99, None, 1, "0.9800000000000005"),
])
def test_empirical_bound_is_pinned(f, q, p, seed, expected):
    # the values of an earlier, slower evaluation of the same draws and distances
    assert repr(empirical_lip_lower_bound(f, q, p, trials=200, seed=seed)) == expected


# Bounds in hex, recorded from the per-pair evaluation that the per-call weight and
# coefficient tables replaced: 24 maps drawn as the certify-sweep benchmark draws them
# at its seed 0, spread over head lengths 1-64, with the CLI's certify families at
# q0 = 0.5; the README map; SupHalfMap; and a map scored at q = 1e-60, whose weights
# q**n underflow from index 6 on. Each at seeds 0, 1 and 12345.
PINNED_BOUNDS = json.loads((Path(__file__).parent / "data" / "empirical_bounds_pinned.json").read_text())


def pinned_map(spec):
    ((kind, params),) = spec.items()
    if kind == "sup_half":
        return SupHalfMap()
    head, *rest = params
    return LinearSeqMap(tuple(map(float.fromhex, head)), *map(float.fromhex, rest))


@pytest.mark.parametrize("case", PINNED_BOUNDS, ids=[f"map{i}" for i in range(len(PINNED_BOUNDS))])
def test_empirical_bounds_keep_their_bits(case):
    f = pinned_map(case["map"])
    families = [(float.fromhex(q), None if p is None else float.fromhex(p)) for q, p in case["families"]]
    for seed, bounds in case["bounds"].items():
        # the CLI's certify scores every family on one draw; the public bound scores one
        assert [v.hex() for v in _lip_lower_bounds(f, families, 200, int(seed))] == bounds["together"]
        each = [empirical_lip_lower_bound(f, q, p, trials=200, seed=int(seed)) for q, p in families]
        assert [v.hex() for v in each] == bounds["each"]


@pytest.mark.parametrize("q, p, message", [
    (1e308, None, r"^q must lie in \(0, 1\], got 1e\+308$"),  # the sup witness's q**k would overflow
    (-0.5, 3.0, r"^q must lie in \(0, 1\), got -0\.5$"),  # the p = 3 witness would take a complex root
    (0.5, 0.5, r"^exponent must be >= 1, got 0\.5$"),
])
def test_empirical_bound_checks_q_and_p_before_the_witnesses(q, p, message):
    with pytest.raises(ValueError, match=message):
        empirical_lip_lower_bound(RECUR, q, p, trials=3)


@pytest.mark.parametrize("q, p, message", [
    (1e308, None, r"^q must lie in \(0, 1\], got 1e\+308$"),
    (-0.5, 3.0, r"^q must lie in \(0, 1\), got -0\.5$"),
    (0.5, 0.5, r"^exponent must be >= 1, got 0\.5$"),
], ids=["sup-q-above-1", "power-q-negative", "power-p-below-1"])
def test_linear_witnesses_check_q_and_p(q, p, message):
    with pytest.raises(ValueError, match=message):
        list(RECUR.witnesses(q, p))


@pytest.mark.parametrize("q, message", [
    (-0.5, r"^q must lie in \(0, 1\], got -0\.5$"),
    (2.0, r"^q must lie in \(0, 1\], got 2\.0$"),
    (math.nan, r"^q must be finite, got nan$"),
], ids=["negative", "above-1", "nan"])
def test_lip_sup_checks_q(q, message):
    # an embedded map's hint / q**(m-1) read -1.0, 0.25 and nan here, and the half-supremum map inf
    for f in (PRESIC, RECUR, SupHalfMap()):
        with pytest.raises(ValueError, match=message):
            f.lip_sup(q)


def test_power_witness_ends_before_an_entry_that_overflows():
    # at p = 1.0001 the entry for b_1 = 0.5 at weight 0.25 is 2.0**10000
    assert list(LinearSeqMap((-1.0, 0.5)).witnesses(0.25, 1.0001)) == [BoundedSeq((-1.0,), 0.0)]


def test_empirical_bound_needs_a_trial():
    for trials in [0, 2.0, 2.5, "2", None]:
        with pytest.raises(ValueError, match=f"^trials must be an integer >= 1, got {re.escape(repr(trials))}$"):
            empirical_lip_lower_bound(RECUR, 0.5, trials=trials)


def lip_p_before_underflow_guard(f, p, q):
    """LinearSeqMap.lip_p as it read before q**scale underflow and a rounded tail ratio were handled.

    One later fix is carried over: a head term whose log ties the tail's is summed, not dropped.
    """
    n = len(f.head_coeffs)
    r_abs = abs(f.tail_ratio)
    if p == 1.0:
        return f.lip_p(p, q)  # unchanged branch
    conj = p / (p - 1.0)
    scale = 1.0 / (p - 1.0)
    logs = [conj * math.log(abs(b)) - k * scale * math.log(q)
            for k, b in enumerate(f.head_coeffs) if b != 0.0]
    tail_log = None
    tail_step = 0.0
    if f.tail_coeff != 0.0:
        if r_abs**p >= q:
            return math.inf
        tail_log = conj * math.log(abs(f.tail_coeff)) - n * scale * math.log(q)
        tail_step = r_abs**conj / q**scale
        logs.append(tail_log)
    if not logs:
        return 0.0
    top = max(logs)
    total = _left_sum(math.exp(v - top) for v in (logs if tail_log is None else logs[:-1]))
    if tail_log is not None:
        total += math.exp(tail_log - top) / (1.0 - tail_step)
    try:
        scale_out = math.exp(top / conj)
    except OverflowError:
        return math.inf
    return scale_out * total ** (1.0 / conj)


def test_lip_p_survives_an_underflowing_tail_weight():
    # q**scale = 1e-600 is 0.0; the tail at index 1 contributes (0.1**3 / 1e-600)**(1/3) = 1e199
    f = LinearSeqMap((0.1,), 0.1, 0.0)
    assert f.lip_p(1.5, 1e-300) == pytest.approx(1e199, rel=1e-12)
    assert LinearSeqMap((0.0,), 0.1, 0.5).lip_p(1.5, 1e-300) == math.inf  # 0.5**1.5 >= q
    # q**2 underflows here too; the tail ratio (1e-301.5 / 1e-300)**2 is 1e-3
    assert LinearSeqMap((), 1e-3, 1e-201).lip_p(1.5, 1e-300) == pytest.approx(1e-3 / (1.0 - 1e-3) ** (1 / 3), rel=1e-9)


def test_lip_p_is_inf_when_the_tail_ratio_rounds_to_one():
    # |r|**p < q, but |r|**conj / q**scale rounds to 1.0 (division by zero)
    # or to 1.0000000000000002 (a complex power of a negative sum)
    assert LinearSeqMap((), 0.5, 0.9137447912204897).lip_p(7.3, 0.5176329031400201) == math.inf
    assert LinearSeqMap((), 0.5, 0.16521521284970947).lip_p(12.047064284956937, 3.8001303574422473e-10) == math.inf


lip_p_coeffs = st.one_of(st.just(0.0), st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))


@settings(max_examples=400, deadline=None)
@given(
    st.lists(lip_p_coeffs, max_size=6).map(tuple),
    lip_p_coeffs,
    st.floats(min_value=-0.999, max_value=0.999, allow_nan=False),
    st.one_of(st.just(1.0), st.floats(min_value=1.0, max_value=64.0)),
    st.one_of(
        st.floats(min_value=1e-6, max_value=1.0, exclude_max=True),
        st.floats(min_value=5e-324, max_value=1e-200),
    ),
)
def test_lip_p_keeps_every_value_it_returned_before(head, tail, ratio, p, q):
    f = LinearSeqMap(head, tail, ratio)
    got = f.lip_p(p, q)  # never raises
    assert got >= 0.0
    try:
        want = lip_p_before_underflow_guard(f, p, q)
    except ZeroDivisionError:
        return
    if isinstance(want, float):
        assert got.hex() == want.hex()


def exact_lip(f, q, p):
    """The closed form of lip_sup (p None), of lip_p(1, q) and the square of lip_p(2, q), in exact rationals."""
    q = Fraction(q)
    n, c, r = len(f.head_coeffs), Fraction(f.tail_coeff), Fraction(abs(f.tail_ratio))
    head = [(k, Fraction(abs(b))) for k, b in enumerate(f.head_coeffs) if b != 0.0]
    if p is None:
        return sum((b / q**k for k, b in head), Fraction(0)) + (abs(c) / q**n / (1 - r / q) if c else 0)
    if p == 1.0:
        return max([b / q**k for k, b in head] + ([abs(c) / q**n] if c else []), default=Fraction(0))
    return sum((b**2 / q**k for k, b in head), Fraction(0)) + (c**2 / q**n / (1 - r**2 / q) if c else 0)


oracle_coeffs = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0), st.floats(min_value=-1.0, max_value=-1e-6))


@st.composite
def linear_maps_and_weights(draw):
    """A linear map whose constants at weight q are finite; about a third tie a head term with the tail at p = 2."""
    q = draw(st.floats(min_value=0.05, max_value=0.99))
    head = draw(st.lists(oracle_coeffs, max_size=6))
    ratio = q * draw(st.floats(min_value=-0.9, max_value=0.9))
    nonzero = [j for j, b in enumerate(head) if b != 0.0]
    if nonzero and draw(st.integers(0, 2)) == 0:
        j = draw(st.sampled_from(nonzero))
        tail = head[j] * math.sqrt(q) ** (len(head) - j)  # tail**2 / q**n == b_j**2 / q**j, up to rounding
    else:
        tail = draw(oracle_coeffs)
    return LinearSeqMap(tuple(head), tail, ratio), q


@settings(max_examples=300, deadline=None)
@given(linear_maps_and_weights())
@example((TIED, 0.25))
def test_linear_constants_match_exact_rationals(map_and_weight):
    f, q = map_and_weight
    for p, got in ((None, f.lip_sup(q)), (1.0, f.lip_p(1.0, q)), (2.0, f.lip_p(2.0, q) ** 2)):
        want = exact_lip(f, q, p)
        assert abs(Fraction(got) - want) <= Fraction(1e-12) * want, (p, got, float(want))


def mp_lip_p(f, p, q):
    """lip_p at 50 digits: (sum_n |b_n|**c / q**(n/(p-1)))**(1/c) with c = p/(p-1), the tail summed in closed form."""
    with mpmath.workdps(50):
        p, q = mpmath.mpf(p), mpmath.mpf(q)
        conj, scale = p / (p - 1), 1 / (p - 1)
        total = mpmath.fsum(mpmath.mpf(abs(b)) ** conj / q ** (k * scale) for k, b in enumerate(f.head_coeffs) if b)
        if f.tail_coeff:
            n, r = len(f.head_coeffs), mpmath.mpf(abs(f.tail_ratio))
            total += mpmath.mpf(abs(f.tail_coeff)) ** conj / q ** (n * scale) / (1 - r**conj / q**scale)
        return total ** (1 / conj)


@settings(max_examples=200, deadline=None)
@given(linear_maps_and_weights())
@example((TIED, 0.25))
@example((RECUR, 0.5))
def test_power_constants_match_50_digit_values(map_and_weight):
    f, q = map_and_weight
    for p in (1.5, 3.0, 7.5):
        got, want = f.lip_p(p, q), mp_lip_p(f, p, q)
        assert abs(mpmath.mpf(got) - want) <= mpmath.mpf(1e-12) * want, (p, got, want)

