import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqfix import (
    BoundedSeq,
    WeightSeq,
    dist_p_geom,
    dist_p_weighted,
    dist_sup_geom,
    dist_sup_weighted,
    validate_p_weights,
    validate_sup_weights,
)
from seqfix.metrics import _geom_distance, ensure_weight

# Quantized coordinates keep all products comfortably above underflow so the
# metric identities can be asserted without tolerance games.
coord = st.floats(min_value=-4, max_value=4, allow_nan=False, allow_infinity=False).map(
    lambda v: round(v, 4)
)
seqs = st.builds(BoundedSeq, st.lists(coord, max_size=5).map(tuple), coord)
qs = st.floats(min_value=0.05, max_value=0.9)
ps = st.floats(min_value=1.0, max_value=6.0)


def sup_oracle(x, y, w):
    count = max(len(x.prefix), len(y.prefix), len(w.head)) + 2
    return max(w.at(n) * abs(x.at(n) - y.at(n)) for n in range(count))


def p_oracle(x, y, p, w, terms=600):
    return math.fsum(w.at(n) * abs(x.at(n) - y.at(n)) ** p for n in range(terms)) ** (1.0 / p)


def random_seq(rng, span=4.0, max_prefix=5):
    k = rng.randrange(0, max_prefix + 1)
    return BoundedSeq(
        tuple(rng.uniform(-span, span) for _ in range(k)), rng.uniform(-span, span)
    )


def test_weight_at():
    assert WeightSeq.geometric(0.8).at(2) == pytest.approx(0.64, abs=1e-15)
    w = WeightSeq((2.0, 4.0), 0.5)
    assert w.at(1) == 4.0
    assert w.at(2) == 2.0
    # the head's last entry continues geometrically
    w = WeightSeq((5.0,), 0.5)
    assert w.at(0) == 5.0
    assert w.at(1) == 2.5
    assert w.at(3) == 0.625
    with pytest.raises(ValueError):
        w.at(-1)


def test_validate_sup_weights():
    assert validate_sup_weights(WeightSeq((), 1.0))  # the plain sup distance
    assert validate_sup_weights(WeightSeq((2.0, 0.5), 0.9))
    assert not validate_sup_weights(WeightSeq((1.0, -1.0), 0.5))
    assert not validate_sup_weights(WeightSeq((), 1.5))


def test_validate_p_weights():
    assert validate_p_weights(WeightSeq((), 0.5))
    assert not validate_p_weights(WeightSeq((), 1.0))  # not summable
    assert validate_p_weights(WeightSeq((3.0,), 0.99))
    assert not validate_p_weights(WeightSeq((0.0,), 0.5))


def test_dist_sup_weighted_values():
    zero = BoundedSeq.constant(0.0)
    one = BoundedSeq.constant(1.0)
    for q in (0.3, 0.5, 1.0):
        w = WeightSeq.geometric(q)
        assert dist_sup_weighted(one, one, w) == 0.0
        # sup of q**n over n is attained at n = 0
        assert dist_sup_weighted(one, zero, w) == 1.0
    x = BoundedSeq((0.0, 1.0, 2.0), 0.0)
    assert dist_sup_weighted(x, zero, WeightSeq.geometric(0.5)) == 0.5
    # ratio 1 reproduces the unweighted supremum
    assert dist_sup_weighted(BoundedSeq((0.0, 4.0), 0.0), zero, WeightSeq((), 1.0)) == 4.0
    # weight head longer than both prefixes is still covered exactly
    assert dist_sup_weighted(one, zero, WeightSeq((1.0, 5.0), 0.5)) == 5.0


def test_dist_sup_weighted_matches_oracle():
    rng = random.Random(7)
    for _ in range(200):
        x, y = random_seq(rng), random_seq(rng)
        if rng.random() < 0.5:
            w = WeightSeq.geometric(rng.uniform(0.1, 1.0))
        else:
            w = WeightSeq(tuple(rng.uniform(0.1, 3.0) for _ in range(rng.randrange(1, 4))),
                          rng.uniform(0.1, 1.0))
        assert dist_sup_weighted(x, y, w) == sup_oracle(x, y, w)


def test_dist_p_weighted_values():
    zero = BoundedSeq.constant(0.0)
    one = BoundedSeq.constant(1.0)
    assert dist_p_weighted(one, one, 2.0, WeightSeq.geometric(0.5)) == 0.0
    for q in (0.25, 0.5, 0.8):
        got = dist_p_weighted(one, zero, 1.0, WeightSeq.geometric(q))
        assert got == pytest.approx(1.0 / (1.0 - q), abs=1e-12)


def test_dist_p_weighted_matches_oracle():
    rng = random.Random(11)
    for _ in range(200):
        x, y = random_seq(rng), random_seq(rng)
        p = rng.choice((1.0, 1.7, 2.0, 3.5))
        w = WeightSeq.geometric(rng.uniform(0.1, 0.9))
        got = dist_p_weighted(x, y, p, w)
        want = p_oracle(x, y, p, w)
        assert got == pytest.approx(want, abs=1e-10, rel=1e-10)


def test_spread_out_spike_family():
    # x^k has huge early coordinates scaled so the p-distance to zero stays
    # exactly 1 while the sup distance shrinks like (k+1)^(-1/p).
    zero = BoundedSeq.constant(0.0)
    q = 0.5
    for p in (1.0, 2.0, 3.0):
        for k in range(0, 6):
            xk = BoundedSeq(
                tuple(1.0 / ((k + 1) ** (1.0 / p) * q**i) for i in range(k + 1)), 0.0
            )
            assert dist_p_geom(xk, zero, p, q**p) == pytest.approx(1.0, abs=1e-12)
            assert dist_sup_geom(xk, zero, q) == pytest.approx(
                (k + 1) ** (-1.0 / p), abs=1e-12
            )


def test_ramp_fixture_consecutive_distances():
    # x^k = (0, 1, ..., k, 0, 0, ...): consecutive sequences differ only at
    # index k+1, so the weighted sup distance is exactly (k+1) * a_{k+1}.
    for w in (WeightSeq.geometric(1.0 / 3.0), WeightSeq((1.0, 0.9), 0.5)):
        for k in range(1, 9):
            xk = BoundedSeq(tuple(float(i) for i in range(k + 1)), 0.0)
            xk1 = BoundedSeq(tuple(float(i) for i in range(k + 2)), 0.0)
            assert dist_sup_weighted(xk, xk1, w) == (k + 1) * w.at(k + 1)


def test_dist_sup_geom_values():
    zero = BoundedSeq.constant(0.0)
    assert dist_sup_geom(BoundedSeq((0.0, 4.0), 0.0), zero, 0.5) == 2.0
    assert dist_sup_geom(BoundedSeq((0.0, 4.0), 0.0), zero, 1.0) == 4.0


def test_dist_p_geom_values():
    zero = BoundedSeq.constant(0.0)
    one = BoundedSeq.constant(1.0)
    assert dist_p_geom(one, one, 2.0, 0.25) == 0.0
    assert dist_p_geom(one, zero, 2.0, 0.25) == pytest.approx(math.sqrt(4.0 / 3.0), abs=1e-12)


def test_invalid_parameters_rejected():
    x, y = BoundedSeq.constant(0.0), BoundedSeq.constant(1.0)
    with pytest.raises(ValueError):
        dist_sup_weighted(x, y, WeightSeq((-1.0,), 0.5))
    with pytest.raises(ValueError):
        dist_p_weighted(x, y, 2.0, WeightSeq((), 1.0))
    with pytest.raises(ValueError):
        dist_p_weighted(x, y, 0.5, WeightSeq((), 0.5))
    with pytest.raises(ValueError):
        dist_sup_geom(x, y, 0.0)
    with pytest.raises(ValueError):
        dist_sup_geom(x, y, 1.5)
    with pytest.raises(ValueError):
        dist_p_geom(x, y, 2.0, 1.0)


@given(seqs, seqs, qs)
def test_sup_metric_axioms(x, y, q):
    d = dist_sup_geom(x, y, q)
    assert d >= 0.0
    assert d == dist_sup_geom(y, x, q)
    assert (d == 0.0) == (x == y)


@given(seqs, seqs, seqs, qs)
def test_sup_metric_triangle(x, y, z, q):
    assert dist_sup_geom(x, z, q) <= dist_sup_geom(x, y, q) + dist_sup_geom(y, z, q) + 1e-12


@given(seqs, seqs, ps, qs)
def test_p_metric_axioms(x, y, p, q):
    d = dist_p_geom(x, y, p, q)
    assert d >= 0.0
    assert d == dist_p_geom(y, x, p, q)
    assert (d == 0.0) == (x == y)


@given(seqs, seqs, seqs, ps, qs)
def test_p_metric_triangle(x, y, z, p, q):
    lhs = dist_p_geom(x, z, p, q)
    rhs = dist_p_geom(x, y, p, q) + dist_p_geom(y, z, p, q)
    assert lhs <= rhs + 1e-12


@given(seqs, seqs, ps, qs)
def test_sup_below_matching_p_distance(x, y, p, q):
    # sup distance at q never exceeds the p-distance with weights (q**p)**n
    assert dist_sup_geom(x, y, q) <= dist_p_geom(x, y, p, q**p) + 1e-12


@given(seqs, seqs, qs, st.floats(min_value=0.0, max_value=1.0))
def test_sup_monotone_in_q(x, y, q, u):
    q2 = q + (1.0 - q) * u
    assert dist_sup_geom(x, y, q) <= dist_sup_geom(x, y, q2) + 1e-12


@given(seqs, seqs, ps, qs, st.floats(min_value=0.1, max_value=1.0))
def test_p_distance_bounded_by_sup(x, y, p, q, u):
    # with q' above q**(1/p) the p-distance is controlled by the sup distance
    root = q ** (1.0 / p)
    qq = root + (1.0 - root) * u
    factor = (1.0 - q / qq**p) ** (-1.0 / p)
    lhs = dist_p_geom(x, y, p, q)
    rhs = factor * dist_sup_geom(x, y, qq)
    assert lhs <= rhs + 1e-12 * (1.0 + rhs)


def test_large_exponent_approaches_plain_sup():
    pairs = [
        (BoundedSeq((0.3, 0.9, 0.1), 0.2), BoundedSeq((0.8, 0.2), 0.0)),
        (BoundedSeq((0.5,), 0.0), BoundedSeq.constant(0.25)),
    ]
    for x, y in pairs:
        for q in (0.5, 0.7):
            values = [dist_p_geom(x, y, float(2**j), q) for j in range(13)]
            assert abs(values[-1] - dist_sup_geom(x, y, 1.0)) <= 1e-3


def sup_weighted_loop(x, y, w):
    """The weighted sup distance as it read every coordinate through at()."""
    m = max(len(x.prefix), len(y.prefix), len(w.head))
    best = w.at(m) * abs(x.tail - y.tail)
    for n in range(m):
        best = max(best, w.at(n) * abs(x.at(n) - y.at(n)))
    return best


def p_weighted_loop(x, y, p, w):
    """The weighted power distance as it read every coordinate through at().

    One rule is newer than that loop: an overflowing difference gives inf, where
    the loop computed (inf / inf)**p = nan.
    """
    m = max(len(x.prefix), len(y.prefix), len(w.head))
    d_tail = abs(x.tail - y.tail)
    scaled = [w.at(n) ** (1.0 / p) * abs(x.at(n) - y.at(n)) for n in range(m)]
    tail_anchor = w.at(m) ** (1.0 / p) * d_tail
    top = max(scaled + [tail_anchor])
    if top == 0.0:
        return 0.0
    if top == math.inf:
        return math.inf
    total = sum((v / top) ** p for v in scaled if v > 0.0)
    if d_tail > 0.0:
        total += (tail_anchor / top) ** p / (1.0 - w.ratio)
    return top * total ** (1.0 / p)


# any finite float, so differences may overflow and weights may underflow
wide = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([0.0, -0.0]))
wide_seqs = st.builds(BoundedSeq, st.lists(wide, max_size=6).map(tuple), wide)
weight_heads = st.lists(st.floats(min_value=1e-300, max_value=1e3), max_size=4).map(tuple)


@settings(max_examples=300)
@given(wide_seqs, wide_seqs, weight_heads, st.floats(min_value=1e-3, max_value=1.0))
@example(BoundedSeq((1e308,), 0.0), BoundedSeq((-1e308,), 0.0), (), 0.5)
def test_dist_sup_weighted_is_bit_exact(x, y, head, ratio):
    w = WeightSeq(head, ratio)
    assert dist_sup_weighted(x, y, w).hex() == sup_weighted_loop(x, y, w).hex()


@settings(max_examples=300)
@given(wide_seqs, wide_seqs, ps, weight_heads, st.floats(min_value=1e-3, max_value=0.999))
@example(BoundedSeq((1e308,), 0.0), BoundedSeq((-1e308,), 0.0), 2.0, (), 0.5)
def test_dist_p_weighted_is_bit_exact(x, y, p, head, ratio):
    w = WeightSeq(head, ratio)
    assert dist_p_weighted(x, y, p, w).hex() == p_weighted_loop(x, y, p, w).hex()


def test_power_distance_is_inf_not_nan_when_a_difference_overflows():
    # |1e308 - (-1e308)| overflows; the factored sum would compute (inf / inf)**p = nan
    far, near = BoundedSeq((1e308,), 0.0), BoundedSeq((-1e308,), 0.0)
    assert dist_p_geom(far, near, 1.0, 0.5) == math.inf
    assert dist_p_geom(far, near, 2.0, 0.5) == math.inf
    assert dist_p_geom(BoundedSeq.constant(1e308), BoundedSeq.constant(-1e308), 2.0, 0.5) == math.inf
    # the tail difference overflows where its weight 0.5**1100 underflows: 0.0 * inf
    deep = BoundedSeq((0.0,) * 1100, 1e308)
    assert dist_p_geom(deep, BoundedSeq.constant(-1e308), 2.0, 0.5) == math.inf


def test_sup_distance_is_inf_not_nan_when_an_overflowing_tail_meets_an_underflowed_weight():
    # the tail's weight 0.5**1100 underflows to 0.0 where |1e308 - (-1e308)| overflows: 0.0 * inf
    deep = BoundedSeq((0.0,) * 1100, 1e308)
    assert dist_sup_geom(deep, BoundedSeq.constant(-1e308), 0.5) == math.inf
    assert dist_sup_weighted(deep, BoundedSeq.constant(-1e308), WeightSeq((), 0.5)) == math.inf


@pytest.mark.parametrize("p, message", [
    (math.nan, "^exponent must be finite"),
    (math.inf, "^exponent must be finite"),
    (0.5, r"^exponent must be >= 1, got 0\.5$"),
])
def test_power_distance_rejects_bad_exponents(p, message):
    with pytest.raises(ValueError, match=message):
        dist_p_geom(BoundedSeq.constant(0.0), BoundedSeq.constant(1.0), p, 0.5)


def outcome(fn, *args):
    """The value's bits, or the exception's type and message."""
    try:
        return fn(*args).hex()
    except (ValueError, TypeError) as e:
        return f"{type(e).__name__}: {e}"


def sup_geom_through_weights(x, y, q):
    """dist_sup_geom as it was defined: the weighted sup distance over WeightSeq.geometric(q)."""
    return dist_sup_weighted(x, y, WeightSeq.geometric(ensure_weight(q, closed=True)))


def p_geom_through_weights(x, y, p, q):
    """dist_p_geom as it was defined: the weighted power distance over WeightSeq.geometric(q)."""
    return dist_p_weighted(x, y, p, WeightSeq.geometric(ensure_weight(q)))


# q = 1e-200 underflows q**2; subnormal and bad values reach every check
geometric_qs = st.one_of(st.floats(min_value=5e-324, max_value=1.0),
                         st.sampled_from([1e-200, 0.5, 0.0, -0.5, 1.5, math.nan, math.inf]))
exponents = st.one_of(ps, st.sampled_from([1.0, 64.0, 1e6, 0.5, -1.0, math.nan, math.inf]))
DEEP = BoundedSeq((0.0,) * 1100, 1e308)  # its tail's weight 0.5**1100 underflows where the difference overflows
# at q = 1e-200 the weight q**2 of index 2 underflows where the difference overflows
HEAD_OVER = BoundedSeq((0.0, 0.0, 1e308), 0.0), BoundedSeq((0.0, 0.0, -1e308), 0.0)


@settings(max_examples=400)
@given(wide_seqs, wide_seqs, geometric_qs)
@example(DEEP, BoundedSeq.constant(-1e308), 0.5)
@example(BoundedSeq((1.0, 2.0, 3.0), 1e308), BoundedSeq.constant(-1e308), 1e-200)
@example(*HEAD_OVER, 1e-200)
def test_dist_sup_geom_equals_the_weighted_distance_bit_for_bit(x, y, q):
    assert outcome(dist_sup_geom, x, y, q) == outcome(sup_geom_through_weights, x, y, q)


@settings(max_examples=400)
@given(wide_seqs, wide_seqs, exponents, geometric_qs)
@example(DEEP, BoundedSeq.constant(-1e308), 2.0, 0.5)
@example(BoundedSeq((1.0, 2.0, 3.0), 1e308), BoundedSeq.constant(-1e308), 3.5, 1e-200)
@example(BoundedSeq((1.0, 2.0, 3.0), 1.0), BoundedSeq.constant(-1.0), 2.0, 1e-200)
@example(*HEAD_OVER, 2.0, 1e-200)
def test_dist_p_geom_equals_the_weighted_distance_bit_for_bit(x, y, p, q):
    assert outcome(dist_p_geom, x, y, p, q) == outcome(p_geom_through_weights, x, y, p, q)


def test_an_overflowing_head_difference_at_an_underflowed_weight_is_inf():
    # 1e-200**2 * |1e308 - (-1e308)| is 0.0 * inf = nan at index 2, as at the tail
    assert dist_sup_geom(*HEAD_OVER, 1e-200) == math.inf
    assert dist_p_geom(*HEAD_OVER, 2.0, 1e-200) == math.inf


@pytest.mark.parametrize("p, q, message", [
    (2.0, 1.0, r"^q must lie in \(0, 1\), got 1\.0$"),
    (0.5, 0.5, r"^exponent must be >= 1, got 0\.5$"),
    (0.5, 1.0, r"^q must lie in \(0, 1\), got 1\.0$"),  # q is checked before p
    (math.nan, math.nan, "^q must be finite"),
])
def test_power_distance_checks_q_before_p(p, q, message):
    x, y = BoundedSeq.constant(0.0), BoundedSeq.constant(1.0)
    with pytest.raises(ValueError, match=message):
        dist_p_geom(x, y, p, q)
    with pytest.raises(ValueError, match=message):
        p_geom_through_weights(x, y, p, q)
    with pytest.raises(ValueError, match=message):
        _geom_distance(q, p, 0)


FAR, NEAR = BoundedSeq((1e308, 0.0, 1e308), -1e308), BoundedSeq((-1e308,), 1e308)


@settings(max_examples=500)
@given(wide_seqs, wide_seqs, st.one_of(st.none(), st.sampled_from([1.0, 2.0, 7.5, 2.0**20]), exponents),
       st.one_of(st.just(1.0), geometric_qs), st.integers(min_value=0, max_value=3))
@example(FAR, NEAR, None, 1.0, 0)
@example(FAR, NEAR, None, 1e-200, 2)
@example(FAR, NEAR, 7.5, 1e-200, 0)
@example(FAR, NEAR, 2.0**20, 0.5, 1)
@example(*HEAD_OVER, 2.0, 1e-200, 0)
@example(DEEP, BoundedSeq.constant(-1e308), None, 0.5, 0)
@example(BoundedSeq((1.0, 2.0, 3.0), 1.0), BoundedSeq.constant(-1.0), 1.0, 1e-200, 3)
def test_geom_distance_equals_the_public_distances_bit_for_bit(x, y, p, q, spare):
    # the table may run past the longer prefix; invalid q and p raise the same message, q first
    length = max(len(x.prefix), len(y.prefix)) + spare
    got = outcome(lambda x, y: _geom_distance(q, p, length)(x, y), x, y)
    assert got == (outcome(dist_sup_geom, x, y, q) if p is None else outcome(dist_p_geom, x, y, p, q))
    assert got != "nan"


@pytest.mark.parametrize("p, q", [(None, 1.0), (None, 0.5), (None, 1e-200)]
                         + [(p, q) for p in (1.0, 2.0, 7.5, 2.0**20) for q in (0.5, 1e-200)])
def test_geom_distance_of_overflowing_entries_is_inf(p, q):
    assert _geom_distance(q, p, 3)(FAR, NEAR) == math.inf
