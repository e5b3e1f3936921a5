"""The SeqMap protocol: lip_sup, lip_p and sup_weight, difference and witnesses.

The solver certifies any map through the first three methods, and the
empirical lower bound tests a constant through the last two. The linear and
embedded maps must certify exactly as the type-by-type search did before
the protocol existed; a copy of that search is kept here as the reference.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqfix import (
    BoundedSeq,
    EmbeddedMap,
    FiniteArityMap,
    LinearSeqMap,
    SeqMap,
    SupCertificate,
    SupHalfMap,
    embed_finite,
    empirical_lip_lower_bound,
    find_p_certificate,
    find_sup_certificate,
    secelean_iterates,
    solve_fixed_point,
    truncate,
)

ZERO = BoundedSeq.constant(0.0)


def ladder_sup_certificate(f):
    """The certificate search as a ladder over the concrete map types."""
    if isinstance(f, LinearSeqMap):
        total = f.sum_abs_coeffs()
        if total >= 1.0:
            return None
        if total == 0.0:
            return SupCertificate(0.5, 0.0)
        target = (1.0 + total) / 2.0
        lo_edge = abs(f.tail_ratio) if f.tail_coeff != 0.0 else 0.0
        lo, hi = lo_edge, 1.0
        exceeded = False
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if f.lip_sup(mid) <= target:
                hi = mid
            else:
                lo = mid
                exceeded = True
        if not exceeded:
            q = 0.5 * (lo_edge + 1.0)
        elif hi < 1.0:
            q = hi
        else:
            return None
        return SupCertificate(q, f.lip_sup(q))
    if isinstance(f, EmbeddedMap):
        hint = f.finite_map.lipschitz_hint
        if hint is None or hint >= 1.0:
            return None
        m = f.finite_map.arity
        if m == 1:
            return SupCertificate(0.5, hint)
        q = ((1.0 + hint) / 2.0) ** (1.0 / (m - 1))
        # newer than the ladder: a q or lip that rounds to 1 is no certificate, not a ValueError
        if not (q < 1.0 and hint / q ** (m - 1) < 1.0):
            return None
        return SupCertificate(q, hint / q ** (m - 1))
    return None


def outcome(fn, *args):
    """The call's result, or the name of the exception it raised."""
    try:
        return fn(*args)
    except Exception as e:  # noqa: BLE001 - the exception type is the outcome
        return type(e).__name__


def same_bits(a, b):
    return repr(a) == repr(b)


coeff = st.one_of(
    st.just(0.0),
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=-1e-300, max_value=1e-300, allow_nan=False),
)
linear_maps = st.builds(
    LinearSeqMap,
    head_coeffs=st.lists(coeff, max_size=8).map(tuple),
    tail_coeff=coeff,
    tail_ratio=st.floats(min_value=-0.999, max_value=0.999, allow_nan=False),
    offset=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
hints = st.one_of(
    st.none(),
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1.5, allow_nan=False),
    st.floats(min_value=1.0 - 1e-9, max_value=1.0, allow_nan=False),
)
embedded_maps = st.builds(
    lambda m, hint: embed_finite(FiniteArityMap(m, lambda *a: 0.5 * a[0], hint)),
    st.integers(min_value=1, max_value=2000),
    hints,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(linear_maps, embedded_maps))
def test_certificate_search_matches_the_type_ladder_bit_for_bit(f):
    got = outcome(find_sup_certificate, f)
    want = outcome(ladder_sup_certificate, f)
    assert same_bits(got, want)


def test_ladder_cases_that_reach_every_branch():
    maps = [
        LinearSeqMap(),  # total 0
        LinearSeqMap((0.5, 0.6)),  # total >= 1
        LinearSeqMap((0.0,), 0.3, 0.5),  # bisection
        LinearSeqMap((0.999999,)),  # bisection, q near 1
        embed_finite(FiniteArityMap(1, lambda a: a / 3, 1 / 3)),  # arity 1
        embed_finite(FiniteArityMap(3, lambda a, b, c: a, 0.5)),
        embed_finite(FiniteArityMap(3, lambda a, b, c: a)),  # no hint
        SupHalfMap(),
    ]
    for f in maps:
        assert same_bits(find_sup_certificate(f), ladder_sup_certificate(f))


@given(
    st.integers(min_value=1, max_value=5000),
    hints,
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)
def test_embedded_lip_sup_is_inf_without_hint_or_on_underflow(m, hint, q):
    f = embed_finite(FiniteArityMap(m, lambda *a: 0.0, hint))
    got = f.lip_sup(q)  # never ZeroDivisionError
    w = q ** (m - 1)
    if hint is None or w == 0.0:
        assert got == math.inf
    else:
        assert got == hint / w


def test_embedded_lip_sup_examples():
    assert embed_finite(FiniteArityMap(1100, lambda *a: 0.0, 0.5)).lip_sup(0.5) == math.inf  # 2**-1099 is 0.0
    assert embed_finite(FiniteArityMap(2, lambda a, b: a)).lip_sup(0.5) == math.inf
    assert embed_finite(FiniteArityMap(3, lambda a, b, c: a, 0.5)).lip_sup(0.5) == 2.0
    assert embed_finite(FiniteArityMap(3, lambda a, b, c: a, 0.5)).lip_sup(1.0) == 0.5


def test_sup_half_lip_sup():
    f = SupHalfMap()
    assert f.lip_sup(1.0) == 0.5
    assert f.lip_sup(0.999) == math.inf
    assert f.sup_weight() is None
    assert find_sup_certificate(f) is None


class PlainSupMap(SeqMap):
    """1 + (x_0 + x_1) / 4: known to the protocol only through lip_sup."""

    def eval(self, x):
        a, b = x.head(2)
        return 1.0 + 0.25 * (a + b)

    def lip_sup(self, q):
        return 0.25 + 0.25 / q


class WeightedMap(PlainSupMap):
    """The same map, also offering a weight to certify at."""

    def sup_weight(self):
        return 0.9


def test_minimal_map_gets_truncation_hint_and_secelean_default():
    f = PlainSupMap()
    assert truncate(f, 3, 0.0).lipschitz_hint == 0.5
    rows = secelean_iterates(f, ZERO, 60)  # no lip passed: lip_sup(1.0) = 0.5
    assert rows[1].bound == 0.5**2 / 0.5 * 1.0
    assert abs(rows[-1].value - 2.0) <= rows[-1].bound
    assert find_sup_certificate(f) is None
    assert find_p_certificate(f, 0.5) is None


def test_sup_weight_unlocks_certificate_and_solve():
    f = WeightedMap()
    cert = find_sup_certificate(f)
    assert cert == SupCertificate(0.9, f.lip_sup(0.9))
    sol = solve_fixed_point(f, ZERO, cert, 1e-9)
    assert abs(sol.value - 2.0) <= 1e-9


def test_opaque_map_has_no_constants():
    class Opaque(SeqMap):
        def eval(self, x):
            return 0.0

    f = Opaque()
    assert f.lip_sup(0.5) == f.lip_p(2.0, 0.5) == math.inf
    assert f.sup_weight() is None
    assert truncate(f, 2, 0.0).lipschitz_hint is None


@pytest.mark.parametrize("hint", [None, 0.0, 0.3, 2.0])
def test_truncation_hints_of_sup_half_and_embedded_maps(hint):
    assert truncate(SupHalfMap(), 4, 0.5).lipschitz_hint == 0.5
    g = embed_finite(FiniteArityMap(3, lambda a, b, c: a, hint))
    assert truncate(g, 5, 0.0).lipschitz_hint == hint


class Spike(SeqMap):
    """|x_3|: its q-weighted sup constant is q**-3, reached at the unit spike on index 3."""

    def eval(self, x):
        return abs(x.at(3))


class SpikeWithWitness(Spike):
    def witnesses(self, q, p):
        yield BoundedSeq((0.0, 0.0, 0.0, 1.0), 0.0)


def test_difference_defaults_to_subtracting_evaluations():
    a, b = BoundedSeq((0.0, 0.0, 0.0, -0.75), 0.0), BoundedSeq.constant(0.25)
    assert Spike().difference(a, b) == abs(Spike().eval(a) - Spike().eval(b)) == 0.5


def test_witnesses_default_to_none_and_feed_the_empirical_bound():
    assert list(Spike().witnesses(0.5, None)) == []
    assert empirical_lip_lower_bound(SpikeWithWitness(), 0.5, trials=1) == 8.0
    assert empirical_lip_lower_bound(Spike(), 0.5, trials=1) < 8.0


@pytest.mark.parametrize("hint", [1.0 - 2.0**-53, 1.0 - 2e-16, 1.0 - 1e-15])
def test_sup_weight_of_hints_that_round_to_one_never_raises(hint):
    for m in range(2, 200):
        f = embed_finite(FiniteArityMap(m, lambda *a: a[0], hint))
        q = f.sup_weight()
        cert = find_sup_certificate(f)
        if q is None:
            assert cert is None
        else:
            assert q < 1.0 and f.lip_sup(q) < 1.0
            assert cert == SupCertificate(q, f.lip_sup(q))
    assert embed_finite(FiniteArityMap(3, lambda *a: a[0], 1.0 - 2.0**-53)).sup_weight() is None
