"""The SeqMap protocol: lip_sup and lip_p, differences and witnesses, and the overrides of its defaults.

The solver certifies any map through the first two methods: a sup
certificate sits at the crossing weight q where ``lip_sup(q)`` falls to q,
and that q is the certificate's step factor. The empirical lower bound
tests a constant through the next two. A built-in override of
``diagonal`` or ``iterates`` gives the default's values bit for bit.
"""

import math
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqfix import (
    BoundedSeq,
    FiniteArityMap,
    LinearSeqMap,
    PCertificate,
    SeqMap,
    SupHalfMap,
    embed_finite,
    empirical_lip_lower_bound,
    find_p_certificate,
    find_sup_certificate,
    secelean_iterates,
    solve_fixed_point,
    sup_certificate_from_p,
    truncate,
)
from seqfix import maps
from seqfix.solver import _smallest_k

ZERO = BoundedSeq.constant(0.0)

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


#: the largest float below 1, the last weight the crossing bisection tests
EDGE = 1.0 - 2.0**-53
#: 2,000 weights spread evenly over (0, 1]
GRID = [i / 2000 for i in range(1, 2001)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(linear_maps, embedded_maps))
def test_certificate_sits_at_the_crossing(f):
    cert = find_sup_certificate(f)
    if f.lip_sup(EDGE) > EDGE:
        assert cert is None
        return
    assert cert is not None
    assert cert.lip == f.lip_sup(cert.q) <= cert.q < 1.0
    # no weight on the grid gives a smaller step factor, up to the bisection's resolution
    assert cert.step_factor() <= min(max(f.lip_sup(g), g) for g in GRID) + 2.0**-52


def test_crossing_plans_fewer_steps():
    # the slow map's step factor 0.98664 is the spectral radius of v = 0.49 v' + 0.49 v'' + 1
    slow = LinearSeqMap((0.49, 0.49), offset=1.0)
    readme = LinearSeqMap((1 / 3,), 1 / 6, 0.5, 1.0)
    for f, tol, plan, t in ((slow, 1e-9, 1862, 50.0), (readme, 1e-6, 86, 3.0)):
        cert = find_sup_certificate(f)
        sol = solve_fixed_point(f, ZERO, cert, tol)
        assert _smallest_k(cert, sol.trace.initial_gap, tol) == plan
        assert sol.k_used <= plan
        assert abs(sol.value - t) <= tol


def test_sup_certificate_from_p_sits_at_the_crossing():
    pc = find_p_certificate(LinearSeqMap((0.0, 0.3)), 0.5)
    back = sup_certificate_from_p(pc)

    def comparison(s):
        return pc.lip / (1.0 - pc.q / s**pc.p) ** (1.0 / pc.p) if s**pc.p > pc.q else math.inf

    assert back.lip <= back.q < 1.0
    assert back.step_factor() <= min(max(comparison(s), s) for s in GRID) + 2.0**-52
    # lip just below (1 - q)**(1/p), with a step factor one ulp below 1: the crossing rounds to 1,
    # so there is no certificate
    assert sup_certificate_from_p(PCertificate(8.0, 0.5, 0.9170040432046711)) is None


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
    assert find_sup_certificate(f) is None


class PlainSupMap(SeqMap):
    """1 + (x_0 + x_1) / 4: known to the protocol only through lip_sup."""

    def eval(self, x):
        a, b = x.head(2)
        return 1.0 + 0.25 * (a + b)

    def lip_sup(self, q):
        return 0.25 + 0.25 / q


class HintedSupMap(PlainSupMap):
    """PlainSupMap with its exact truncation constants: x_1 is frozen at arity 1."""

    def truncation_hint(self, n):
        return 0.25 if n == 1 else 0.5


def test_minimal_map_gets_truncation_hint_and_secelean_default():
    f = PlainSupMap()
    assert truncate(f, 3, 0.0).lipschitz_hint == 0.5
    assert [truncate(HintedSupMap(), n, 0.0).lipschitz_hint for n in (1, 2, 3)] == [0.25, 0.5, 0.5]
    rows = secelean_iterates(f, ZERO, 60)  # no lip passed: lip_sup(1.0) = 0.5
    assert rows[1].bound == 0.5**2 / 0.5 * 1.0
    assert abs(rows[-1].value - 2.0) <= rows[-1].bound
    assert find_sup_certificate(f) is not None
    assert find_p_certificate(f, 0.5) is None


def test_lip_sup_alone_unlocks_certificate_and_solve():
    f = PlainSupMap()
    cert = find_sup_certificate(f)
    # the crossing 1/4 + 1/(4q) = q
    assert cert.q == pytest.approx((0.25 + math.sqrt(1.0625)) / 2.0, abs=1e-15)
    assert round(cert.q, 4) == 0.6404
    assert cert.lip == f.lip_sup(cert.q) <= cert.q
    sol = solve_fixed_point(f, ZERO, cert, 1e-9)
    assert abs(sol.value - 2.0) <= 1e-9


def test_opaque_map_has_no_constants():
    class Opaque(SeqMap):
        def eval(self, x):
            return 0.0

    f = Opaque()
    assert f.lip_sup(0.5) == f.lip_p(2.0, 0.5) == math.inf
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
    assert Spike().differences([(a, b), (b, a)]) == [abs(Spike().eval(a) - Spike().eval(b))] * 2 == [0.5, 0.5]


def test_witnesses_default_to_none_and_feed_the_empirical_bound():
    assert list(Spike().witnesses(0.5, None)) == []
    assert empirical_lip_lower_bound(SpikeWithWitness(), 0.5, trials=1) == 8.0
    assert empirical_lip_lower_bound(Spike(), 0.5, trials=1) < 8.0


@pytest.mark.parametrize("hint", [1.0 - 2.0**-53, 1.0 - 2e-16, 1.0 - 1e-15])
def test_sup_weight_of_hints_that_round_to_one_never_raises(hint):
    for m in range(2, 200):
        f = embed_finite(FiniteArityMap(m, lambda *a: a[0], hint))
        cert = find_sup_certificate(f)
        if cert is not None:
            assert cert.lip == f.lip_sup(cert.q) <= cert.q < 1.0
    assert find_sup_certificate(embed_finite(FiniteArityMap(3, lambda *a: a[0], 1.0 - 2.0**-53))) is None


def affine_rule(coeffs, offset):
    def rule(*args):
        acc = offset
        for c, a in zip(coeffs, args):
            acc += c * a
        return acc

    return rule


#: affine embedded maps whose coefficients may exceed 1, so their values can overflow
affine_embedded_maps = st.integers(min_value=1, max_value=4).flatmap(lambda m: st.builds(
    lambda coeffs, offset: embed_finite(FiniteArityMap(m, affine_rule(coeffs, offset))),
    st.lists(st.floats(min_value=-1.5, max_value=1.5), min_size=m, max_size=m),
    st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=-2.0, max_value=2.0)),
))
#: truncations of linear maps, themselves sequence maps that read their first n coordinates
linear_truncations = st.builds(truncate, linear_maps, st.integers(min_value=1, max_value=6),
                               st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=-2.0, max_value=2.0)))
#: signed zeros, the least subnormal, the domain's edge, points outside [0, 1] and the ends of the float range
points = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1.0, 1.5, -0.5, 1e308, -1e308]),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=-2.0, max_value=2.0),
)


def first_values(make, n=60):
    """The first ``n`` values of ``make()`` in hex, the text of a ``ValueError`` in the place where one is raised."""
    out = []
    try:
        for v in islice(make(), n):
            out.append(v.hex())
    except ValueError as e:
        out.append(f"ValueError: {e}")
    return out


def unsigned_zeros(hexes):
    return ["0x0.0p+0" if h == "-0x0.0p+0" else h for h in hexes]


@settings(max_examples=300, deadline=None)
@given(st.one_of(linear_maps, st.just(SupHalfMap()), affine_embedded_maps, linear_truncations),
       st.lists(points, max_size=5),
       st.one_of(points, st.sampled_from([math.nan, math.inf, -math.inf])))
@example(SupHalfMap(), [], -0.0)
@example(SupHalfMap(), [0.0], -0.0)
@example(SupHalfMap(), [-0.0, 0.0], 5e-324)
@example(SupHalfMap(), [0.25, 1.0], 0.5)
@example(SupHalfMap(), [0.25, 1.5], 0.5)
@example(SupHalfMap(), [0.5], math.nan)
@example(embed_finite(FiniteArityMap(1, affine_rule([-0.5], 0.0))), [], 0.0)
@example(embed_finite(FiniteArityMap(2, affine_rule([1.5, 1.5], 0.0))), [1e308], 1e308)
def test_every_built_in_override_gives_the_protocol_default_bit_for_bit(f, prefix, t):
    assert first_values(lambda: (f.diagonal(t),)) == first_values(lambda: (SeqMap.diagonal(f, t),))
    if not math.isfinite(t):  # a start holds finite values only
        return
    x0 = BoundedSeq(tuple(prefix), t)
    ours, default = first_values(lambda: f.iterates(x0)), first_values(lambda: SeqMap.iterates(f, x0))
    if isinstance(f, FiniteArityMap):
        # the window keeps each value's sign of zero; the default's prepend trims a -0.0 that equals a 0.0 tail
        ours, default = unsigned_zeros(ours), unsigned_zeros(default)
    assert ours == default


#: head and tail coefficients: signed zeros, moderate values, and values large enough that a run overflows
long_run_coeffs = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=-1.5, max_value=1.5),
                            st.sampled_from([1e300, -1e300]))


@st.composite
def long_run_maps(draw):
    """Heads of 0-12; a zero tail coefficient, a zero tail ratio, or a tail under a ratio of either sign.

    Half the draws are scaled to sum |b_n| = 0.9 when they exceed it, so their runs stay bounded.
    """
    head = tuple(draw(st.lists(long_run_coeffs, max_size=12)))
    nonzero = long_run_coeffs.filter(lambda b: b != 0.0)
    tail, ratio = draw(st.one_of(
        st.tuples(st.sampled_from([0.0, -0.0]), st.floats(min_value=-0.999, max_value=0.999)),
        st.tuples(nonzero, st.sampled_from([0.0, -0.0])),
        st.tuples(nonzero, st.floats(min_value=-0.999, max_value=0.999).filter(lambda r: r != 0.0)),
    ))
    offset = draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=-2.0, max_value=2.0)))
    total = LinearSeqMap(head, tail, ratio).sum_abs_coeffs()
    if draw(st.booleans()) and total > 0.9:
        head, tail = tuple(b / total * 0.9 for b in head), tail / total * 0.9
    return LinearSeqMap(head, tail, ratio, offset)


@settings(max_examples=40, deadline=None)
@given(long_run_maps(), st.lists(points, max_size=40), points, st.integers(min_value=300, max_value=1000))
# the live terms sum to -0.0, and the re-read of the zero terms past them turns it into 0.0
@example(LinearSeqMap((-0.5,), 0.0, 0.0, -0.0), [0.0, 1.0], -1.0, 300)
@example(LinearSeqMap((-0.5,), 0.25, 0.0, -0.0), [0.0, -0.0, 1.0], -1.0, 300)
# a tail under a negative ratio, from a long prefix
@example(LinearSeqMap((0.3, -0.2), 0.1, -0.7, -1.5), [float(k % 7) for k in range(40)], 0.5, 1000)
# the values overflow, and each run raises the same ValueError at the same lift
@example(LinearSeqMap((1.5, 1.5), 0.5, -0.5, 1.0), [1.0], 1.0, 1000)
def test_a_long_linear_run_gives_the_protocol_default_bit_for_bit(f, prefix, t, n):
    x0 = BoundedSeq(tuple(prefix), t)
    assert first_values(lambda: f.iterates(x0), n) == first_values(lambda: SeqMap.iterates(f, x0), n)


def test_the_override_property_covers_every_built_in_override():
    # a set of classes, since EmbeddedMap is another name for FiniteArityMap
    overriding = {cls for cls in vars(maps).values()
                  if isinstance(cls, type) and issubclass(cls, SeqMap) and cls is not SeqMap
                  and {"diagonal", "iterates"} & vars(cls).keys()}
    assert overriding == {LinearSeqMap, SupHalfMap, FiniteArityMap}
