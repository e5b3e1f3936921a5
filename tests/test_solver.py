import math
import random
import re
from functools import partial
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from seqfix import (
    BoundedSeq,
    BoundViolationError,
    FiniteArityMap,
    LinearSeqMap,
    PCertificate,
    SeceleanStep,
    SeqMap,
    SupCertificate,
    SupHalfMap,
    UncertifiedMapError,
    dist_p_geom,
    dist_sup_geom,
    embed_finite,
    find_p_certificate,
    find_sup_certificate,
    generalized_iterates,
    lift_step,
    presic_iterates,
    reduce_general_weights,
    secelean_iterates,
    solve_fixed_point,
    sup_certificate_from_p,
    truncate,
    truncation_study,
)
from seqfix.solver import _BISECT_STEPS, _ROUNDOFF_ULPS, _STEP_BUDGET, _diagonal_fixed_point, _smallest_k

RECUR = LinearSeqMap(head_coeffs=(1.0 / 3.0,), tail_coeff=1.0 / 6.0, tail_ratio=0.5, offset=1.0)
RECUR_CERT = SupCertificate(0.8, RECUR.lip_sup(0.8))  # lip = 8/9
ZERO = BoundedSeq.constant(0.0)


def random_linear(rng, abs_sum, ratio_span=0.4):
    head = tuple(rng.uniform(-1, 1) for _ in range(rng.randrange(0, 5)))
    beta = rng.choice((-1, 1)) * rng.uniform(0.1, 1.0)
    rho = rng.uniform(-ratio_span, ratio_span)
    f = LinearSeqMap(head, beta, rho, rng.uniform(-2, 2))
    scale = abs_sum / f.sum_abs_coeffs()
    return LinearSeqMap(tuple(b * scale for b in head), beta * scale, rho, f.offset)


def random_seq(rng, span=2.0):
    k = rng.randrange(0, 7)
    return BoundedSeq(tuple(rng.uniform(-span, span) for _ in range(k)), rng.uniform(-span, span))


def test_certificate_validation():
    with pytest.raises(ValueError):
        SupCertificate(1.0, 0.5)
    with pytest.raises(ValueError):
        SupCertificate(0.5, 1.0)
    with pytest.raises(ValueError):
        SupCertificate(0.5, -0.1)
    with pytest.raises(ValueError):
        PCertificate(0.5, 0.5, 0.1)
    with pytest.raises(ValueError):
        PCertificate(1.0, 0.5, 0.5)  # needs lip < 1 - q
    with pytest.raises(ValueError):
        # lip is (1 - q)**(1/4) exactly, yet the step factor rounds to 0.9999999999999999:
        # in floats a step factor below 1 does not imply lip < (1 - q)**(1/p)
        PCertificate(4.0, 0.2550690257394217, 0.9290284380029116)
    PCertificate(1.0, 0.5, 0.4)


def test_a_priori_bound_examples():
    cert = SupCertificate(0.5, 0.5)
    assert cert.a_priori_bound(1, 2.0) == 2.0
    assert SupCertificate(0.5, 0.5).a_priori_bound(5, 0.0) == 0.0
    p_cert = PCertificate(1.0, 0.5, 0.25)
    assert p_cert.a_priori_bound(1, 1.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        cert.a_priori_bound(0, 1.0)
    for d1 in (-1.0, math.nan):
        with pytest.raises(ValueError, match="^first-step displacement must be nonnegative, got"):
            cert.a_priori_bound(1, d1)


def test_a_priori_bound_recursion_identity():
    # lip/(1-lip) * lip^(k-1) with lip = 8/9 is exactly 9*(8/9)^k = 8*(8/9)^(k-1)
    for k in range(1, 51):
        bound = RECUR_CERT.a_priori_bound(k, 1.0)
        assert bound == pytest.approx(9.0 * (8.0 / 9.0) ** k, abs=1e-12)
        assert 9.0 * (8.0 / 9.0) ** k == pytest.approx(8.0 * (8.0 / 9.0) ** (k - 1), abs=1e-12)


def test_bounds_decrease_geometrically():
    for cert in (SupCertificate(0.7, 0.4), PCertificate(2.0, 0.3, 0.5)):
        bounds = [cert.a_priori_bound(k, 1.0) for k in range(1, 30)]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))


def test_lift_step():
    f = LinearSeqMap(offset=5.0)
    value, lifted = lift_step(f, ZERO)
    assert value == 5.0
    assert lifted == BoundedSeq((5.0,), 0.0)


def test_lift_step_at_fixed_point():
    star = RECUR.fixed_point()
    value, lifted = lift_step(RECUR, BoundedSeq.constant(star))
    assert abs(value - star) <= 1e-12
    assert dist_sup_geom(lifted, BoundedSeq.constant(star), 0.8) <= 1e-12


def test_generalized_iterates_recursion_map():
    trace = generalized_iterates(RECUR, ZERO, 60, RECUR_CERT)
    values = [s.value for s in trace.steps]
    assert values[0] == 1.0
    assert values[1] == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert abs(values[-1] - 3.0) < 1e-2
    assert trace.initial_gap == pytest.approx(1.0, abs=1e-15)
    bounds = [s.bound for s in trace.steps]
    assert all(a >= b for a, b in zip(bounds, bounds[1:]))


def test_iterate_prefix_has_stack_shape():
    trace = generalized_iterates(RECUR, ZERO, 4)
    values = [s.value for s in trace.steps]
    lifted = ZERO
    for v in values:
        lifted = lifted.prepend(v)
    assert lifted.prefix == tuple(reversed(values))


def test_trace_bounds_are_valid():
    reference = generalized_iterates(RECUR, ZERO, 400).steps[-1].value
    trace = generalized_iterates(RECUR, ZERO, 100, RECUR_CERT)
    for step in trace.steps:
        assert abs(step.value - reference) <= step.bound + 1e-9


def test_uncertified_trace_has_no_bounds():
    trace = generalized_iterates(RECUR, ZERO, 3)
    assert trace.initial_gap is None
    assert all(s.bound is None for s in trace.steps)


def test_lifted_step_contracts():
    rng = random.Random(61)
    for _ in range(100):
        f = random_linear(rng, rng.uniform(0.1, 0.9))
        q = rng.uniform(0.5, 0.9)
        x, y = random_seq(rng), random_seq(rng)
        fx, lx = lift_step(f, x)
        fy, ly = lift_step(f, y)
        factor = max(q, f.lip_sup(q))
        assert dist_sup_geom(lx, ly, q) <= factor * dist_sup_geom(x, y, q) + 1e-9
        p = rng.choice((1.0, 2.0, 3.0))
        lip_p = f.lip_p(p, q)
        factor_p = (lip_p**p + q) ** (1.0 / p)
        assert dist_p_geom(lx, ly, p, q) <= factor_p * dist_p_geom(x, y, p, q) + 1e-9


def test_find_sup_certificate_recursion_map():
    cert = find_sup_certificate(RECUR)
    assert cert is not None
    assert 0.0 < cert.q < 1.0
    assert cert.lip < 1.0
    assert cert.lip == RECUR.lip_sup(cert.q)


def test_find_sup_certificate_rejects_unit_abs_sum():
    assert find_sup_certificate(LinearSeqMap((0.0,), 0.5, 0.5)) is None
    assert find_sup_certificate(LinearSeqMap((1.2,))) is None


def test_find_sup_certificate_geometric_needs_large_q():
    for b in (0.1, 0.2, 0.4):
        cert = find_sup_certificate(LinearSeqMap((0.0,), b, b))
        assert cert is not None
        assert cert.q > 2 * b  # below 2b the constant is >= 1


def test_find_sup_certificate_constant_map():
    cert = find_sup_certificate(LinearSeqMap(offset=7.0))
    assert cert == SupCertificate(2.0**-53, 0.0)  # lip_sup is 0 at every weight: the least weight bisected to


def test_find_sup_certificate_embeddings():
    g = embed_finite(FiniteArityMap(2, lambda a, b: (a + b) / 4 + 1, 0.5))
    cert = find_sup_certificate(g)
    assert cert.q == pytest.approx(math.sqrt(0.5), abs=1e-15)  # the crossing 0.5 / q = q
    assert cert.lip == pytest.approx(math.sqrt(0.5), abs=1e-15)
    one = embed_finite(FiniteArityMap(1, lambda a: a / 3, 1.0 / 3.0))
    cert = find_sup_certificate(one)  # lip_sup is the hint at every weight, so it crosses at 1/3
    assert cert.lip == 1.0 / 3.0 <= cert.q <= 1.0 / 3.0 + 2.0**-53
    assert find_sup_certificate(embed_finite(FiniteArityMap(2, lambda a, b: a + b))) is None
    assert find_sup_certificate(embed_finite(FiniteArityMap(1, lambda a: 2 * a, 2.0))) is None


def test_find_sup_certificate_uncertified_maps():
    assert find_sup_certificate(SupHalfMap()) is None


def test_certificate_soundness_on_samples():
    rng = random.Random(67)
    for _ in range(30):
        f = random_linear(rng, rng.uniform(0.1, 0.9))
        cert = find_sup_certificate(f)
        for _ in range(10):
            x, y = random_seq(rng), random_seq(rng)
            assert abs(f.eval(x) - f.eval(y)) <= cert.lip * dist_sup_geom(x, y, cert.q) + 1e-9


def test_find_p_certificate():
    cert = find_p_certificate(LinearSeqMap((0.0, 0.3)), 0.5)
    assert cert is not None
    assert cert.p == 2.0
    assert cert.lip == pytest.approx(0.3 / math.sqrt(0.5), abs=1e-12)
    # a unit coefficient can never satisfy the power-family condition
    assert find_p_certificate(LinearSeqMap((0.0, 1.0)), 0.5) is None
    zero = find_p_certificate(LinearSeqMap(), 0.7)
    assert zero is not None and zero.p == 1.0 and zero.lip == 0.0
    with pytest.raises(ValueError):
        find_p_certificate(RECUR, 1.0)


def test_p_certificate_needs_a_step_factor_below_one_in_floats():
    # lip < 1 - q holds, but lip + q rounds to 1: the a priori bound would divide by zero
    with pytest.raises(ValueError, match="step factor below 1"):
        PCertificate(1.0, 0.5, 0.49999999999999994)
    f = LinearSeqMap((0.49999999999999994,), offset=1.0)
    cert = find_p_certificate(f, 0.5)
    assert cert == PCertificate(2.0, 0.5, 0.49999999999999994)
    assert cert.step_factor() == pytest.approx(math.sqrt(0.75), abs=1e-15)
    assert abs(solve_fixed_point(f, ZERO, cert, 1e-6).value - f.fixed_point()) <= 1e-6
    assert reduce_general_weights(7.0, 0.9431995661853698, 0.2009483930429536, 3.0) is None
    assert reduce_general_weights(7.0, 0.8086350979101008, 0.027337843155699884, 1.0) is None


def test_sup_certificate_from_p():
    rng = random.Random(71)
    for _ in range(30):
        f = random_linear(rng, rng.uniform(0.1, 0.9))
        for q0 in (0.25, 0.5, 0.75):
            p_cert = find_p_certificate(f, q0)
            assert p_cert is not None
            back = sup_certificate_from_p(p_cert)
            assert back.q > q0 ** (1.0 / p_cert.p)
            # the converted constant really dominates the sup-family constant
            assert f.lip_sup(back.q) <= back.lip + 1e-9


class LipCounting(LinearSeqMap):
    """A linear map that records the argument of each lip_sup call (q) and lip_p call (p)."""

    calls: list = []

    def lip_sup(self, q):
        LipCounting.calls.append(q)
        return super().lip_sup(q)

    def lip_p(self, p, q):
        LipCounting.calls.append(p)
        return super().lip_p(p, q)


def test_the_sup_search_evaluates_lip_sup_once_per_bisection_step(monkeypatch):
    monkeypatch.setattr(LipCounting, "calls", [])
    f = LipCounting(RECUR.head_coeffs, RECUR.tail_coeff, RECUR.tail_ratio, RECUR.offset)
    cert = find_sup_certificate(f)
    assert len(LipCounting.calls) == _BISECT_STEPS == 53
    # the crossing and its constant, bit for bit: the value that accepted the crossing is lip_sup there
    assert cert == SupCertificate(float.fromhex("0x1.aaaaaaaaaaaabp-1"), float.fromhex("0x1.aaaaaaaaaaaaap-1"))
    assert cert.lip == RECUR.lip_sup(cert.q) and cert.q in LipCounting.calls


def test_the_p_search_tries_each_exponent_of_its_grid_once(monkeypatch):
    monkeypatch.setattr(LipCounting, "calls", [])
    assert find_p_certificate(LipCounting((0.0, 1.0)), 0.5) is None  # a unit coefficient never qualifies
    assert LipCounting.calls == [2.0**k for k in range(21)]

    class LastExponentOnly(SeqMap):
        def eval(self, x):
            return 0.0

        def lip_p(self, p, q):
            return 0.0 if p == 2.0**20 else math.inf

    assert find_p_certificate(LastExponentOnly(), 0.5) == PCertificate(2.0**20, 0.5, 0.0)


def test_solve_fixed_point_recursion_map():
    sol = solve_fixed_point(RECUR, ZERO, RECUR_CERT, 1e-6)
    assert abs(sol.value - 3.0) <= 1e-6
    assert _smallest_k(RECUR_CERT, sol.trace.initial_gap, 1e-6) == 136  # smallest k with 9*(8/9)^k <= 1e-6
    assert RECUR_CERT.a_priori_bound(136, sol.trace.initial_gap) <= 1e-6
    # the residual stop comes first: |f(v, v, ...) - v| / (1 - 8/9) is the sharper bound
    assert sol.k_used == 87
    assert sol.trace.steps[-1].residual <= 1e-6 * (1.0 - 8.0 / 9.0)


def test_a_residual_that_fills_the_room_does_not_stop_the_solve():
    # the stop needs residual + δ <= tol·(1 - c); at tol = residual_k / (1 - c), step k leaves no room for δ
    c = RECUR_CERT.diagonal_lip()
    for k in (20, 40, 50):
        residual = generalized_iterates(RECUR, ZERO, k, RECUR_CERT).steps[-1].residual
        tol = residual / (1.0 - c)
        assert tol * (1.0 - c) == residual
        sol = solve_fixed_point(RECUR, ZERO, RECUR_CERT, tol)
        assert sol.k_used == k + 1
        assert abs(sol.value - RECUR.fixed_point()) <= tol


@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9])
def test_solve_with_a_power_certificate_meets_its_tolerance(tol):
    # the diagonal constant of PCertificate(1, 0.5, 1/3) is (1/3)/(1 - 0.5) = 2/3; the stop's room is tol·(1 - 2/3)
    cert = find_p_certificate(RECUR, 0.5)
    assert cert == PCertificate(1.0, 0.5, 1.0 / 3.0)
    sol = solve_fixed_point(RECUR, ZERO, cert, tol)
    assert abs(sol.value - RECUR.fixed_point()) <= tol


def test_solve_fixed_point_constant_map():
    f = LinearSeqMap(offset=7.0)
    sol = solve_fixed_point(f, ZERO, SupCertificate(0.5, 0.0), 1e-9)
    assert sol.value == 7.0
    assert sol.k_used == 1


def test_solve_fixed_point_embedding():
    g = embed_finite(FiniteArityMap(2, lambda a, b: (a + b) / 4 + 1, 0.5))
    sol = solve_fixed_point(g, ZERO, find_sup_certificate(g), 1e-8)
    assert abs(sol.value - 2.0) <= 1e-8


def test_solve_fixed_point_starting_at_solution():
    sol = solve_fixed_point(RECUR, BoundedSeq.constant(3.0), RECUR_CERT, 1e-10)
    assert sol.k_used == 1
    assert abs(sol.value - 3.0) <= 1e-10


def test_solve_lifts_once_per_iterate(monkeypatch):
    calls = []

    def counting_lift(f, x):
        calls.append(x)
        return lift_step(f, x)

    x0 = BoundedSeq((0.5, -1.0), 2.0)
    monkeypatch.setattr("seqfix.maps.lift_step", counting_lift)
    sol = solve_fixed_point(RECUR, x0, RECUR_CERT, 1e-6)
    assert len(calls) == sol.k_used
    assert sol.trace == generalized_iterates(RECUR, x0, sol.k_used, RECUR_CERT)


def test_solve_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        solve_fixed_point(RECUR, ZERO, RECUR_CERT, 0.0)


def test_invalid_certificate_is_caught():
    f = LinearSeqMap((0.9,), offset=1.0)  # true constant 0.9, claimed 0.01
    with pytest.raises(BoundViolationError):
        solve_fixed_point(f, ZERO, SupCertificate(0.5, 0.01), 1e-3)


def test_secelean_separation_fixture():
    f = SupHalfMap()
    x0 = BoundedSeq((0.6,), 0.0)
    trace = generalized_iterates(f, x0, 100)
    assert all(s.value >= 0.3 for s in trace.steps)
    rows = secelean_iterates(f, x0, 30)
    assert rows[0].value == 0.3
    assert rows[30].value < 1e-8
    # the recorded bound is exact on this fixture
    assert all(r.value == r.bound for r in rows)


def test_secelean_constant_map_is_stationary():
    f = LinearSeqMap(offset=4.0)
    rows = secelean_iterates(f, BoundedSeq.constant(4.0), 10)
    assert all(r.value == 4.0 for r in rows)


def test_secelean_bound_decays_linear_map():
    f = LinearSeqMap((0.2,), 0.1, 0.3, 0.0)  # offset 0: fixed point 0
    rows = secelean_iterates(f, BoundedSeq((1.0, -0.5), 0.25), 40)
    lip = f.lip_sup(1.0)
    for r in rows:
        assert abs(r.value) <= r.bound + 1e-12
        assert r.bound <= lip ** (r.k + 1) / (1 - lip) * 2.0
    assert abs(rows[-1].value) < 1e-12


def test_secelean_embedding_uses_hint():
    g = embed_finite(FiniteArityMap(2, lambda a, b: (a + b) / 4 + 1, 0.5))
    rows = secelean_iterates(g, ZERO, 40)
    assert abs(rows[-1].value - 2.0) < 1e-5


def test_secelean_refuses_unverifiable_maps():
    class Opaque(SeqMap):
        def eval(self, x):
            return 0.0

    with pytest.raises(UncertifiedMapError):
        secelean_iterates(Opaque(), ZERO, 5)
    with pytest.raises(UncertifiedMapError):
        secelean_iterates(LinearSeqMap((1.5,)), ZERO, 5)  # constant >= 1
    rows = secelean_iterates(Opaque(), ZERO, 5, lip=0.0)  # caller-supplied constant
    assert rows[0].value == 0.0


def test_secelean_takes_no_diagonal_step_after_its_last_row():
    # the diagonal at 1.7e308 overflows: a step after row 0 would raise, but the one row needs none
    f = LinearSeqMap((0.5, 1e-10), offset=1e308)
    rows = secelean_iterates(f, BoundedSeq((0.0, 1.7e308), 0.0), 0)
    assert rows == [SeceleanStep(k=0, value=1.0000000001700001e308, bound=math.inf)]


class DiagonalCounting(LinearSeqMap):
    """A linear map that records the argument of each diagonal call."""

    calls: list = []

    def diagonal(self, t):
        DiagonalCounting.calls.append(t)
        return super().diagonal(t)


@pytest.mark.parametrize("k_max", [0, 1, 7])
def test_secelean_maps_a_constant_start_once_per_step(monkeypatch, k_max):
    monkeypatch.setattr(DiagonalCounting, "calls", [])
    rows = secelean_iterates(DiagonalCounting((0.25,), offset=1.0), BoundedSeq.constant(0.0), k_max)
    assert len(DiagonalCounting.calls) == k_max + 1  # the gap at the one value, then k_max steps of its tail
    assert [r.k for r in rows] == list(range(k_max + 1))


def test_presic_iterates_converge():
    g = FiniteArityMap(2, lambda a, b: (a + b) / 4 + 1, 0.5)
    values = presic_iterates(g, (0.0, 0.0), 80)
    assert values[0] == 1.0
    assert abs(values[-1] - 2.0) < 1e-12
    picard = FiniteArityMap(1, lambda a: a / 2 + 1, 0.5)
    assert abs(presic_iterates(picard, (0.0,), 60)[-1] - 2.0) < 1e-12
    with pytest.raises(ValueError):
        presic_iterates(g, (0.0,), 5)


def test_presic_matches_embedded_iterates():
    # asymmetric rule pins down the argument order: newest value first
    g = FiniteArityMap(2, lambda a, b: a / 3 - b / 5 + 1, 1.0 / 3.0 + 1.0 / 5.0)
    seeds = (0.2, 0.7)
    start = BoundedSeq(tuple(reversed(seeds)), seeds[0])
    values = presic_iterates(g, seeds, 50)
    trace = generalized_iterates(embed_finite(g), start, 50)
    assert values == [s.value for s in trace.steps]


def test_truncation_study_recursion_map():
    report = truncation_study(RECUR, RECUR_CERT, 0.0, 12, 1e-6)
    assert report.reference == pytest.approx(3.0, abs=1e-8)
    for row in report.rows:
        # independent closed form: the truncated map is affine in one unknown
        partial = sum(RECUR.coeff_at(k) for k in range(row.n))
        closed = 1.0 / (1.0 - partial)
        assert row.value == pytest.approx(closed, abs=1e-6)
        assert row.error <= row.bound + 1e-6
    errors = [r.error for r in report.rows]
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_truncation_study_from_the_fixed_point():
    report = truncation_study(RECUR, RECUR_CERT, 3.0, 5, 1e-6)
    for row in report.rows:
        assert row.value == 3.0
        assert row.error == 0.0
        assert row.bound == 0.0


def test_truncated_half_sup_keeps_positive_floor():
    # truncations of the half-sup map all share the fixed point base/2, so
    # they cannot approach the true fixed point 0
    base = 0.4
    for n in (1, 2, 5):
        fn = truncate(SupHalfMap(), n, base)
        values = presic_iterates(fn, (0.0,) * n, 60)
        assert values[-1] == pytest.approx(base / 2, abs=1e-12)


def test_reduce_general_weights():
    got = reduce_general_weights(1.0, 0.5, 0.9)
    assert got == SupCertificate(0.5, 0.9)
    assert reduce_general_weights(2.0, 0.5, 0.6) is None
    got_p = reduce_general_weights(1.0, 0.5, 0.4, p=1.0)
    assert got_p == PCertificate(1.0, 0.5, 0.4)
    assert reduce_general_weights(1.0, 0.5, 0.6, p=1.0) is None
    # a zero constant is a valid one
    assert reduce_general_weights(1.0, 0.5, 0.0) == SupCertificate(0.5, 0.0)
    assert reduce_general_weights(1.0, 0.5, 0.0, p=2.0) == PCertificate(2.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        reduce_general_weights(1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        reduce_general_weights(-1.0, 0.5, 0.5)


def test_tolerance_below_float_resolution_is_not_a_bound_violation():
    # at 1e-15 and 1e-17 the stop needs room for 4 ulps at 3, 1.8e-15, and tol * (1 - c) is smaller;
    # at 1e-15 the planned iterate, 2.9999999999999987, is 1.3e-15 from 3
    cert = find_sup_certificate(RECUR)
    for tol in (1e-15, 1e-17):
        with pytest.raises(ValueError, match="below float resolution: the residual .* is within roundoff") as caught:
            solve_fixed_point(RECUR, ZERO, cert, tol)
        assert not isinstance(caught.value, BoundViolationError)
    for tol in (1e-300, 5e-324):  # at 5e-324, tol / (first a priori bound) underflows to 0.0
        with pytest.raises(ValueError, match="below float resolution") as caught:
            solve_fixed_point(RECUR, ZERO, cert, tol)
        assert not isinstance(caught.value, BoundViolationError)
    assert solve_fixed_point(RECUR, ZERO, cert, 1e-12).value == pytest.approx(3.0, abs=1e-12)


def test_the_solve_roundoff_reads_the_larger_of_the_iterate_and_its_diagonal_value():
    # the iterates alternate around the fixed point 2: at step 32, v sits a binade below f(v, v, ...) = 2.0, and
    # 4 ulps of 2.0 leave no room for the stop; 4 ulps of v alone would let the run go on to its cap and return
    f = LinearSeqMap((-0.3266020035216024,), 0.0, 0.0, 2.653204007043205)
    cert, tol = find_sup_certificate(f), 1.7689017446338546e-15
    step = generalized_iterates(f, ZERO, 32, cert).steps[-1]
    assert (step.value, f.diagonal(step.value)) == (2.0 - 2.0**-51, 2.0)
    with pytest.raises(ValueError, match=r"^tolerance 1\.769e-15 is below float resolution: "
                                         r"the residual 4\.441e-16 is within roundoff 1\.776e-15$"):
        solve_fixed_point(f, ZERO, cert, tol)


def test_residual_above_the_roundoff_floor_is_still_a_violation():
    f = LinearSeqMap((0.9,), offset=1.0)  # true constant 0.9, claimed 0.01
    with pytest.raises(BoundViolationError):
        solve_fixed_point(f, ZERO, SupCertificate(0.5, 0.01), 1e-17)


@pytest.mark.parametrize("start, outcome", [
    (0.0135, "returns"),  # residual above tol, within the allowance
    (0.014444444444444602, "below resolution"),  # residual within the slack, 2.09δ above the allowance
    (0.02, "violation"),  # residual 1.8·tol, which an allowance of tol·(1 + c)/(1 - c) would return, 18·tol from t*
    (0.022, "violation"),  # residual above the allowance plus slack
])
def test_the_at_cap_allowance_separates_a_return_from_roundoff_and_a_violation(start, outcome):
    # t -> 0.9·t under a certificate claiming 0.3: from each start the plan is one step, the cap, and the
    # residual there, 0.09·start, lands in its band; a slack cut to 2δ or less would call the middle band a
    # violation, and an allowance cut to tol would refuse the first. A valid certificate puts the capped
    # iterate within tol of t*, and its residual within tol·(1 + c)
    f = embed_finite(FiniteArityMap(1, lambda t: 0.9 * t))
    cert, tol, c = SupCertificate(0.3, 0.3), 1e-3, 0.3
    x0 = BoundedSeq.constant(start)
    v = 0.9 * start
    residual = abs(0.9 * v - v)
    delta = _ROUNDOFF_ULPS * math.ulp(v)
    allowance = tol * (1.0 + c)
    slack = (1.0 + c) * delta / (1.0 - cert.step_factor()) + delta
    assert {
        "returns": tol < residual <= allowance,
        "below resolution": allowance + 2.0 * delta < residual <= allowance + slack,
        "violation": allowance + slack < residual,
    }[outcome]
    assert _smallest_k(cert, dist_sup_geom(x0.prepend(v), x0, cert.q), tol) == 1
    run = partial(solve_fixed_point, f, x0, cert, tol)
    if outcome == "returns":
        solution = run()
        assert (solution.value, solution.k_used) == (v, 1)
    elif outcome == "below resolution":
        with pytest.raises(ValueError, match=r"below float resolution: roundoff blocks the stop$") as caught:
            run()
        assert not isinstance(caught.value, BoundViolationError)
    else:
        with pytest.raises(BoundViolationError, match="^terminal residual .* exceeds certified allowance"):
            run()


def test_nan_residual_is_a_bound_violation():
    class NanDiagonal(SeqMap):
        """A map whose diagonal reads NaN everywhere: no residual of it can pass the terminal check."""

        def eval(self, x):
            return 0.5 * x.head(1)[0]

        def diagonal(self, t):
            return math.nan

        def lip_sup(self, q):
            return 0.5

    with pytest.raises(BoundViolationError, match="^terminal residual nan exceeds"):
        solve_fixed_point(NanDiagonal(), BoundedSeq.constant(1.0), SupCertificate(0.5, 0.5), 1e-6)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-0.99, max_value=0.99), st.floats(min_value=-1e5, max_value=1e5),
       st.sampled_from([1e-6, 1e-9, 1e-12]))
@example(-0.856049225667278, 2383.633795947942, 1e-9)  # the truncation study's reference runs at tol/1000
@example(-0.8792827331217441, 48978.84146693345, 1e-12)
def test_affine_maps_within_their_constant_are_never_a_bound_violation(a, b, tol):
    # δ of roundoff per evaluation can keep the steps up to 2δ/(1 - c) long, most with a negative slope:
    # a tolerance that it blocks is below float resolution, not a broken certificate
    f = LinearSeqMap((a,), offset=b)
    cert = find_sup_certificate(f)
    for run in (lambda: solve_fixed_point(f, ZERO, cert, tol), lambda: truncation_study(f, cert, 0.0, 2, tol)):
        try:
            run()
        except ValueError as e:
            assert "below float resolution" in str(e)


def test_truncation_without_its_own_certificate_plans_with_the_maps():
    # the arity-2 map certifies at q = 1 - 2**-53; its arity-3 truncation's own q rounds to 1,
    # but freezing coordinates keeps the map's certificate valid for every truncation
    g = FiniteArityMap(2, lambda a, b: 0.5 * a + 0.4999999999999998 * b, 0.9999999999999998)
    f = embed_finite(g)
    cert = find_sup_certificate(f)
    assert cert is not None
    assert find_sup_certificate(embed_finite(truncate(f, 3, 0.0))) is None
    report = truncation_study(f, cert, 0.0, 3, 1e-6)  # base 0.0 is the fixed point, so every run is 1 step
    assert [row.n for row in report.rows] == [1, 2, 3]
    assert all(row.error <= row.bound for row in report.rows)


def test_truncation_study_reports_an_invalid_certificate():
    # the claimed q = 0.05 is no certificate for RECUR: its lip_sup(0.05) is inf
    cert = SupCertificate(0.05, find_sup_certificate(RECUR).lip)
    assert RECUR.lip_sup(0.05) == math.inf
    with pytest.raises(BoundViolationError,
                       match=r"^truncation error 1\.500e\+00 at arity 1 exceeds certified bound 7\.500e-01$"):
        truncation_study(RECUR, cert, 0.0, 5, 1e-6)


class QuarterPair(SeqMap):
    """1 + (x_0 + x_1) / 4, with no plain-sup constant on offer: its truncations carry no hint."""

    def eval(self, x):
        a, b = x.head(2)
        return 1.0 + (a + b) / 4.0

    def lip_sup(self, q):
        return 0.25 + 0.25 / q if q < 1.0 else math.inf


@pytest.mark.parametrize("base", [0.0, -1.5, 3.0])
def test_truncation_study_of_a_map_without_a_plain_sup_constant(base):
    f = QuarterPair()
    assert truncate(f, 3, base).lipschitz_hint is None
    cert = find_sup_certificate(f)
    report = truncation_study(f, cert, base, 6, 1e-6)
    assert [row.n for row in report.rows] == [1, 2, 3, 4, 5, 6]
    for row in report.rows:
        assert row.error <= row.bound + 1e-6
        # arity 1 solves x = 1 + (x + base)/4; from arity 2 on the truncation is the map itself
        closed = (4.0 + base) / 3.0 if row.n == 1 else 2.0
        assert row.value == pytest.approx(closed, abs=1e-6)


def test_smallest_k_corrects_the_closed_form_at_an_exact_bound():
    # the closed form ceil(log(tol / bound(1)) / log(step factor)) gives 349 and 1332 here
    over = SupCertificate(0.9486722155758944, 0.9288709373181624)
    assert _smallest_k(over, 0.0021842794825523344, 4.2987496059591426e-10) == 350
    under = SupCertificate(0.7303465766396973, 0.4768763837643533)
    d1, tol = 0.021422298472161858, 1.1804108565699596e-183
    assert under.a_priori_bound(1331, d1) == tol
    assert _smallest_k(under, d1, tol) == 1331


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.999), st.floats(min_value=0.0, max_value=0.999),
       st.floats(min_value=1e-6, max_value=1e6), st.floats(min_value=0.0, max_value=1.0), st.booleans())
def test_smallest_k_at_an_exact_bound_is_the_least_sufficient_index(q, lip, d1, depth, below):
    cert = SupCertificate(q, lip)
    # k from 1 up to where the factor step_factor**(k-1) reaches 1e-300, so the bound stays a normal float
    k = 1 + int(depth * 300 / -math.log10(cert.step_factor()))
    tol = cert.a_priori_bound(k, d1)
    if below:
        tol = math.nextafter(tol, 0.0)
    assume(tol > 0.0)
    got = _smallest_k(cert, d1, tol)
    assert cert.a_priori_bound(got, d1) <= tol
    if got > 1:
        assert cert.a_priori_bound(got - 1, d1) > tol


def test_start_too_far_from_its_image_is_a_value_error():
    # the first lifted step moves coordinate 0 from 1.7e308 to -8.5e307: the gap overflows
    f = LinearSeqMap((-0.5,))
    x0 = BoundedSeq((1.7e308,), 0.0)
    for cert in (find_sup_certificate(f), find_p_certificate(f, 0.5)):
        assert cert.gap(lift_step(f, x0)[1], x0) == math.inf
        with pytest.raises(ValueError, match="^first-step displacement inf gives a non-finite a priori bound"):
            solve_fixed_point(f, x0, cert, 1e-6)


def signed_linear(head, tail_coeff, tail_ratio, abs_sum, offset):
    """The map with these coefficient signs and shapes, rescaled so that sum |b_n| = abs_sum."""
    f = LinearSeqMap(tuple(head), tail_coeff, tail_ratio, offset)
    total = f.sum_abs_coeffs()
    if total == 0.0:
        return f
    # b / total first: a subnormal total would make abs_sum / total overflow
    return LinearSeqMap(tuple(b / total * abs_sum for b in head), tail_coeff / total * abs_sum, tail_ratio, offset)


unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
certifiable_maps = st.builds(
    signed_linear,
    st.lists(unit, max_size=4),
    unit,
    st.floats(min_value=-0.9, max_value=0.9, allow_nan=False),
    st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
starts = st.builds(BoundedSeq, st.lists(st.floats(min_value=-2.0, max_value=2.0), max_size=3).map(tuple),
                   st.floats(min_value=-2.0, max_value=2.0))


@settings(max_examples=200, deadline=None)
@given(certifiable_maps, starts, st.floats(min_value=1e-8, max_value=1e-3))
def test_certified_solve_is_sound_on_random_linear_maps(f, x0, tol):
    cert = find_sup_certificate(f)
    assert cert is not None
    t = f.fixed_point()
    sol = solve_fixed_point(f, x0, cert, tol)
    assert abs(sol.value - t) <= tol
    # The bound holds in exact arithmetic and can be tight: for 0.75 * x_0 from 1.0 the bound and
    # the error are both 0.75**k. Each float step adds a few ulps of the values it touches, and
    # later steps damp them by the step factor, so they sum to at most ulps / (1 - step factor).
    scale = max(abs(t), *map(abs, x0.values()))
    for step in sol.trace.steps:
        scale = max(scale, abs(step.value))
        slack = 4 * math.ulp(scale) / (1.0 - cert.step_factor())
        assert step.bound >= abs(step.value - t) - slack, step


long_starts = st.builds(BoundedSeq, st.lists(st.floats(min_value=-2.0, max_value=2.0), max_size=8).map(tuple),
                        st.floats(min_value=-2.0, max_value=2.0))


@settings(max_examples=150, deadline=None)
@given(certifiable_maps, long_starts, st.sampled_from([1e-3, 1e-6, 1e-9]))
def test_solve_stops_at_the_first_certified_residual(f, x0, tol):
    cert = find_sup_certificate(f)
    lifts = []

    def counting_lift(g, x):
        lifts.append(x)
        return lift_step(g, x)

    with mock.patch("seqfix.maps.lift_step", counting_lift):
        sol = solve_fixed_point(f, x0, cert, tol)
    assert len(lifts) == sol.k_used
    assert sol.k_used <= _smallest_k(cert, sol.trace.initial_gap, tol)
    t = f.fixed_point()
    scale = max(abs(t), *map(abs, x0.values()), *(abs(step.value) for step in sol.trace.steps))
    assert abs(sol.value - t) <= tol + 4 * math.ulp(scale) / (1.0 - cert.step_factor())
    # no earlier iterate already met the stop: residual + 4 ulps of max(|v|, |f(v, v, ...)|) <= tol * (1 - c)
    room = tol * (1.0 - cert.diagonal_lip())
    for step in sol.trace.steps[:-1]:
        roundoff = _ROUNDOFF_ULPS * math.ulp(max(abs(step.value), abs(f.diagonal(step.value))))
        assert step.residual + roundoff > room, step


def test_a_plan_over_the_step_budget_is_refused_before_iterating():
    f = LinearSeqMap((), 1e-7, 0.999999, 1.0)
    cert = find_sup_certificate(f)
    with pytest.raises(ValueError, match=f"^the a priori bound plans 30818188 steps, more than the step budget "
                                         f"{_STEP_BUDGET}$") as caught:
        solve_fixed_point(f, ZERO, cert, 1e-6)
    assert not isinstance(caught.value, BoundViolationError)
    with pytest.raises(ValueError, match="plans 449091424346160737 steps"):
        _smallest_k(PCertificate(1.0, 0.5, 0.4999999999999999), 1.0, 1e-6)
    assert _STEP_BUDGET == 10**6


#: (id, the call given only its count, the count's name, its least value): every count argument of the solver
COUNTS = [
    ("generalized-k-max", lambda k: generalized_iterates(RECUR, ZERO, k), "k_max", 1),
    ("secelean-k-max", lambda k: secelean_iterates(RECUR, ZERO, k), "k_max", 0),
    ("presic-k-max", lambda k: presic_iterates(FiniteArityMap(1, lambda a: 0.5 * a), (0.0,), k), "k_max", 0),
    ("truncation-n-max", lambda n: truncation_study(RECUR, RECUR_CERT, 0.0, n, 1e-6), "n_max", 1),
]

#: counts that are not integers: a whole float included, each is refused by name
NOT_COUNTS = [2.0, 2.5, "2", None]


@pytest.mark.parametrize("call, error, message", [
    (lambda: generalized_iterates(RECUR, ZERO, 0), ValueError, r"^k_max must be an integer >= 1, got 0$"),
    (lambda: secelean_iterates(RECUR, ZERO, -1), ValueError, r"^k_max must be an integer >= 0, got -1$"),
    (lambda: presic_iterates(FiniteArityMap(1, lambda a: 0.5 * a), (0.0,), -1), ValueError,
     r"^k_max must be an integer >= 0, got -1$"),
    (lambda: truncation_study(RECUR, RECUR_CERT, 0.0, 0, 1e-6), ValueError, r"^n_max must be an integer >= 1, got 0$"),
    (lambda: truncation_study(RECUR, RECUR_CERT, 0.0, 3, 0.0), ValueError, r"^tolerance must be positive, got 0\.0$"),
    (lambda: truncation_study(RECUR, RECUR_CERT, 0.0, 3, -1e-6), ValueError,
     r"^tolerance must be positive, got -1e-06$"),
    (lambda: reduce_general_weights(1.0, 0.5, -0.1), ValueError, r"^lip must be nonnegative, got -0\.1$"),
    # the edge values themselves: each check is a strict inequality
    (lambda: solve_fixed_point(RECUR, ZERO, RECUR_CERT, 0.0), ValueError, r"^tolerance must be positive, got 0\.0$"),
    (lambda: secelean_iterates(RECUR, ZERO, 3, lip=1.0), UncertifiedMapError,
     r"^diagonal iteration needs a sup-distance constant < 1, got 1\.0$"),
    (lambda: reduce_general_weights(0.0, 0.5, 0.1), ValueError, r"^a0 must be positive, got 0\.0$"),
] + [(partial(call, v), ValueError, f"^{name} must be an integer >= {least}, got {re.escape(repr(v))}$")
     for _, call, name, least in COUNTS for v in NOT_COUNTS],
    ids=["generalized-k-max", "secelean-k-max", "presic-k-max", "truncation-n-max", "truncation-zero-tol",
         "truncation-negative-tol", "reduce-negative-lip", "solve-zero-tol", "secelean-unit-lip", "reduce-zero-a0"]
    + [f"{case}-{v}" for case, *_ in COUNTS for v in NOT_COUNTS])
def test_out_of_range_arguments_raise(call, error, message):
    with pytest.raises(error, match=message):
        call()


class Unliftable(SeqMap):
    """A map whose every evaluation fails the test: a refused count must come before the first lift."""

    def eval(self, x):
        raise AssertionError("the map was evaluated")


def test_k_max_over_the_step_budget_is_refused_before_any_lift(monkeypatch):
    over = r"^k_max 1414 makes the lifted sequence lengths sum to 1000405, more than the step budget 1000000$"
    with pytest.raises(ValueError, match=over) as caught:
        generalized_iterates(Unliftable(), ZERO, 1414)
    assert not isinstance(caught.value, BoundViolationError)
    # 1413 lifts fit: 1 + ... + 1413 = 998,991
    assert len(generalized_iterates(SupHalfMap(), BoundedSeq((0.6, 0.2), 0.9), 1413).steps) == 1413
    # 1 + ... + 4 = 10 fits a budget of 10, and 1 + ... + 5 does not
    monkeypatch.setattr("seqfix.solver._STEP_BUDGET", 10)
    with pytest.raises(AssertionError, match="evaluated"):
        generalized_iterates(Unliftable(), ZERO, 4)
    with pytest.raises(ValueError, match=r"^k_max 5 makes the lifted sequence lengths sum to 15, "
                                         r"more than the step budget 10$"):
        generalized_iterates(Unliftable(), ZERO, 5)


def unevaluable(*args):
    raise AssertionError("the map was evaluated")


@pytest.mark.parametrize("iterate", [
    lambda k_max: secelean_iterates(Unliftable(), ZERO, k_max, lip=0.5),
    lambda k_max: presic_iterates(FiniteArityMap(1, unevaluable), (0.0,), k_max),
], ids=["secelean", "presic"])
def test_an_iterated_k_max_over_the_step_budget_is_refused_before_any_step(monkeypatch, iterate):
    with pytest.raises(ValueError, match=r"^k_max 1000001 is more than the step budget 1000000$") as caught:
        iterate(10**6 + 1)
    assert not isinstance(caught.value, BoundViolationError)
    # a budget of 10 takes k_max 10, and not 11
    monkeypatch.setattr("seqfix.solver._STEP_BUDGET", 10)
    with pytest.raises(AssertionError, match="evaluated"):
        iterate(10)
    with pytest.raises(ValueError, match=r"^k_max 11 is more than the step budget 10$"):
        iterate(11)


def test_truncation_study_over_the_step_budget_is_refused_before_any_evaluation(monkeypatch):
    def no_evaluation(*args):
        raise AssertionError("the study evaluated a diagonal")

    monkeypatch.setattr("seqfix.solver._diagonal_fixed_point", no_evaluation)
    with pytest.raises(ValueError, match=r"^n_max 1414 makes the arities sum to 1000405, "
                                         r"more than the step budget 1000000$") as caught:
        truncation_study(RECUR, RECUR_CERT, 0.0, 1414, 1e-6)
    assert not isinstance(caught.value, BoundViolationError)
    # 1 + ... + 4 = 10 fits a budget of 10, and 1 + ... + 5 does not
    monkeypatch.setattr("seqfix.solver._STEP_BUDGET", 10)
    with pytest.raises(AssertionError, match="evaluated"):
        truncation_study(RECUR, RECUR_CERT, 0.0, 4, 1e-6)
    with pytest.raises(ValueError, match=r"^n_max 5 makes the arities sum to 15, more than the step budget 10$"):
        truncation_study(RECUR, RECUR_CERT, 0.0, 5, 1e-6)


def test_diagonal_iteration_slower_than_its_claimed_constant_is_a_bound_violation():
    # d contracts by 0.9, not the claimed 0.1: the 7 planned steps leave a step far above tol * (1 - c) / c
    with pytest.raises(BoundViolationError, match=r"after the planned 7 steps exceeds the certified"):
        _diagonal_fixed_point(lambda t: 0.9 * t + 1.0, 0.0, 0.1, 1e-6)


def test_diagonal_iteration_over_the_step_budget_raises(monkeypatch):
    # a budget of 2 evaluations ends the run before its first Aitken point, so no early stop comes first
    monkeypatch.setattr("seqfix.solver._STEP_BUDGET", 2)
    over_budget = r"^the a priori bound plans \d+ steps, more than the step budget 2$"
    with pytest.raises(ValueError, match=over_budget):
        _diagonal_fixed_point(lambda t: 0.9999999 * t + 1.0, 0.0, 0.9999999, 1e-6)
