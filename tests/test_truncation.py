"""Exactness of truncations and the sliding Prešić window; the diagonal loop of truncation studies.

Values are compared bit for bit (via ``float.hex``, which also tells -0.0
from 0.0): a truncation with ``f.eval(BoundedSeq(args, base))``, and the
product-space recursion with a loop that rebuilds the window from the
history.
"""

import math
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import seqfix.solver
from seqfix import (
    BoundedSeq,
    BoundViolationError,
    FiniteArityMap,
    LinearSeqMap,
    SeqMap,
    SupHalfMap,
    embed_finite,
    find_p_certificate,
    find_sup_certificate,
    generalized_iterates,
    presic_iterates,
    solve_fixed_point,
    truncate,
    truncation_study,
)
from seqfix.sequences import _left_sum
from seqfix.solver import _diagonal_fixed_point

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
coeff = st.one_of(st.floats(min_value=-1.0, max_value=1.0), st.sampled_from([0.0, -0.0]))


@st.composite
def linear_maps(draw, max_head=6):
    head = tuple(draw(st.lists(coeff, max_size=max_head)))
    tail_coeff = draw(coeff)
    tail_ratio = draw(st.floats(min_value=-0.95, max_value=0.95))
    return LinearSeqMap(head, tail_coeff, tail_ratio, draw(st.floats(min_value=-3.0, max_value=3.0)))


def affine(coeffs, offset, hint=None):
    def rule(*args):
        acc = offset
        for c, a in zip(coeffs, args):
            acc += c * a
        return acc

    return FiniteArityMap(len(coeffs), rule, hint)


class QuarterSumMap(SeqMap):
    """(x_0 + x_1) / 4: a user map known to the protocol through eval and lip_sup alone."""

    def eval(self, x):
        a, b = x.head(2)
        return 0.25 * (a + b)

    def lip_sup(self, q):
        return 0.25 + 0.25 / q


#: an affine Prešić map of arity 1-4 with |c| <= 1, embedded, with sum |c| or no hint
presic_maps = st.integers(min_value=1, max_value=4).flatmap(lambda m: st.builds(
    lambda coeffs, offset, hinted: embed_finite(affine(coeffs, offset, sum(map(abs, coeffs)) if hinted else None)),
    st.lists(coeff, min_size=m, max_size=m), st.floats(min_value=-3.0, max_value=3.0), st.booleans(),
))
every_map_kind = st.one_of(linear_maps(), st.just(SupHalfMap()), presic_maps, st.just(QuarterSumMap()))


@st.composite
def truncation_cases(draw, maps=linear_maps()):
    """(map, n, base, args) where args mix free values with runs equal to base, all in the map's domain."""
    f = draw(maps)
    free = finite if f.domain is None else st.floats(min_value=f.domain[0], max_value=f.domain[1])
    n = draw(st.integers(min_value=1, max_value=9))
    base = draw(st.one_of(free, st.sampled_from([0.0, -0.0, 1.0])))
    # None stands for base, so all-base and trailing-base tuples are common
    slots = draw(st.lists(st.one_of(st.none(), free, st.sampled_from([0.0, -0.0])), min_size=n, max_size=n))
    return f, n, base, tuple(base if v is None else v for v in slots)


def bits(values):
    return [float(v).hex() for v in values]


def outcome(fn, args):
    """The value's bits, or the text of the ValueError the call raises."""
    try:
        return fn(*args).hex()
    except ValueError as e:
        return f"ValueError: {e}"


@settings(max_examples=300, deadline=None)
@given(truncation_cases(every_map_kind))
@example((LinearSeqMap((0.5, -0.25), 0.125, -0.5, 1.0), 4, 2.0, (2.0, 2.0, 2.0, 2.0)))
@example((LinearSeqMap((0.5, -0.25), 0.125, -0.5, 1.0), 4, 2.0, (1.5, -3.0, 2.0, 2.0)))
@example((LinearSeqMap((0.5,), 0.25, 0.5, 1.0), 3, 0.0, (-0.0, 1.0, -0.0)))
@example((SupHalfMap(), 3, 0.25, (-0.0, 1.0, 0.25)))
@example((embed_finite(affine([0.5, -0.25, 0.125], 1.0, 0.875)), 2, -1.5, (3.0, 0.5)))
@example((QuarterSumMap(), 1, 2.0, (-0.0,)))
def test_truncation_is_bit_exact(case):
    f, n, base, args = case
    fn = truncate(f, n, base)
    assert bits([fn(*args)]) == bits([f.eval(BoundedSeq(args, base))])
    if isinstance(f, LinearSeqMap):
        assert fn.lipschitz_hint == _left_sum(abs(f.coeff_at(k)) for k in range(n))
    else:  # the default hint: the plain sup constant, where the map knows one
        assert fn.lipschitz_hint == (None if f.lip_sup(1.0) == math.inf else f.lip_sup(1.0))


@given(truncation_cases(), st.lists(st.sampled_from([math.nan, math.inf, -math.inf]), min_size=1, max_size=3),
       st.data())
def test_linear_truncation_rejects_non_finite_arguments(case, bads, data):
    f, n, base, args = case
    args = list(args)
    for bad in bads:
        args[data.draw(st.integers(min_value=0, max_value=n - 1))] = bad
    got = outcome(truncate(f, n, base), args)
    assert got.startswith("ValueError: sequence entry must be finite, got ")
    assert got == outcome(lambda *a: f.eval(BoundedSeq(a, base)), args)


def presic_reference(g, seeds, k_max):
    """The recursion as it rebuilds its window from the whole history each step."""
    history = list(seeds)
    out = []
    for _ in range(k_max):
        value = g(*reversed(history[-g.arity:]))
        history.append(value)
        out.append(value)
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(lambda m: st.tuples(
    st.lists(st.floats(min_value=-0.3, max_value=0.3), min_size=m, max_size=m),
    st.floats(min_value=-2.0, max_value=2.0),
    st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=m, max_size=m),
    st.integers(min_value=0, max_value=60),
)))
def test_presic_window_matches_history_slicing(case):
    coeffs, offset, seeds, k_max = case
    g = affine(coeffs, offset)
    assert bits(presic_iterates(g, tuple(seeds), k_max)) == bits(presic_reference(g, seeds, k_max))


def rescaled(f, abs_sum):
    """``f`` with its coefficients scaled so that sum |b_n| = abs_sum."""
    total = f.sum_abs_coeffs()
    if total == 0.0:
        return LinearSeqMap((abs_sum,), 0.0, 0.0, f.offset)
    # b / total first: abs_sum / total overflows when total is subnormal
    return LinearSeqMap(tuple(b / total * abs_sum for b in f.head_coeffs), f.tail_coeff / total * abs_sum,
                        f.tail_ratio, f.offset)


huge = st.one_of(st.floats(min_value=1e306, max_value=1.7e308), st.floats(min_value=-1.7e308, max_value=-1e306))


@given(st.integers(min_value=1, max_value=6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=n, max_size=n),
    st.lists(huge, min_size=n, max_size=n),
    st.one_of(huge, st.just(0.0)),
)))
@example((2, [0.9, 0.9], [1.7e308, 1.7e308], 0.0))
def test_linear_truncation_overflow_is_unchanged(case):
    n, head, args, base = case
    f = LinearSeqMap(tuple(head), 0.5, 0.5, 1.0)
    got = outcome(truncate(f, n, base), args)
    if got.startswith("ValueError: "):  # the value overflowed; FiniteArityMap rejects it
        assert got == f"ValueError: map value must be finite, got {f.eval(BoundedSeq(args, base))!r}"
    else:
        assert got == f.eval(BoundedSeq(args, base)).hex()


def test_linear_truncation_error_messages():
    # inf at a zero coefficient still makes the sum non-finite (0 * inf is nan)
    sparse = truncate(LinearSeqMap((0.0, 0.5)), 2, 0.0)
    assert outcome(sparse, (math.inf, 1.0)) == "ValueError: sequence entry must be finite, got inf"
    overflow = truncate(LinearSeqMap((0.9, 0.9)), 2, 0.0)
    assert outcome(overflow, (1.7e308, 1.7e308)) == "ValueError: map value must be finite, got inf"


@st.composite
def contractive_affine(draw):
    """An affine rule of arity 1-6 with sum |c| < 1, its seeds, and a k_max."""
    m = draw(st.integers(min_value=1, max_value=6))
    raw = draw(st.lists(st.one_of(st.floats(min_value=-1.0, max_value=1.0), st.just(-0.0)), min_size=m, max_size=m))
    mass = draw(st.floats(min_value=0.0, max_value=0.95))
    total = sum(abs(c) for c in raw)
    coeffs = [c / total * mass if total > 0.0 else c for c in raw]
    offset = draw(st.one_of(st.floats(min_value=-2.0, max_value=2.0), st.sampled_from([0.0, -0.0])))
    seeds = draw(st.lists(st.one_of(st.floats(min_value=-5.0, max_value=5.0), st.sampled_from([0.0, -0.0])),
                          min_size=m, max_size=m))
    return coeffs, offset, seeds, draw(st.integers(min_value=0, max_value=3000))


@settings(max_examples=100, deadline=None)
@given(contractive_affine())
@example(([0.5, 0.25], 1.0, [0.0, 0.0], 3000))
@example(([0.0], 0.0, [-0.0], 10))
@example(([0.25, 0.25, 0.25], -0.0, [-0.0, 0.0, -0.0], 40))
def test_presic_stationary_exit_is_bit_exact(case):
    coeffs, offset, seeds, k_max = case
    g = affine(coeffs, offset)
    assert bits(presic_iterates(g, tuple(seeds), k_max)) == bits(presic_reference(g, seeds, k_max))


def test_presic_signed_zero_alternation_is_not_frozen():
    g = FiniteArityMap(1, lambda a: -0.5 * a)
    values = presic_iterates(g, (0.0,), 9)
    assert bits(values) == bits(presic_reference(g, (0.0,), 9))
    assert bits(values) == bits([-0.0, 0.0] * 4 + [-0.0])


@settings(max_examples=100, deadline=None)
@given(contractive_affine(), st.floats(min_value=-5.0, max_value=5.0))
@example(([-0.5], -0.0, [0.0], 9), 0.0)
def test_presic_matches_embedded_iterates_bit_for_bit(case, tail):
    coeffs, offset, seeds, k_max = case
    g = affine(coeffs, offset)
    start = BoundedSeq(tuple(reversed(seeds)), tail)
    # canonical trimming turns a trailing -0.0 into the tail's 0.0; such a start reads other seeds
    assume(bits(start.head(g.arity)) == bits(reversed(seeds)))
    k_max = min(max(k_max, 1), 1413)  # 1413 is the largest k_max within the step budget
    trace = generalized_iterates(embed_finite(g), start, k_max)
    assert bits(s.value for s in trace.steps) == bits(presic_iterates(g, tuple(seeds), k_max))


def test_embedded_iterates_keep_the_sign_of_zero():
    g = FiniteArityMap(1, lambda a: -0.5 * a)
    trace = generalized_iterates(embed_finite(g), BoundedSeq.constant(0.0), 9)
    assert bits(s.value for s in trace.steps) == bits(presic_iterates(g, (0.0,), 9))


def test_presic_reaches_and_keeps_the_float_fixed_point():
    inner = affine([0.5, 0.25], 1.0)
    g = FiniteArityMap(2, inner.rule)
    values = presic_iterates(g, (0.0, 0.0), 3000)
    t = values[-1]  # the float fixed point, a few ulps from 4
    assert len(values) == 3000 and inner(t, t) == t
    assert presic_iterates(g, (t, t), 50) == [t] * 50


def test_the_window_is_newest_first_and_a_wrong_seed_count_is_a_value_error():
    g = FiniteArityMap(2, lambda a, b: 10 * a + b)
    # the start's first two coordinates, then each new value pushed in at the front
    assert list(islice(g.iterates(BoundedSeq((1.0, 2.0))), 2)) == [12.0, 121.0]
    assert presic_iterates(g, (2.0, 1.0), 2) == [12.0, 121.0]  # seeds oldest first
    for seeds in ((1.0, 2.0, 3.0), (1.0,)):
        with pytest.raises(ValueError, match=f"^expected 2 seeds, got {len(seeds)}$"):
            presic_iterates(g, seeds, 1)


def test_a_truncation_is_certified_and_solved_as_a_sequence_map():
    # the README map 1 + x_0/3 + x_1/6 with x_2, x_3, ... frozen at 0: its hint 1/2 gives lip_sup(q) = 1/(2q)
    g = truncate(README_MAP, 2, 0.0)
    assert g.lip_sup(1.0) == g.lipschitz_hint == 0.5
    cert = find_sup_certificate(g)
    assert cert is not None and cert.lip == g.lip_sup(cert.q) <= cert.q < 1.0
    sol = solve_fixed_point(g, BoundedSeq.constant(0.0), cert, 1e-9)
    assert abs(sol.value - 2.0) <= 1e-9  # the fixed point of 1 + t/3 + t/6


def recorded(d, points):
    """``d``, appending (x, d(x)) to ``points`` at every evaluation."""

    def evaluate(x):
        y = d(x)
        points.append((x, y))
        return y

    return evaluate


def rejected_candidates(points):
    """How many evaluated points were extrapolated candidates that the loop then left.

    ``points`` are the (x, d(x)) of a diagonal run in order. A plain step
    evaluates the previous image; any other point is a candidate, kept when
    its own image is evaluated next.
    """
    return sum(x != points[j - 1][1] and points[j + 1][0] != y for j, (x, y) in enumerate(points[1:-1], 1))


def counted_diagonal(runs, d, t, c, tol):
    """``_diagonal_fixed_point(d, t, c, tol)``; appends to ``runs`` its evaluations and its cap, even when it raises.

    The cap is the a priori plan of ``c``, held to the step budget, plus
    one evaluation for each rejected candidate.
    """
    points = []
    plan = seqfix.solver._plan_length(c, c, abs(d(t) - t), tol)
    try:
        return _diagonal_fixed_point(recorded(d, points), t, c, tol)
    finally:
        runs.append((len(points), min(plan, seqfix.solver._STEP_BUDGET) + rejected_candidates(points)))


def counted_study(runs, f, cert, base, n_max, tol):
    """``truncation_study``'s report; appends to ``runs`` each diagonal solve's evaluations and cap.

    The first run is the reference; the others are arities 1 .. n_max. A
    run that raises is appended too.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seqfix.solver, "_diagonal_fixed_point", lambda d, t, c, tol: counted_diagonal(runs, d, t, c, tol))
        return truncation_study(f, cert, base, n_max, tol)


README_MAP = LinearSeqMap((1.0 / 3.0,), 1.0 / 6.0, 0.5, 1.0)


def test_readme_truncation_study_counts_its_diagonal_evaluations():
    runs = []
    counted_study(runs, README_MAP, find_sup_certificate(README_MAP), 0.0, 20, 1e-6)
    evaluations = [calls for calls, _ in runs]
    # one Steffensen cycle each: t_1, t_2 and the Aitken point, whose pair passes the stop
    assert evaluations == [3] * 21
    assert sum(evaluations[1:]) == 60
    assert all(calls <= cap for calls, cap in runs)


class UnhintedQuarterSumMap(QuarterSumMap):
    def truncation_hint(self, n):
        return None


@pytest.mark.parametrize("f", [README_MAP, UnhintedQuarterSumMap()], ids=["hinted", "unhinted"])
def test_each_arity_plans_with_the_smaller_of_the_certificate_and_its_truncation_hint(f):
    constants = []

    def recording(d, t, c, tol):
        constants.append(c)
        return _diagonal_fixed_point(d, t, c, tol)

    cert = find_sup_certificate(f)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seqfix.solver, "_diagonal_fixed_point", recording)
        truncation_study(f, cert, 0.0, 4, 1e-6)
    hints = [f.truncation_hint(n) for n in range(1, 5)]
    assert constants == [cert.diagonal_lip()] + [cert.lip if h is None else min(cert.lip, h) for h in hints]
    if f is README_MAP:  # sum_{k<n} |b_k| stays below 2/3, the plain sup constant, and so below cert.lip
        assert constants[1:] == hints and max(hints) < cert.lip


def truncated_fixed_point(f, n, base):
    """The fixed point of ``t -> f(t, ..., t, base, base, ...)``, t in the first n coordinates."""
    return (f.offset + base * f.tail_sum_from(n)) / (1.0 - sum(f.coeff_at(i) for i in range(n)))


@settings(max_examples=80, deadline=None)
@given(linear_maps(max_head=4), st.floats(min_value=0.2, max_value=0.9), st.floats(min_value=-2.0, max_value=2.0),
       st.integers(min_value=1, max_value=8), st.sampled_from([1e-3, 1e-6, 1e-9]))
@example(LinearSeqMap((0.5,), -0.25, -0.9, 1.0), 0.9, -2.0, 8, 1e-9)
# the reference at tol 1e-12 reaches its plan with δ blocking the stop, and with a step just past room/c by roundoff
@example(LinearSeqMap((), 0.0, 0.0, 2.0), 0.875, 0.0, 1, 1e-9)
@example(LinearSeqMap((), 0.0, 0.0, 2.421875), 0.8930907517203119, 0.0, 1, 1e-9)
# the reference's steps stay 4 ulps long for two steps while δ leaves room, then shrink
@example(LinearSeqMap((), 1.0, 0.875, 1.0), 0.890625, 0.0, 1, 1e-9)
# c = 0.9899 and t* = -16.37: the reference's room 1e-12·(1 - c) is below δ = 4 ulps of |t*|, so it is refused
@example(LinearSeqMap((), 0.0659, 0.924, -2.175), 0.8671052631578953, 0.0, 1, 1e-9)
def test_truncation_study_is_within_its_tolerances_of_the_closed_forms(f, abs_sum, base, n_max, tol):
    f = rescaled(f, abs_sum)
    cert = find_sup_certificate(f)
    assert cert is not None
    runs = []
    try:
        report = counted_study(runs, f, cert, base, n_max, tol)
    except ValueError as e:
        # only the reference, at tol/1000, may be refused, and only where the solver's δ at t* exceeds its room
        room = tol / 1000.0 * (1.0 - cert.diagonal_lip())
        delta = seqfix.solver._ROUNDOFF_ULPS * math.ulp(f.fixed_point())
        assert "below float resolution" in str(e) and len(runs) == 1 and room < delta
        return
    assert abs(report.reference - f.fixed_point()) <= tol / 1000.0
    assert [row.n for row in report.rows] == list(range(1, n_max + 1))
    for row in report.rows:
        assert abs(row.value - truncated_fixed_point(f, row.n, base)) <= tol / 10.0
        assert row.error <= row.bound + tol
    assert len(runs) == n_max + 1
    assert all(calls <= cap for calls, cap in runs)


@pytest.mark.parametrize("f", [README_MAP, LinearSeqMap((), 1e-7, 0.999999, 1.0)])
def test_truncation_study_below_float_resolution_stops_at_once(f):
    # the second map's certificate plans more steps than the budget; the roundoff exit comes long before
    runs = []
    with pytest.raises(ValueError, match="below float resolution") as caught:
        counted_study(runs, f, find_sup_certificate(f), 0.0, 20, 1e-300)
    assert not isinstance(caught.value, BoundViolationError)
    assert len(runs) == 1 and 0 < runs[0][0] <= 200


def test_truncation_study_stops_early_under_an_over_budget_plan():
    # lip is 0.999999 but the diagonal contracts by 0.1: the a posteriori stop comes long before the cap
    f = LinearSeqMap((), 1e-7, 0.999999, 1.0)
    cert = find_sup_certificate(f)
    runs = []
    report = counted_study(runs, f, cert, 0.0, 3, 1e-4)
    assert runs[0][1] == seqfix.solver._STEP_BUDGET
    assert abs(report.reference - f.fixed_point()) <= 1e-7
    assert runs[0][0] < 20


def test_truncation_study_needs_a_sup_certificate():
    # a valid power certificate of the same map: its q and lip are no sup-family constants, so no bound follows
    cert = find_p_certificate(README_MAP, 0.5)
    assert (cert.p, cert.q, cert.lip) == (1.0, 0.5, 1.0 / 3.0)
    runs = []
    with pytest.raises(ValueError, match="^truncation_study needs a SupCertificate, got PCertificate$"):
        counted_study(runs, README_MAP, cert, 0.0, 3, 1e-6)
    assert runs == []


def sine_fixed_point(a, b):
    """The fixed point of t -> a·sin(t) + b for |a| < 1, bisected down to adjacent floats."""
    lo, hi = b - abs(a), b + abs(a)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if a * math.sin(mid) + b > mid:
            lo = mid
        else:
            hi = mid
    return mid


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-0.99, max_value=0.99), st.floats(min_value=-100.0, max_value=100.0),
       st.floats(min_value=-100.0, max_value=100.0), st.floats(min_value=0.0, max_value=0.5),
       st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12]))
# two rejected candidates, each adding an evaluation to the cap; extrapolation resumes and stops the run early
@example(0.9600233878090692, -15.52270805373108, 28.03502489479925, 0.0, 1e-12)
def test_steffensen_steps_keep_the_promise_on_sine_maps(a, b, t0, slack, tol):
    # any c from |a| up is a valid constant, so a BoundViolationError fails the test
    c = min(abs(a) + slack, 0.99)
    runs = []
    try:
        value = counted_diagonal(runs, lambda t: a * math.sin(t) + b, t0, c, tol)
    except ValueError as e:
        assert "below float resolution" in str(e)
    else:
        t = sine_fixed_point(a, b)
        assert abs(value - t) <= tol + 8 * math.ulp(t) / (1.0 - c)
    [(calls, cap)] = runs
    assert calls <= cap


def test_extrapolation_resumes_after_a_rejected_candidate():
    # the Aitken point of the first cycle lands where the sine bends away; a later cycle's candidates stop the run
    a, b = 0.9600233878090692, -15.52270805373108
    points = []
    value = _diagonal_fixed_point(recorded(lambda t: a * math.sin(t) + b, points), 28.03502489479925, a, 1e-12)
    assert rejected_candidates(points) == 2
    assert len(points) == 9 < seqfix.solver._plan_length(a, a, abs(points[0][1] - points[0][0]), 1e-12) == 849
    assert abs(value - sine_fixed_point(a, b)) <= 1e-12


def test_a_run_that_reaches_its_cap_returns_the_enclosure_midpoint():
    # the steps stall near 1 ulp, above what the stop needs, so the whole plan runs, plus one evaluation for
    # each rejected candidate. In the second run the last step goes up from a negative value, so t - prev and
    # t + prev, the midpoint's direction, differ in sign; the third rejects two Aitken points early on.
    for a, b, start, plan, rejected, apart in [
        (0.9307865697977322, -70.64001346037108, 97.0022862328907, 494, 0, False),
        (0.9652293426284546, 60.59700651168035, -33.36688592328734, 1004, 0, True),
        (0.9314741230059798, -87.3068026625083, 73.23450933788877, 499, 2, False),
    ]:
        points = []
        value = _diagonal_fixed_point(recorded(lambda t: a * math.sin(t) + b, points), start, a, 1e-12)
        assert rejected_candidates(points) == rejected
        assert seqfix.solver._plan_length(a, a, abs(points[0][1] - points[0][0]), 1e-12) == plan
        assert len(points) == plan + rejected
        prev, t = points[-1]
        assert ((t - prev > 0.0) != (t + prev > 0.0)) == apart
        assert value == t + math.copysign(a * a * abs(t - prev) / (1.0 - a * a), t - prev) != t
        assert abs(value - sine_fixed_point(a, b)) <= 1e-12


def is_plain_chain(points):
    return all(x == points[j - 1][1] for j, (x, _) in enumerate(points[1:], 1))


@pytest.mark.parametrize("d, c, tol, evaluations, fixed_point", [
    (lambda t: t + 1.0, 0.5, 1e-6, 21, None),  # Δ1 = Δ0: the ratio is 1, and d has no fixed point
    (lambda t: 0.9 * t + 1.0, 0.1, 1e-6, 7, None),  # the ratio 0.9 is above the claimed 0.1
    (lambda t: 0.5 * t + 1e300, 0.5, 1e290, 35, 2e300),  # Δ1² overflows, so the Aitken point is not finite
], ids=["no-second-difference", "ratio-above-c", "non-finite-aitken-point"])
def test_steffensen_falls_back_to_plain_steps(d, c, tol, evaluations, fixed_point):
    points = []
    if fixed_point is None:  # c is no constant of d: the plain chain reaches its cap
        with pytest.raises(BoundViolationError):
            _diagonal_fixed_point(recorded(d, points), 0.0, c, tol)
    else:
        assert abs(_diagonal_fixed_point(recorded(d, points), 0.0, c, tol) - fixed_point) <= tol
    assert len(points) == evaluations
    assert is_plain_chain(points)


class QuarterSquare(SeqMap):
    """x_0² / 4 on sequences in [0, 1], a 1/2-contraction whose diagonal bends: Aitken points overshoot 0."""

    domain = (0.0, 1.0)

    def eval(self, x):
        self._check_values(x.values())
        return 0.25 * x.head(1)[0] ** 2

    def lip_sup(self, q):
        return 0.5


def test_a_candidate_outside_the_maps_domain_is_rejected():
    f = QuarterSquare()
    points = []
    # 1 -> 0.25 -> 0.015625 puts the Aitken point at -0.09, where the map raises; only plain steps evaluate
    assert abs(_diagonal_fixed_point(recorded(f.diagonal, points), 1.0, 0.5, 1e-6)) <= 1e-6
    assert [x for x, _ in points[:3]] == [1.0, 0.25, 0.015625]
    assert is_plain_chain(points)
    report = truncation_study(f, find_sup_certificate(f), 1.0, 3, 1e-6)
    assert abs(report.reference) <= 1e-9 and all(abs(row.value) <= 1e-7 for row in report.rows)


def test_roundoff_at_the_cap_of_a_plain_chain_is_below_resolution():
    # 2**900 times the negative slope map of the CLI's neg-truncate reference: every step stays above 2**512,
    # so each Aitken point overflows and the plain chain, exactly 2**900 times the unscaled one, reaches its cap
    scale = 2.0**900
    f = LinearSeqMap((-0.856049225667278,), offset=2383.633795947942 * scale)
    c = find_sup_certificate(f).diagonal_lip()
    points = []
    blocked = r"^tolerance 8\.453e\+258 is below float resolution: roundoff blocks the stop$"
    with pytest.raises(ValueError, match=blocked):
        _diagonal_fixed_point(recorded(f.diagonal, points), 0.0, c, 1e-12 * scale)
    assert is_plain_chain(points)
    assert len(points) == seqfix.solver._plan_length(c, c, points[0][1], 1e-12 * scale) == 241
