"""Exactness of the table-driven truncations and the sliding Prešić window.

Each fast path is compared bit for bit (via ``float.hex``, which also tells
-0.0 from 0.0) with the rule it replaces: ``f.eval(BoundedSeq(args, base))``
for truncations, and a loop that rebuilds the window from the history for
the product-space recursion.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqfix import (
    BoundedSeq,
    FiniteArityMap,
    LinearSeqMap,
    SeqMap,
    find_sup_certificate,
    presic_iterates,
    truncate,
    truncation_study,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
coeff = st.one_of(st.floats(min_value=-1.0, max_value=1.0), st.sampled_from([0.0, -0.0]))


@st.composite
def linear_maps(draw, max_head=6):
    head = tuple(draw(st.lists(coeff, max_size=max_head)))
    tail_coeff = draw(coeff)
    tail_ratio = draw(st.floats(min_value=-0.95, max_value=0.95))
    return LinearSeqMap(head, tail_coeff, tail_ratio, draw(st.floats(min_value=-3.0, max_value=3.0)))


@st.composite
def truncation_cases(draw):
    """(map, n, base, args) where args mix free values with runs equal to base."""
    f = draw(linear_maps())
    n = draw(st.integers(min_value=1, max_value=9))
    base = draw(st.one_of(finite, st.sampled_from([0.0, -0.0, 1.0])))
    # None stands for base, so all-base and trailing-base tuples are common
    slots = draw(st.lists(st.one_of(st.none(), finite, st.sampled_from([0.0, -0.0])), min_size=n, max_size=n))
    return f, n, base, tuple(base if v is None else v for v in slots)


def bits(values):
    return [float(v).hex() for v in values]


@settings(max_examples=200, deadline=None)
@given(truncation_cases())
@example((LinearSeqMap((0.5, -0.25), 0.125, -0.5, 1.0), 4, 2.0, (2.0, 2.0, 2.0, 2.0)))
@example((LinearSeqMap((0.5, -0.25), 0.125, -0.5, 1.0), 4, 2.0, (1.5, -3.0, 2.0, 2.0)))
@example((LinearSeqMap((0.5,), 0.25, 0.5, 1.0), 3, 0.0, (-0.0, 1.0, -0.0)))
def test_linear_truncation_is_bit_exact(case):
    f, n, base, args = case
    fn = truncate(f, n, base)
    assert bits([fn(*args)]) == bits([f.eval(BoundedSeq(args, base))])
    assert fn.lipschitz_hint == sum(abs(f.coeff_at(k)) for k in range(n))


@given(truncation_cases(), st.sampled_from([math.nan, math.inf, -math.inf]), st.data())
def test_linear_truncation_rejects_non_finite_arguments(case, bad, data):
    f, n, base, args = case
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    with pytest.raises(ValueError):
        truncate(f, n, base)(*args[:i], bad, *args[i + 1:])


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

    def rule(*args):
        acc = offset
        for c, a in zip(coeffs, args):
            acc += c * a
        return acc

    g = FiniteArityMap(len(coeffs), rule)
    assert bits(presic_iterates(g, tuple(seeds), k_max)) == bits(presic_reference(g, seeds, k_max))


class GenericRuleLinear(LinearSeqMap):
    """A linear map truncated through the generic ``eval`` rule, with the same hint."""

    def truncation(self, n, base):
        return replace(SeqMap.truncation(self, n, base),
                       lipschitz_hint=sum(abs(self.coeff_at(k)) for k in range(n)))


@settings(max_examples=40, deadline=None)
@given(linear_maps(max_head=4), st.floats(min_value=0.2, max_value=0.9),
       st.floats(min_value=-2.0, max_value=2.0), st.integers(min_value=1, max_value=8))
def test_truncation_study_matches_generic_rule(f, abs_sum, base, n_max):
    total = f.sum_abs_coeffs()
    if total == 0.0:
        f = LinearSeqMap((abs_sum,), 0.0, 0.0, f.offset)
    else:
        scale = abs_sum / total
        f = LinearSeqMap(tuple(b * scale for b in f.head_coeffs), f.tail_coeff * scale, f.tail_ratio, f.offset)
    cert = find_sup_certificate(f)
    assert cert is not None
    reference = GenericRuleLinear(f.head_coeffs, f.tail_coeff, f.tail_ratio, f.offset)
    fast = truncation_study(f, cert, base, n_max, 1e-6)
    slow = truncation_study(reference, cert, base, n_max, 1e-6)
    assert repr(fast) == repr(slow)
