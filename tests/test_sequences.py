import math
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from seqfix import BoundedSeq
from seqfix.sequences import _left_sum, ensure_count

finite = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)
seqs = st.builds(BoundedSeq, st.lists(finite, max_size=6).map(tuple), finite)


def test_constant_reads_same_everywhere():
    s = BoundedSeq.constant(3.0)
    assert s.prefix == ()
    for n in (0, 1, 5, 100):
        assert s.at(n) == 3.0


def test_at_prefix_and_tail():
    s = BoundedSeq((1.0, 2.0), 0.0)
    assert s.at(1) == 2.0
    assert s.at(10) == 0.0
    with pytest.raises(ValueError):
        s.at(-1)


def test_construction_trims_trailing_tail_entries():
    assert BoundedSeq((1.0, 0.0, 0.0), 0.0).prefix == (1.0,)
    assert BoundedSeq((0.0,), 0.0).prefix == ()
    s = BoundedSeq((1.0, 0.0, 0.0), 0.0)
    # already-canonical input is untouched
    assert BoundedSeq(s.prefix, s.tail) == s


def test_equality_is_pointwise():
    assert BoundedSeq.constant(2.0) == BoundedSeq((2.0, 2.0), 2.0)
    assert BoundedSeq((1.0,), 0.0) != BoundedSeq.constant(0.0)


def test_prepend_shifts_right():
    assert BoundedSeq.constant(0.0).prepend(1.0) == BoundedSeq((1.0,), 0.0)
    # prepending the tail value collapses back to the constant sequence
    assert BoundedSeq((), 5.0).prepend(5.0) == BoundedSeq.constant(5.0)


def test_prepend_stack_order():
    s = BoundedSeq((7.0,), 0.0)
    for v in (1.0, 2.0, 3.0):
        s = s.prepend(v)
    assert s.prefix == (3.0, 2.0, 1.0, 7.0)
    assert s.tail == 0.0


def test_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            BoundedSeq.constant(bad)
        with pytest.raises(ValueError):
            BoundedSeq((bad,), 0.0)
        with pytest.raises(ValueError):
            BoundedSeq.constant(0.0).prepend(bad)


def test_values_head_and_map_values():
    s = BoundedSeq((1.0, 2.0), 0.5)
    assert s.values() == (1.0, 2.0, 0.5)
    assert s.head(3) == (1.0, 2.0, 0.5)
    assert s.map_values(lambda v: v / 2) == BoundedSeq((0.5, 1.0), 0.25)


@given(seqs, finite)
def test_prepend_then_at(s, v):
    t = s.prepend(v)
    assert t.at(0) == v
    for n in range(len(s.prefix) + 3):
        assert t.at(n + 1) == s.at(n)


@given(st.lists(finite, max_size=6), finite)
def test_canonical_form_preserves_pointwise_values(prefix, tail):
    s = BoundedSeq(tuple(prefix), tail)
    for n in range(len(prefix) + 3):
        expected = prefix[n] if n < len(prefix) else tail
        assert s.at(n) == expected


signed = st.one_of(finite, st.sampled_from([0.0, -0.0]))
signed_seqs = st.builds(BoundedSeq, st.lists(signed, max_size=6).map(tuple), signed)


def bits(x):
    return [v.hex() for v in x.prefix], x.tail.hex()


@given(signed_seqs, signed)
@example(BoundedSeq((), 0.0), -0.0)
@example(BoundedSeq((), -0.0), 0.0)
@example(BoundedSeq((), 2.5), 2.5)
@example(BoundedSeq((-0.0,), 0.0), 0.0)
def test_prepend_equals_construction(x, v):
    fast = x.prepend(v)
    slow = BoundedSeq((v,) + x.prefix, x.tail)
    assert fast == slow
    assert bits(fast) == bits(slow)


@given(seqs, st.sampled_from([math.nan, math.inf, -math.inf]))
def test_prepend_rejects_non_finite(x, bad):
    with pytest.raises(ValueError, match="^sequence entry must be finite"):
        x.prepend(bad)


@given(signed_seqs, st.integers(min_value=-2, max_value=10))
def test_head_reads_coordinates(x, n):
    assert x.head(n) == tuple(x.at(i) for i in range(n))


def test_left_sum_adds_from_zero_left_to_right():
    assert _left_sum([1.0, 1e100, 1.0, -1e100]) == 0.0  # compensated summation gives 2.0
    assert _left_sum([1e16, 1.0, 1.0]) == 1e16  # each 1e16 + 1.0 is a tie that rounds back to 1e16
    assert math.copysign(1.0, _left_sum([-0.0])) == 1.0  # 0.0 + -0.0 is 0.0
    assert type(_left_sum([])) is float and type(_left_sum([1, 2])) is float


def test_ensure_count_returns_an_int_and_refuses_anything_else():
    assert ensure_count(3, "k", 0) == 3
    assert type(ensure_count(True, "k", 1)) is int
    for value in [-1, 2.0, 2.5, "2", None]:
        with pytest.raises(ValueError, match=f"^k must be an integer >= 0, got {re.escape(repr(value))}$"):
            ensure_count(value, "k", 0)
