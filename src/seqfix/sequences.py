"""Eventually constant real sequences with exact finite arithmetic.

Every sequence handled by this package is a bounded sequence of reals that
is constant from some index on, stored as an explicit prefix plus the
constant tail. This class is closed under prepending a value (the
structural step of the lifted iteration), so solver iterates stay exactly
representable, and distances against such sequences reduce to finite
computations plus closed-form tails.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Iterable
from dataclasses import dataclass


def ensure_finite(value: float, what: str = "value") -> float:
    """Coerce to float, rejecting NaN and infinities."""
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return v


def ensure_count(value: int, what: str, least: int) -> int:
    """Coerce an integer of at least ``least`` to int, rejecting anything else, a float such as 2.0 included."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


def _left_sum(terms: Iterable[float]) -> float:
    """0.0 plus each term in turn, left to right, so a float sum keeps its bits on every Python.

    From 3.12, ``sum()`` of floats compensates its roundoff and can differ
    from this in the last bit; before 3.12 it is this loop.
    """
    total = 0.0
    for term in terms:
        total += term
    return total


@dataclass(frozen=True, init=False)
class BoundedSeq:
    """A real sequence equal to ``tail`` from index ``len(prefix)`` on.

    Instances are canonical: trailing prefix entries equal to the tail are
    trimmed at construction. Two instances therefore describe the same
    sequence exactly when they compare equal, which makes pointwise
    equality of sequences decidable via ``==``.
    """

    prefix: tuple[float, ...] = ()
    tail: float = 0.0

    def __init__(self, prefix: Iterable[float] = (), tail: float = 0.0) -> None:
        """Convert each entry to float, check it is finite, trim the prefix, and set each field once."""
        entries = tuple(map(float, prefix))
        if not all(map(math.isfinite, entries)):  # check again, entry by entry, to name the first bad one
            entries = tuple(ensure_finite(v, "sequence entry") for v in entries)
        tail = ensure_finite(tail, "tail")
        n = len(entries)
        while n > 0 and entries[n - 1] == tail:
            n -= 1
        object.__setattr__(self, "prefix", entries[:n])
        object.__setattr__(self, "tail", tail)

    @classmethod
    def constant(cls, value: float) -> BoundedSeq:
        """The sequence (value, value, value, ...)."""
        return cls((), value)

    def at(self, n: int) -> float:
        """Coordinate at index ``n`` (indices start at 0)."""
        if n < 0:
            raise ValueError("sequence index must be nonnegative")
        return self.prefix[n] if n < len(self.prefix) else self.tail

    def head(self, n: int) -> tuple[float, ...]:
        """The first ``n`` coordinates: the prefix, padded with the tail as needed."""
        pad = n - len(self.prefix)
        return self.prefix[:max(n, 0)] if pad <= 0 else self.prefix + (self.tail,) * pad

    def prepend(self, value: float) -> BoundedSeq:
        """New sequence with ``value`` at index 0 and everything shifted right.

        Only ``value`` is validated: the shifted prefix is already canonical
        and keeps its last entry, so the result is canonical as it stands,
        except that ``value`` equal to the tail of a constant sequence is
        trimmed away, leaving that sequence.
        """
        v = ensure_finite(value, "sequence entry")
        if not self.prefix and v == self.tail:
            return self
        return BoundedSeq._trusted((v,) + self.prefix, self.tail)

    @classmethod
    def _trusted(cls, prefix: tuple[float, ...], tail: float) -> BoundedSeq:
        """An instance from a prefix and tail that are already finite floats and canonical."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "prefix", prefix)
        object.__setattr__(seq, "tail", tail)
        return seq

    def values(self) -> tuple[float, ...]:
        """Every value the sequence takes (prefix entries plus the tail)."""
        return self.prefix + (self.tail,)

    def map_values(self, fn: Callable[[float], float]) -> BoundedSeq:
        """Apply ``fn`` coordinatewise, to prefix entries and tail alike."""
        return BoundedSeq(tuple(fn(v) for v in self.prefix), fn(self.tail))
