"""Maps from bounded sequences to the real line, with Lipschitz analysis.

The workhorse is the absolutely summable linear form
``f(x) = offset + sum_n b_n x_n`` whose coefficients are a finite head
continued geometrically. Its Lipschitz constants with respect to the
geometric-weight sup and power distances have closed forms (possibly
+inf, which is a value here, not an error); those constants are what the
solver's contraction certificates are built from.

Also provided: the half-supremum map (contractive for the unweighted sup
distance yet never admitting a geometric-weight certificate), embeddings
of finite-arity maps, truncations of sequence maps to finitely many
coordinates, and a randomized lower bound on true Lipschitz constants
that uses near-extremal witness pairs for linear maps.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import ClassVar

from .metrics import _geom_distance, ensure_exponent, ensure_weight
from .sequences import BoundedSeq, ensure_finite


#: deepest coordinate index a linear map's witness inputs reach
_WITNESS_DEPTH = 64


class SeqMap(ABC):
    """A deterministic rule sending a bounded sequence to a real number."""

    #: closed interval every coordinate must lie in, or None for all of R
    domain: ClassVar[tuple[float, float] | None] = None

    @abstractmethod
    def eval(self, x: BoundedSeq) -> float:
        """Value of the map at ``x``."""

    def diagonal(self, t: float) -> float:
        """Value on the constant sequence (t, t, ...)."""
        return self.eval(BoundedSeq.constant(t))

    def iterates(self, x0: BoundedSeq) -> Iterator[float]:
        """The generalized iterates v_1, v_2, ... of the lifted map from ``x0``, endlessly.

        v_k is the value the k-th lifted step prepends. Every override
        yields the same values. This default applies :func:`lift_step`
        once per value, so step k costs O(k) as the sequence grows.
        """
        while True:
            value, x0 = lift_step(self, x0)
            yield value

    def lip_sup(self, q: float) -> float:
        """A Lipschitz constant for the q-weighted sup distance; ``inf`` when unknown or divergent.

        :func:`~seqfix.solver.find_sup_certificate` certifies at the q
        where it falls to q. At q = 1 this is the plain sup distance, which
        gives the Secelean default constant and the truncation hints.
        """
        return math.inf

    def lip_p(self, p: float, q: float) -> float:
        """A Lipschitz constant for the (p, q) power distance; ``inf`` when unknown or divergent."""
        return math.inf

    def differences(self, pairs: Sequence[tuple[BoundedSeq, BoundedSeq]]) -> list[float]:
        """|f(a) - f(b)| for each pair (a, b), in order: the numerators of the empirical Lipschitz ratios."""
        return [abs(self.eval(a) - self.eval(b)) for a, b in pairs]

    def witnesses(self, q: float, p: float | None) -> Iterable[BoundedSeq]:
        """Inputs x whose ratio against the zero sequence nears the constant at (p, q).

        ``p`` is None for the q-weighted sup distance. The default knows none;
        :func:`empirical_lip_lower_bound` tries each one besides its random pairs.
        """
        return ()

    def truncation(self, n: int, base: float) -> FiniteArityMap:
        """The arity-n map that freezes every coordinate from index ``n`` on at ``base``.

        Contract, for every override: the rule's value at ``args`` equals
        ``self.eval(BoundedSeq(args, base))`` bit for bit, and a non-finite
        argument raises ``ValueError``. The ``lipschitz_hint`` of the result
        is a max-metric Lipschitz constant of the truncation, or None when
        the map cannot supply one. This default evaluates through
        ``BoundedSeq``; its hint is ``lip_sup(1.0)`` when that is finite,
        since freezing coordinates cannot raise the plain sup constant.
        :func:`truncate` validates ``n``, ``base`` and the domain before
        calling it.
        """

        def rule(*args: float) -> float:
            return self.eval(BoundedSeq(args, base))

        hint = self.lip_sup(1.0)
        return FiniteArityMap(n, rule, hint if hint < math.inf else None)

    def _check_domain(self, x: BoundedSeq) -> None:
        if self.domain is not None:
            lo, hi = self.domain
            for v in x.values():
                if not lo <= v <= hi:
                    raise ValueError(f"coordinate {v!r} outside map domain [{lo}, {hi}]")


def lift_step(f: SeqMap, x: BoundedSeq) -> tuple[float, BoundedSeq]:
    """One application of the lifted map: (f(x), the sequence with f(x) prepended)."""
    value = f.eval(x)
    return value, x.prepend(value)


@dataclass(frozen=True)
class LinearSeqMap(SeqMap):
    """``offset + sum_n b_n x_n`` with absolutely summable coefficients.

    ``b_n = head_coeffs[n]`` for ``n < N`` and
    ``b_n = tail_coeff * tail_ratio**(n - N)`` for ``n >= N`` where
    ``N = len(head_coeffs)``. Absolute summability is automatic from
    ``|tail_ratio| < 1``; negative tail coefficients and ratios are allowed.
    """

    head_coeffs: tuple[float, ...] = ()
    tail_coeff: float = 0.0
    tail_ratio: float = 0.0
    offset: float = 0.0

    def __post_init__(self) -> None:
        coeffs = tuple(ensure_finite(b, "coefficient") for b in self.head_coeffs)
        object.__setattr__(self, "head_coeffs", coeffs)
        object.__setattr__(self, "tail_coeff", ensure_finite(self.tail_coeff, "tail coefficient"))
        object.__setattr__(self, "tail_ratio", ensure_finite(self.tail_ratio, "tail ratio"))
        object.__setattr__(self, "offset", ensure_finite(self.offset, "offset"))
        if abs(self.tail_ratio) >= 1.0:
            raise ValueError(f"|tail_ratio| must be < 1 for summability, got {self.tail_ratio}")

    def coeff_at(self, n: int) -> float:
        """The coefficient ``b_n``."""
        if n < 0:
            raise ValueError("coefficient index must be nonnegative")
        if n < len(self.head_coeffs):
            return self.head_coeffs[n]
        return self.tail_coeff * self.tail_ratio ** (n - len(self.head_coeffs))

    def tail_sum_from(self, m: int) -> float:
        """Signed sum of all coefficients from index ``m`` on, in closed form."""
        n = len(self.head_coeffs)
        geo = self.tail_coeff / (1.0 - self.tail_ratio)
        if m <= n:
            return sum(self.head_coeffs[m:]) + geo
        return geo * self.tail_ratio ** (m - n)

    def sum_coeffs(self) -> float:
        """Signed sum of all coefficients."""
        return self.tail_sum_from(0)

    def sum_abs_coeffs(self) -> float:
        """Sum of |b_n|; equals the Lipschitz constant for the plain sup distance."""
        return sum(abs(b) for b in self.head_coeffs) + abs(self.tail_coeff) / (1.0 - abs(self.tail_ratio))

    def eval(self, x: BoundedSeq) -> float:
        m = len(x.prefix)
        acc = self.offset
        for n in range(m):
            acc += self.coeff_at(n) * x.prefix[n]
        return acc + x.tail * self.tail_sum_from(m)

    def diagonal(self, t: float) -> float:
        """``offset + t * sum_n b_n``, what :meth:`eval` computes on the constant sequence, bit for bit."""
        return self.offset + ensure_finite(t, "tail") * self.tail_sum_from(0)

    def differences(self, pairs: Sequence[tuple[BoundedSeq, BoundedSeq]]) -> list[float]:
        """Each |f(a) - f(b)| through the offset-free form ``sum_n b_n (a_n - b_n)``.

        Subtracting two evaluations cancels the offset and loses the tiny
        coordinate signal of deep witness pairs; the explicit difference form
        is the same number algebraically but keeps full relative precision.
        The coefficients and tail sums the pairs read are built once per
        call, and each pair is summed left to right, then its tail added.
        """
        spans = [max(len(a.prefix), len(b.prefix)) for a, b in pairs]
        n_head, ratio = len(self.head_coeffs), self.tail_ratio
        coeffs = self.head_coeffs + tuple(  # b_n, as in coeff_at
            self.tail_coeff * ratio ** (n - n_head) for n in range(n_head, max(spans, default=0)))
        tails = {m: self.tail_sum_from(m) for m in set(spans)}
        out = []
        for (a, b), m in zip(pairs, spans):
            acc = 0.0
            for c, u, v in zip(coeffs, a.head(m), b.head(m)):
                acc += c * (u - v)
            out.append(abs(acc + (a.tail - b.tail) * tails[m]))
        return out

    def witnesses(self, q: float, p: float | None) -> Iterator[BoundedSeq]:
        """Near-extremal inputs realizing the analytic constants on truncations.

        The sup (p None) and power (p > 1) witnesses put 0.0 at zero
        coefficients and end before the first coordinate that is not a finite
        float, because its weight q**k underflowed; a shorter witness still
        bounds the constant from below.
        """
        if p == 1.0:
            for k in range(_WITNESS_DEPTH + 1):
                yield BoundedSeq((0.0,) * k + (1.0,), 0.0)
            return
        entries: list[float] = []
        for k in range(_WITNESS_DEPTH + 1):
            b = self.coeff_at(k)
            if b == 0.0:
                entries.append(0.0)
                continue
            w = q**k
            if w == 0.0:
                break
            sign = math.copysign(1.0, b)
            try:
                v = sign / w if p is None else sign * (abs(b) / w) ** (1.0 / (p - 1.0))
            except OverflowError:
                break
            if not math.isfinite(v):
                break
            entries.append(v)
        yield BoundedSeq(tuple(entries), 0.0)

    def _weight_underflows(self, q: float) -> bool:
        """Whether q**k is 0.0 at the deepest index a closed form divides by.

        That index is the last nonzero head coefficient, or the first tail
        index when the tail is nonzero; q**k only shrinks with k, so one
        test covers every term. Zero coefficients are skipped by the sums.
        """
        if self.tail_coeff != 0.0:
            deepest = len(self.head_coeffs)
        else:
            deepest = max((k for k, b in enumerate(self.head_coeffs) if b != 0.0), default=0)
        return q**deepest == 0.0

    def truncation(self, n: int, base: float) -> FiniteArityMap:
        """Arity-n truncation from precomputed coefficient and tail tables.

        Bit for bit the arithmetic of :meth:`eval` on ``BoundedSeq(args, base)``:
        trailing arguments equal to ``base`` are trimmed as ``BoundedSeq``
        trims them, and ``offset + b_i * x_i`` is accumulated left to right
        before ``base * tail_sum_from(m)`` is added. A non-finite argument
        makes the sum non-finite, so the arguments are scanned for one only
        then; a sum that overflows from finite arguments is returned for
        :class:`FiniteArityMap` to reject. The hint is sum_{k<n} |b_k|.
        """
        coeffs = tuple(self.coeff_at(i) for i in range(n))
        tails = tuple(self.tail_sum_from(m) for m in range(n + 1))
        offset = self.offset
        isfinite = math.isfinite

        def rule(*args: float) -> float:
            m = len(args)
            while m > 0 and args[m - 1] == base:
                m -= 1
            acc = offset
            for c, v in zip(coeffs, args[:m]):
                acc += c * v
            acc += base * tails[m]
            if not isfinite(acc):
                for v in args:
                    if not isfinite(v):
                        raise ValueError(f"sequence entry must be finite, got {v!r}")
            return acc

        return FiniteArityMap(n, rule, sum(abs(b) for b in coeffs))

    def lip_sup(self, q: float) -> float:
        """Lipschitz constant for the q-weighted sup distance: sum_n |b_n| / q**n.

        Returns ``inf`` when the series diverges, i.e. when the coefficient
        tail decays no faster than the weights (|tail_ratio| >= q), and
        also when q**k underflows to 0.0 at a nonzero coefficient: the true
        constant then exceeds |b_k| / 5e-324, so ``inf`` is the float that
        does not understate it.
        """
        q = ensure_weight(q, closed=True)
        n = len(self.head_coeffs)
        r = abs(self.tail_ratio)
        if (self.tail_coeff != 0.0 and r >= q) or self._weight_underflows(q):
            return math.inf
        total = sum((abs(b) / q**k for k, b in enumerate(self.head_coeffs) if b != 0.0), 0.0)
        if self.tail_coeff != 0.0:
            total += (abs(self.tail_coeff) / q**n) / (1.0 - r / q)
        return total

    def lip_p(self, p: float, q: float) -> float:
        """Lipschitz constant for the (p, q) power distance.

        For p = 1 this is sup_n |b_n| / q**n; for p > 1 it is the conjugate
        power sum ``(sum_n |b_n|**(p/(p-1)) / q**(n/(p-1)))**((p-1)/p)``.
        Returns ``inf`` on divergence (|tail_ratio|**p >= q with a nonzero
        tail), when the tail ratio |tail_ratio|**conj / q**(1/(p-1)) rounds
        to 1 or above, for p = 1 when q**k underflows at a nonzero
        coefficient, and when the constant exceeds the float range.
        Evaluated in log space so large exponents stay stable.
        """
        p = ensure_exponent(p)
        q = ensure_weight(q)
        n = len(self.head_coeffs)
        r_abs = abs(self.tail_ratio)
        if p == 1.0:
            if (self.tail_coeff != 0.0 and r_abs > q) or self._weight_underflows(q):
                return math.inf
            best = max((abs(b) / q**k for k, b in enumerate(self.head_coeffs) if b != 0.0), default=0.0)
            if self.tail_coeff != 0.0:
                best = max(best, abs(self.tail_coeff) / q**n)
            return best
        conj = p / (p - 1.0)
        scale = 1.0 / (p - 1.0)
        # log of each series term |b_k|**conj / q**(k*scale)
        logs = [conj * math.log(abs(b)) - k * scale * math.log(q)
                for k, b in enumerate(self.head_coeffs) if b != 0.0]
        # without a tail, its log is -inf and its geometric sum exp(-inf) / 1 is 0.0
        tail_log, tail_step = -math.inf, 0.0
        if self.tail_coeff != 0.0:
            if r_abs**p >= q:
                return math.inf
            tail_log = conj * math.log(abs(self.tail_coeff)) - n * scale * math.log(q)
            w = q**scale
            # the ratio of consecutive tail terms; (r_abs**p / q)**scale < 1 when q**scale underflows
            tail_step = r_abs**conj / w if w > 0.0 else (r_abs**p / q) ** scale
            if tail_step >= 1.0:  # r_abs**p < q, but the ratio rounds up to 1: no float sum
                return math.inf
        top = max(logs + [tail_log])
        if top == -math.inf:
            return 0.0
        # the head terms, each once, then the tail's geometric sum
        total = sum(math.exp(v - top) for v in logs) + math.exp(tail_log - top) / (1.0 - tail_step)
        try:
            scale_out = math.exp(top / conj)
        except OverflowError:
            # total >= 1, so the constant is at least this overflowing factor
            return math.inf
        return scale_out * total ** (1.0 / conj)

    def fixed_point(self) -> float:
        """The unique value t with f(t, t, ...) = t: offset / (1 - sum_n b_n)."""
        s = self.sum_coeffs()
        if s == 1.0:
            raise ValueError("coefficients sum to 1: every real number is a diagonal fixed point")
        return self.offset / (1.0 - s)


@dataclass(frozen=True)
class SupHalfMap(SeqMap):
    """Half the supremum of the coordinates, defined for coordinates in [0, 1].

    Contractive with constant 1/2 for the unweighted sup distance, yet its
    generalized iterates never drop below half of any positive starting
    coordinate, so no geometric-weight contraction certificate exists.
    """

    domain: ClassVar[tuple[float, float]] = (0.0, 1.0)

    def eval(self, x: BoundedSeq) -> float:
        self._check_domain(x)
        return 0.5 * max(x.values())

    def lip_sup(self, q: float) -> float:
        """1/2 for the plain sup distance (q = 1); ``inf`` for every q < 1."""
        return 0.5 if q == 1.0 else math.inf


@dataclass(frozen=True, eq=False)
class FiniteArityMap:
    """A map on m-tuples of reals.

    ``lipschitz_hint`` is a caller-supplied Lipschitz constant with respect
    to the maximum metric on tuples; it is consumed for certification and
    sanity-checked at most, never estimated from the black-box rule.
    """

    arity: int
    rule: Callable[..., float]
    lipschitz_hint: float | None = None

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError(f"arity must be >= 1, got {self.arity}")
        if self.lipschitz_hint is not None and not self.lipschitz_hint >= 0.0:
            raise ValueError(f"lipschitz_hint must be nonnegative, got {self.lipschitz_hint}")

    def __call__(self, *args: float) -> float:
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        return ensure_finite(self.rule(*args), "map value")

    def iterates(self, window: Sequence[float]) -> Iterator[float]:
        """Endlessly, the map's value at ``window``, which then enters the window.

        ``window`` holds ``arity`` values, newest first, as the rule takes
        them; each new value pushes the oldest one out. This is the
        recursion x_{m+k} = g(x_{k+m-1}, ..., x_k) and, from the first m
        coordinates of a start, the lifted iteration of the embedded map.
        A window of another length raises ``ValueError`` at the first value.
        """
        if len(window) != self.arity:
            raise ValueError(f"expected a window of {self.arity} values, got {len(window)}")
        live = deque(window, maxlen=self.arity)  # appendleft drops the oldest value
        call, push = self.__call__, live.appendleft
        while True:
            value = call(*live)
            push(value)
            yield value


@dataclass(frozen=True, eq=False)
class EmbeddedMap(SeqMap):
    """A finite-arity map read as a sequence map through its first coordinates."""

    finite_map: FiniteArityMap

    @property
    def arity(self) -> int:
        return self.finite_map.arity

    def eval(self, x: BoundedSeq) -> float:
        return self.finite_map(*x.head(self.finite_map.arity))

    def iterates(self, x0: BoundedSeq) -> Iterator[float]:
        """The finite map's window loop from ``x0.head(m)``, O(m) per value.

        The lifted step reads only those m coordinates, newest first. The
        window keeps each value's sign, where a ``BoundedSeq`` would trim a
        -0.0 that equals a 0.0 tail.
        """
        return self.finite_map.iterates(x0.head(self.arity))

    def lip_sup(self, q: float) -> float:
        """``hint / q**(m-1)``; ``inf`` without a hint or when the weight underflows.

        Coordinate i < m carries weight q**i >= q**(m-1), so a max-metric
        constant of the m-tuple map bounds the q-weighted sup constant this way.
        """
        hint = self.finite_map.lipschitz_hint
        w = q ** (self.arity - 1)
        return math.inf if hint is None or w == 0.0 else hint / w


def embed_finite(g: FiniteArityMap) -> EmbeddedMap:
    """Extend an m-tuple map to sequences by reading the first m coordinates.

    If ``Lip(g) < q**(m-1)`` for some q in (0, 1), the embedding is
    Lipschitz for the q-weighted sup distance with constant at most
    ``Lip(g) / q**(m-1)``, which certificate derivation exploits.
    """
    return EmbeddedMap(g)


def truncate(f: SeqMap, n: int, base: float) -> FiniteArityMap:
    """Freeze all coordinates of ``f`` from index ``n`` on at ``base``.

    The result is an arity-n map; its max-metric Lipschitz constant never
    exceeds any sup-distance Lipschitz constant of ``f``, and the hint is
    filled in exactly where it can be computed. Checks ``n``, ``base`` and
    the map's domain, then delegates to :meth:`SeqMap.truncation`, whose
    rule equals ``f.eval(BoundedSeq(args, base))`` bit for bit.
    """
    if n < 1:
        raise ValueError(f"truncation arity must be >= 1, got {n}")
    base = ensure_finite(base, "base point")
    if f.domain is not None:
        lo, hi = f.domain
        if not lo <= base <= hi:
            raise ValueError(f"base point {base} outside map domain [{lo}, {hi}]")

    return f.truncation(n, base)


def _random_seq(rng: random.Random, lo: float, hi: float) -> BoundedSeq:
    """0-8 prefix entries and a tail, each drawn as ``rng.uniform(lo, hi)`` draws it, in that order."""
    *prefix, tail = [lo + (hi - lo) * rng.random() for _ in range(rng.randrange(0, 9) + 1)]
    return BoundedSeq(tuple(prefix), tail)


def _lip_lower_bounds(f: SeqMap, families: Sequence[tuple[float, float | None]], trials: int, seed: int) -> list[float]:
    """Per (q, p) family, the largest ratio |f(x) - f(y)| / d(x, y) over seeded pairs, then over its witnesses.

    d is the q-weighted sup distance where p is None and the (p, q) power
    distance otherwise. The ``trials`` pairs are drawn from ``seed`` in the
    map's domain, [-1, 1] when it has none. Each family pairs its own
    :meth:`SeqMap.witnesses` with the zero sequence, and one
    :meth:`SeqMap.differences` call takes every pair's difference once, the
    drawn pairs first. Each family's maximum then runs over the same ratios,
    in the same order, as a call for that family alone.
    """
    rng = random.Random(seed)
    lo, hi = f.domain if f.domain is not None else (-1.0, 1.0)
    pairs = [(_random_seq(rng, lo, hi), _random_seq(rng, lo, hi)) for _ in range(trials)]
    zero = BoundedSeq.constant(0.0)
    witnessed = [[(w, zero) for w in f.witnesses(q, p)] for q, p in families]
    everything = pairs + [pair for own in witnessed for pair in own]
    diffs = f.differences(everything)
    length = max((len(x.prefix) for pair in everything for x in pair), default=0)
    best = []
    start = trials
    for (q, p), own in zip(families, witnessed):
        dist = _geom_distance(q, p, length)
        top = 0.0
        for (a, b), diff in zip(pairs + own, diffs[:trials] + diffs[start:start + len(own)]):
            d = dist(a, b)
            if d > 0.0:
                top = max(top, diff / d)
        start += len(own)
        best.append(top)
    return best


def empirical_lip_lower_bound(
    f: SeqMap,
    q: float,
    p: float | None = None,
    trials: int = 200,
    seed: int = 0,
) -> float:
    """Randomized lower bound on the Lipschitz constant of ``f``.

    Maximizes the ratio |f(x) - f(y)| / d(x, y) over seeded random pairs
    from the map's domain, where d is the geometric sup distance (p=None)
    or the (p, q) power distance, and pairs each of the map's
    :meth:`SeqMap.witnesses` with the zero sequence; for linear maps this
    makes the bound sharp up to the witness depth. The result does not
    exceed the analytic constant up to roundoff: both are rounded to
    nearest, and on the certify-sweep benchmark maps (seeds 0-5, 2,400
    bounds) 359 bounds exceed their constant, by at most 8.2e-16 relative.
    See ROADMAP item 5, certificates that hold in floating point.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _geom_distance(q, p, 0)  # checks q, then p, before the map's witnesses take them
    return _lip_lower_bounds(f, [(q, p)], trials, seed)[0]
