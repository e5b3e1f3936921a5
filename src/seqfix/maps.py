"""Maps from bounded sequences to the real line, with Lipschitz analysis.

The workhorse is the absolutely summable linear form
``f(x) = offset + sum_n b_n x_n`` whose coefficients are a finite head
continued geometrically. Its Lipschitz constants with respect to the
geometric-weight sup and power distances have closed forms (possibly
+inf, which is a value here, not an error); those constants are what the
solver's contraction certificates are built from.

Also provided: the half-supremum map (contractive for the unweighted sup
distance yet never admitting a geometric-weight certificate), finite-arity
maps, which are the sequence maps that read their first m coordinates,
truncations of sequence maps to finitely many coordinates, and a
randomized lower bound on true Lipschitz constants that uses
near-extremal witness pairs for linear maps.
"""

from __future__ import annotations

import math
import numbers
import random
from abc import ABC, abstractmethod
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import ClassVar

from .metrics import _geom_distance, ensure_exponent, ensure_weight
from .sequences import BoundedSeq, _left_sum, ensure_count, ensure_finite


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
        gives the Secelean default constant and the default truncation hint.
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

    def truncation_hint(self, n: int) -> float | None:
        """A max-metric Lipschitz constant of the arity-n truncation, or None when the map has none.

        This default is ``lip_sup(1.0)`` when that is finite, since freezing
        coordinates cannot raise the plain sup constant. :func:`truncate`
        validates ``n`` before asking and builds the truncation's rule itself.
        """
        hint = self.lip_sup(1.0)
        return hint if hint < math.inf else None

    def _check_values(self, values: Iterable[float], what: str = "coordinate") -> None:
        """Raise ``ValueError`` at the first value outside :attr:`domain`, naming it as ``what``."""
        if self.domain is not None:
            lo, hi = self.domain
            for v in values:
                if not lo <= v <= hi:
                    raise ValueError(f"{what} {v!r} outside map domain [{lo}, {hi}]")


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
    :meth:`diagonal` and :meth:`iterates` compute what :meth:`eval` would,
    without calling it, so a subclass that overrides ``eval`` overrides
    both of them too.
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
        if m < 0:
            raise ValueError("coefficient index must be nonnegative")
        n = len(self.head_coeffs)
        geo = self.tail_coeff / (1.0 - self.tail_ratio)
        if m <= n:
            return _left_sum(self.head_coeffs[m:]) + geo
        return geo * self.tail_ratio ** (m - n)

    def sum_coeffs(self) -> float:
        """Signed sum of all coefficients."""
        return self.tail_sum_from(0)

    def sum_abs_coeffs(self) -> float:
        """Sum of |b_n|; equals the Lipschitz constant for the plain sup distance."""
        return _left_sum(map(abs, self.head_coeffs)) + abs(self.tail_coeff) / (1.0 - abs(self.tail_ratio))

    def _live_terms(self, m: int) -> int:
        """How many of the first ``m`` coefficients can be nonzero.

        With a zero tail coefficient, the N head coefficients; with a zero
        tail ratio, one more, since b_(N+j) = ``tail_coeff * 0.0**j`` is zero
        for j >= 1; otherwise all ``m``. The coefficients past these are
        signed zeros.
        """
        n = len(self.head_coeffs)
        if self.tail_coeff == 0.0:
            return min(m, n)
        if self.tail_ratio == 0.0:
            return min(m, n + 1)
        return m

    def eval(self, x: BoundedSeq) -> float:
        """``offset + sum_n b_n x_n``: the prefix terms left to right, then the tail in closed form.

        :meth:`_add_terms` sums the prefix terms and :meth:`_plus_tail` adds
        the tail, so a call costs O(len(x.prefix)).
        """
        return self._sum(x, self._add_terms)

    def _sum(self, x: BoundedSeq, add_terms: Callable[[float, tuple[float, ...], int, int], float]) -> float:
        """:meth:`eval`'s value, with the prefix terms from n = start to stop - 1 added by ``add_terms``.

        Only the prefix within :meth:`_live_terms` is read while the sum is
        nonzero. The terms past it are signed zeros, which leave a nonzero
        sum as it is but can turn -0.0 into 0.0, so a zero sum reads them all.
        """
        prefix = x.prefix
        m = len(prefix)
        live = self._live_terms(m)
        acc = add_terms(self.offset, prefix, 0, live)
        if acc == 0.0:
            acc = add_terms(acc, prefix, live, m)
        return self._plus_tail(acc, x.tail, m)

    def iterates(self, x0: BoundedSeq) -> Iterator[float]:
        """The default's lifted steps, through a view whose ``eval`` reads a coefficient table built for this run.

        The table holds the floats :meth:`_add_terms` multiplies by, one
        :meth:`coeff_at` call per index the first time a lift reads it, so
        each lift sums its terms without a power per tail term and keeps
        every bit. The table is dropped with the run.
        """
        return _LinearRun(self).iterates(x0)

    def _add_terms(self, acc: float, prefix: tuple[float, ...], start: int, stop: int) -> float:
        """``acc`` plus ``b_n * prefix[n]`` for n from ``start`` to ``stop - 1``, left to right.

        Head coefficients come from :meth:`coeff_at`. A tail coefficient is
        the float ``coeff_at`` returns, ``tail_coeff * tail_ratio**j`` at
        n = N + j, computed inline, so each sum keeps its bits without a
        call per term.
        """
        n = len(self.head_coeffs)
        mid = max(start, min(n, stop))
        for k in range(start, mid):
            acc += self.coeff_at(k) * prefix[k]
        b, r = self.tail_coeff, self.tail_ratio
        for j, v in enumerate(prefix[mid:stop], mid - n):
            acc += b * r**j * v
        return acc

    def _plus_tail(self, acc: float, t: float, m: int) -> float:
        """``acc + t * tail_sum_from(m)``, where a zero ``t`` adds nothing to a tail sum that is not finite.

        That product is NaN (0.0 * inf), and the zero-factor rule of
        :meth:`differences` drops it; every other product, a signed zero
        included, is added as it is.
        """
        term = t * self.tail_sum_from(m)
        return acc if term != term and t == 0.0 else acc + term

    def diagonal(self, t: float) -> float:
        """``offset + t * sum_n b_n``, what :meth:`eval` computes on the constant sequence, bit for bit."""
        return self._plus_tail(self.offset, ensure_finite(t, "tail"), 0)

    def differences(self, pairs: Sequence[tuple[BoundedSeq, BoundedSeq]]) -> list[float]:
        """Each |f(a) - f(b)| through the offset-free form ``sum_n b_n (a_n - b_n)``.

        Subtracting two evaluations cancels the offset and loses the tiny
        coordinate signal of deep witness pairs; the explicit difference form
        is the same number algebraically but keeps full relative precision.
        The coefficients and tail sums the pairs read are built once per
        call, and each pair is summed once, left to right, then its tail
        added. A term with a zero factor adds nothing: no coordinate past
        :meth:`_live_terms` is read, a head term adds only where its
        coefficient is nonzero, and the tail term only where both the tails'
        difference and the tail sum are nonzero. So a zero factor never meets
        a difference or tail sum that overflowed (0.0 * inf is NaN). Each
        term left out is a signed zero or such a NaN, so every other sum keeps
        its bits: ``abs`` cannot tell a signed zero from the sum.
        """
        spans = [max(len(a.prefix), len(b.prefix)) for a, b in pairs]
        live = self._live_terms(max(spans, default=0))
        coeffs = tuple(map(self.coeff_at, range(live)))
        tails = {m: self.tail_sum_from(m) for m in set(spans)}
        out = []
        for (a, b), m in zip(pairs, spans):
            acc = 0.0
            for c, u, v in zip(coeffs, a.head(m), b.head(m)):
                if c:
                    acc += c * (u - v)
            d, t = a.tail - b.tail, tails[m]
            out.append(abs(acc + d * t if d and t else acc))
        return out

    def witnesses(self, q: float, p: float | None) -> Iterator[BoundedSeq]:
        """Near-extremal inputs realizing the analytic constants on truncations, one per family.

        It checks q, then p, as the distance at (p, q) does.
        The sup (p None) and power (p > 1) witnesses put 0.0 at zero
        coefficients and end before the first coordinate that is not a finite
        float, because its weight q**k is tiny: the coordinate overflows,
        divides by a weight that underflowed to 0.0, or is inf. A shorter
        witness still bounds the constant from below.

        For p = 1 the constant is sup_k |b_k| / q**k, and the witness is the
        unit vector e_k at the first k <= 64 that maximizes
        ``abs(self.coeff_at(k)) / q**k`` among the depths where q**k > 0.0.
        Scored against the zero sequence, each e_k gives exactly that float:
        its difference is |b_k| and its distance (q**k)**1.0 is q**k; a depth
        whose weight underflowed has distance 0.0 and is not scored. The
        empirical bound is a maximum, which is exact, so this one witness
        gives the bound that all 65 unit vectors give, bit for bit.
        """
        _geom_distance(q, p, 0)
        if p == 1.0:
            depths = (k for k in range(_WITNESS_DEPTH + 1) if q**k > 0.0)
            k = max(depths, key=lambda k: abs(self.coeff_at(k)) / q**k)
            yield BoundedSeq((0.0,) * k + (1.0,), 0.0)
            return
        entries: list[float] = []
        for k in range(_WITNESS_DEPTH + 1):
            b = self.coeff_at(k)
            if b == 0.0:
                entries.append(0.0)
                continue
            w = q**k
            sign = math.copysign(1.0, b)
            try:
                v = sign / w if p is None else sign * (abs(b) / w) ** (1.0 / (p - 1.0))
            except (OverflowError, ZeroDivisionError):
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

    def truncation_hint(self, n: int) -> float | None:
        """sum_{k<n} |b_k|, the truncation's exact max-metric constant.

        The frozen coordinates add nothing, where the default hint
        ``lip_sup(1.0)`` sums every |b_k|.
        """
        return _left_sum(abs(self.coeff_at(k)) for k in range(self._live_terms(n)))

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
        total = _left_sum(abs(b) / q**k for k, b in enumerate(self.head_coeffs) if b != 0.0)
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
        total = _left_sum(math.exp(v - top) for v in logs) + math.exp(tail_log - top) / (1.0 - tail_step)
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


class _LinearRun(SeqMap):
    """One run of :meth:`LinearSeqMap.iterates`: the map's ``eval`` over a coefficient table that grows with it."""

    def __init__(self, f: LinearSeqMap) -> None:
        self.f = f
        self.coeffs: list[float] = []

    def eval(self, x: BoundedSeq) -> float:
        return self.f._sum(x, self._add_terms)

    def _add_terms(self, acc: float, prefix: tuple[float, ...], start: int, stop: int) -> float:
        """``acc`` plus ``coeffs[n] * prefix[n]`` for n from ``start`` to ``stop - 1``, left to right.

        The table first grows to ``stop`` entries, one :meth:`LinearSeqMap.coeff_at` call per new index.
        """
        coeffs = self.coeffs
        coeffs.extend(map(self.f.coeff_at, range(len(coeffs), stop)))
        for b, v in zip(coeffs[start:stop], prefix[start:stop]):
            acc += b * v
        return acc


@dataclass(frozen=True)
class SupHalfMap(SeqMap):
    """Half the supremum of the coordinates, defined for coordinates in [0, 1].

    Contractive with constant 1/2 for the unweighted sup distance, yet its
    generalized iterates never drop below half of any positive starting
    coordinate, so no geometric-weight contraction certificate exists.
    """

    domain: ClassVar[tuple[float, float]] = (0.0, 1.0)

    def eval(self, x: BoundedSeq) -> float:
        self._check_values(x.values())
        return 0.5 * max(x.values())

    def diagonal(self, t: float) -> float:
        """``0.5 * t`` once ``t`` is checked finite and in the domain, as :meth:`eval` checks it."""
        t = ensure_finite(t, "tail")
        self._check_values((t,))
        return 0.5 * t

    def iterates(self, x0: BoundedSeq) -> Iterator[float]:
        """``v_k = 0.5 * max(v_(k-1), M)``, O(1) per value, with M the maximum of the start's values.

        The start's domain is checked once, at the first value: every value
        after it lies in [0, 0.5], and the running maximum of the lifted
        sequence stays M. ``max`` keeps its first argument on a tie, as
        the default's scan meets the newest value first, so a signed zero
        comes out as the default gives it.
        """
        self._check_values(x0.values())
        top = max(x0.values())
        value = 0.5 * top
        while True:
            yield value
            value = 0.5 * max(value, top)

    def lip_sup(self, q: float) -> float:
        """1/2 for the plain sup distance (q = 1); ``inf`` for every q < 1."""
        return 0.5 if ensure_weight(q, closed=True) == 1.0 else math.inf


@dataclass(frozen=True, eq=False)
class FiniteArityMap(SeqMap):
    """A map on m-tuples of reals, and the sequence map that reads the first m coordinates.

    ``g(x_0, ..., x_(m-1))`` takes its arguments as the map takes those
    coordinates, so an m-ary map is the special case of a sequence map
    whose value depends on the first m coordinates alone.
    ``lipschitz_hint`` is a caller-supplied Lipschitz constant with respect
    to the maximum metric on tuples; it is consumed for certification and
    sanity-checked at most, never estimated from the black-box rule.
    """

    arity: int
    rule: Callable[..., float]
    lipschitz_hint: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "arity", ensure_count(self.arity, "arity", 1))
        if (hint := self.lipschitz_hint) is not None and not (isinstance(hint, numbers.Real) and hint >= 0.0):
            raise ValueError(f"lipschitz_hint must be nonnegative, got {hint!r}")

    def __call__(self, *args: float) -> float:
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        return ensure_finite(self.rule(*args), "map value")

    def eval(self, x: BoundedSeq) -> float:
        return self(*x.head(self.arity))

    def diagonal(self, t: float) -> float:
        """The map at (t, ..., t), what :meth:`eval` reads from the constant sequence, bit for bit."""
        t = ensure_finite(t, "tail")
        return self(*(t,) * self.arity)

    def iterates(self, x0: BoundedSeq) -> Iterator[float]:
        """The window loop from ``x0.head(m)``, O(m) per value.

        The lifted step reads only those m coordinates, newest first. The
        window keeps each value's sign, where a ``BoundedSeq`` would trim a
        -0.0 that equals a 0.0 tail.
        """
        return _window_loop(self, x0.head(self.arity))

    def lip_sup(self, q: float) -> float:
        """``hint / q**(m-1)``; ``inf`` without a hint or when the weight underflows.

        Coordinate i < m carries weight q**i >= q**(m-1), so a max-metric
        constant of the m-tuple map bounds the q-weighted sup constant this way.
        At q = 1 this is the hint itself, so the default truncation hint is too.
        """
        hint = self.lipschitz_hint
        w = ensure_weight(q, closed=True) ** (self.arity - 1)
        return math.inf if hint is None or w == 0.0 else hint / w


#: another name for FiniteArityMap, kept as a public export
EmbeddedMap = FiniteArityMap


def _window_loop(g: FiniteArityMap, window: Iterable[float]) -> Iterator[float]:
    """Endlessly, ``g`` at the window of its last m values, newest first, each new value pushing the oldest out.

    ``window`` holds the m values to start from, newest first. This is the
    recursion x_{m+k} = g(x_{k+m-1}, ..., x_k) and the lifted iteration
    of ``g`` read as a sequence map.
    """
    live = deque(window, maxlen=g.arity)  # appendleft drops the oldest value
    call, push = g.__call__, live.appendleft
    while True:
        value = call(*live)
        push(value)
        yield value


def embed_finite(g: FiniteArityMap) -> FiniteArityMap:
    """``g`` itself, which reads the first m coordinates of a sequence as a sequence map.

    If ``Lip(g) < q**(m-1)`` for some q in (0, 1), it is Lipschitz for the
    q-weighted sup distance with constant at most ``Lip(g) / q**(m-1)``,
    which certificate derivation exploits.
    """
    return g


def truncate(f: SeqMap, n: int, base: float) -> FiniteArityMap:
    """Freeze all coordinates of ``f`` from index ``n`` on at ``base``.

    The result is an arity-n map, itself a sequence map that reads the
    first n coordinates; its max-metric Lipschitz constant never exceeds
    any sup-distance Lipschitz constant of ``f``, and its hint is
    :meth:`SeqMap.truncation_hint`. Checks ``n``, ``base`` and the map's
    domain; the rule is ``f.eval(BoundedSeq(args, base))``, so a non-finite
    argument raises ``ValueError``.
    """
    n = ensure_count(n, "truncation arity", 1)
    base = ensure_finite(base, "base point")
    f._check_values((base,), "base point")

    def rule(*args: float) -> float:
        return f.eval(BoundedSeq(args, base))

    return FiniteArityMap(n, rule, f.truncation_hint(n))


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
    :meth:`SeqMap.differences` call takes every pair's difference once: the
    drawn pairs first, then each family's witnesses in family order. Each
    family scores the drawn rows ``(pair, difference)``, then its own
    witness rows, under a distance built for those pairs, so its maximum
    runs over the same ratios, in the same order, as a call for that family
    alone.
    """
    rng = random.Random(seed)
    lo, hi = f.domain if f.domain is not None else (-1.0, 1.0)
    pairs = [(_random_seq(rng, lo, hi), _random_seq(rng, lo, hi)) for _ in range(trials)]
    zero = BoundedSeq.constant(0.0)
    witnessed = [[(w, zero) for w in f.witnesses(q, p)] for q, p in families]
    diffs = iter(f.differences(pairs + [pair for own in witnessed for pair in own]))
    drawn = list(zip(pairs, diffs))
    best = []
    for (q, p), own in zip(families, witnessed):
        rows = drawn + list(zip(own, diffs))
        dist = _geom_distance(q, p, max((len(x.prefix) for pair, _ in rows for x in pair), default=0))
        ratios = (diff / d for (a, b), diff in rows if (d := dist(a, b)) > 0.0)
        best.append(max([0.0, *ratios]))  # led by 0.0, so a NaN ratio never becomes the maximum
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
    trials = ensure_count(trials, "trials", 1)
    _geom_distance(q, p, 0)  # checks q, then p, before the map's witnesses take them
    return _lip_lower_bounds(f, [(q, p)], trials, seed)[0]
