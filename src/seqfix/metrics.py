"""Weighted distances on eventually constant sequences, evaluated exactly.

Two families are provided: the weighted supremum distance
``sup_n a_n |x_n - y_n|`` and the weighted power distance
``(sum_n a_n |x_n - y_n|^p)^(1/p)``. With head-plus-geometric weight
sequences both close form: a finite max or sum over the joint prefix plus
a geometric tail term. The geometric special case (weights ``q**n``) is
what the contraction certificates are built on.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .sequences import BoundedSeq, ensure_finite


@dataclass(frozen=True)
class WeightSeq:
    """Weights ``a_n``: an explicit head continued geometrically by ``ratio``.

    For ``n >= len(head)`` the weight is
    ``head[-1] * ratio**(n - len(head) + 1)`` (``ratio**n`` when the head is
    empty). Construction only checks finiteness; whether the induced
    distances are metrics is decided by :func:`validate_sup_weights` and
    :func:`validate_p_weights`.
    """

    head: tuple[float, ...] = ()
    ratio: float = 1.0

    def __post_init__(self) -> None:
        entries = tuple(ensure_finite(v, "weight") for v in self.head)
        object.__setattr__(self, "head", entries)
        object.__setattr__(self, "ratio", ensure_finite(self.ratio, "weight ratio"))

    @classmethod
    def geometric(cls, ratio: float) -> WeightSeq:
        """The weights (1, ratio, ratio**2, ...)."""
        return cls((), ratio)

    def at(self, n: int) -> float:
        """The weight ``a_n``."""
        if n < 0:
            raise ValueError("weight index must be nonnegative")
        if n < len(self.head):
            return self.head[n]
        if not self.head:
            return self.ratio**n
        return self.head[-1] * self.ratio ** (n - len(self.head) + 1)


def validate_sup_weights(w: WeightSeq) -> bool:
    """True iff the weighted sup distance over ``w`` is a metric.

    Requires every weight positive and the whole sequence bounded, which
    for the head-plus-geometric form means positive head entries and a
    ratio in (0, 1].
    """
    return all(a > 0.0 for a in w.head) and 0.0 < w.ratio <= 1.0


def validate_p_weights(w: WeightSeq) -> bool:
    """True iff the weighted power distance over ``w`` is a metric.

    Positivity plus summability; the geometric tail must decay strictly
    (ratio < 1).
    """
    return all(a > 0.0 for a in w.head) and 0.0 < w.ratio < 1.0


def ensure_weight(q: float, what: str = "q", closed: bool = False) -> float:
    """Coerce a geometric weight ratio to a float in (0, 1), or in (0, 1] when ``closed``."""
    q = ensure_finite(q, what)
    if not (0.0 < q <= 1.0 if closed else 0.0 < q < 1.0):
        raise ValueError(f"{what} must lie in (0, 1{']' if closed else ')'}, got {q}")
    return q


def ensure_exponent(p: float, what: str = "p") -> float:
    """Coerce a power-distance exponent to a finite float >= 1."""
    p = ensure_finite(p, what)
    if p < 1.0:
        raise ValueError(f"{what} must be >= 1, got {p}")
    return p


def _overflows(x: BoundedSeq, y: BoundedSeq, m: int) -> bool:
    """True when some difference ``|x_n - y_n|``, n <= m, overflows to ``inf``.

    The two loops below ask this only when the weight of index m is 0.0 (the
    power loop reads its root, which is 0.0 exactly where the weight is). That is
    the one case where ``weight * |x_n - y_n|`` can be ``0.0 * inf = nan``,
    which their comparisons would skip: a weight is 0.0 only when it
    underflowed past the explicit head, and from there the weights do not
    increase, so the last one is 0.0 too.
    """
    return any(abs(a - b) == math.inf for a, b in zip(x.head(m + 1), y.head(m + 1)))


def _sup(x: BoundedSeq, y: BoundedSeq, weights: list[float], m: int) -> float:
    """sup_n weights[n] |x_n - y_n| over n <= m, where weights[m] is the weight of the constant tail.

    ``m`` is at least the longer prefix; weights past ``m`` are not read.
    The entries of a ``BoundedSeq`` are finite floats already, so they are
    read without validating them again. A coordinate difference that
    overflows makes the distance ``inf``, never ``nan``, also where its
    weight underflowed to 0.0.
    """
    if weights[m] == 0.0 and _overflows(x, y, m):
        return math.inf
    best = weights[m] * abs(x.tail - y.tail)
    for a_n, a, b in zip(weights, x.head(m), y.head(m)):
        v = a_n * abs(a - b)
        if v > best:
            best = v
    return best


def _power(x: BoundedSeq, y: BoundedSeq, p: float, roots: list[float], m: int, ratio: float) -> float:
    """(sum_n a_n |x_n - y_n|^p)^(1/p) from the rooted weights ``roots[n] = a_n ** (1/p)``, n <= m.

    roots[m] is that of the constant tail, whose weights continue by
    ``ratio``; roots past ``m`` are not read. The largest rescaled term is
    factored out before exponentiation so the evaluation stays stable for
    very large ``p``. A coordinate difference that overflows makes the
    distance ``inf``, never ``nan``: a root is 0.0 exactly where its weight is.
    """
    if roots[m] == 0.0 and _overflows(x, y, m):
        return math.inf
    scaled = [r_n * abs(a - b) for r_n, a, b in zip(roots, x.head(m), y.head(m))]
    tail_anchor = roots[m] * abs(x.tail - y.tail)
    top = max([tail_anchor] + scaled)
    if top == 0.0:
        return 0.0
    if not top < math.inf:
        return math.inf
    total = sum((v / top) ** p for v in scaled if v > 0.0)
    if tail_anchor > 0.0:  # a zero anchor would add 0.0
        total += (tail_anchor / top) ** p / (1.0 - ratio)
    return top * total ** (1.0 / p)


def dist_sup_weighted(x: BoundedSeq, y: BoundedSeq, w: WeightSeq) -> float:
    """Weighted sup distance sup_n a_n |x_n - y_n|, exactly.

    Explicit max over every index where either the sequences or the weight
    head vary; beyond that the coordinate distance is constant and the
    weights are nonincreasing, so the tail contributes its first weight.
    """
    if not validate_sup_weights(w):
        raise ValueError("weights do not define a sup-type metric (need positive head, ratio in (0, 1])")
    m = max(len(x.prefix), len(y.prefix), len(w.head))
    return _sup(x, y, [w.at(n) for n in range(m + 1)], m)


def dist_p_weighted(x: BoundedSeq, y: BoundedSeq, p: float, w: WeightSeq) -> float:
    """Weighted power distance (sum_n a_n |x_n - y_n|^p)^(1/p), exactly.

    Finite sum over the joint prefix plus the closed-form geometric tail sum.
    """
    p = ensure_exponent(p, "exponent")
    if not validate_p_weights(w):
        raise ValueError("weights do not define a p-type metric (need positive head, ratio in (0, 1))")
    m = max(len(x.prefix), len(y.prefix), len(w.head))
    inv_p = 1.0 / p
    return _power(x, y, p, [w.at(n) ** inv_p for n in range(m + 1)], m, w.ratio)


def _geom_distance(q: float, p: float | None, length: int) -> Callable[[BoundedSeq, BoundedSeq], float]:
    """:func:`dist_sup_geom` (``p`` None) or :func:`dist_p_geom` at one (q, p), bit for bit.

    Checks q, then p, as those do, and builds the weights ``q**n`` for
    n <= ``length`` once, rooted once for the power family. The distance it
    returns takes sequences whose prefixes are at most ``length`` long.
    """
    if p is None:
        q = ensure_weight(q, closed=True)
        weights = [q**n for n in range(length + 1)]
        return lambda x, y: _sup(x, y, weights, max(len(x.prefix), len(y.prefix)))
    q, p = ensure_weight(q), ensure_exponent(p, "exponent")
    inv_p = 1.0 / p
    roots = [(q**n) ** inv_p for n in range(length + 1)]
    return lambda x, y: _power(x, y, p, roots, max(len(x.prefix), len(y.prefix)), q)


def dist_sup_geom(x: BoundedSeq, y: BoundedSeq, q: float) -> float:
    """Sup distance with geometric weights q**n; q=1 gives the plain sup distance.

    Equal bit for bit to :func:`dist_sup_weighted` with ``WeightSeq.geometric(q)``.
    """
    return _geom_distance(q, None, max(len(x.prefix), len(y.prefix)))(x, y)


def dist_p_geom(x: BoundedSeq, y: BoundedSeq, p: float, q: float) -> float:
    """Power distance with geometric weights q**n, q strictly below 1.

    Equal bit for bit to :func:`dist_p_weighted` with ``WeightSeq.geometric(q)``;
    q is checked before p.
    """
    q, p = ensure_weight(q), ensure_exponent(p, "exponent")  # a p of None would pick the sup family
    return _geom_distance(q, p, max(len(x.prefix), len(y.prefix)))(x, y)
