"""Contraction certificates and certified fixed-point iteration.

The lifted self-map of a sequence map prepends the image to the sequence;
iterating it produces the generalized iterates. A certificate witnesses
that the lift contracts, either through the q-weighted sup distance
(``lip < 1``) or through the (p, q) power distance
(``lip < (1 - q)**(1/p)``). Either way the error of the k-th iterate is
bounded a priori by the first-step displacement times a geometric factor,
which caps the iteration count of :func:`solve_fixed_point` before it
iterates. The diagonal's contraction bounds the error a posteriori by the
residual |f(t, t, ...) - t|, which stops the solve at the first certified
iterate.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import accumulate, chain, islice

# lift_step lives in maps, where SeqMap.iterates calls it; seqfix.solver.lift_step stays public
from .maps import FiniteArityMap, SeqMap, _window_loop, lift_step, truncate  # noqa: F401
from .metrics import dist_p_geom, dist_sup_geom, ensure_exponent, ensure_weight
from .sequences import BoundedSeq, ensure_count, ensure_finite


class UncertifiedMapError(Exception):
    """No contraction hypothesis could be verified for the requested run."""


class BoundViolationError(Exception):
    """A certified error bound failed empirically (bug or invalid certificate)."""


class ContractionCertificate(ABC):
    """A witness that the lifted map contracts in some metric on sequences.

    Both families hold the map's Lipschitz constant ``lip`` in their metric
    and a lifted-step factor below 1, and share the a priori bound.
    """

    lip: float

    @abstractmethod
    def step_factor(self) -> float:
        """Contraction factor of one lifted step."""

    @abstractmethod
    def gap(self, x: BoundedSeq, y: BoundedSeq) -> float:
        """Distance between sequences in this certificate's metric."""

    @abstractmethod
    def diagonal_lip(self) -> float:
        """Contraction factor of the diagonal map t -> f(t, t, ...)."""

    def a_priori_bound(self, k: int, d1: float) -> float:
        """Error bound for the k-th iterate from the first-step displacement d1."""
        if k < 1:
            raise ValueError(f"iterate index must be >= 1, got {k}")
        if not d1 >= 0.0:
            raise ValueError(f"first-step displacement must be nonnegative, got {d1}")
        return _a_priori(self.lip, self.step_factor(), k, d1)


def _a_priori(lip: float, sf: float, k: int, d1: float) -> float:
    """The a priori error bound ``lip * sf**(k-1) / (1 - sf) * d1`` of the k-th iterate, for step factor ``sf < 1``."""
    return lip * sf ** (k - 1) / (1.0 - sf) * d1


@dataclass(frozen=True)
class SupCertificate(ContractionCertificate):
    """Witness of contraction for the q-weighted sup distance.

    Valid when 0 < q < 1 and the map's Lipschitz constant ``lip`` for that
    distance is below 1. The lifted map then contracts with factor
    ``max(lip, q)``.
    """

    q: float
    lip: float

    def __post_init__(self) -> None:
        ensure_weight(self.q, "certificate q")
        lip = ensure_finite(self.lip, "lip")
        if not 0.0 <= lip < 1.0:
            raise ValueError(f"certificate lip must lie in [0, 1), got {lip}")

    def step_factor(self) -> float:
        return max(self.lip, self.q)

    def gap(self, x: BoundedSeq, y: BoundedSeq) -> float:
        return dist_sup_geom(x, y, self.q)

    def diagonal_lip(self) -> float:
        return self.lip


@dataclass(frozen=True)
class PCertificate(ContractionCertificate):
    """Witness of contraction for the (p, q) power distance.

    Valid when ``lip < (1 - q)**(1/p)``; the lifted map then contracts with
    factor ``(lip**p + q)**(1/p) < 1``. Both must hold in floats: a step
    factor that rounds to 1 would divide the a priori bound by zero.
    """

    p: float
    q: float
    lip: float

    def __post_init__(self) -> None:
        p = ensure_exponent(self.p, "certificate p")
        q = ensure_weight(self.q, "certificate q")
        lip = ensure_finite(self.lip, "lip")
        if not (0.0 <= lip < (1.0 - q) ** (1.0 / p) and self.step_factor() < 1.0):
            raise ValueError(f"certificate requires lip < (1-q)^(1/p) and a step factor below 1, "
                             f"got lip={lip}, q={q}, p={p}")

    def step_factor(self) -> float:
        return (self.lip**self.p + self.q) ** (1.0 / self.p)

    def gap(self, x: BoundedSeq, y: BoundedSeq) -> float:
        return dist_p_geom(x, y, self.p, self.q)

    def diagonal_lip(self) -> float:
        return self.lip / (1.0 - self.q) ** (1.0 / self.p)


@dataclass(frozen=True)
class TraceStep:
    """One generalized iterate with its certified bound (if any) and residual."""

    k: int
    value: float
    bound: float | None
    residual: float


@dataclass(frozen=True)
class IterationTrace:
    """Generalized iterates plus the first-step displacement in the certificate metric."""

    steps: tuple[TraceStep, ...]
    initial_gap: float | None


def generalized_iterates(
    f: SeqMap,
    x0: BoundedSeq,
    k_max: int,
    cert: ContractionCertificate | None = None,
) -> IterationTrace:
    """Iterates x^1 .. x^k_max of the lifted map started at ``x0``.

    Each step records the residual |f(t, t, ...) - t| at the new value; with
    a certificate, the a priori error bound is recorded as well (computed
    from the displacement between the first lifted sequence and the start).
    The rows are the first ``k_max`` of :func:`_lifted_steps`, the ones
    :func:`solve_fixed_point` stops on, so a solve's trace is
    ``generalized_iterates(f, x0, k_used, cert)``, row for row. Step k of
    the default lifted iteration reads a sequence of about k coordinates,
    so a ``k_max`` whose lengths 1 + ... + k_max sum to more than
    :data:`_STEP_BUDGET` is refused before any lift.
    """
    k_max = ensure_count(k_max, "k_max", 1)
    _check_budget(work := k_max * (k_max + 1) // 2, f"k_max {k_max} makes the lifted sequence lengths sum to {work},")
    d1, rows = _lifted_steps(f, x0, cert)
    return IterationTrace(tuple(step for step, _ in islice(rows, k_max)), d1)


def _lifted_steps(f: SeqMap, x0: BoundedSeq,
                  cert: ContractionCertificate | None) -> tuple[float | None, Iterator[tuple[TraceStep, float]]]:
    """The first-step displacement d1 and, lazily, each lift's row with its diagonal value.

    d1 is the distance from ``x0`` to the first lifted sequence
    ``x0.prepend(v_1)`` in ``cert``'s metric, None without a certificate.
    The k-th row is ``(TraceStep(k, v_k, bound, |d_k - v_k|), d_k)`` for
    the k-th value v_k of ``f.iterates(x0)``, its a priori bound (None
    without a certificate) and ``d_k = f(v_k, v_k, ...)``. v_1 is lifted
    here; v_k for k > 1 only when row k is drawn.
    """
    values = f.iterates(x0)
    v1 = next(values)
    d1 = None if cert is None else cert.gap(x0.prepend(v1), x0)

    def rows() -> Iterator[tuple[TraceStep, float]]:
        for k, v in enumerate(chain((v1,), values), 1):
            dv = f.diagonal(v)
            yield TraceStep(k, v, None if cert is None else cert.a_priori_bound(k, d1), abs(dv - v)), dv

    return d1, rows()


#: bisection steps on [0, 1]: the floats just below 1 are 2**-53 apart, so 53 halvings can reach 1 - 2**-53
_BISECT_STEPS = 53


def _crossing(lip_at: Callable[[float], float]) -> SupCertificate | None:
    """The sup certificate at the weight where ``lip_at`` falls to the weight itself, or None.

    Bisects [0, 1] for a weight ``hi`` with ``lip_at(hi) <= hi < 1`` and
    returns ``SupCertificate(hi, lip_at(hi))`` with the value the bisection
    accepted ``hi`` on, so ``lip_at`` is evaluated once per step,
    :data:`_BISECT_STEPS` times in all; None when no tested weight q had
    ``lip_at(q) <= q``, so ``hi`` stayed 1.0. When ``lip_at`` does not
    increase with q, ``max(lip_at(q), q)`` is smallest at the crossing, and
    ``hi`` lies within 2**-53 above it.
    """
    lo, hi, lip = 0.0, 1.0, math.inf
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if (value := lip_at(mid)) <= mid:
            hi, lip = mid, value
        else:
            lo = mid
    return SupCertificate(hi, lip) if hi < 1.0 else None


def find_sup_certificate(f: SeqMap) -> SupCertificate | None:
    """The sup-distance certificate at the crossing weight q where ``f.lip_sup(q)`` falls to q.

    Sound for any map, since the bisection keeps ``lip_sup(q) <= q < 1``;
    the step factor ``max(lip, q)`` is then q, the least one a sup
    certificate can have when ``lip_sup`` does not increase with q. None
    when no weight below 1 qualifies, so the map is reported uncertified.
    """
    return _crossing(f.lip_sup)


#: the exponents find_p_certificate tries, in order: 1, 2, 4, ..., 2**20
_P_GRID = tuple(2.0**k for k in range(21))


def find_p_certificate(f: SeqMap, q0: float) -> PCertificate | None:
    """The power-distance certificate at q0 for the first exponent of :data:`_P_GRID` that has one.

    ``f.lip_p(p, q0)`` is evaluated at p = 1, 2, 4, ..., 2**20 in turn, up
    to the first p whose constant makes a :class:`PCertificate`. Existence
    for certifiable maps is guaranteed for some exponent, but with no
    computable cap, so exhausting the grid is reported as None rather than
    treated as disproof. A map without :meth:`SeqMap.lip_p` exhausts it.
    """
    q0 = ensure_weight(q0, "q0")
    certs = (_p_certificate(p, q0, f.lip_p(p, q0)) for p in _P_GRID)
    return next((cert for cert in certs if cert is not None), None)


def _p_certificate(p: float, q: float, lip: float) -> PCertificate | None:
    """``PCertificate(p, q, lip)``, or None where its condition fails, as for a non-finite ``lip``."""
    try:
        return PCertificate(p, q, lip)
    except ValueError:
        return None


def sup_certificate_from_p(cert: PCertificate) -> SupCertificate | None:
    """Convert a power-distance certificate into a sup-distance certificate.

    Uses the comparison between the metric families: at a weight s with
    s**p > q the sup-distance constant is at most
    ``lip / (1 - q/s**p)**(1/p)``, taken as ``inf`` elsewhere and where
    ``1 - q/s**p`` rounds to 0. The certificate sits at the crossing of
    that constant with s, so it is sound for any map the original
    certificate covers. None when rounding puts the crossing at 1, as in
    :func:`find_sup_certificate`.
    """

    def lip_at(s: float) -> float:
        room = 1.0 - cert.q / s**cert.p if s**cert.p > cert.q else 0.0
        return cert.lip / room ** (1.0 / cert.p) if room > 0.0 else math.inf

    return _crossing(lip_at)


#: the most steps a plan may ask for: a longer one is refused before iterating, since it would not end in time
_STEP_BUDGET = 10**6


def _check_budget(work: int, says: str) -> None:
    """Refuse ``work`` steps over :data:`_STEP_BUDGET` with ``ValueError("<says> more than the step budget ...")``.

    A loop over k = 1 .. n works 1 + 2 + ... + n steps when step k costs
    O(k), and n when it costs O(1); a planned run works its plan.
    """
    if work > _STEP_BUDGET:
        raise ValueError(f"{says} more than the step budget {_STEP_BUDGET}")


def _smallest_k(cert: ContractionCertificate, d1: float, tol: float) -> int:
    """Smallest iterate index whose a priori bound is at most tol.

    Raises ``ValueError`` where :func:`_plan_length` does, and when that
    index is above :data:`_STEP_BUDGET`.
    """
    k = _plan_length(cert.lip, cert.step_factor(), d1, tol)
    _check_budget(k, f"the a priori bound plans {k} steps,")
    return k


def _below_resolution(tol: float, why: str) -> ValueError:
    return ValueError(f"tolerance {tol:.3e} is below float resolution: {why}")


def _plan_length(lip: float, sf: float, d1: float, tol: float) -> int:
    """Smallest k with ``lip * sf**(k-1) / (1 - sf) * d1 <= tol``, the a priori bound of step factor ``sf < 1``.

    Raises ``ValueError`` when that bound is not finite: the start is too far
    from its image for the first-step displacement, or the bound built from
    it, to be a float. Raises it too when ``tol`` is so far below the first
    bound that their ratio underflows to 0.0: such a tolerance is below
    float resolution.
    """
    first = _a_priori(lip, sf, 1, d1)
    if first <= tol:
        return 1
    if not first < math.inf:
        raise ValueError(f"first-step displacement {d1:.3e} gives a non-finite a priori bound: "
                         "the start is too far from its image")
    shrink = tol / first
    if shrink == 0.0:
        raise _below_resolution(tol, f"its ratio to the first a priori bound {first:.3e} underflows to 0")
    k = 1 + max(0, math.ceil(math.log(shrink) / math.log(sf)))
    while _a_priori(lip, sf, k, d1) > tol:
        k += 1
    while k > 1 and _a_priori(lip, sf, k - 1, d1) <= tol:
        k -= 1
    return k


#: residuals up to this many ulps of the fixed point's magnitude are float roundoff
_ROUNDOFF_ULPS = 4


def _roundoff(residual: float, t: float, dt: float, tol: float, room: float) -> float:
    """δ, the roundoff of one evaluation ``dt = d(t)``: :data:`_ROUNDOFF_ULPS` ulps of the larger of |t| and |dt|.

    An a posteriori stop at ``tol`` passes when its error numerator plus δ
    is at most ``room``, ``tol·(1 - c)``. When the residual |dt - t| is
    within δ and δ alone leaves no room, no later step can pass either:
    this raises ``ValueError`` at once, since ``tol`` is below float
    resolution and more steps only repeat roundoff.
    """
    roundoff = _ROUNDOFF_ULPS * math.ulp(max(abs(t), abs(dt)))
    if residual <= roundoff and roundoff > room:
        raise _below_resolution(tol, f"the residual {residual:.3e} is within roundoff {roundoff:.3e}")
    return roundoff


def _diagonal_fixed_point(d: Callable[[float], float], t: float, c: float, tol: float) -> float:
    """Steffensen's method for the fixed point of ``d`` from ``t``, to within ``tol``.

    ``c < 1`` is a Lipschitz constant of ``d``. Every evaluation gives a
    pair (x, d(x)), and with δ from :func:`_roundoff` the a posteriori bound
    ``|d(x) - t*| <= (c·|d(x) - x| + δ) / (1 - c)`` stops the loop at the
    first pair where it is at most ``tol``. δ is read only where it can
    decide: when ``c·|d(x) - x|`` alone passes, or when the step did not
    shrink. There a step within δ raises ``ValueError`` if δ alone leaves
    no room for the stop.

    A plain step takes (d(x), d(d(x))) next. After one, when the steps
    Δ0, Δ1 of the last two pairs have ``|Δ1| <= c·|Δ0|`` (so Δ1 ≠ Δ0) and
    the Aitken point ``a = d(d(x)) - Δ1²/(Δ1 - Δ0)`` is finite, the next
    pair is (a, d(a)) instead. It is kept when ``|d(a) - a| <= c·|Δ1|``, a
    step as short as a plain one would be. A rejected candidate, or one
    where ``d`` raises ``ValueError``, returns the loop to the plain pair,
    and the next plain step may extrapolate again.

    The evaluations are capped by the a priori plan
    ``c**k / (1 - c) · |t_1 - t_0| <= tol``, held to :data:`_STEP_BUDGET`,
    plus one for each rejected candidate: every kept pair shortens the
    step by c, so the stop must have come by then in exact arithmetic. At
    the cap it raises ``ValueError`` when the plan is over budget.
    Otherwise, with s = |d(x) - x|, t* lies in
    [d(x) - c·s/(1 + c), d(x) + c·s/(1 - c)] for a step up (mirrored for a
    step down), and the loop returns the midpoint when
    ``(c·s/(1 + c) + δ) / (1 - c) <= tol`` bounds its error. When that
    fails, only δ blocking ``c·s <= tol·(1 - c) + 2cδ/(1 - c)`` raises
    ``ValueError``, and anything else :class:`BoundViolationError`: the
    steps shrink too slowly for ``c``.
    """
    room = tol * (1.0 - c)
    prev, t = t, d(t)
    plan = _plan_length(c, c, abs(t - prev), tol)
    cap = min(plan, _STEP_BUDGET)
    calls, last, d0, kept = 1, math.inf, None, None
    while True:
        step = abs(t - prev)
        if c * step <= room or step >= last:
            if c * step + _roundoff(step, prev, t, tol, room) <= room:
                return t
        if kept is not None and not step <= c * last:  # a rejected candidate: back to the plain pair
            (prev, t, step), cap = kept, cap + 1
        if calls == cap:
            break
        calls += 1
        a = math.nan
        if d0 is not None and step <= c * abs(d0):  # (prev, t) is a plain step from a pair with signed step d0
            d1 = t - prev
            a = t - d1 * d1 / (d1 - d0)
        if -math.inf < a < math.inf:
            kept, d0, prev, last = (prev, t, step), None, a, step
            try:
                t = d(a)
            except ValueError:  # a candidate outside the domain of d is rejected
                t = math.nan
        else:
            kept, d0, last = None, t - prev, step
            prev, t = t, d(t)
    _check_budget(plan, f"the a priori bound plans {plan} steps,")
    roundoff = _roundoff(step, prev, t, tol, room)
    if c * step / (1.0 + c) + roundoff <= room:
        return t + math.copysign(c * c * step / (1.0 - c * c), t - prev)
    if c * step <= room + 2.0 * c * roundoff / (1.0 - c):
        raise _below_resolution(tol, "roundoff blocks the stop")
    raise BoundViolationError(f"step {step:.3e} after the planned {plan} steps exceeds the certified "
                              f"{room / c:.3e} for the diagonal constant {c:.6g}")


@dataclass(frozen=True)
class FixedPointSolution:
    """Certified approximation of the diagonal fixed point."""

    value: float
    k_used: int
    trace: IterationTrace


def solve_fixed_point(
    f: SeqMap,
    x0: BoundedSeq,
    cert: ContractionCertificate,
    tol: float,
) -> FixedPointSolution:
    """Iterate to within ``tol`` of the unique diagonal fixed point.

    With c = ``cert.diagonal_lip()``, every iterate v_k satisfies
    ``|v_k - t*| <= |f(v_k, v_k, ...) - v_k| / (1 - c)``. The solve stops
    at the first k where that residual plus the roundoff δ of
    :func:`_roundoff` is at most ``tol·(1 - c)``, before it lifts again, so
    ``k_used`` lifted steps run in all. It raises ``ValueError`` there at
    once when the residual is within δ and δ alone leaves no room: ``tol``
    is below float resolution. The stop reads the rows of
    :func:`_lifted_steps` that :func:`generalized_iterates` records, so
    the solution's trace is ``generalized_iterates(f, x0, k_used, cert)``,
    row for row.

    The smallest count whose a priori bound is at most ``tol`` caps the
    run, and a plan over :data:`_STEP_BUDGET` is refused before any step.
    A run that reaches the cap double-checks its terminal residual against
    what the certificate permits, ``tol·(1 + c)/(1 - c)``, plus roundoff
    ``(1 + c)·δ/(1 - sf) + δ`` for the step factor sf; a violation, NaN
    included, means the certificate was invalid for ``f`` (or a bug) and
    raises :class:`BoundViolationError`, and only roundoff ``ValueError``.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    d1, rows = _lifted_steps(f, x0, cert)
    plan = _smallest_k(cert, d1, tol)
    c = cert.diagonal_lip()
    room = tol * (1.0 - c)
    steps = []
    for step, dv in islice(rows, plan):
        steps.append(step)
        residual = step.residual
        roundoff = _roundoff(residual, step.value, dv, tol, room)
        if residual + roundoff <= room:
            break
    else:
        allowance = tol * (1.0 + c) / (1.0 - c)
        slack = (1.0 + c) * roundoff / (1.0 - cert.step_factor()) + roundoff
        if not residual <= allowance + slack:
            raise BoundViolationError(
                f"terminal residual {residual:.3e} exceeds certified allowance {allowance + slack:.3e}"
            )
        if residual > allowance:
            raise _below_resolution(tol, "roundoff blocks the stop")
    return FixedPointSolution(step.value, step.k, IterationTrace(tuple(steps), d1))


@dataclass(frozen=True)
class SeceleanStep:
    """One diagonal-map iterate with its geometric error bound."""

    k: int
    value: float
    bound: float


def secelean_iterates(
    f: SeqMap,
    x: BoundedSeq,
    k_max: int,
    lip: float | None = None,
) -> list[SeceleanStep]:
    """Iterates y_k = f applied after k coordinatewise diagonal-map steps.

    Requires f to contract for the plain (unweighted) sup distance; ``lip``
    is that constant, by default the map's own ``lip_sup(1.0)``. The
    recorded bound is
    ``lip**(k+1) / (1 - lip) * max_i |f(x_i, x_i, ...) - x_i|``, a finite
    maximum because the start has finitely many distinct coordinates.
    Row k reads the sequence D^k x, where D maps every coordinate through
    ``f.diagonal``: row 0 reads x itself, and a run takes k_max steps of D,
    none after its last row. A ``k_max`` above :data:`_STEP_BUDGET` is
    refused before any step.
    """
    k_max = ensure_count(k_max, "k_max", 0)
    _check_budget(k_max, f"k_max {k_max} is")
    if lip is None:
        lip = f.lip_sup(1.0)
        if lip == math.inf:
            raise UncertifiedMapError(
                "cannot derive a sup-distance Lipschitz constant for this map; pass lip explicitly"
            )
    if not 0.0 <= lip < 1.0:
        raise UncertifiedMapError(f"diagonal iteration needs a sup-distance constant < 1, got {lip}")
    gap = max(abs(f.diagonal(v) - v) for v in x.values())
    seqs = accumulate(range(k_max), lambda cur, _: cur.map_values(f.diagonal), initial=x)
    return [SeceleanStep(k, f.eval(cur), lip ** (k + 1) / (1.0 - lip) * gap) for k, cur in enumerate(seqs)]


def presic_iterates(g: FiniteArityMap, seeds: tuple[float, ...], k_max: int) -> list[float]:
    """The product-space recursion x_{m+k} = g(x_{k+m-1}, ..., x_k).

    ``seeds`` are x_0 .. x_{m-1} oldest first; ``g`` receives its window
    newest first. Returns the ``k_max`` newly generated values, the first
    ``k_max`` of the window loop from the reversed seeds. When
    ``Lip(g) < 1`` for the maximum metric these converge to the unique
    value t with g(t, ..., t) = t. They are, bit for bit, the generalized
    iterates of ``g`` read as a sequence map from any start whose first m
    coordinates are the reversed seeds: :meth:`FiniteArityMap.iterates`
    runs the same loop. A seed count other than m raises ``ValueError``,
    and a ``k_max`` above :data:`_STEP_BUDGET` is refused before any step.
    """
    if len(seeds) != g.arity:
        raise ValueError(f"expected {g.arity} seeds, got {len(seeds)}")
    k_max = ensure_count(k_max, "k_max", 0)
    _check_budget(k_max, f"k_max {k_max} is")
    window = reversed([ensure_finite(s, "seed") for s in seeds])
    return list(islice(_window_loop(g, window), k_max))


@dataclass(frozen=True)
class TruncationRow:
    """One truncation arity with its fixed point, observed error, and bound."""

    n: int
    value: float
    error: float
    bound: float


@dataclass(frozen=True)
class TruncationReport:
    """Fixed points of the arity-n truncations against the full fixed point."""

    rows: tuple[TruncationRow, ...]
    reference: float


def truncation_study(
    f: SeqMap,
    cert: SupCertificate,
    base: float,
    n_max: int,
    tol: float,
) -> TruncationReport:
    """Fixed points of truncations at ``base`` for arities 1 .. n_max.

    The fixed point of the lifted map is the constant sequence at the fixed
    point of the diagonal ``t -> f(t, t, ...)``, and that of the arity-n
    truncation ``g`` is the fixed point of ``t -> g(t, ..., t)``. Both come
    from Steffensen steps on the line from ``base`` with an a posteriori
    stop: the reference at tol/1000 with ``cert.diagonal_lip()``, and each
    arity at tol/10, so the error column resolves to tol/10. Both evaluate
    through :meth:`FiniteArityMap.__call__`, the reference as an arity-1
    map of ``f.diagonal`` and each arity through the truncation's own
    :meth:`FiniteArityMap.diagonal`, so a non-finite value raises
    ``ValueError``. Freezing coordinates cannot raise a q-weighted sup
    constant, and a max-metric constant of ``g`` bounds its diagonal too,
    so arity n takes the smaller of ``cert.lip`` and ``g.lip_sup(1.0)``,
    the truncation's hint or ``inf`` without one. Every observed
    error must respect the certified bound
    ``q**n * lip / (1 - lip) * |reference - base|``; a violation raises
    :class:`BoundViolationError`. The study's work grows with the sum of its
    arities, n_max·(n_max + 1)/2, and a sum over :data:`_STEP_BUDGET` is
    refused before any evaluation, as is a certificate that is not a
    :class:`SupCertificate`.
    """
    if not isinstance(cert, SupCertificate):
        raise ValueError(f"truncation_study needs a SupCertificate, got {type(cert).__name__}")
    n_max = ensure_count(n_max, "n_max", 1)
    _check_budget(work := n_max * (n_max + 1) // 2, f"n_max {n_max} makes the arities sum to {work},")
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    base = ensure_finite(base, "base point")
    ref = _diagonal_fixed_point(FiniteArityMap(1, f.diagonal), base, cert.diagonal_lip(), tol / 1000.0)
    factor = cert.lip / (1.0 - cert.lip) * abs(ref - base)
    rows: list[TruncationRow] = []
    for n in range(1, n_max + 1):
        g = truncate(f, n, base)
        x_n = _diagonal_fixed_point(g.diagonal, base, min(cert.lip, g.lip_sup(1.0)), tol / 10.0)
        error = abs(x_n - ref)
        bound = cert.q**n * factor
        if error > bound + tol:
            raise BoundViolationError(
                f"truncation error {error:.3e} at arity {n} exceeds certified bound {bound:.3e}"
            )
        rows.append(TruncationRow(n, x_n, error, bound))
    return TruncationReport(tuple(rows), ref)


def reduce_general_weights(
    a0: float,
    ratio_bound: float,
    lip_general: float,
    p: float | None = None,
) -> ContractionCertificate | None:
    """Convert a general-weight Lipschitz constant to a geometric certificate.

    For positive weights whose consecutive ratios stay below
    ``ratio_bound < 1`` the weights are dominated by ``a0 * ratio_bound**n``,
    so a constant for the general weighted sup distance yields a sup
    certificate at q = ratio_bound when ``a0 * lip_general < 1``, and a
    constant for the general weighted power distance yields a power
    certificate when ``lip_general < ((1 - ratio_bound) / a0)**(1/p)``.
    Returns None when the corresponding condition fails.
    """
    a0 = ensure_finite(a0, "a0")
    if a0 <= 0.0:
        raise ValueError(f"a0 must be positive, got {a0}")
    ratio_bound = ensure_weight(ratio_bound, "ratio bound")
    lip_general = ensure_finite(lip_general, "lip")
    if lip_general < 0.0:
        raise ValueError(f"lip must be nonnegative, got {lip_general}")
    if p is None:
        lip_geo = a0 * lip_general
        return SupCertificate(ratio_bound, lip_geo) if lip_geo < 1.0 else None
    p = ensure_exponent(p)
    return _p_certificate(p, ratio_bound, a0 ** (1.0 / p) * lip_general)
