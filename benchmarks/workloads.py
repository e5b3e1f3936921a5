"""The benchmark's workloads: seeded inputs, one operation each, answer checks.

Every workload is a closed loop with one client: the harness calls
``call`` on one input, waits for it to return, checks the answer with
``check`` and only then moves to the next input. ``build`` draws all
inputs from the seed, so the library only ever receives generated
objects. Library functions are looked up on the ``seqfix`` modules at call
time, so a traced run sees the wrappers it installs there.

Input parameters that set an operation's cost (the coefficient mass
sum |b_n| and the head length) are stratified: input i of n draws its value
from the i-th of n equal slices of the range. Runs with different seeds
therefore see the same mix of easy and hard inputs, which keeps the
per-run medians steady while each input stays random.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

import seqfix

HERE = Path(__file__).resolve().parent
CLI_CONFIG = HERE / "cli_batch.json"
CLI_EXPECTED = HERE / "cli_batch_expected.json"

SOLVE_TOL = 1e-9
#: tolerance of the planned step count that certify-sweep reports
PLAN_TOL = 1e-6
#: relative roundoff allowed when an empirical Lipschitz bound is compared
#: with the analytic constant; the deepest witness realizes the constant up
#: to summation order, and no sound certificate comes within 1e-12 of that
EMPIRICAL_SLACK = 1e-12

#: header of each mode's CSV table, as documented in README.md
CSV_HEADERS = {
    "certify": "family,q,p,lip,empirical_lower_bound",
    "solve": "k,x_k,bound,residual",
    "trace": "k,x_k,bound,residual",
    "secelean": "k,y_k,bound",
    "truncate": "n,x_n,error,bound",
    "compare": "k,x_k,y_k",
}


@dataclass(frozen=True)
class Verdict:
    """Outcome of one answer check."""

    ok: bool
    #: lifted or recursion steps the operation took (or plans) to reach tolerance
    steps: int = 0
    #: actual error of each solve divided by its tolerance, the largest one
    err_over_tol: float = 0.0
    reason: str = ""


def _stratum(rng: random.Random, i: int, n: int, lo: float, hi: float) -> float:
    return lo + (hi - lo) * (i + rng.random()) / n


def _split(rng: random.Random, total: float, parts: int) -> list[float]:
    weights = [rng.random() + 0.05 for _ in range(parts)]
    scale = total / sum(weights)
    return [w * scale for w in weights]


def _decaying(rng: random.Random, total: float, parts: int) -> list[float]:
    """``parts`` values summing to ``total``, each a random factor in [0.3, 0.6] below the last."""
    decay = rng.uniform(0.3, 0.6)
    weights = [decay**k for k in range(parts)]
    scale = total / sum(weights)
    return [w * scale for w in weights]


def _sign(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0))


def _signed_tail(rng: random.Random, mass: float, max_ratio: float) -> tuple[float, float]:
    """(tail_coeff, tail_ratio) with random signs whose |b_n| sum to ``mass``."""
    ratio = _sign(rng) * rng.uniform(0.1, max_ratio)
    return _sign(rng) * mass * (1.0 - abs(ratio)), ratio


# ---------------------------------------------------------------- slow-solve

#: generated maps per head length (1, 2 and 3 coefficients)
SLOW_SOLVE_PER_HEAD = 66
#: the fixed slow map 0.49*x0 + 0.49*x1 + 1 (2521 steps at tol 1e-9)
SLOW_MAP = dict(head_coeffs=(0.49, 0.49), tail_coeff=0.0, tail_ratio=0.0, offset=1.0)


class SlowSolve:
    """find_sup_certificate, then solve_fixed_point at tol 1e-9, near the contraction edge.

    Maps have sum |b_n| in [0.80, 0.93], 1-3 decaying positive head
    coefficients, a signed geometric tail and an offset of magnitude 1-2;
    the fixed slow map is one more input. Each solve starts from a seeded
    sequence with a 1-4 entry prefix.

    sum |b_n| is stratified within each head length. Heads decay so that
    the certificate's step factor follows sum |b_n|: when late coefficients
    carry the mass, the certificate's q is pushed near 1 and the step count
    swings by 2x with small changes of the split, which made the tail of
    one seed's inputs unlike the next seed's.
    """

    name = "slow-solve"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        per = SLOW_SOLVE_PER_HEAD
        maps = []
        for i in range(3 * per):
            mass = _stratum(rng, i // 3, per, 0.80, 0.93)
            tail_mass = mass * rng.uniform(0.1, 0.3)
            tail_coeff, tail_ratio = _signed_tail(rng, tail_mass, 0.5)
            maps.append(seqfix.LinearSeqMap(
                head_coeffs=tuple(_decaying(rng, mass - tail_mass, 1 + i % 3)),
                tail_coeff=tail_coeff,
                tail_ratio=tail_ratio,
                offset=_sign(rng) * rng.uniform(1.0, 2.0),
            ))
        maps.append(seqfix.LinearSeqMap(**SLOW_MAP))
        self.inputs = []
        for f in maps:
            prefix = tuple(rng.uniform(-1.0, 1.0) for _ in range(rng.randint(1, 4)))
            self.inputs.append((f, seqfix.BoundedSeq(prefix, rng.uniform(-1.0, 1.0))))
        rng.shuffle(self.inputs)

    def call(self, inp, out_dir: Path):
        f, x0 = inp
        cert = seqfix.find_sup_certificate(f)
        return seqfix.solve_fixed_point(f, x0, cert, SOLVE_TOL)

    def check(self, inp, out_dir: Path, sol) -> Verdict:
        f, _ = inp
        ratio = abs(sol.value - f.fixed_point()) / SOLVE_TOL
        if not ratio <= 1.0:
            return Verdict(False, sol.k_used, ratio, f"error {ratio:.3g} x tol")
        return Verdict(True, sol.k_used, ratio)


# ------------------------------------------------------------- certify-sweep

CERTIFY_MAPS = 200
CERTIFY_Q0 = 0.5
CERTIFY_TRIALS = 200
MAX_HEAD = 64
#: coprime to CERTIFY_MAPS, so head lengths and sum |b_n| strata pair up evenly
LATTICE_STEP = 77


def planned_steps(cert, tol: float = PLAN_TOL) -> int:
    """Smallest k whose a priori bound is at most ``tol`` for a unit first step."""
    k = 1
    while cert.a_priori_bound(k, 1.0) > tol:
        k *= 2
    lo, hi = k // 2, k  # bound(lo) > tol >= bound(hi), or lo == 0 when k == 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if cert.a_priori_bound(mid, 1.0) > tol:
            lo = mid
        else:
            hi = mid
    return hi


class CertifySweep:
    """The library calls of the CLI's certify mode with q0, without a solve.

    Maps have sum |b_n| in [0.2, 0.9], 1-64 signed head coefficients and a
    signed geometric tail; every head length and every sum |b_n| stratum
    occurs equally often. One operation runs find_sup_certificate, the
    sup-family empirical bound (200 trials), find_p_certificate at q0=0.5
    and the p-family empirical bound.
    """

    name = "certify-sweep"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        n = CERTIFY_MAPS
        self.inputs = []
        for i in range(n):
            # a fixed lattice of (head length, sum |b_n| stratum) pairs
            heads = 1 + (MAX_HEAD * i) // n
            mass = _stratum(rng, (LATTICE_STEP * i) % n, n, 0.2, 0.9)
            tail_mass = mass * rng.uniform(0.05, 0.4)
            tail_coeff, tail_ratio = _signed_tail(rng, tail_mass, 0.6)
            head = tuple(_sign(rng) * b for b in _split(rng, mass - tail_mass, heads))
            f = seqfix.LinearSeqMap(head, tail_coeff, tail_ratio, rng.uniform(-2.0, 2.0))
            self.inputs.append((f, rng.randrange(2**31)))
        rng.shuffle(self.inputs)

    def call(self, inp, out_dir: Path):
        f, seed = inp
        cert = seqfix.find_sup_certificate(f)
        emp = None if cert is None else seqfix.empirical_lip_lower_bound(
            f, cert.q, trials=CERTIFY_TRIALS, seed=seed)
        pcert = seqfix.find_p_certificate(f, CERTIFY_Q0)
        emp_p = None if pcert is None else seqfix.empirical_lip_lower_bound(
            f, pcert.q, p=pcert.p, trials=CERTIFY_TRIALS, seed=seed)
        return cert, emp, pcert, emp_p

    def check(self, inp, out_dir: Path, result) -> Verdict:
        cert, emp, pcert, emp_p = result
        if cert is None or pcert is None:
            return Verdict(False, reason="no certificate for a map with sum |b_n| < 1")
        steps = planned_steps(cert)
        for family, lip, lower in (("sup", cert.lip, emp), ("p", pcert.lip, emp_p)):
            if not lower <= lip * (1.0 + EMPIRICAL_SLACK):
                return Verdict(False, steps, reason=f"{family} lip {lip!r} below empirical bound {lower!r}")
        return Verdict(True, steps)


# ----------------------------------------------------------------- cli-batch


def closed_form_fixed_point(map_spec: dict) -> float:
    """offset / (1 - sum of coefficients) of a linear or affine presic map spec."""
    kind, params = next(iter(map_spec.items()))
    if kind == "linear":
        total = sum(params["head_coeffs"]) + params["tail_coeff"] / (1.0 - params["tail_ratio"])
    elif kind == "presic":
        total = sum(params["coeffs"])
    else:
        raise ValueError(f"no closed form for map kind {kind!r}")
    return params["offset"] / (1.0 - total)


#: batch runs per pass, each with its own CLI --seed
CLI_RUNS = 50


class CliBatch:
    """In-process seqfix.cli.run of the committed batch into a fresh directory.

    The batch covers all six modes and all three map kinds. One operation
    is one run of the whole batch; the inputs are 50 CLI --seed values
    drawn from the benchmark seed, which drive the CLI's randomized certify
    diagnostics. Fifty inputs give the tail a fixed percentile (p80)
    whatever the host's speed.
    """

    name = "cli-batch"

    def __init__(self, seed: int) -> None:
        # imported here, so only this workload's set-up pays for it
        self.cli = importlib.import_module("seqfix.cli")
        rng = random.Random(seed)
        self.problems = self.cli.parse_config(CLI_CONFIG.read_text())
        self.expected = json.loads(CLI_EXPECTED.read_text())
        self.inputs = [(str(CLI_CONFIG), rng.randrange(2**31)) for _ in range(CLI_RUNS)]

    def call(self, inp, out_dir: Path):
        config, cli_seed = inp
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = self.cli.run(config, str(out_dir), cli_seed)
        return status, out.getvalue()

    def check(self, inp, out_dir: Path, result) -> Verdict:
        status, stdout = result
        if status != self.cli.EXIT_OK:
            return Verdict(False, reason=f"exit status {status}: {stdout!r}")
        tables = {p.name for p in out_dir.glob("*.csv")}
        wanted = {f"{p.id}.csv" for p in self.problems}
        if tables != wanted:
            return Verdict(False, reason=f"tables {sorted(tables)} != {sorted(wanted)}")
        echo = self.cli.parse_config((out_dir / "config_echo.json").read_text())
        if echo != self.problems:
            return Verdict(False, reason="config_echo.json does not reparse to the same problems")
        steps = 0
        worst = 0.0
        for p in self.problems:
            lines = (out_dir / f"{p.id}.csv").read_text().splitlines()
            if lines[0] != CSV_HEADERS[p.mode]:
                return Verdict(False, reason=f"{p.id}: header {lines[0]!r}")
            if p.mode != "solve":
                continue
            x_star = float(lines[-1].split(",")[1])
            ratio = abs(x_star - self.expected[p.id]) / p.tolerance
            worst = max(worst, ratio)
            steps += len(lines) - 1
            if not ratio <= 1.0:
                return Verdict(False, steps, worst, f"{p.id}: x_star {x_star!r} off by {ratio:.3g} x tol")
        return Verdict(True, steps, worst)


WORKLOADS = {w.name: w for w in (SlowSolve, CertifySweep, CliBatch)}


def build(name: str, seed: int):
    """The named workload with its inputs drawn from ``seed``."""
    return WORKLOADS[name](seed)
