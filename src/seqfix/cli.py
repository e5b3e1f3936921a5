"""Config-driven batch front end.

Reads a JSON list of problems, runs each one (certify / solve / trace /
secelean / truncate / compare), writes one CSV table per problem plus a
config echo into the output directory, and prints one summary line per
problem. Exit status: 0 on success, 1 on a config error or an unusable
output directory, 2 when a problem that needs certification turns out
uncertifiable, 3 when a certified bound is violated during a run or a
problem fails with any other exception (a defect, reported as ``bug``).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections.abc import Mapping
from dataclasses import dataclass, fields
from pathlib import Path
from types import MappingProxyType

from .maps import FiniteArityMap, LinearSeqMap, SeqMap, SupHalfMap, _lip_lower_bounds
from .sequences import BoundedSeq, _left_sum, ensure_finite
from .solver import (
    BoundViolationError,
    IterationTrace,
    SupCertificate,
    UncertifiedMapError,
    find_p_certificate,
    find_sup_certificate,
    generalized_iterates,
    secelean_iterates,
    solve_fixed_point,
    truncation_study,
)

_PROBLEM_KEYS = ("id", "map", "initial", "tolerance", "mode")
_ID_PATTERN = re.compile(r"^[A-Za-z0-9._-]+$")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_UNCERTIFIED = 2
EXIT_BOUND_VIOLATION = 3


class ConfigError(ValueError):
    """Malformed or incomplete problem configuration."""


def _fmt(v: float | None) -> str:
    return "" if v is None else format(float(v), ".17g")


@dataclass(frozen=True)
class ProblemConfig:
    """One problem as its normalized config entry: a map, a starting sequence, a tolerance, and a mode.

    ``initial`` is ``{"prefix": (...), "tail": t}``, lists are tuples,
    mappings are read-only, and the mode's fields that the entry leaves out
    are None.
    """

    id: str
    map: Mapping
    initial: Mapping
    tolerance: float
    mode: str
    k_max: int | None = None
    n_max: int | None = None
    base: float | None = None
    q0: float | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> ProblemConfig:
        if not isinstance(raw, dict):
            raise ConfigError(f"problem entry must be an object, got {type(raw).__name__}")
        try:
            pid, map_spec, initial, tolerance, mode = (raw[key] for key in _PROBLEM_KEYS)
        except KeyError as e:
            raise ConfigError(f"problem missing required field {e.args[0]!r}") from None
        if not isinstance(pid, str) or not _ID_PATTERN.fullmatch(pid):
            raise ConfigError(f"problem id must match {_ID_PATTERN.pattern}, got {pid!r}")
        try:
            if not isinstance(mode, str) or mode not in _MODES:
                raise ConfigError(f"unknown mode {mode!r}")
            _check_keys(raw, _PROBLEM_KEYS + _MODES[mode][1] + _MODES[mode][2], "the problem")
            tolerance = _number(tolerance, "tolerance")
            if not tolerance > 0.0:
                raise ConfigError("tolerance must be positive")
            map_spec = _normalize_map_spec(map_spec)
            if not isinstance(initial, dict):
                raise ConfigError("initial must be an object")
            _check_keys(initial, ("prefix", "tail"), "initial")
            initial = MappingProxyType({"prefix": _numbers(initial.get("prefix", []), "initial prefix"),
                                        "tail": _number(initial.get("tail", 0.0), "initial tail")})
            k_max = _integer(raw.get("k_max"), "k_max")
            n_max = _integer(raw.get("n_max"), "n_max")
            base = None if raw.get("base") is None else _number(raw["base"], "base")
            q0 = None if raw.get("q0") is None else _number(raw["q0"], "q0")
            config = cls(pid, map_spec, initial, tolerance, mode, k_max=k_max, n_max=n_max, base=base, q0=q0)
            for field in _MODES[mode][1]:  # a count must be positive, the base point any number
                value = getattr(config, field)
                if value is None or field != "base" and value < 1:
                    need = "a base point" if field == "base" else f"a positive {field}"
                    raise ConfigError(f"mode {mode!r} needs {need}")
            if q0 is not None and not 0.0 < q0 < 1.0:
                raise ConfigError("q0 must lie in (0, 1)")
        except (TypeError, ValueError) as e:
            raise ConfigError(f"problem {pid!r}: {e}") from None
        return config

    def to_dict(self) -> dict:
        """The normalized entry: every field that is not None, in new dicts."""
        return {f.name: value for f in fields(self) if (value := getattr(self, f.name)) is not None} | {
            "map": {kind: dict(params) for kind, params in self.map.items()}, "initial": dict(self.initial)}

    def initial_seq(self) -> BoundedSeq:
        return BoundedSeq(self.initial["prefix"], self.initial["tail"])

    def build_map(self) -> SeqMap:
        kind, params = next(iter(self.map.items()))
        return _MAP_KINDS[kind][2](params)


def _number(value: object, what: str) -> float:
    """``value`` as a finite float; only a JSON number is one, not a string or a boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        return ensure_finite(value, what)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{what} is too large") from None


def _numbers(values: object, what: str) -> tuple[float, ...]:
    """A JSON list of numbers, or ``to_dict``'s tuple, each checked by :func:`_number`."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{what} must be a list, got {values!r}")
    return tuple(_number(v, f"{what} entry") for v in values)


def _integer(value: object, what: str) -> int | None:
    """``value`` as an int (None stays None); only an integral JSON number is one."""
    if value is None:
        return None
    if not _number(value, what).is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _check_keys(obj: dict, allowed: tuple[str, ...], where: str) -> None:
    """Reject every key of ``obj`` that is not in ``allowed``, so that no misspelled or unread key passes silently."""
    unknown = [key for key in obj if key not in allowed]
    if unknown:
        raise ConfigError(f"unknown key {', '.join(map(repr, unknown))} in {where}; "
                          f"allowed: {', '.join(allowed) or 'none'}")


def _normalize_map_spec(spec: object) -> Mapping:
    """The map entry with normalized, read-only parameters, checked by building the map from them once."""
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError("map must be an object with exactly one kind")
    kind, params = next(iter(spec.items()))
    if not isinstance(params, dict):
        raise ConfigError("map parameters must be an object")
    if kind not in _MAP_KINDS:
        raise ConfigError(f"unknown map kind {kind!r}")
    keys, normalize, build = _MAP_KINDS[kind]
    _check_keys(params, keys, f"{kind} map")
    params = normalize(params)
    build(params)  # the map checks its own parameters, such as |tail_ratio| < 1
    return MappingProxyType({kind: MappingProxyType(params)})


def _normalize_linear(params: dict) -> dict:
    return {
        "head_coeffs": _numbers(params.get("head_coeffs", []), "head_coeffs"),
        "tail_coeff": _number(params.get("tail_coeff", 0.0), "tail_coeff"),
        "tail_ratio": _number(params.get("tail_ratio", 0.0), "tail_ratio"),
        "offset": _number(params.get("offset", 0.0), "offset"),
    }


def _normalize_presic(params: dict) -> dict:
    rule = params.get("rule")
    if rule != "affine":
        raise ConfigError(f"unknown presic rule {rule!r} (supported: 'affine')")
    coeffs = _numbers(params.get("coeffs", []), "coeffs")
    arity = _integer(params.get("arity", len(coeffs)), "presic arity")
    if arity != len(coeffs):
        raise ConfigError("presic arity must match len(coeffs)")
    offset = _number(params.get("offset", 0.0), "offset")
    return {"rule": "affine", "arity": arity, "coeffs": coeffs, "offset": offset}


def _build_presic(params: dict) -> SeqMap:
    coeffs = params["coeffs"]
    offset = params["offset"]

    def rule(*args: float) -> float:
        return _left_sum(c * a for c, a in zip(coeffs, args)) + offset

    return FiniteArityMap(len(coeffs), rule, _left_sum(map(abs, coeffs)))


#: map kind -> (its parameter keys, normalize its parameters, build the map from them)
_MAP_KINDS = {
    "linear": (("head_coeffs", "tail_coeff", "tail_ratio", "offset"), _normalize_linear,
               lambda params: LinearSeqMap(**params)),
    "sup_half": ((), lambda params: {}, lambda params: SupHalfMap()),
    "presic": (("rule", "arity", "coeffs", "offset"), _normalize_presic, _build_presic),
}


def parse_config(text: str) -> list[ProblemConfig]:
    """Parse and validate a JSON config document."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as e:  # a JSONDecodeError, a too long integer literal, or too deep nesting
        raise ConfigError(f"invalid JSON: {e}") from None
    if not isinstance(raw, dict) or "problems" not in raw:
        raise ConfigError("config must be an object with a 'problems' list")
    _check_keys(raw, ("problems",), "config")
    problems = raw["problems"]
    if not isinstance(problems, list):
        raise ConfigError("'problems' must be a list")
    parsed = [ProblemConfig.from_dict(entry) for entry in problems]
    seen: set[str] = set()
    for p in parsed:
        if p.id in seen:
            raise ConfigError(f"duplicate problem id {p.id!r}")
        seen.add(p.id)
    return parsed


def config_to_dict(problems: list[ProblemConfig]) -> dict:
    """Normalized config document; reparsing it yields equal ProblemConfigs."""
    return {"problems": [p.to_dict() for p in problems]}


_TRACE_HEADER = "k,x_k,bound,residual"


def _trace_rows(trace: IterationTrace) -> list[str]:
    return [f"{s.k},{_fmt(s.value)},{_fmt(s.bound)},{_fmt(s.residual)}" for s in trace.steps]


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n")


def _certified(f: SeqMap) -> SupCertificate:
    """The sup certificate of ``f``; without one, :class:`UncertifiedMapError`.

    ``run`` reports that as ``FAILED uncertified`` with exit 2.
    """
    cert = find_sup_certificate(f)
    if cert is None:
        raise UncertifiedMapError("uncertified")
    return cert


def _certify(p: ProblemConfig, f: SeqMap, seed: int) -> tuple[str, list[str]]:
    """Each certificate's row with its empirical lower bound; every row scores the same 200 pairs from ``seed``.

    The rows come from one list of (family, certificate, p), where p is None
    for the sup family and so writes an empty p column.
    """
    cert = find_sup_certificate(f)
    if cert is None:
        return "UNCERTIFIED", []
    pc = None if p.q0 is None else find_p_certificate(f, p.q0)
    certs = [("sup", cert, None)] + ([] if pc is None else [("p", pc, pc.p)])
    emps = _lip_lower_bounds(f, [(c.q, fp) for _, c, fp in certs], 200, seed)
    rows = [f"{family},{_fmt(c.q)},{_fmt(fp)},{_fmt(c.lip)},{_fmt(e)}" for (family, c, fp), e in zip(certs, emps)]
    return f"OK q={cert.q:.12g} lip={cert.lip:.12g}", rows


def _solve(p: ProblemConfig, f: SeqMap, seed: int) -> tuple[str, list[str]]:
    sol = solve_fixed_point(f, p.initial_seq(), _certified(f), p.tolerance)
    return f"x_star={sol.value:.12g} k_used={sol.k_used}", _trace_rows(sol.trace)


def _trace(p: ProblemConfig, f: SeqMap, seed: int) -> tuple[str, list[str]]:
    trace = generalized_iterates(f, p.initial_seq(), p.k_max, find_sup_certificate(f))
    return f"x_final={trace.steps[-1].value:.12g} k_used={p.k_max}", _trace_rows(trace)


def _secelean(p: ProblemConfig, f: SeqMap, seed: int) -> tuple[str, list[str]]:
    rows = secelean_iterates(f, p.initial_seq(), p.k_max)
    return f"y_final={rows[-1].value:.12g} k_used={p.k_max}", [f"{r.k},{_fmt(r.value)},{_fmt(r.bound)}" for r in rows]


def _truncate(p: ProblemConfig, f: SeqMap, seed: int) -> tuple[str, list[str]]:
    report = truncation_study(f, _certified(f), p.base, p.n_max, p.tolerance)
    last = report.rows[-1]
    return (f"x_star={report.reference:.12g} n_max={last.n} error={last.error:.12g}",
            [f"{r.n},{_fmt(r.value)},{_fmt(r.error)},{_fmt(r.bound)}" for r in report.rows])


def _compare(p: ProblemConfig, f: SeqMap, seed: int) -> tuple[str, list[str]]:
    """Generalized iterates side by side with diagonal-map iterates."""
    gen = generalized_iterates(f, p.initial_seq(), p.k_max)
    sec = secelean_iterates(f, p.initial_seq(), p.k_max)
    rows = [f"0,,{_fmt(sec[0].value)}"] + [f"{s.k},{_fmt(s.value)},{_fmt(sec[s.k].value)}" for s in gen.steps]
    return f"x_final={gen.steps[-1].value:.12g} y_final={sec[-1].value:.12g}", rows


#: mode -> (CSV header, required fields, optional fields, runner (problem, map, seed) -> (summary, CSV rows))
_MODES = {
    "certify": ("family,q,p,lip,empirical_lower_bound", (), ("q0",), _certify),
    "solve": (_TRACE_HEADER, (), (), _solve),
    "trace": (_TRACE_HEADER, ("k_max",), (), _trace),
    "secelean": ("k,y_k,bound", ("k_max",), (), _secelean),
    "truncate": ("n,x_n,error,bound", ("n_max", "base"), (), _truncate),
    "compare": ("k,x_k,y_k", ("k_max",), (), _compare),
}


def _run_problem(p: ProblemConfig, out_dir: Path, seed: int) -> str:
    """Run one problem, write its table and return its summary line; a failure raises and writes no table."""
    header, _, _, runner = _MODES[p.mode]
    summary, rows = runner(p, p.build_map(), seed)
    _write_lines(out_dir / f"{p.id}.csv", [header] + rows)
    return f"{p.id} {p.mode} {summary}"


def run(config_path: str, out_dir: str, seed: int = 0) -> int:
    """Execute every problem in the config; returns the process exit status."""
    try:
        text = Path(config_path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: cannot read config {config_path}: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        problems = parse_config(text)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(out_dir)
    worst = EXIT_OK
    try:
        out.mkdir(parents=True, exist_ok=True)
        if problems:
            _write_lines(out / "config_echo.json",
                         [json.dumps(config_to_dict(problems), indent=2, sort_keys=True)])
        for p in problems:
            try:
                summary, status = _run_problem(p, out, seed), EXIT_OK
            except BoundViolationError as e:
                summary, status = f"{p.id} {p.mode} FAILED bound-violation: {e}", EXIT_BOUND_VIOLATION
            except (UncertifiedMapError, ValueError) as e:
                summary, status = f"{p.id} {p.mode} FAILED {e}", EXIT_UNCERTIFIED
            except OSError:  # a table that cannot be written: the handler below exits 1
                raise
            except Exception as e:  # a defect in seqfix: report it and go on with the next problem
                summary, status = f"{p.id} {p.mode} FAILED bug: {type(e).__name__}: {e}", EXIT_BOUND_VIOLATION
            print(summary)
            worst = max(worst, status)
    except OSError as e:
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return EXIT_CONFIG
    return worst


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        prog="seqfix",
        description="Run fixed-point certification and iteration problems from a JSON config.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON problem list")
    parser.add_argument("--out", default=".", help="directory for output CSV tables")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized diagnostics")
    args = parser.parse_args(argv)
    sys.exit(run(args.config, args.out, args.seed))


if __name__ == "__main__":
    main()
