"""Layer tracing for the benchmark's traced runs.

The layers are the ``seqfix`` modules. :class:`Tracer` wraps the public
entry points of each module from outside the package: class methods are
replaced on their class, and module functions in every ``seqfix`` module
that imported them by name (``solver`` and ``cli`` bind their imports
directly). A wrapper does nothing but call through unless an operation is
open, so the harness's own answer checks are not counted.

Per call, a wrapper adds the call count, busy time and self time (busy time
minus the part its wrapped children cover) to totals per entry point, and
counts the (caller, callee) edge; the leaf calls skip the edge. Only operations and the first-level
layer calls inside them become spans; the hot inner calls (``coeff_at``,
``BoundedSeq`` construction, ``eval``) are aggregated per operation, since
one slow-solve pass makes millions of them.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


def _prefix_len(args, kwargs, result) -> int:
    return len(args[1]) if len(args) > 1 else len(kwargs.get("prefix", ()))


def _found(args, kwargs, result) -> int:
    return result is not None


def _k_used(args, kwargs, result) -> int:
    return result.k_used


def _targets(modules: dict) -> list:
    """(key, owner, attribute, amount, leaf) for every traced entry point.

    ``amount`` maps (args, kwargs, result) to a number summed per key.
    ``leaf`` marks the hot calls that reach no other traced entry point;
    they get a cheaper wrapper that records no caller edge.
    """
    seq, met, maps, sol = (modules[f"seqfix.{m}"] for m in ("sequences", "metrics", "maps", "solver"))
    targets = [
        ("sequences.construct", seq.BoundedSeq, "__init__", _prefix_len, True),
        ("sequences.prepend", seq.BoundedSeq, "prepend", None, False),
        *((f"metrics.{name}", met, name, None, False) for name in
          ("dist_sup_geom", "dist_p_geom", "dist_sup_weighted", "dist_p_weighted")),
        *(("maps.eval", cls, "eval", None, False) for cls in (maps.LinearSeqMap, maps.SupHalfMap, maps.EmbeddedMap)),
        ("maps.coeff_at", maps.LinearSeqMap, "coeff_at", None, True),
        ("maps.lip_sup", maps.LinearSeqMap, "lip_sup", None, False),
        ("maps.lip_p", maps.LinearSeqMap, "lip_p", None, False),
        ("maps.empirical", maps, "empirical_lip_lower_bound", None, False),
        ("solver.find_sup_certificate", sol, "find_sup_certificate", _found, False),
        ("solver.find_p_certificate", sol, "find_p_certificate", _found, False),
        ("solver.lift_step", sol, "lift_step", None, False),
        ("solver.solve_fixed_point", sol, "solve_fixed_point", _k_used, False),
        ("solver.presic_iterates", sol, "presic_iterates", None, False),
        ("solver.truncation_study", sol, "truncation_study", None, False),
    ]
    cli = modules.get("seqfix.cli")
    if cli is not None:
        targets += [("cli.parse_config", cli, "parse_config", None, False), ("cli.run", cli, "run", None, False)]
    return targets


CALLS, BUSY, SELF, AMOUNT = range(4)


class Tracer:
    """Spans and per-entry-point totals for the operations run while installed."""

    def __init__(self) -> None:
        #: key -> [calls, busy seconds, self seconds, summed amount]
        self.stats: dict[str, list] = {}
        #: (caller key, callee key) -> calls, for non-leaf callees
        self.edges: Counter = Counter()
        self.spans: list[dict] = []
        self.ops = 0
        self._stack: list[list] = []  # frames: [key, seconds covered by children, ...]
        self._restore: list[tuple] = []

    def install(self) -> None:
        """Wrap every entry point of the loaded ``seqfix`` modules."""
        modules = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "seqfix"}
        for key, owner, attr, amount, leaf in _targets(modules):
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(key, original, amount, leaf))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(key, original, amount, leaf)
            for mod in modules.values():
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, key: str, fn, amount, leaf: bool):
        stack, edges, spans = self._stack, self.edges, self.spans
        stat = self.stats.setdefault(key, [0, 0.0, 0.0, 0])

        def span(parent: list, t0: float, t1: float) -> None:
            spans.append({"id": len(spans), "name": key, "start": t0, "end": t1,
                          "parent": parent[2], "op": parent[3]})

        def leaf_wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                parent = stack[-1]
                parent[1] += dur
                stat[CALLS] += 1
                stat[BUSY] += dur
                stat[SELF] += dur
                if len(stack) == 1:
                    span(parent, t0, t1)
            if amount is not None:
                stat[AMOUNT] += amount(args, kwargs, result)
            return result

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [key, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                stat[CALLS] += 1
                stat[BUSY] += dur
                stat[SELF] += dur - frame[1]
                edges[parent[0], key] += 1
                if len(stack) == 1:
                    span(parent, t0, t1)
            if amount is not None:
                stat[AMOUNT] += amount(args, kwargs, result)
            return result

        return leaf_wrapper if leaf else wrapper

    @contextmanager
    def operation(self, op_id: int):
        """Open one operation: the span every first-level layer call hangs from.

        The operation's span also carries, per entry point, the calls made
        and the busy seconds spent during it.
        """
        span_id = len(self.spans)
        span = {"id": span_id, "name": "op", "start": perf_counter(), "end": None, "parent": None, "op": op_id}
        self.spans.append(span)
        before = {k: (s[CALLS], s[BUSY]) for k, s in self.stats.items()}
        self._stack.append(["op", 0.0, span_id, op_id])
        try:
            yield
        finally:
            self._stack.pop()
            span["end"] = perf_counter()
            span["layers"] = {k: [s[CALLS] - before[k][0], s[BUSY] - before[k][1]]
                              for k, s in self.stats.items() if s[CALLS] > before[k][0]}
            self.ops += 1


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per traced operation, as name -> (value, unit)."""
    n = max(tr.ops, 1)
    zero = [0, 0.0, 0.0, 0]

    def total(field: int, *keys: str) -> float:
        return sum(tr.stats.get(k, zero)[field] for k in keys)

    def per_op(field: int, *keys: str) -> float:
        return total(field, *keys) / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metric_keys = [k for k in tr.stats if k.startswith("metrics.")]
    certs = ("solver.find_sup_certificate", "solver.find_p_certificate")
    cert_lips = sum(v for (caller, callee), v in tr.edges.items() if caller in certs and callee.startswith("maps.lip_"))
    outer_dists = sum(v for (caller, callee), v in tr.edges.items()
                      if callee in metric_keys and caller not in metric_keys)
    lifts = total(CALLS, "solver.lift_step")
    return {
        "sequences.construct_calls": (per_op(CALLS, "sequences.construct"), "count/op"),
        "sequences.entries_validated": (per_op(AMOUNT, "sequences.construct"), "count/op"),
        "sequences.prepend_calls": (per_op(CALLS, "sequences.prepend"), "count/op"),
        "sequences.self_s": (per_op(SELF, "sequences.construct", "sequences.prepend"), "s/op"),
        "metrics.dist_calls": (outer_dists / n, "count/op"),
        "metrics.self_s": (per_op(SELF, *metric_keys), "s/op"),
        "maps.eval_calls": (per_op(CALLS, "maps.eval"), "count/op"),
        "maps.coeff_at_calls": (per_op(CALLS, "maps.coeff_at"), "count/op"),
        "maps.eval_self_s": (per_op(SELF, "maps.eval", "maps.coeff_at"), "s/op"),
        "maps.lip_calls": (per_op(CALLS, "maps.lip_sup", "maps.lip_p"), "count/op"),
        "maps.lip_self_s": (per_op(SELF, "maps.lip_sup", "maps.lip_p"), "s/op"),
        "maps.empirical_self_s": (per_op(SELF, "maps.empirical"), "s/op"),
        "solver.certify_s": (per_op(BUSY, *certs), "s/op"),
        "solver.lip_evals_per_cert": (ratio(cert_lips, total(CALLS, *certs)), "count"),
        "solver.cert_found_ratio": (ratio(total(AMOUNT, *certs), total(CALLS, *certs)), "ratio"),
        "solver.lift_steps": (lifts / n, "count/op"),
        "solver.useful_step_ratio": (ratio(total(AMOUNT, "solver.solve_fixed_point"), lifts), "ratio"),
        "solver.iterate_self_s": (per_op(SELF, "solver.solve_fixed_point", "solver.lift_step",
                                         "solver.presic_iterates"), "s/op"),
        "solver.truncation_s": (per_op(BUSY, "solver.truncation_study"), "s/op"),
        "cli.parse_s": (per_op(BUSY, "cli.parse_config"), "s/op"),
        "cli.self_s": (per_op(SELF, "cli.run"), "s/op"),
    }
