"""One-edit mutants of seqfix's promise-keeping code, each run against the tests that must kill it.

Run from the repository root, with pytest and hypothesis installed::

    python tests/mutants.py

Each row of ``MUTANTS`` names a file under ``src/seqfix``, an exact piece
of its source text, the text that replaces it, and the pytest node ids
that must fail on the result. Every mutant runs in a fresh temporary copy
of ``src``, ``tests`` and ``pyproject.toml``, with bytecode writing off, so
no mutant reads another's cache. A failing run kills the mutant. The
unmutated copy runs every listed test first, since a test that fails
there kills nothing. The script prints one line per mutant, then a count,
and exits 1 if the unmutated copy fails, a row's text is not found
exactly once, or any mutant survives. It uses only the standard library
and is not collected by pytest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SOLVER, MAPS = "solver.py", "maps.py"
AT_CAP = "tests/test_solver.py::test_the_at_cap_allowance_separates_a_return_from_roundoff_and_a_violation"
OUT_OF_RANGE = "tests/test_solver.py::test_out_of_range_arguments_raise"
CAPPED_RUN = "tests/test_truncation.py::test_a_run_that_reaches_its_cap_returns_the_enclosure_midpoint"
P1_WITNESS = "tests/test_maps.py::test_one_p1_witness_gives_the_bound_of_every_unit_vector"
HEAD_READS = "tests/test_maps.py::test_eval_reads_the_live_coordinates_and_only_the_head_through_coeff_at"
LIVE_READS = "tests/test_maps.py::test_eval_reads_each_live_coordinate_and_its_coefficient_through_coeff_at_once"
UNWEIGHED = "tests/test_maps.py::test_an_overflow_the_map_does_not_weigh_adds_nothing"
RUN_READS = "tests/test_maps.py::test_a_run_reads_each_live_coefficient_once_and_lifts_as_the_full_loop"

#: (what it breaks, file, source text, its replacement, the tests that must kill it)
MUTANTS = [
    ("power certificate's diagonal constant divides by (1 + q)", SOLVER,
     "return self.lip / (1.0 - self.q) ** (1.0 / self.p)",
     "return self.lip / (1.0 + self.q) ** (1.0 / self.p)",
     ["tests/test_solver.py::test_solve_with_a_power_certificate_meets_its_tolerance"]),
    ("a rejected candidate shrinks the cap", SOLVER,
     "(prev, t, step), cap = kept, cap + 1",
     "(prev, t, step), cap = kept, cap - 1",
     [CAPPED_RUN]),
    ("the enclosure midpoint takes the sign of t + prev", SOLVER,
     "math.copysign(c * c * step / (1.0 - c * c), t - prev)",
     "math.copysign(c * c * step / (1.0 - c * c), t + prev)",
     [CAPPED_RUN]),
    ("the solve's stop subtracts the roundoff", SOLVER,
     "if residual + roundoff <= room:",
     "if residual - roundoff <= room:",
     ["tests/test_solver.py::test_a_residual_that_fills_the_room_does_not_stop_the_solve"]),
    ("solve_fixed_point takes tol = 0", SOLVER,
     'if not tol > 0.0:\n        raise ValueError(f"tolerance must be positive, got {tol}")\n    d1, rows',
     'if not tol >= 0.0:\n        raise ValueError(f"tolerance must be positive, got {tol}")\n    d1, rows',
     [f"{OUT_OF_RANGE}[solve-zero-tol]"]),
    ("the step budget refuses work equal to it", SOLVER,
     "if work > _STEP_BUDGET:",
     "if work >= _STEP_BUDGET:",
     ["tests/test_solver.py::test_k_max_over_the_step_budget_is_refused_before_any_lift",
      "tests/test_solver.py::test_an_iterated_k_max_over_the_step_budget_is_refused_before_any_step"]),
    ("the a priori bound's powers start at sf**k", SOLVER,
     "lip * sf ** (k - 1) / (1.0 - sf) * d1",
     "lip * sf ** k / (1.0 - sf) * d1",
     ["tests/test_solver.py::test_a_priori_bound_examples",
      "tests/test_solver.py::test_smallest_k_corrects_the_closed_form_at_an_exact_bound"]),
    ("the lifted engine hands the solve v in place of f(v, v, ...)", SOLVER,
     "abs(dv - v)), dv",
     "abs(dv - v)), v",
     ["tests/test_solver.py::test_the_solve_roundoff_reads_the_larger_of_the_iterate_and_its_diagonal_value"]),
    ("secelean_iterates takes lip = 1", SOLVER,
     "if not 0.0 <= lip < 1.0:\n        raise UncertifiedMapError",
     "if not 0.0 <= lip <= 1.0:\n        raise UncertifiedMapError",
     [f"{OUT_OF_RANGE}[secelean-unit-lip]"]),
    ("reduce_general_weights takes a0 = 0", SOLVER,
     "if a0 <= 0.0:",
     "if a0 < 0.0:",
     [f"{OUT_OF_RANGE}[reduce-zero-a0]"]),
    ("reduce_general_weights refuses lip_general = 0", SOLVER,
     "if lip_general < 0.0:",
     "if lip_general <= 0.0:",
     ["tests/test_solver.py::test_reduce_general_weights"]),
    ("the at-cap allowance multiplies by (1 - c)", SOLVER,
     "allowance = tol * (1.0 + c)",
     "allowance = tol * (1.0 - c)",
     [AT_CAP]),
    ("the at-cap allowance divides by (1 + c)", SOLVER,
     "allowance = tol * (1.0 + c)",
     "allowance = tol / (1.0 + c)",
     [AT_CAP]),
    ("the at-cap allowance divides by (1 - c) as well", SOLVER,
     "allowance = tol * (1.0 + c)",
     "allowance = tol * (1.0 + c) / (1.0 - c)",
     [AT_CAP]),
    ("the at-cap slack multiplies by (1 - c)", SOLVER,
     "slack = (1.0 + c) * roundoff / (1.0 - cert.step_factor()) + roundoff",
     "slack = (1.0 - c) * roundoff / (1.0 - cert.step_factor()) + roundoff",
     [AT_CAP]),
    ("the at-cap slack divides by (1 + sf)", SOLVER,
     "slack = (1.0 + c) * roundoff / (1.0 - cert.step_factor()) + roundoff",
     "slack = (1.0 + c) * roundoff / (1.0 + cert.step_factor()) + roundoff",
     [AT_CAP]),
    ("the at-cap slack subtracts its last roundoff", SOLVER,
     "slack = (1.0 + c) * roundoff / (1.0 - cert.step_factor()) + roundoff",
     "slack = (1.0 + c) * roundoff / (1.0 - cert.step_factor()) - roundoff",
     [AT_CAP]),
    ("the domain's lower edge is outside it", MAPS,
     "if not lo <= v <= hi:",
     "if not lo < v <= hi:",
     ["tests/test_maps.py::test_values_at_the_domain_edges_pass"]),
    ("truncate does not check its base point's domain", MAPS,
     '    f._check_values((base,), "base point")\n',
     "",
     ["tests/test_maps.py::test_a_value_outside_the_domain_is_named_exactly[truncate-base]"]),
    ("a zero tail ratio drops the first tail coefficient", MAPS,
     "return min(m, n + 1)",
     "return min(m, n)",
     [HEAD_READS]),
    ("eval and the run read past the live count", MAPS,
     "live = self._live_terms(m)",
     "live = m",
     [HEAD_READS, f"{RUN_READS}[zero-tail]"]),
    ("eval and the run skip the zero-sum re-read", MAPS,
     "        if acc == 0.0:\n            acc = self._add_products(acc, prefix, coeffs, live, m)\n",
     "",
     [f"{RUN_READS}[zero-sum]", "tests/test_maps.py::test_a_vanishing_tail_reads_the_head_and_keeps_every_bit"]),
    ("eval's and the run's table read each coefficient one index late", MAPS,
     "range(len(coeffs), stop)",
     "range(len(coeffs) + 1, stop + 1)",
     [f"{RUN_READS}[tailed]", "tests/test_maps.py::test_a_tailed_solve_is_the_full_loop_solve_bit_for_bit",
      f"{LIVE_READS}[tailed]"]),
    ("eval's and the run's table grow past the live count", MAPS,
     "range(len(coeffs), stop)",
     "range(len(coeffs), len(prefix))",
     [f"{RUN_READS}[zero-tail]", f"{RUN_READS}[zero-ratio]"]),
    ("eval's table starts with a b_0 of 0.0", MAPS,
     "return self._sum(x, [])",
     "return self._sum(x, [0.0])",
     [f"{HEAD_READS}[zero-tail]", "tests/test_maps.py::test_a_vanishing_tail_reads_the_head_and_keeps_every_bit"]),
    ("the p = 1 witness takes the last maximum", MAPS,
     "depths = (k for k in range(_WITNESS_DEPTH + 1) if q**k > 0.0)",
     "depths = (k for k in reversed(range(_WITNESS_DEPTH + 1)) if q**k > 0.0)",
     [P1_WITNESS]),
    ("the p = 1 witness scores a depth whose weight underflowed", MAPS,
     "if q**k > 0.0)",
     "if q**k >= 0.0)",
     [P1_WITNESS]),
    ("a linear truncation's hint drops its last live coefficient", MAPS,
     "range(self._live_terms(n)))",
     "range(self._live_terms(n) - 1))",
     ["tests/test_truncation.py::test_truncation_is_bit_exact", "tests/test_maps.py::test_truncate_linear_closed_form"]),
    ("a zero tail adds its NaN product to eval and diagonal", MAPS,
     "return acc if term != term and t == 0.0 else acc + term",
     "return acc + term",
     ["tests/test_maps.py::test_a_zero_tail_adds_nothing_to_a_tail_sum_that_overflows"]),
    ("differences adds the terms of zero head coefficients", MAPS,
     "                if c:\n                    acc += c * (u - v)\n",
     "                acc += c * (u - v)\n",
     [f"{UNWEIGHED}[zero-head-coefficient]"]),
    ("differences adds the tail term where the tails' difference is zero", MAPS,
     "if d and t else acc",
     "if t else acc",
     [f"{UNWEIGHED}[overflowing-tail-sum]"]),
    ("differences adds the tail term where the tail sum is zero", MAPS,
     "if d and t else acc",
     "if d else acc",
     [f"{UNWEIGHED}[zero-tail-sum]"]),
    ("a witness runs on past a weight that underflowed to 0.0", MAPS,
     "except (OverflowError, ZeroDivisionError):",
     "except OverflowError:",
     ["tests/test_maps.py::test_empirical_bound_survives_underflowing_weights"]),
    ("the sup search keeps the first accepted constant, not the one at its crossing", SOLVER,
     "hi, lip = mid, value",
     "hi, lip = mid, (value if lip == math.inf else lip)",
     ["tests/test_solver.py::test_the_sup_search_evaluates_lip_sup_once_per_bisection_step"]),
    ("the p grid stops one exponent short of 2**20", SOLVER,
     "_P_GRID = tuple(2.0**k for k in range(21))",
     "_P_GRID = tuple(2.0**k for k in range(20))",
     ["tests/test_solver.py::test_the_p_search_tries_each_exponent_of_its_grid_once"]),
    ("a family scores only its witnesses, without the drawn pairs", MAPS,
     "rows = drawn + list(zip(own, diffs))",
     "rows = list(zip(own, diffs))",
     ["tests/test_maps.py::test_empirical_bounds_keep_their_bits[map25]"]),
    ("secelean_iterates takes a diagonal step before row 0", SOLVER,
     "initial=x)",
     "initial=x.map_values(f.diagonal))",
     ["tests/test_solver.py::test_secelean_separation_fixture"]),
    ("a power certificate takes lip equal to (1 - q)**(1/p)", SOLVER,
     "0.0 <= lip < (1.0 - q)",
     "0.0 <= lip <= (1.0 - q)",
     ["tests/test_solver.py::test_certificate_validation"]),
    ("the window loop pushes each new value in at the oldest end", MAPS,
     "call, push = g.__call__, live.appendleft",
     "call, push = g.__call__, live.append",
     ["tests/test_truncation.py::test_the_window_is_newest_first_and_a_wrong_seed_count_is_a_value_error"]),
    ("a finite-arity map's lip_sup divides by q**m", MAPS,
     "** (self.arity - 1)",
     "** self.arity",
     ["tests/test_protocol.py::test_embedded_lip_sup_examples"]),
    ("each truncation plans with cert.lip, ignoring its hint", SOLVER,
     "min(cert.lip, g.lip_sup(1.0))",
     "cert.lip",
     ["tests/test_truncation.py::test_each_arity_plans_with_the_smaller_of_the_certificate_and_its_truncation_hint"]),
]


def copy_tree(dest: Path) -> None:
    """Copy ``src``, ``tests`` and ``pyproject.toml`` into ``dest``, without caches."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def environment(tree: Path) -> dict[str, str]:
    """The environment that imports seqfix from ``tree``'s ``src``, ahead of any installed copy, and writes no bytecode.

    ``tree``'s ``src`` goes in front of any ``PYTHONPATH`` already set, so an
    interpreter that finds pytest there still finds it.
    """
    path = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")


def tests_pass(tree: Path, tests: list[str]) -> bool:
    """Whether every test in ``tests`` passes in ``tree``."""
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=tree, env=environment(tree), capture_output=True).returncode == 0


def mutate(tree: Path, path: str, old: str, new: str) -> bool:
    """Replace ``old`` with ``new`` in ``src/seqfix/<path>`` of ``tree``; False if ``old`` is not there exactly once."""
    source = tree / "src" / "seqfix" / path
    text = source.read_text()
    if text.count(old) != 1:
        return False
    source.write_text(text.replace(old, new))
    return True


def main() -> int:
    started = time.perf_counter()
    everything = sorted({test for *_, tests in MUTANTS for test in tests})
    with tempfile.TemporaryDirectory() as workdir:
        workdir = Path(workdir).resolve()  # the import check compares resolved paths
        tree = workdir / "unmutated"
        copy_tree(tree)
        check = f"import seqfix, sys; sys.exit(not seqfix.__file__.startswith({str(tree / 'src')!r}))"
        if subprocess.run([sys.executable, "-c", check], env=environment(tree)).returncode != 0:
            print(f"seqfix is not imported from the copy's {tree / 'src'}, so no mutant can be judged")
            return 1
        if not tests_pass(tree, everything):
            print("the unmutated tree fails the listed tests, so no mutant can be judged")
            return 1
        survivors = stale = 0
        for k, (what, path, old, new, tests) in enumerate(MUTANTS):
            tree = workdir / f"mutant{k}"
            copy_tree(tree)
            if not mutate(tree, path, old, new):
                print(f"stale     {path}: {what}: its source text is not found exactly once")
                stale += 1
                continue
            killed = not tests_pass(tree, tests)
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVED':9} {path}: {what}")
            shutil.rmtree(tree)
    judged = len(MUTANTS) - stale
    print(f"{judged - survivors} of {judged} mutants killed, {stale} stale, "
          f"in {time.perf_counter() - started:.0f} s")
    return 1 if survivors or stale else 0


if __name__ == "__main__":
    sys.exit(main())
