"""Tests of the benchmark's own code: generators, answer checks, tail rule, tracer.

    python -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest

import run
import seqfix
import summarize
import tracing
import workloads


@pytest.mark.parametrize("cls", [workloads.SlowSolve, workloads.CertifySweep])
def test_generator_is_deterministic_for_a_seed(cls):
    assert cls(7).inputs == cls(7).inputs
    assert cls(7).inputs != cls(8).inputs


def test_slow_solve_inputs_match_the_stated_ranges():
    wl = workloads.SlowSolve(3)
    assert len(wl.inputs) == 3 * workloads.SLOW_SOLVE_PER_HEAD + 1
    masses = sorted(f.sum_abs_coeffs() for f, _ in wl.inputs)
    assert masses[-1] == pytest.approx(0.98)  # the fixed slow map
    assert 0.80 <= masses[0] and masses[-2] <= 0.93
    assert {len(f.head_coeffs) for f, _ in wl.inputs} == {1, 2, 3}


def test_certify_sweep_inputs_match_the_stated_ranges():
    wl = workloads.CertifySweep(3)
    assert len(wl.inputs) == workloads.CERTIFY_MAPS
    masses = [f.sum_abs_coeffs() for f, _ in wl.inputs]
    assert 0.2 <= min(masses) and max(masses) <= 0.9
    assert {len(f.head_coeffs) for f, _ in wl.inputs} == set(range(1, 65))


def test_slow_solve_check_rejects_a_perturbed_answer():
    wl = workloads.SlowSolve(0)
    inp = wl.inputs[0]
    sol = wl.call(inp, None)
    assert wl.check(inp, None, sol).ok
    bad = replace(sol, value=sol.value + 2 * workloads.SOLVE_TOL)
    verdict = wl.check(inp, None, bad)
    assert not verdict.ok
    assert verdict.err_over_tol > 1.0


def test_certify_check_rejects_an_unsound_certificate():
    wl = workloads.CertifySweep(0)
    inp = wl.inputs[0]
    cert, emp, pcert, emp_p = wl.call(inp, None)
    assert wl.check(inp, None, (cert, emp, pcert, emp_p)).ok
    low_sup = seqfix.SupCertificate(cert.q, emp * 0.999)
    assert not wl.check(inp, None, (low_sup, emp, pcert, emp_p)).ok
    low_p = seqfix.PCertificate(pcert.p, pcert.q, emp_p * 0.999)
    assert not wl.check(inp, None, (cert, emp, low_p, emp_p)).ok
    assert not wl.check(inp, None, (None, None, pcert, emp_p)).ok


def test_planned_steps_is_the_smallest_sufficient_count():
    cert = seqfix.SupCertificate(0.5, 0.8)
    k = workloads.planned_steps(cert, 1e-6)
    assert cert.a_priori_bound(k, 1.0) <= 1e-6 < cert.a_priori_bound(k - 1, 1.0)


def test_cli_expected_values_are_the_closed_forms():
    config = json.loads(workloads.CLI_CONFIG.read_text())
    expected = json.loads(workloads.CLI_EXPECTED.read_text())
    solves = {p["id"]: p["map"] for p in config["problems"] if p["mode"] == "solve"}
    assert set(expected) == set(solves)
    for pid, spec in solves.items():
        assert expected[pid] == pytest.approx(workloads.closed_form_fixed_point(spec), rel=1e-12)


def test_cli_batch_inputs_are_seeded_cli_runs():
    assert workloads.CliBatch(7).inputs == workloads.CliBatch(7).inputs
    seeds = {cli_seed for _, cli_seed in workloads.CliBatch(7).inputs}
    assert len(seeds) == workloads.CLI_RUNS


def test_cli_check_accepts_the_batch_and_rejects_a_perturbed_answer(tmp_path):
    wl = workloads.CliBatch(0)
    out = tmp_path / "out"
    result = wl.call(wl.inputs[0], out)
    verdict = wl.check(wl.inputs[0], out, result)
    assert verdict.ok, verdict.reason
    assert verdict.steps > 0
    table = out / "readme-solve.csv"
    lines = table.read_text().splitlines()
    k, x, *rest = lines[-1].split(",")
    lines[-1] = ",".join([k, repr(float(x) + 2e-6), *rest])
    table.write_text("\n".join(lines) + "\n")
    assert not wl.check(wl.inputs[0], out, result).ok


def test_cli_check_rejects_a_missing_table_and_a_bad_status(tmp_path):
    wl = workloads.CliBatch(0)
    out = tmp_path / "out"
    result = wl.call(wl.inputs[0], out)
    assert not wl.check(wl.inputs[0], out, (wl.cli.EXIT_UNCERTIFIED, result[1])).ok
    (out / "readme-trace.csv").unlink()
    assert not wl.check(wl.inputs[0], out, result).ok


def test_tail_rule_picks_p90_at_100_samples_and_reports_the_count():
    samples = [run.Sample(i, (i + 1) / 1000, run.KERNEL_MS / 1000, True) for i in range(100)]
    timing = run.timing_metrics(samples)
    assert timing["tail_percentile"] == 90.0
    assert timing["samples"] == 100
    assert timing["op_tail_ms"] == pytest.approx(90.0)
    assert timing["op_p50_ms"] == pytest.approx(50.5)


def test_inputs_are_timed_by_the_median_of_their_repeats():
    # one burst of noise on a repeat of input 0 does not reach the tail
    samples = [run.Sample(i, 0.001, run.KERNEL_MS / 1000, True) for i in range(40)] * 3
    samples.append(run.Sample(0, 1.0, run.KERNEL_MS / 1000, True))
    timing = run.timing_metrics(samples)
    assert timing["samples"] == 40
    assert timing["op_tail_ms"] == pytest.approx(1.0)


@pytest.mark.parametrize("n, pct", [(19, 100.0), (20, 50.0), (40, 75.0), (50, 80.0), (199, 90.0), (200, 95.0), (1000, 99.0)])
def test_tail_rule_leaves_at_least_ten_samples_beyond(n, pct):
    got, value = run.tail([float(i) for i in range(n)])
    assert got == pct
    if pct < 100.0:
        assert n - math.ceil(pct / 100 * n) >= run.TAIL_MIN_BEYOND
        assert value == math.ceil(pct / 100 * n) - 1


def test_calibration_scales_by_the_kernel_times_around_each_operation():
    kernel = run.KERNEL_MS / 1000
    kernels = [2 * kernel, 2 * kernel, kernel, kernel]
    assert run.calibrate([0.010] * 4, kernels) == pytest.approx([0.005, 0.005, 0.010 / 1.5, 0.010])


def test_tracer_counts_layers_and_restores_the_library():
    wl = workloads.SlowSolve(0)
    original = seqfix.solver.lift_step
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert seqfix.solver.lift_step is not original
        wl.call(wl.inputs[0], None)  # outside an operation: not counted
        assert tracer.ops == 0 and tracer.stats["solver.lift_step"][tracing.CALLS] == 0
        with tracer.operation(0):
            sol = wl.call(wl.inputs[0], None)
    finally:
        tracer.uninstall()
    assert seqfix.solver.lift_step is original
    layers = tracing.layer_metrics(tracer)
    lifts = layers["solver.lift_steps"][0]
    assert lifts >= sol.k_used
    assert layers["solver.useful_step_ratio"][0] == pytest.approx(sol.k_used / lifts)
    assert layers["solver.cert_found_ratio"][0] == 1.0
    assert layers["metrics.dist_calls"][0] >= 1
    assert layers["maps.coeff_at_calls"][0] > 0
    op, *children = tracer.spans
    assert op["name"] == "op" and {c["name"] for c in children} == {
        "solver.find_sup_certificate", "solver.solve_fixed_point"}
    assert all(c["parent"] == op["id"] for c in children)


def test_run_refuses_a_directory_without_the_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "slow-solve", "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_summary_gives_median_and_quartile_spread_per_workload():
    def record(seed, value):
        return {"workload": "slow-solve", "trace": 0, "seed": seed, "seconds": 20, "machine": {}, "python": "",
                "metrics": {"op_p50_ms": {"value": value, "unit": "ms", "samples": 199}}}

    out = summarize.summarize([record(s, v) for s, v in enumerate([9.0, 10.0, 10.0, 11.0, 30.0])])
    m = out["runs"]["slow-solve/trace0"]["op_p50_ms"]
    assert m["median"] == 10.0 and m["runs"] == 5
    assert m["spread"] == pytest.approx((m["q3"] - m["q1"]) / 10.0)
