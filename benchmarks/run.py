"""Run one seqfix benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload slow-solve --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; ``seqfix`` is imported from its ``src/``.
Workloads: slow-solve, certify-sweep, cli-batch (see workloads.py). Each is
a closed loop with one client in this one process. The run repeats whole
passes over the workload's inputs until ``--seconds`` have gone by, checks
every answer, and prints one line per metric followed by a JSON summary as
the last line. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs untraced for half the time, then traced, and prints the per-layer
metrics with the tracing overhead. Each run also writes a record to
``benchmarks/results/`` (plus the spans of a traced run).

Calibrated times. The host this benchmark was built on is a shared VM whose
CPU flips between a fast and a slow state (1.7x apart) within tens of
milliseconds, in proportions that drift over tens of seconds, so raw p50s
of identical runs differed by up to 25%. After every operation (and every
set-up probe) the harness times a fixed pure-Python kernel, once per 50 ms
of the operation's time, and reports each operation's wall time
multiplied by ``KERNEL_MS`` / (the mean kernel time just before and after
it). Times are therefore in milliseconds of a host on which the kernel
takes ``KERNEL_MS``, about this host's fast state; the uncalibrated times
are kept in the results record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: kernel time that defines the calibrated millisecond
KERNEL_MS = 0.5
#: operation seconds per extra kernel run after an operation (about 1% of the time)
KERNEL_EVERY_S = 0.05
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
#: percentiles the tail metric may report, highest first
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
MAX_REASONS = 5

SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import workloads
workloads.build(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - t0)
"""


def kernel() -> float:
    """Fixed pure-Python work (tuple building, float validation, dot products).

    Its mix resembles the library's hot path, so its time tracks how fast
    the host currently runs that kind of code.
    """
    coeffs = tuple(0.9**n for n in range(64))
    x: tuple[float, ...] = ()
    acc = 0.0
    for _ in range(100):
        v = 1.0
        for c, e in zip(coeffs, x):
            v += c * e
        x = tuple(float(e) for e in (0.5 * v,) + x[:63])
        acc += v
    return acc


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def sample_kernel(busy_s: float) -> float:
    """Mean kernel time over one run per KERNEL_EVERY_S of ``busy_s`` (at least one run).

    A long operation gets several kernel samples, whose mean estimates the
    share of slow host time around it.
    """
    runs = 1 + int(busy_s / KERNEL_EVERY_S)
    return statistics.fmean(time_kernel() for _ in range(runs))


def calibrate(raw: list[float], kernels: list[float]) -> list[float]:
    """Scale each raw time by KERNEL_MS over the mean kernel time just before and after it.

    ``kernels[i]`` is measured right after operation i, so operation i is
    bracketed by ``kernels[i - 1]`` and ``kernels[i]``.
    """
    return [t * (KERNEL_MS / 1e3) / ((kernels[max(i - 1, 0)] + kernels[i]) / 2) for i, t in enumerate(raw)]


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with >= 10 samples beyond it.

    Nearest rank. With fewer than 20 samples no percentile qualifies and
    the maximum is reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, ordered[rank - 1]
    return 100.0, ordered[-1]


@dataclass
class Sample:
    input: int
    seconds: float
    kernel: float
    ok: bool
    steps: int = 0
    err_over_tol: float = 0.0
    bytes_written: int = 0
    reason: str = ""


def run_op(wl, index: int, out_dir: Path, tracer, op_id: int) -> Sample:
    """Time one operation on input ``index``, then time the kernel and check the answer."""
    inp = wl.inputs[index]
    error = ""
    t0 = time.perf_counter()
    try:
        with tracer.operation(op_id) if tracer else nullcontext():
            result = wl.call(inp, out_dir)
    except Exception as e:  # a failing operation is counted and the run goes on
        error = f"{type(e).__name__}: {e}"
    seconds = time.perf_counter() - t0
    sample = Sample(index, seconds, sample_kernel(seconds), False, reason=error)
    if not error:
        try:
            verdict = wl.check(inp, out_dir, result)
        except Exception as e:
            sample.reason = f"check raised {type(e).__name__}: {e}"
        else:
            sample.ok, sample.steps, sample.err_over_tol, sample.reason = (
                verdict.ok, verdict.steps, verdict.err_over_tol, verdict.reason)
    if out_dir.exists():
        sample.bytes_written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
        shutil.rmtree(out_dir)
    return sample


def run_passes(wl, seconds: float, scratch: Path, tracer=None, first_id: int = 0) -> list[Sample]:
    """Whole passes over the inputs until ``seconds`` have gone by (at least one)."""
    samples: list[Sample] = []
    start = time.perf_counter()
    while True:
        for index in range(len(wl.inputs)):
            op_id = first_id + len(samples)
            samples.append(run_op(wl, index, scratch / f"op-{op_id}", tracer, op_id))
        if time.perf_counter() - start >= seconds:
            return samples


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median (calibrated, raw) seconds to import seqfix and build the inputs, in fresh processes."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    raw, kernels = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, workload, str(seed)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        raw.append(float(done.stdout.strip().splitlines()[-1]))
        kernels.append(sample_kernel(raw[-1]))
    return statistics.median(calibrate(raw, kernels)), statistics.median(raw)


def timing_metrics(samples: list[Sample]) -> dict:
    """op_p50_ms, op_tail_ms and ops_per_s of a list of samples, calibrated.

    The median and tail are taken over the inputs, each timed as the
    median of its repeats in the run: a burst of host noise then moves no
    input's time, the tail reports the inputs that take the most work, and
    its percentile depends on the number of inputs, not on the host's speed.
    """
    times = calibrate([s.seconds for s in samples], [s.kernel for s in samples])
    by_input: dict[int, list[float]] = {}
    for s, t in zip(samples, times):
        by_input.setdefault(s.input, []).append(t)
    per_input = [statistics.median(ts) for ts in by_input.values()]
    pct, worst = tail(per_input)
    completed = sum(s.ok for s in samples)
    return {
        "op_p50_ms": statistics.median(per_input) * 1e3,
        "op_tail_ms": worst * 1e3,
        "tail_percentile": pct,
        "samples": len(per_input),
        "ops_per_s": completed / sum(times),
        "raw_all_samples_p50_ms": statistics.median(s.seconds for s in samples) * 1e3,
    }


def machine() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "seqfix" / "__init__.py").is_file():
        print(f"error: no seqfix package under {SRC}; run from a seqfix checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    scratch = RESULTS / f"scratch-{os.getpid()}"
    scratch.mkdir()
    try:
        record = measure(workloads, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (RESULTS / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']} (samples={m['samples']})")
    for reason in record["failure_reasons"]:
        print(f"failed: {reason}", file=sys.stderr)
    reported = {name: {"value": m["value"], "unit": m["unit"]}
                for name, m in record["metrics"].items() if m["reported"]}
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": reported}))
    return 0


def measure(workloads, args, scratch: Path) -> dict:
    """Run the workload and return its results record."""
    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit: str, samples: int, reported: bool = True) -> None:
        metrics[name] = {"value": value, "unit": unit, "samples": samples, "reported": reported}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "kernel_ms": KERNEL_MS,
    }
    if args.trace == 0:
        setup_s, raw_setup_s = measure_setup(args.workload, args.seed)
        wl = workloads.build(args.workload, args.seed)
        samples = run_passes(wl, args.seconds, scratch)
        timing = timing_metrics(samples)
        n = len(samples)
        put("setup_s", setup_s, "s", SETUP_REPEATS)
        put("op_p50_ms", timing["op_p50_ms"], "ms", timing["samples"])
        put("op_tail_ms", timing["op_tail_ms"], "ms", timing["samples"])
        put("ops_per_s", timing["ops_per_s"], "1/s", n)
        put("steps_total", sum(s.steps for s in samples[:len(wl.inputs)]), "count", len(wl.inputs))
        put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
        put("fail_frac", sum(not s.ok for s in samples) / n, "ratio", n, reported=False)
        put("solver.err_over_tol_max", max(s.err_over_tol for s in samples), "ratio", n, reported=False)
        record["tail_percentile"] = timing["tail_percentile"]
        record["uncalibrated"] = {"setup_s": raw_setup_s, "all_samples_p50_ms": timing["raw_all_samples_p50_ms"]}
    else:
        import tracing

        wl = workloads.build(args.workload, args.seed)
        plain = run_passes(wl, args.seconds / 2, scratch)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_passes(wl, args.seconds / 2, scratch, tracer, first_id=len(plain))
        finally:
            tracer.uninstall()
        samples = plain + traced
        n = len(traced)
        for name, (value, unit) in tracing.layer_metrics(tracer).items():
            put(name, value, unit, n)
        put("solver.err_over_tol_max", max(s.err_over_tol for s in traced), "ratio", n)
        put("cli.bytes_written", sum(s.bytes_written for s in traced) / n, "B/op", n)
        put("trace.op_s", sum(s.seconds for s in traced) / n, "s/op", n)
        plain_rate = timing_metrics(plain)["ops_per_s"]
        put("trace.ops_per_s_ratio", timing_metrics(traced)["ops_per_s"] / plain_rate if plain_rate else 0.0,
            "ratio", len(samples))
        (RESULTS / f"spans_{args.workload}_seed{args.seed}.jsonl").write_text(
            "".join(json.dumps(span) + "\n" for span in tracer.spans))
    record["attempted"] = len(samples)
    record["failed"] = sum(not s.ok for s in samples)
    record["failure_reasons"] = [s.reason for s in samples if not s.ok][:MAX_REASONS]
    record["metrics"] = metrics
    return record


if __name__ == "__main__":
    sys.exit(main())
