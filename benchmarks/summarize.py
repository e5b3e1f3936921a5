"""Summarize benchmark result records: per workload and metric, median and quartiles.

    python3 benchmarks/summarize.py benchmarks/results/BENCH_*.json > summary.json

Each record is one run written by run.py. Runs are grouped by workload and
by whether they were traced; the spread is the distance between the first
and third quartile as a share of the median, as statistics.quantiles gives
them. baseline.json was made this way.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def summarize(records: list[dict]) -> dict:
    groups: dict[str, dict[str, list]] = {}
    first = records[0]
    for rec in records:
        group = groups.setdefault(f"{rec['workload']}/trace{rec['trace']}", {})
        for name, m in rec["metrics"].items():
            group.setdefault(name, []).append(m)
    out = {
        "machine": first["machine"],
        "python": first["python"],
        "seconds": sorted({rec["seconds"] for rec in records}),
        "seeds": sorted({rec["seed"] for rec in records}),
        "runs": {},
    }
    for key, metrics in sorted(groups.items()):
        out["runs"][key] = {}
        for name, ms in metrics.items():
            values = [m["value"] for m in ms]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
            out["runs"][key][name] = {
                "unit": ms[0]["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
                "runs": len(values),
            }
    return out


def main(paths: list[str]) -> int:
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    records = [json.loads(Path(p).read_text()) for p in paths]
    print(json.dumps(summarize(records), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
