"""Median and quartiles of repeated benchmark runs.

Reads the records bench/run.py appends to .bench_out/results.jsonl and
prints, for each commit, workload and metric, the run count, the median,
the quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json:

    python3 bench/summarize.py [--results PATH]
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def summarize(records, bounds):
    groups = defaultdict(list)
    for rec in records:
        groups[(rec["commit"], rec["workload"], rec["trace"])].append(rec)
    rows = []
    for (commit, workload, trace), recs in sorted(groups.items()):
        stamp = {k: recs[-1][k] for k in ("python", "cpu", "nproc", "commit")}
        for name in recs[0]["metrics"]:
            values = [r["metrics"][name] for r in recs]
            median = statistics.median(values)
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            rows.append({
                **stamp, "workload": workload, "trace": trace,
                "metric": name, "runs": len(values), "median": median,
                "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
                "bound": bounds.get(name),
                "seeds": sorted({r["seed"] for r in recs}),
                "all_correct": all(r["correct"] for r in recs),
            })
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--results", default=ROOT / ".bench_out" /
                        "results.jsonl", type=Path)
    args = parser.parse_args(argv)
    records = [json.loads(line) for line in
               args.results.read_text().splitlines() if line.strip()]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = summarize(records, bounds)
    for row in rows:
        bound = row["bound"]
        verdict = "" if bound is None else f"  bound {bound}: " + (
            "below a third" if row["spread"] < bound / 3 else
            "within" if row["spread"] <= bound else "OVER")
        print(f"{row['commit'][:10]} {row['workload']:<12} "
              f"{row['metric']:<40} n={row['runs']:<3} "
              f"median {row['median']:<12.6g} q1 {row['q1']:<12.6g} "
              f"q3 {row['q3']:<12.6g} spread {row['spread']:.4f}{verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
