#!/usr/bin/env python3
"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads a,b] [--out FILE]

From the root of a checkout, runs ``perfbench/run.py`` untraced once per seed
and traced once on the first seed, for each workload.  Prints each end-to-end
metric's median, quartiles and spread (interquartile distance over the
median) against a third of its bound, then every per-layer metric of the
traced run.  ``--out`` writes the same as JSON, with each run's result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(t) for t in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(t) for t in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "trace": trace, "lines": lines[:-1], "result": json.loads(lines[-1])}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    summary = {"seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, spec["run_seconds"], 0) for seed in seeds]
        traced = run_once(workload, seeds[0], spec["run_seconds"], 1)
        entry = {
            "attempted": sum(r["result"]["attempted"] for r in runs + [traced]),
            "failed": sum(r["result"]["failed"] for r in runs + [traced]),
            "correct": all(r["result"]["correct"] for r in runs + [traced]),
            "end_to_end": {},
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "environment": [line for line in traced["lines"] if line.startswith(("env ", "sha256 "))],
        }
        print(f"{workload}: correct={entry['correct']} failed {entry['failed']} of {entry['attempted']} runs")
        for metric in spec["end_to_end"]:
            stats = spread([r["result"]["metrics"][metric["name"]]["value"] for r in runs])
            entry["end_to_end"][metric["name"]] = stats
            verdict = "ok" if stats["spread"] < metric["bound"] / 3 else "WIDE"
            print(f"  {metric['name']:<12} median {stats['median']:.6g} {metric['unit']}  "
                  f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {stats['spread']:.4f} "
                  f"(bound/3 {metric['bound'] / 3:.4f}) {verdict}")
        walls, raw_walls = [], []
        for seed in seeds:
            with open(os.path.join(".perfbench", "results", f"{workload}-seed{seed}-trace0.json"), encoding="utf-8") as fh:
                seed_runs = json.load(fh)["runs"]
            walls += [r["wall_s"] for r in seed_runs]
            raw_walls += [r["raw_wall_s"] for r in seed_runs]
        tail = tail_percentile(walls) or (None, None)
        entry["pooled_wall_s"] = {"n": len(walls), "median": statistics.median(walls),
                                  "tail_pct": tail[0], "tail_s": tail[1],
                                  "raw_median": statistics.median(raw_walls)}
        print(f"  wall_s pooled over seeds: {entry['pooled_wall_s']}")
        for metric in spec["per_layer"]:
            print(f"  {metric['name']:<30} {entry['per_layer'][metric['name']]:.6g} {metric['unit']}")
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
