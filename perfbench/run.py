#!/usr/bin/env python3
"""Benchmark of the alphaloss CLI: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's inputs are built from the
seed, then the real CLI runs in a fresh child process, one child at a time,
until S seconds are used.  Every child's output is checked against the
paper's closed forms or an independent reference, and against the first
run's bytes.  Set-up cost is probed separately in fresh children.

The host's speed drifts over minutes, so every child's wall time is scaled
by a reference probe timed in fresh processes on either side of it (see
``probe.py``): the reported ``wall_s``, ``work_per_s`` and ``setup_s``, and
the per-layer times, are in seconds of the reference machine.  The raw
medians are printed beside them.

With ``--trace 0`` every child runs untraced and the end-to-end metrics are
reported.  With ``--trace 1`` traced and untraced children alternate; spans
recorded around the calls into each module (see ``child.py``) give the
per-layer metrics, and the difference of the two wall-time medians is the
tracing overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric with its sample count and the environment, which is also
written with all span totals to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from probe import REFERENCE_S  # noqa: E402

SETUP_REPS = 11
MIN_RUNS = 3
# A run stops launching children after this many seconds even below MIN_RUNS,
# and a child is killed after CHILD_TIMEOUT_S, so a run ends within 180 s.
HARD_STOP_S = 90
CHILD_TIMEOUT_S = 60
# Children get one BLAS thread per CPU this process may run on, the same on
# both sides of any comparison made on one machine.
NPROC = len(os.sched_getaffinity(0))


def child_env(src: str) -> dict:
    env = dict(os.environ)
    threads = str(NPROC)
    env.update(PYTHONPATH=src, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    return env


class Child:
    """One child process: wall time from spawn to exit, and its peak RSS."""

    def __init__(self, argv: list[str], env: dict, workdir: str):
        log = os.path.join(workdir, "child.log")
        start = time.perf_counter()
        with open(log, "wb") as out:
            proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        self.wall_s = time.perf_counter() - start
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        with open(log, "r", encoding="utf-8", errors="replace") as fh:
            self.output = fh.read()


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples above it, as (pct, value)."""
    ordered = sorted(samples)
    if len(ordered) < 11:
        return None
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def environment(root: str, seed: int) -> dict:
    import numpy as np

    import alphaloss

    try:
        cpu_model = next(line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                         if line.startswith("model name"))
        llc = _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip()
    except (OSError, StopIteration):
        cpu_model, llc = platform.processor(), "unknown"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    package = os.path.join(root, "src", "alphaloss")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            source.update(name.encode() + b"\0" + _read(os.path.join(package, name)).encode())
    commit = None
    if os.path.isfile(os.path.join(root, ".git", "HEAD")):
        commit = _read(os.path.join(root, ".git", "HEAD")).strip()
        ref = os.path.join(root, ".git", commit[len("ref: "):])
        if commit.startswith("ref: ") and os.path.isfile(ref):
            commit = _read(ref).strip()
    return {
        "nproc": NPROC,
        "cpu_model": cpu_model,
        "llc": llc,
        "training_matrix_mb": 11500 * 785 * 8 / 1e6,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": NPROC,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "alphaloss": alphaloss.__version__,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def aggregate_spans(spans: list[list], scale: float) -> dict:
    """Per-layer metrics from one traced run's spans, with times multiplied by ``scale``.

    A span is [name, start, end, parent, work, error]; its self time is its
    duration minus that of its direct children.
    """
    spans = [[name, start * scale, end * scale, *rest] for name, start, end, *rest in spans]
    children = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    names = {}
    for i, (name, start, end, parent, work, error) in enumerate(spans):
        entry = names.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0, "durations": []})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - children[i]
        entry["durations"].append(end - start)
        if isinstance(work, int) and error is None:
            entry["work"] += work

    def get(name: str, key: str):
        return names.get(name, {}).get(key, 0)

    def parent_is(i: int, name: str) -> bool:
        return spans[i][3] >= 0 and spans[spans[i][3]][0] == name

    grid_evals = sum(1 for i, s in enumerate(spans) if s[0] == "losses.margin_losses" and parent_is(i, "calibration.check"))
    grid_keys = {json.dumps(s[4]) for s in spans if s[0] == "calibration.check"}
    train_durations = names.get("logreg.train", {}).get("durations", [])
    layers = {
        "mnist.load_s": get("mnist.load", "s"),
        "mnist.task_build_s": get("mnist.task_build", "s"),
        "logreg.train_s": get("logreg.train", "s"),
        "logreg.train_self_s": get("logreg.train", "self_s"),
        "logreg.train_calls": get("logreg.train", "calls"),
        "logreg.sample_epochs": get("logreg.train", "work"),
        "logreg.train_ms_p50": 1000.0 * statistics.median(train_durations) if train_durations else 0.0,
        "logreg.evaluate_s": get("logreg.evaluate", "s"),
        "logreg.evaluate_calls": get("logreg.evaluate", "calls"),
        "logreg.empirical_risk_s": get("logreg.empirical_risk", "s"),
        "logreg.empirical_risk_calls": get("logreg.empirical_risk", "calls"),
        "losses.margin_losses_s": get("losses.margin_losses", "s"),
        "losses.margin_losses_calls": get("losses.margin_losses", "calls"),
        "losses.margin_losses_elems": get("losses.margin_losses", "work"),
        "losses.conditional_risk_s": get("losses.conditional_risk", "s"),
        "losses.conditional_risk_calls": get("losses.conditional_risk", "calls"),
        "calibration.check_s": get("calibration.check", "s"),
        "calibration.check_self_s": get("calibration.check", "self_s"),
        "calibration.check_calls": get("calibration.check", "calls"),
        "calibration.grid_evals": grid_evals,
        "calibration.golden_evals": sum(
            1 for i, s in enumerate(spans) if s[0] == "losses.conditional_risk" and parent_is(i, "calibration.check")
        ),
        "calibration.grid_unique_ratio": len(grid_keys) / grid_evals if grid_evals else 0.0,
        "landscape.generate_s": get("landscape.generate", "s"),
        "landscape.generate_calls": get("landscape.generate", "calls"),
        "landscape.generate_rows": get("landscape.generate", "work"),
        "landscape.experiment_self_s": get("landscape.experiment", "self_s"),
        "landscape.diverged": sum(1 for s in spans if s[0] == "logreg.train" and s[5] == "TrainingDiverged"),
        "cli.self_s": get("cli", "self_s"),
    }
    spans_by_name = {k: {key: v[key] for key in ("calls", "s", "self_s", "work")} for k, v in names.items()}
    return {"layers": layers, "spans": spans_by_name}


def run(args) -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "alphaloss", "cli.py")):
        print(f"error: no alphaloss package under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads(_read(os.path.join(root, "BENCHMARK.json")))
    scratch = os.path.join(root, ".perfbench")
    os.makedirs(os.path.join(scratch, "results"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=scratch)
    try:
        result = measure(args, root, src, workdir, WORKLOADS[args.workload](args.seed, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    # Per-layer metrics are missing only when no traced run completed, which
    # already marks the result incorrect.
    values = {m["name"]: result["metrics"].get(m["name"], 0) for m in names}
    path = os.path.join(scratch, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    for key, value in sorted(result["environment"].items()):
        print(f"env {key}: {value}")
    for name, digest in sorted({**result["inputs"], **(result["output_sha256"] or {})}.items()):
        if isinstance(digest, str):
            print(f"sha256 {name}: {digest}")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    for m in names:
        extra = result["samples"].get(m["name"], "")
        print(f"{args.workload} {m['name']} = {values[m['name']]:.6g} {m['unit']} {extra}".rstrip())
    print(f"{args.workload} failed_frac = {result['metrics']['failed_frac']:.6g} "
          f"({result['failed']} of {result['attempted']} runs)")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}}))
    return 0


def measure(args, root: str, src: str, workdir: str, workload) -> dict:
    env = child_env(src)
    child = os.path.join(HERE, "child.py")
    workload.prepare()
    environ = environment(root, args.seed)
    mnist_dir = getattr(workload, "mnist_dir", "")

    setups = []
    for _ in range(SETUP_REPS):
        probe = Child([sys.executable, child, "setup", workload.name, mnist_dir, str(args.seed)], env, workdir)
        if probe.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{probe.output}")
        setups.append(json.loads(probe.output.strip().splitlines()[-1]))

    runs, problems, first_hashes = [], [], None
    spans_path = os.path.join(workdir, "spans.json")
    started = time.perf_counter()
    speed_argv = [sys.executable, os.path.join(HERE, "probe.py"), workload.name]
    probe_before = _probe_s(speed_argv, env, workdir)
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 1
        prefix = [child, "trace", spans_path, "--"] if traced else ["-m", "alphaloss.cli"]
        proc = Child([sys.executable, *prefix, *workload.argv()], env, workdir)
        probe_after = _probe_s(speed_argv, env, workdir)
        scale = REFERENCE_S[workload.name] / ((probe_before + probe_after) / 2.0)
        probe_before = probe_after
        record = {"traced": traced, "raw_wall_s": proc.wall_s, "wall_s": proc.wall_s * scale, "scale": scale,
                  "peak_rss_mb": proc.peak_rss_mb, "problems": []}
        if proc.returncode != 0:
            record["problems"].append(f"exit code {proc.returncode}: {proc.output.strip()[-500:]}")
        else:
            record["problems"] += workload.check()
            # The manifest, listed last, records timestamps and paths, so only
            # the CSVs are compared and counted.
            csvs = workload.outputs()[:-1]
            hashes = {os.path.basename(p): sha256_file(p) for p in csvs}
            record["output_bytes"] = sum(os.path.getsize(p) for p in csvs)
            if first_hashes is None:
                first_hashes = hashes
            elif hashes != first_hashes:
                record["problems"].append(f"output bytes differ from the first run: {hashes}")
            if traced:
                with open(spans_path, encoding="utf-8") as fh:
                    record.update(aggregate_spans(json.load(fh), scale))
                record["layers"]["cli.output_bytes"] = record["output_bytes"]
                record["problems"] += workload.check_spans(record["layers"])
        problems += [f"run {len(runs)}: {p}" for p in record["problems"]]
        runs.append(record)
        elapsed = time.perf_counter() - started
        done = [r for r in runs if r["traced"] == traced]
        enough = len(done) >= MIN_RUNS and (not args.trace or len(runs) >= 2 * MIN_RUNS)
        if (enough and elapsed + proc.wall_s > args.seconds) or elapsed > HARD_STOP_S:
            break

    def walls(traced: bool, key: str = "wall_s") -> list[float]:
        chosen = [r for r in runs if r["traced"] == traced]
        good = [r for r in chosen if not r["problems"]] or chosen
        return [r[key] for r in good]

    untraced = walls(False)
    wall = statistics.median(untraced)
    raw_wall = statistics.median(walls(False, "raw_wall_s"))
    # The set-up probes ran just before the loop, so the loop's median scale
    # stands for the machine's speed while they ran.
    run_scale = statistics.median(r["scale"] for r in runs)
    raw_setup = statistics.median(sum(s.values()) for s in setups)
    setup_totals = [sum(s.values()) * run_scale for s in setups]
    metrics = {
        "wall_s": wall,
        "work_per_s": workload.work_units() / wall,
        "setup_s": statistics.median(setup_totals),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs if not r["traced"]),
    }
    samples = {
        "wall_s": _describe(untraced, "s") + f" [raw median {raw_wall:.6g} s]",
        "setup_s": _describe(setup_totals, "s") + f" [raw median {raw_setup:.6g} s; scale {run_scale:.4g}]",
        "work_per_s": f"(work units {workload.work_units()} / median wall_s) [raw {workload.work_units() / raw_wall:.6g}]",
        "peak_rss_mb": f"(median of n={len(untraced)})",
    }
    traced_runs = [r for r in runs if r["traced"] and "layers" in r]
    if args.trace:
        if not traced_runs:
            problems.append("no traced run completed")
        else:
            for name in traced_runs[0]["layers"]:
                values = [r["layers"][name] for r in traced_runs]
                if isinstance(values[0], int):
                    metrics[name] = values[0]
                    if any(v != values[0] for v in values):
                        problems.append(f"count {name} differs between traced runs: {values}")
                else:
                    metrics[name] = statistics.median(values)
                    samples[name] = f"(median of n={len(values)})"
            traced_walls = walls(True)
            metrics["tracing_overhead_s"] = statistics.median(traced_walls) - wall
            samples["tracing_overhead_s"] = f"(traced median of n={len(traced_walls)} minus untraced median)"
    failed = sum(1 for r in runs if r["problems"])
    metrics["failed_frac"] = failed / len(runs)
    return {
        "workload": workload.name,
        "argv": workload.argv(),
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environ,
        "inputs": workload.info,
        "output_sha256": first_hashes,
        "setup_probes": setups,
        "runs": [{k: v for k, v in r.items() if k != "spans"} for r in runs],
        "spans": traced_runs[0]["spans"] if traced_runs else None,
        "metrics": metrics,
        "samples": samples,
        "problems": problems,
        "attempted": len(runs),
        "failed": failed,
        "correct": not problems,
    }


def _probe_s(argv: list[str], env: dict, workdir: str) -> float:
    probe = Child(argv, env, workdir)
    if probe.returncode != 0:
        raise SystemExit(f"speed probe failed:\n{probe.output}")
    return probe.wall_s


def _describe(values: list[float], unit: str) -> str:
    tail = tail_percentile(values)
    tail_text = f"p{tail[0]:.0f} {tail[1]:.6g} {unit}" if tail else "no percentile has 10 samples above it"
    return f"(median of n={len(values)}; {tail_text})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
