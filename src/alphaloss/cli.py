"""Experiment command line.

Five subcommands write CSV artifacts: ``train`` and ``sweep`` run the 1-vs-7
logistic-regression benchmark, ``calibration`` emits the conditional-risk
minima behind the calibration claim, ``landscape`` runs the risk-gap scaling
experiment, and ``losscurves`` tabulates the margin losses and derivatives.

Each command computes its tables without touching the file system; ``main``
then writes them together with a JSON run manifest next to the primary CSV.
The manifest's flags are the parsed namespace itself, so the parser is the
one place that knows a subcommand's flags; re-running with them reproduces
the CSVs byte for byte.
List flags take comma-separated values and must name at least one, each
once.  Exit codes: 0 success, 1 data, parameter or usage errors, 2 training
divergence.  CSVs are UTF-8 with LF line endings, a header row, and floats
serialized to 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .calibration import calibration_workspace, check_calibration_at
from .landscape import (
    GenerationFailed,
    SymmetricDataSpec,
    log_log_slope,
    median_gaps,
    risk_gap_experiment,
)
from .logreg import TrainConfig, TrainingDiverged, evaluate, train
from .losses import (
    Alpha,
    margin_alpha_loss,
    margin_alpha_loss_d1,
    margin_alpha_loss_d2,
    min_conditional_risk,
    optimal_classifier,
)
from .mnist import BinaryTaskSplit, build_binary_task, load_mnist_dir

MNIST_DIR_ENV = "ALPHALOSS_MNIST_DIR"


@dataclass(frozen=True)
class RunManifest:
    command: str
    flags: dict
    seed: int | None
    version: str
    started_at: str
    finished_at: str
    outputs: list


def manifest_path_for(out: str) -> str:
    return out + ".manifest.json"


def load_manifest(path: str) -> RunManifest:
    with open(path, "r", encoding="utf-8") as fh:
        return RunManifest(**json.load(fh))


def replay(manifest_path: str) -> int:
    """Re-run the command recorded in a manifest with its exact flags."""
    manifest = load_manifest(manifest_path)
    if manifest.version != __version__:
        print(f"warning: manifest written by alphaloss {manifest.version}, replaying under"
              f" {__version__}: the outputs may differ from the recorded run", file=sys.stderr)
    # one token per flag, so a value that starts with "-" is not read as a flag
    argv = [manifest.command] + [f"--{key}={value}" for key, value in manifest.flags.items()]
    return main(argv)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Alpha):
        return "%.17g" % value.value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def _commit(args, tables: dict, started: str) -> None:
    """Write a run's tables and its manifest, which names them and sits beside the first.

    Every file goes to a temp file in its target's directory; only when all are
    complete are they renamed over their targets, the manifest last.  On any
    failure the temp files still held are removed and earlier outputs stay as
    they were.  A directory at a target is refused before any write; another
    refused rename (EBUSY, EPERM) or a kill between renames can still mix runs.
    """
    texts = {}
    for path, (header, rows) in tables.items():
        lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
        texts[path] = "\n".join(lines) + "\n"
    outputs = list(tables)
    flags = {
        dest.replace("_", "-"): value
        for dest, value in vars(args).items()
        if dest not in ("command", "func")
    }
    manifest = RunManifest(
        command=args.command,
        flags=flags,
        seed=getattr(args, "seed", None),
        version=__version__,
        started_at=started,
        finished_at=_now(),
        outputs=outputs,
    )
    manifest_text = json.dumps(vars(manifest), indent=2, sort_keys=True) + "\n"
    texts[manifest_path_for(outputs[0])] = manifest_text
    for path in texts:
        # an empty path resolves to the working directory, whose temp file
        # would land in its parent
        if not path:
            raise ValueError("--out is empty: no file of this run was written")
        if os.path.isdir(path):
            raise IsADirectoryError(f"{path} is a directory: no file of this run was written")
    held = []
    try:
        for path, text in texts.items():
            folder, name = os.path.split(os.path.abspath(path))
            tmp = os.path.join(folder, f".{name}.{os.getpid()}.tmp")
            fh = open(tmp, "x", encoding="utf-8", newline="")
            held.append((tmp, path))
            with fh:
                fh.write(text)
        while held:
            os.replace(*held[0])
            del held[0]
    except BaseException:
        for tmp, _ in held:
            os.unlink(tmp)
        raise


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _parse_list(text: str, cast) -> list:
    items = [cast(tok) for tok in text.split(",") if tok.strip()]
    if not items:
        raise ValueError(f"empty list {text!r}: give at least one comma-separated value")
    # compared after parsing, so 2 and 2.0 name the same entry
    for i, item in enumerate(items):
        if item in items[:i]:
            raise ValueError(f"duplicate entry {item} in list {text!r}: give each value once")
    return items


def _load_task(args) -> BinaryTaskSplit:
    """Load the 1-vs-7 task, storing the resolved directory on args for the manifest."""
    args.mnist_dir = args.mnist_dir or os.environ.get(MNIST_DIR_ENV)
    if not args.mnist_dir:
        raise FileNotFoundError(f"no MNIST directory: pass --mnist-dir or set {MNIST_DIR_ENV}")
    return build_binary_task(*load_mnist_dir(args.mnist_dir), args.seed)


def cmd_train(args) -> dict:
    alpha = Alpha(args.alpha)
    cfg = TrainConfig(alpha=alpha, learning_rate=args.lr, epochs=args.epochs, seed=args.seed)
    task = _load_task(args)
    report = train(cfg, task.train)
    row = (
        alpha,
        args.lr,
        args.epochs,
        args.seed,
        report.train_accuracy,
        evaluate(report.final_model, task.validation),
        evaluate(report.final_model, task.test),
        report.empirical_risk_trace[-1],
    )
    header = ["alpha", "lr", "epochs", "seed", "train_acc", "val_acc", "test_acc", "final_risk"]
    return {args.out: (header, [row])}


def cmd_sweep(args) -> dict:
    alphas = _parse_list(args.alphas, Alpha)
    lr_grid = _parse_list(args.lr_grid, float)
    # every config is built, and so checked, before the task is loaded
    grid = [[TrainConfig(alpha=alpha, learning_rate=lr, epochs=args.epochs, seed=args.seed)
             for lr in lr_grid] for alpha in alphas]
    task = _load_task(args)
    rows = []
    for configs in grid:
        best = None
        for cfg in configs:
            report = train(cfg, task.train)
            val_acc = evaluate(report.final_model, task.validation)
            if best is None or val_acc > best[1]:
                best = (cfg.learning_rate, val_acc, evaluate(report.final_model, task.test))
        rows.append((cfg.alpha, best[0], best[1], best[2]))
    return {args.out: (["alpha", "best_lr", "val_acc", "test_acc"], rows)}


def cmd_calibration(args) -> dict:
    alphas = _parse_list(args.alphas, Alpha)
    etas = _parse_list(args.eta_grid, float)
    # _parse_list refuses duplicates, so every eta is 0.5 only when the list is [0.5]
    if etas == [0.5]:
        raise ValueError("every eta is 0.5, which is excluded: no calibration rows to write")
    work = calibration_workspace(args.f_range, args.grid_step)
    if 0.5 in etas:
        etas.remove(0.5)
        print("warning: skipping eta=0.5 (excluded)", file=sys.stderr)
    header = ["alpha", "eta", "unconstrained_min", "constrained_min", "gap", "argmin",
              "closed_form_argmin", "min_cond_risk_closed_form"]
    rows = []
    for alpha in alphas:
        for eta in etas:
            rep = check_calibration_at(alpha, eta, work=work)
            rows.append(
                (
                    alpha,
                    eta,
                    rep.unconstrained_min,
                    rep.constrained_min,
                    rep.gap,
                    rep.unconstrained_argmin,
                    optimal_classifier(alpha, eta),
                    min_conditional_risk(alpha, eta),
                )
            )
    return {args.out: (header, rows)}


def cmd_landscape(args) -> dict:
    alphas = _parse_list(args.alphas, Alpha)
    sizes = _parse_list(args.ns, int)
    spec = SymmetricDataSpec(args.dim, args.radius, args.mean_norm, args.noise, args.seed)
    result = risk_gap_experiment(
        spec, alphas, sizes, args.trials, args.holdout_n, args.lr, args.epochs
    )
    for alpha, n, trial in result.diverged:
        print(f"warning: training diverged at alpha={alpha!r}, n={n}, trial={trial};"
              " the trial is left out of the gaps and counted in diverged", file=sys.stderr)
    for alpha, n, trial in result.unconverged:
        print(f"warning: no KKT point certified at alpha={alpha!r}, n={n}, trial={trial};"
              " the trial keeps its iterate of least residual", file=sys.stderr)
    trial_rows = [
        (rec.alpha, rec.n, rec.trial, rec.gap, rec.hoeffding_term, rec.zero_one_risk)
        for rec in result.records
    ]
    summary_rows = []
    for alpha in alphas:
        medians = median_gaps(result.records, alpha)
        gaps = list(medians.values())
        # a zero median gap has no logarithm: the slope is undefined, left empty
        slope = log_log_slope(list(medians), gaps) if len(gaps) >= 2 and min(gaps) > 0 else None
        n_diverged = sum(1 for a, _, _ in result.diverged if a == alpha.value)
        # a cell whose every trial diverged keeps its row, with no median
        for n in sorted(sizes):
            summary_rows.append((alpha, n, medians.get(n), slope, n_diverged))
    trials = (["alpha", "n", "trial", "gap", "hoeffding_eps", "zero_one_test_risk"], trial_rows)
    summary = (["alpha", "n", "median_gap", "loglog_slope", "diverged"], summary_rows)
    stem, ext = os.path.splitext(args.out)
    return {args.out: trials, f"{stem}_summary{ext or '.csv'}": summary}


def cmd_losscurves(args) -> dict:
    alphas = _parse_list(args.alphas, Alpha)
    if args.steps < 2:
        raise ValueError("steps must be at least 2")
    if args.steps * len(alphas) > 10**6:
        raise ValueError(f"{args.steps} steps x {len(alphas)} alphas is above 10^6 rows")
    # also false for an infinite or NaN end: np.linspace would make inf and nan
    if not math.isfinite(args.z_max - args.z_min):
        raise ValueError(
            f"--z-min {args.z_min:.6g} and --z-max {args.z_max:.6g} must be finite"
            " and less than the largest float apart"
        )
    grid = np.linspace(args.z_min, args.z_max, args.steps)
    rows = [
        (alpha, z, margin_alpha_loss(alpha, z), margin_alpha_loss_d1(alpha, z),
         margin_alpha_loss_d2(alpha, z))
        for alpha in alphas
        for z in grid.tolist()
    ]
    return {args.out: (["alpha", "z", "loss", "d1", "d2"], rows)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="alphaloss", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # each flag that subcommands share is defined once, in a parent they list
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True,
                     help="CSV to write; the run manifest goes to OUT.manifest.json")
    seeded = argparse.ArgumentParser(add_help=False, parents=[out])
    seeded.add_argument("--seed", type=int, default=0,
                        help="random seed, 0..2^64-1 (default: %(default)s)")
    mnist = argparse.ArgumentParser(add_help=False, parents=[seeded])
    mnist.add_argument("--epochs", type=int, default=200,
                       help="full-batch gradient steps (default: %(default)s)")
    mnist.add_argument("--mnist-dir", default=None,
                       help="directory of the four MNIST IDX files, plain or .gz"
                            f" (default: ${MNIST_DIR_ENV})")
    alphas = "comma-separated alphas in [1, inf], 'inf' allowed (default: %(default)s)"

    def command(name, func, parent, summary):
        p = sub.add_parser(name, help=summary, description=summary, parents=[parent])
        p.set_defaults(func=func)
        return p

    p_train = command("train", cmd_train, mnist, "train one model on the MNIST 1-vs-7 task")
    p_train.add_argument("--alpha", required=True, help="loss parameter in [1, inf]; 'inf' allowed")
    p_train.add_argument("--lr", type=float, required=True, help="learning rate")

    p_sweep = command("sweep", cmd_sweep, mnist, "tune the learning rate per alpha on validation")
    p_sweep.add_argument("--alphas", default="1,1.1,1.2,1.5,2", help=alphas)
    p_sweep.add_argument("--lr-grid", default="1.0,1.3,1.9,2.0",
                         help="comma-separated learning rates to try (default: %(default)s)")

    p_cal = command("calibration", cmd_calibration, out, "conditional-risk minima per (alpha, eta)")
    p_cal.add_argument("--alphas", default="1,1.5,2,inf", help=alphas)
    p_cal.add_argument("--eta-grid", default="0.1,0.2,0.3,0.4,0.6,0.7,0.8,0.9",
                       help="comma-separated posteriors in (0, 1); 0.5 is skipped"
                            " (default: %(default)s)")
    p_cal.add_argument("--f-range", type=float, default=50.0,
                       help="the grid covers f in [-F, F] (default: %(default)s)")
    p_cal.add_argument("--grid-step", type=float, default=1e-3,
                       help="spacing of the f grid, in (0, 1] (default: %(default)s)")

    p_land = command("landscape", cmd_landscape, seeded, "risk-gap scaling experiment")
    p_land.add_argument("--alphas", default="2", help=alphas)
    p_land.add_argument("--ns", default="100,1000,10000",
                        help="comma-separated training-set sizes (default: %(default)s)")
    p_land.add_argument("--trials", type=int, default=20,
                        help="independent samples per (alpha, n) (default: %(default)s)")
    p_land.add_argument("--dim", type=int, default=5,
                        help="feature dimension (default: %(default)s)")
    p_land.add_argument("--radius", type=float, default=1.0,
                        help="features are truncated to this ball (default: %(default)s)")
    p_land.add_argument("--mean-norm", type=float, default=0.8,
                        help="distance of the +1 class mean from 0 (default: %(default)s)")
    p_land.add_argument("--noise", type=float, default=0.14,
                        help="scale of the Gaussian noise (default: %(default)s)")
    p_land.add_argument("--holdout-n", type=int, default=100000,
                        help="held-out rows that estimate the true risk (default: %(default)s)")
    p_land.add_argument("--lr", type=float, default=1.0,
                        help="learning rate of each model's gradient-descent warm start"
                             " (default: %(default)s)")
    p_land.add_argument("--epochs", type=int, default=300,
                        help="most iterations per model: its warm-start epochs, at most 10,"
                             " then its KKT solver's steps (default: %(default)s)")

    p_curves = command("losscurves", cmd_losscurves, out, "margin loss and derivatives on a z grid")
    p_curves.add_argument("--alphas", default="1,1.5,2,inf", help=alphas)
    p_curves.add_argument("--z-min", type=float, default=-10.0,
                          help="first margin of the grid (default: %(default)s)")
    p_curves.add_argument("--z-max", type=float, default=10.0,
                          help="last margin of the grid (default: %(default)s)")
    p_curves.add_argument("--steps", type=int, default=201,
                          help="grid points, at least 2 (default: %(default)s)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        # argparse exits 2 on a usage error; here 2 means training diverged
        return 1 if stop.code else 0
    started = _now()
    try:
        _commit(args, args.func(args), started)
        return 0
    except TrainingDiverged as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (GenerationFailed, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
