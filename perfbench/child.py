"""Child processes of the benchmark: a traced CLI run and a set-up probe.

    python3 perfbench/child.py trace SPANS.json -- CLI-ARGS...
    python3 perfbench/child.py setup WORKLOAD MNIST-DIR SEED

``trace`` runs ``alphaloss.cli.main`` with a span around every call one
module of the package makes into another, recorded at the binding the caller
uses (the package imports with ``from .x import y``, so patching the defining
module alone would record nothing).  Spans stay in memory and are written to
SPANS.json when the CLI returns; the exit code is the CLI's.

``setup`` times, from outside the package, what a run pays before any model
or grid point is computed, and prints it as one JSON object.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

_CHECKOUT_SRC = os.path.join(os.getcwd(), "src")


def _check_origin(module) -> None:
    if not os.path.abspath(module.__file__).startswith(_CHECKOUT_SRC + os.sep):
        raise SystemExit(f"alphaloss imported from {module.__file__}, not {_CHECKOUT_SRC}")


class Tracer:
    """Spans as [name, start, end, parent index, work count, error class]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, work=None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, work, None])
        self._stack.append(index)
        return index

    def close(self, index: int, error: BaseException | None = None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        if error is not None:
            span[5] = type(error).__name__
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, work=None) -> None:
        """Replace ``module.attr`` by a spanning wrapper; ``work(args)`` counts its work."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = self.open(name, work(args) if work else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                self.close(index, err)
                raise
            self.close(index)
            return result

        setattr(module, attr, spanned)


def _install(tracer: Tracer) -> None:
    import numpy as np

    from alphaloss import calibration, cli, landscape, logreg

    elems = lambda args: int(np.size(args[1]))
    sample_epochs = lambda args: int(args[1].n) * int(args[0].epochs)
    grid_key = lambda args: [args[0].value, *args[2:]]
    for module, attr, name, work in (
        (cli, "load_mnist_dir", "mnist.load", None),
        (cli, "build_binary_task", "mnist.task_build", None),
        (cli, "train", "logreg.train", sample_epochs),
        (cli, "evaluate", "logreg.evaluate", None),
        (cli, "check_calibration_at", "calibration.check", grid_key),
        (cli, "risk_gap_experiment", "landscape.experiment", None),
        (cli, "median_gaps", "landscape.median_gaps", None),
        (cli, "log_log_slope", "landscape.log_log_slope", None),
        (cli, "min_conditional_risk", "losses.min_conditional_risk", None),
        (cli, "optimal_classifier", "losses.optimal_classifier", None),
        (logreg, "margin_losses", "losses.margin_losses", elems),
        (logreg, "_sigmoid_array", "losses.sigmoid_array", None),
        (logreg, "evaluate", "logreg.evaluate", None),
        (calibration, "margin_losses", "losses.margin_losses", elems),
        (calibration, "conditional_risk", "losses.conditional_risk", None),
        (calibration, "optimal_classifier", "losses.optimal_classifier", None),
        (landscape, "generate_symmetric_dataset", "landscape.generate", lambda args: int(args[1])),
        (landscape, "train", "logreg.train", sample_epochs),
        (landscape, "empirical_risk", "logreg.empirical_risk", None),
        (landscape, "evaluate", "logreg.evaluate", None),
    ):
        tracer.wrap(module, attr, name, work)


def trace(spans_path: str, argv: list[str]) -> int:
    import alphaloss.cli

    _check_origin(alphaloss.cli)
    tracer = Tracer()
    _install(tracer)
    index = tracer.open("cli")
    try:
        code = alphaloss.cli.main(argv)
    finally:
        tracer.close(index)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


def setup(workload: str, mnist_dir: str, seed: int) -> int:
    timings = {}
    start = time.perf_counter()
    import alphaloss.cli

    timings["import_s"] = time.perf_counter() - start
    _check_origin(alphaloss.cli)
    if workload == "sweep-mnist":
        from alphaloss.mnist import build_binary_task, load_mnist_dir

        start = time.perf_counter()
        corpus = load_mnist_dir(mnist_dir)
        timings["load_s"] = time.perf_counter() - start
        start = time.perf_counter()
        build_binary_task(*corpus, seed)
        timings["task_build_s"] = time.perf_counter() - start
    elif workload == "landscape-grid":
        from workloads import LANDSCAPE

        from alphaloss.landscape import SymmetricDataSpec, generate_symmetric_dataset

        spec = SymmetricDataSpec.along_first_axis(
            dim=LANDSCAPE["dim"], radius=1.0, mean_norm=0.8, noise_scale=0.14, seed=seed
        )
        start = time.perf_counter()
        generate_symmetric_dataset(spec, LANDSCAPE["holdout_n"])
        timings["generate_s"] = time.perf_counter() - start
    print(json.dumps(timings))
    return 0


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "trace":
        sys.exit(trace(sys.argv[2], sys.argv[4:]))
    sys.exit(setup(sys.argv[2], sys.argv[3], int(sys.argv[4])))
