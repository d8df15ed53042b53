"""Reference kernels that measure how fast the machine is right now.

    python3 perfbench/probe.py WORKLOAD

The benchmark host is a few vCPUs of a shared machine whose speed drifts by
20-60% over minutes, as neighbours load its caches, memory bus and cores.
A run's median CLI wall time follows that drift, so two runs of the same
code can differ by more than any useful regression bound.

Each workload therefore has a probe: a fixed, numpy-only copy of the kind of
work its CLI run is bound by, written here and never imported from the
program, so that a change to the program cannot change the probe.  Like the
CLI, it runs in a fresh process, so its wall time also includes interpreter
start and imports, which drift with the machine as much as the kernels do.
The benchmark runs the probe before every CLI child and after the last one,
and scales each child's wall time by ``REFERENCE_S / probe wall time``, the
mean of the probes on either side of it.  The result is the child's wall
time in seconds of a machine on which the probe takes ``REFERENCE_S``.
"""

from __future__ import annotations

import math
import sys

import numpy as np

_rng = np.random.default_rng(20190212)


def _sweep_kernel() -> None:
    """Full-batch logistic gradient steps on an MNIST-shaped 11,500x785 matrix."""
    x = _rng.uniform(0.0, 1.0, size=(11500, 785))
    y = np.where(_rng.random(11500) < 0.5, -1.0, 1.0)
    w = np.zeros(x.shape[1])
    for _ in range(8):
        z = y * (x @ w)
        coeffs = -y * np.exp(-np.logaddexp(0.0, z))
        w = w - 0.5 * ((x.T @ coeffs) / x.shape[0])


def _landscape_kernel() -> None:
    """Many small gradient-descent fits: per-epoch call overhead and 10k-row kernels."""
    for n in (100, 1000, 10000):
        x = _rng.standard_normal((n, 5)) * 0.3
        y = np.where(_rng.random(n) < 0.5, -1.0, 1.0)
        w = np.zeros(5)
        for _ in range(100):
            z = y * (x @ w)
            coeffs = -y * np.exp(-np.logaddexp(0.0, z))
            w = w - 0.5 * ((x.T @ coeffs) / x.shape[0])
            risk = float(np.mean(np.logaddexp(0.0, -y * (x @ w))))
            if not math.isfinite(risk):
                raise ArithmeticError("probe diverged")


def _calibration_kernel() -> None:
    """Margin losses on a 100,001-point grid, then a scalar golden-section search."""
    grid = np.linspace(-50.0, 50.0, 100001)
    for exponent, eta in ((0.5, 0.3), (0.8, 0.7), (0.17, 0.45), (1.0, 0.91)) * 6:
        ls = -np.logaddexp(0.0, -grid)
        ls_neg = -np.logaddexp(0.0, grid)
        risks = eta * -np.expm1(exponent * ls) + (1.0 - eta) * -np.expm1(exponent * ls_neg)
        best = int(np.argmin(risks))

        def risk_at(f: float) -> float:
            return (eta * -math.expm1(-exponent * math.log1p(math.exp(-f)))
                    + (1.0 - eta) * -math.expm1(-exponent * math.log1p(math.exp(f))))

        lo, hi = float(grid[max(best - 1, 0)]), float(grid[min(best + 1, grid.size - 1)])
        ratio = (math.sqrt(5.0) - 1.0) / 2.0
        for _ in range(300):
            a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
            if risk_at(a) < risk_at(b):
                hi = b
            else:
                lo = a


KERNELS = {
    "sweep-mnist": _sweep_kernel,
    "landscape-grid": _landscape_kernel,
    "calibration-dense": _calibration_kernel,
}

# Median wall seconds of ``python3 perfbench/probe.py WORKLOAD`` on a 2-vCPU
# Xeon with OpenBLAS 0.3.31, numpy 2.4.6 and Python 3.11.
REFERENCE_S = {
    "sweep-mnist": 0.455,
    "landscape-grid": 0.416,
    "calibration-dense": 0.461,
}


if __name__ == "__main__":
    KERNELS[sys.argv[1]]()
