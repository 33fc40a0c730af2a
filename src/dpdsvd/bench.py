"""Wall-time benchmark of the rank-one fit across matrix sizes.

Matrices have iid Uniform(0,1) entries drawn from independent streams
keyed by (size, alpha index, rep): default_rng([5, n, j, r]). Fits are
timed strictly sequentially so the numbers reflect single-fit latency.
"""
import time
from dataclasses import dataclass

import numpy as np

from .decomposition import fit_rank1
from .rank1 import SolverOptions


@dataclass
class BenchResult:
    """Mean fit times in milliseconds, one row per n, one column per alpha."""
    rows: tuple
    cols: int
    alphas: tuple
    reps: int
    times_ms: np.ndarray


def run_timing_bench(rows_list, p, alphas, reps=3):
    """Time rank-one fits on n x p Uniform(0,1) matrices.

    Returns a BenchResult with the mean wall time over `reps` fresh
    matrices for every (n in rows_list, alpha) cell.
    """
    rows = tuple(int(n) for n in rows_list)
    if any(n < 2 for n in rows):
        raise ValueError("row counts must be at least 2")
    p = int(p)
    if p < 2:
        raise ValueError("p must be at least 2")
    alphas = tuple(float(a) for a in alphas)
    reps = int(reps)
    if reps < 1:
        raise ValueError("reps must be at least 1")
    times = np.zeros((len(rows), len(alphas)))
    for i, n in enumerate(rows):
        for j, alpha in enumerate(alphas):
            opts = SolverOptions(alpha=alpha)
            total = 0.0
            for r in range(reps):
                X = np.random.default_rng([5, n, j, r]).random((n, p))
                t0 = time.perf_counter()
                fit_rank1(X, opts)
                total += time.perf_counter() - t0
            times[i, j] = 1e3 * total / reps
    return BenchResult(rows=rows, cols=p, alphas=alphas, reps=reps,
                       times_ms=times)


def bench_to_csv(result):
    """Table-shaped CSV: one row per n, one timing column per alpha."""
    header = "n," + ",".join(repr(a) for a in result.alphas)
    lines = [header]
    for i, n in enumerate(result.rows):
        cells = ",".join(f"{t:.3f}" for t in result.times_ms[i])
        lines.append(f"{n},{cells}")
    return "\n".join(lines) + "\n"
