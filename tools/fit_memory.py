"""Print the traced memory peak of a few fits, in multiples of X.nbytes.

    PYTHONPATH=src python tools/fit_memory.py

Each fit is fit_svd at alpha 0.5 of the benchmark's planted matrix
workloads.planted(0, shape): 400x100 at rank 1, and 2000x200 at ranks 1
and 3. X is allocated before tracing starts, so a peak counts what the
fit allocates, not X itself, and a small fit runs first: the first fit
of a process imports no module, but it allocates about 1.7 KB more than
later ones inside NumPy's first ufunc calls, which moved the 400x100
peak by 0.004 X.nbytes. Next to the whole fit's peak, each phase gets
the largest peak of its calls: the start (rank1._init), the regression
half-steps (_half_step), the scale solves (_sigma_solve) and the Newton
polish (_newton_polish). A phase's peak includes what is alive when it
is entered, such as the running residual of a deflated layer and the
iterate's residuals and weights. "other" is the rest of the fit: the
iterate's own passes in _solve, the deflation and the layer loop.

The last two columns are read from getrusage around an untraced repeat of
the same fit: its minor page faults (ru_minflt) and its system CPU time
in seconds. A fit that allocates no more than the allocator keeps from
the fit before it takes almost no faults; each further array the size
of X that is alive at the peak can bring back a page fault per page it
touches, and the system time that goes with them.
"""
import functools
import resource
import sys
import tracemalloc
import warnings
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402  (the benchmark's inputs)
from dpdsvd import SolverOptions, fit_svd, rank1  # noqa: E402

FITS = (((400, 100), 1), ((2000, 200), 1), ((2000, 200), 3))
PHASES = ("_init", "_half_step", "_sigma_solve", "_newton_polish")
ALPHA = 0.5


def traced_fit(X, rank):
    """The whole fit's traced peak and the peak of each phase, in bytes.

    Each phase call resets the traced peak on entry, so the peak before
    it is folded into "other" first; the whole fit's peak is the largest
    of all of them.
    """
    peaks = dict.fromkeys(PHASES + ("other",), 0)

    def fold(name):
        peaks[name] = max(peaks[name], tracemalloc.get_traced_memory()[1])

    def wrap(name, fn):
        @functools.wraps(fn)
        def phase(*args, **kwargs):
            fold("other")
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                fold(name)
                tracemalloc.reset_peak()
        return phase

    originals = {name: getattr(rank1, name) for name in PHASES}
    for name, fn in originals.items():
        setattr(rank1, name, wrap(name, fn))
    tracemalloc.start()
    try:
        fit_svd(X, rank, SolverOptions(alpha=ALPHA))
        fold("other")
    finally:
        tracemalloc.stop()
        for name, fn in originals.items():
            setattr(rank1, name, fn)
    return max(peaks.values()), peaks


def untraced_fit(X, rank):
    """Minor page faults and system CPU seconds of one untraced fit."""
    before = resource.getrusage(resource.RUSAGE_SELF)
    fit_svd(X, rank, SolverOptions(alpha=ALPHA))
    after = resource.getrusage(resource.RUSAGE_SELF)
    return after.ru_minflt - before.ru_minflt, after.ru_stime - before.ru_stime


def main():
    # a layer stopped at max_iter warns; its peak is measured all the same
    warnings.simplefilter("ignore", RuntimeWarning)
    fit_svd(workloads.planted(0, (10, 4))[0], 1, SolverOptions(alpha=ALPHA))
    names = ("fit",) + tuple(p.lstrip("_") for p in PHASES) + ("other",)
    print("peak / X.nbytes at alpha", ALPHA)
    print(f"{'shape':<10}{'rank':>5}" + "".join(f"{n:>15}" for n in names)
          + f"{'minflt':>10}{'sys_s':>8}")
    for shape, rank in FITS:
        X = workloads.planted(0, shape)[0]
        peak, peaks = traced_fit(X, rank)
        faults, sys_s = untraced_fit(X, rank)
        row = [peak] + [peaks[p] for p in PHASES + ("other",)]
        print(f"{f'{shape[0]}x{shape[1]}':<10}{rank:>5}"
              + "".join(f"{b / X.nbytes:>15.3f}" for b in row)
              + f"{faults:>10}{sys_s:>8.3f}", flush=True)


if __name__ == "__main__":
    main()
