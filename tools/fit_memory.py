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

The next two columns are read from getrusage around an untraced repeat
of the same fit: its minor page faults (ru_minflt) and its system CPU
time in seconds. A fit that allocates no more than the allocator keeps
from the fit before it takes almost no faults; each further array the
size of X that is alive at the peak can bring back a page fault per page
it touches, and the system time that goes with them.

tracemalloc does not see what NumPy's linalg allocates (LAPACK's copy of
its input and its workspace), nor pages the allocator keeps mapped
after a free. The last two columns see both: each fit runs once more in
a fresh interpreter, which loads X from a file (building it there would
leave planted's temporaries in the high-water) and runs the small fit
first, and reports how far the fit raised the process's high-water of
resident memory, in MB, and the phase during which that high-water last
rose. The high-water is read on entry to and exit from each phase call,
so a rise is charged to the phase that was running, or to "other"
between calls; rise_mb lists each phase's share, in the order of the
phases' last rises. It is Linux's VmHWM (/proc/self/status), which is what
ru_maxrss reports for a process that started small: a child's ru_maxrss
starts at its parent's high-water, which exec does not reset.
"""
import functools
import resource
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np

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


def high_water_kb():
    """This process's high-water of resident memory (VmHWM), in KiB."""
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f
                    if line.startswith("VmHWM:"))


def rss_fit(path, rank):
    """Print how far one fit of the X saved at path raised the high-water
    of resident memory, in MB, the phase during which it last rose, and
    each phase's share; run in a fresh interpreter by rss_rise."""
    warnings.simplefilter("ignore", RuntimeWarning)
    X = np.load(path)
    fit_svd(workloads.planted(0, (10, 4))[0], 1, SolverOptions(alpha=ALPHA))
    start = high_water_kb()
    rises = {}      # KiB charged to each phase, in the order of last rises

    def read(name):
        # what the high-water rose by since the last reading, while name ran
        rise = high_water_kb() - start - sum(rises.values())
        if rise > 0:
            rises[name] = rises.pop(name, 0) + rise

    def wrap(name, fn):
        @functools.wraps(fn)
        def phase(*args, **kwargs):
            read("other")
            try:
                return fn(*args, **kwargs)
            finally:
                read(name.lstrip("_"))
        return phase

    for name in PHASES:
        setattr(rank1, name, wrap(name, getattr(rank1, name)))
    fit_svd(X, rank, SolverOptions(alpha=ALPHA))
    read("other")
    print(sum(rises.values()) / 1024.0, next(reversed(rises), "none"),
          ",".join(f"{k}:{kb / 1024.0:.2f}" for k, kb in rises.items()))


def rss_rise(X, rank):
    """What rss_fit prints for X, run in a fresh interpreter: the rise in
    MB, the phase of the last rise and the MB each phase raised it by."""
    here = str(Path(__file__).resolve().parent)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "X.npy")
        np.save(path, X)
        code = (f"import sys; sys.path.insert(0, {here!r}); import "
                f"fit_memory; fit_memory.rss_fit({path!r}, {rank})")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             stdout=subprocess.PIPE, text=True).stdout.split()
    return float(out[0]), out[1], out[2] if len(out) > 2 else "-"


def main():
    # a layer stopped at max_iter warns; its peak is measured all the same
    warnings.simplefilter("ignore", RuntimeWarning)
    fit_svd(workloads.planted(0, (10, 4))[0], 1, SolverOptions(alpha=ALPHA))
    names = ("fit",) + tuple(p.lstrip("_") for p in PHASES) + ("other",)
    print("peak / X.nbytes at alpha", ALPHA)
    print(f"{'shape':<10}{'rank':>5}" + "".join(f"{n:>15}" for n in names)
          + f"{'minflt':>10}{'sys_s':>8}{'rss_mb':>8}  {'last_rise':<15}"
          "rise_mb")
    for shape, rank in FITS:
        X = workloads.planted(0, shape)[0]
        peak, peaks = traced_fit(X, rank)
        faults, sys_s = untraced_fit(X, rank)
        rss_mb, last, by_phase = rss_rise(X, rank)
        row = [peak] + [peaks[p] for p in PHASES + ("other",)]
        print(f"{f'{shape[0]}x{shape[1]}':<10}{rank:>5}"
              + "".join(f"{b / X.nbytes:>15.3f}" for b in row)
              + f"{faults:>10}{sys_s:>8.3f}{rss_mb:>8.2f}  {last:<15}"
              + by_phase, flush=True)


if __name__ == "__main__":
    main()
