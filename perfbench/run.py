"""Benchmark of dpdsvd: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload {study,large,cli} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere: the package is imported from the src/ directory next
to this one, never from an installed copy. BLAS is pinned to one thread
through this process's environment, which its children inherit.

A run repeats whole rounds of the workload's operations until S seconds
have passed; every round does the same work. With --trace 0 it reports
the end-to-end metrics: setup_s (median of several fresh-interpreter
set-ups), op_s (wall time of one operation: the median over rounds of
the round's mean) and peak_rss_mb. With
--trace 1 the module boundaries are traced (spans.py) and it reports the
per-layer metrics as means per operation over whole rounds, so counts
repeat exactly.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the run's
metadata. Everything, per-operation times and spans included, is also
written to perfbench/out/.
"""
import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads as W  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150.0


def spawn(argv, env=None, cwd=None):
    """Run a child to its end; returns (exit code, its ru_maxrss in KiB).

    Waits in one blocking wait4 call, so the caller's clock sees the exit
    at once (subprocess's timed wait polls in steps of up to 50 ms); a
    timer kills a child that outlives CHILD_TIMEOUT_S.
    """
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


class Workload:
    """One workload: set-up, a round of operations, checks, memory."""

    def __init__(self, seed):
        self.seed = seed

    def round(self):
        """Keys of the operations of one round, in order."""
        return [0]

    def finish(self):
        """Problems found over the whole run."""
        return []

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self):
        pass


class Study(Workload):
    """run_simulation over 4-replicate S2c batches; a round runs each
    batch of the study pool once, in the seed's order."""

    def __init__(self, seed):
        super().__init__(seed)
        self.bias_ratios = []

    def setup(self):
        from dpdsvd import SimConfig, run_simulation
        self.SimConfig, self.run_simulation = SimConfig, run_simulation
        self.batches = W.study_pool(self.seed)
        # warm-up: one replicate outside the pool, the same for every seed
        run_simulation(SimConfig(W.STUDY_SETUP, replicates=1,
                                 alphas=W.STUDY_ALPHAS[:1], seed=0), threads=1)

    def round(self):
        return self.batches

    def config(self, batch_seed):
        return self.SimConfig(W.STUDY_SETUP, replicates=W.STUDY_REPLICATES,
                              alphas=W.STUDY_ALPHAS, seed=batch_seed)

    def op(self, batch_seed):
        cfg = self.config(batch_seed)
        t0 = time.perf_counter()
        report = self.run_simulation(cfg, threads=1)
        return time.perf_counter() - t0, report

    def traced(self, batch_seed, tracer):
        cfg = self.config(batch_seed)
        with spans.installed(tracer):
            span, report = tracer.call("sim.run_simulation",
                                       self.run_simulation, cfg, threads=1)
        return span.seconds, report

    def check(self, batch_seed, report):
        self.bias_ratios.append(W.study_bias_ratio(report))
        return W.check_study(report, batch_seed)

    def finish(self):
        return W.check_study_band(self.bias_ratios)


class Large(Workload):
    """fit_svd at rank 3, alpha 0.5, on the 2000x200 planted matrix."""

    def setup(self):
        from dpdsvd import SolverOptions, fit_svd
        self.fit_svd = fit_svd
        self.opts = SolverOptions(alpha=W.LARGE_ALPHA)
        self.X, self.lams, self.U0, self.V0 = W.permuted_planted(
            self.seed, W.LARGE_SHAPE)
        # warm-up: a fixed small fit, the same work for every seed
        fit_svd(W.planted(W.PLANTED_SEED, (100, 20))[0], W.LARGE_RANK,
                self.opts)

    def op(self, key):
        t0 = time.perf_counter()
        dec = self.fit_svd(self.X, W.LARGE_RANK, self.opts)
        return time.perf_counter() - t0, dec

    def traced(self, key, tracer):
        fit_svd = tracer.fit_svd(self.fit_svd)
        with spans.installed(tracer):
            t0 = time.perf_counter()
            dec = fit_svd(self.X, W.LARGE_RANK, self.opts)
            return time.perf_counter() - t0, dec

    def check(self, key, dec):
        return W.check_large(dec, self.lams, self.U0, self.V0)


class Cli(Workload):
    """`python -m dpdsvd decompose --rank 3` child processes on a CSV."""

    def __init__(self, seed):
        super().__init__(seed)
        self.work = OUT / f"cli-{os.getpid()}"
        self.csv = self.work / "input.csv"
        self.json = self.work / "output.json"
        self.rss_kb = []

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        X = W.permuted_planted(self.seed, W.CLI_SHAPE)[0]
        np.savetxt(self.csv, X, fmt="%.17g", delimiter=",")
        self.X = np.loadtxt(self.csv, delimiter=",", ndmin=2)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        code, _ = spawn([sys.executable, "-m", "dpdsvd", "--help"],
                        env=self.env, cwd=self.work)
        if code != 0:
            raise RuntimeError(f"`python -m dpdsvd --help` exited {code}")

    def argv(self):
        return ["decompose", "--input", str(self.csv), "--output",
                str(self.json), "--rank", str(W.CLI_RANK)]

    def _run(self, argv):
        self.json.unlink(missing_ok=True)
        t0 = time.perf_counter()
        code, rss = spawn(argv, env=self.env, cwd=self.work)
        dt = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"dpdsvd exited {code}")
        self.rss_kb.append(rss)
        with open(self.json, encoding="utf-8") as fh:
            return dt, json.load(fh)

    def op(self, key):
        return self._run([sys.executable, "-m", "dpdsvd"] + self.argv())

    def traced(self, key, tracer):
        trace = self.work / "trace.json"
        spawned = time.monotonic()
        dt, payload = self._run([sys.executable, str(HERE / "cli_child.py"),
                                 str(trace)] + self.argv())
        with open(trace, encoding="utf-8") as fh:
            child = json.load(fh)
        tracer.adopt(child["spans"])
        tracer.add("cli.start", spawned, child["import_done"])
        return dt, payload

    def check(self, key, payload):
        return W.check_cli(payload, self.X)

    def peak_rss_mb(self):
        return statistics.median(self.rss_kb) / 1024.0

    def close(self):
        if self.work.is_dir():
            for f in self.work.iterdir():
                f.unlink()
            self.work.rmdir()


WORKLOADS = {"study": Study, "large": Large, "cli": Cli}


def host_ref():
    """Seconds for a fixed Python loop plus fixed NumPy work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i % 7
    a = np.linspace(0.0, 1.0, 200_000)
    for _ in range(20):
        a = np.exp(-a)
    M = np.linspace(-1.0, 1.0, 200 * 200).reshape(200, 200)
    for _ in range(10):
        M = np.tanh(M @ M.T)
    return time.perf_counter() - t0


def metadata():
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=HERE, capture_output=True, text=True,
                             timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and Path(lines[0]).resolve() == HERE.parent:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"commit": commit, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS}


def time_setups(args):
    """Wall seconds of SETUP_PROBES fresh interpreters, each running the
    workload's set-up (import, inputs, warm-up) and exiting."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "1",
           "--setup-only"]
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        code, _ = spawn(cmd)
        out.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}")
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import dpdsvd from ../src; exits with an error when it is not there."""
    if not (SRC / "dpdsvd" / "__init__.py").is_file():
        sys.exit(f"run.py: no dpdsvd package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dpdsvd
    if not Path(dpdsvd.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"run.py: imported dpdsvd from {dpdsvd.__file__}, not {SRC}")


def measure(args, work, tracer):
    """Whole rounds of operations until args.seconds have passed.

    Returns (attempted, failed, seconds per operation, mean seconds per
    operation in each round, problems, per-layer metrics per operation);
    the last is empty unless args.trace.
    """
    times, problems, layers, rounds = [], [], [], []
    attempted = failed = 0
    t_begin = time.perf_counter()
    while time.perf_counter() - t_begin < args.seconds:
        rounds.append(len(times))
        for key in work.round():
            attempted += 1
            first = len(tracer.spans)
            try:
                dt, out = (work.traced(key, tracer) if args.trace
                           else work.op(key))
            except (RuntimeError, ArithmeticError, ValueError, OSError) as exc:
                failed += 1
                print(f"operation {key} failed: {exc!r}", file=sys.stderr)
                continue
            times.append(dt)
            problems += [f"op {key}: {p}" for p in work.check(key, out)]
            if args.trace:
                layers.append(spans.layer_metrics(tracer.spans[first:]))
    rounds.append(len(times))
    per_round = [statistics.fmean(times[a:b])
                 for a, b in zip(rounds, rounds[1:]) if b > a]
    return (attempted, failed, times, per_round, problems + work.finish(),
            layers)


def main(argv=None):
    args = parse_args(argv)
    import_program()
    work = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        try:
            work.setup()
        finally:
            work.close()
        return 0

    OUT.mkdir(exist_ok=True)
    meta = metadata()
    refs = [host_ref()]
    setups = [] if args.trace else time_setups(args)
    tracer = spans.Tracer()
    try:
        work.setup()
        attempted, failed, times, per_round, problems, layers = measure(
            args, work, tracer)
    finally:
        work.close()
    refs.append(host_ref())
    if not times:
        sys.exit(f"run.py: all {attempted} operations failed")

    if args.trace:
        per_op = {name: statistics.fmean(m[name] for m in layers)
                  for name, _ in spans.PER_LAYER if name != "host.ref_s"}
        per_op["host.ref_s"] = statistics.fmean(refs)
        metrics = {name: {"value": per_op[name], "unit": unit}
                   for name, unit in spans.PER_LAYER}
    else:
        metrics = {"setup_s": {"value": statistics.median(setups),
                               "unit": "s"},
                   "op_s": {"value": statistics.median(per_round),
                            "unit": "s"},
                   "peak_rss_mb": {"value": work.peak_rss_mb(), "unit": "MB"}}
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, args=vars(args), meta=meta, op_s=times,
                  op_s_per_round=per_round, setup_s=setups, host_ref_s=refs,
                  problems=problems,
                  per_op_layers=layers,
                  study_bias_ratios=getattr(work, "bias_ratios", None))
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(
            json.dumps([s.as_dict() for s in tracer.spans]) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
