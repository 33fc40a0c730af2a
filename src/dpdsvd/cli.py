"""Command line front end: decompose a CSV matrix, run the simulation
study, or run the timing benchmark.

Exit codes: 0 success, 2 invalid arguments, malformed input or an
unwritable output path, 3 solver degeneracy. Anticipated errors print a
one-line message on standard error. The environment variable RSVD_SEED
supplies a fallback seed when --seed is not given; an RSVD_SEED that is
not an integer exits 2, and so does a negative seed from either. A flag
left unset takes the library's default: the SolverOptions class
attributes for decompose, the SimConfig ones for simulate and
run_timing_bench's reps for bench.
"""
import argparse
import json
import os
import sys
import warnings

import numpy as np

from .bench import bench_to_csv, run_timing_bench
from .decomposition import fit_svd
from .rank1 import INIT_POLICIES, SolverOptions
from .sim import (FULL_REPLICATES, SETUPS, SimConfig, format_table,
                  report_to_csv, run_simulation)


def _fail(msg, code):
    print(f"dpdsvd: error: {msg}", file=sys.stderr)
    return code


def _positive_int(text):
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return v


def _list_of(kind, word):
    """argparse type: a non-empty comma-separated list of kind values."""
    def parse(text):
        try:
            items = tuple(kind(t) for t in text.split(",") if t.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a comma-separated {word} list: {text!r}")
        if not items:
            raise argparse.ArgumentTypeError("empty list")
        return items
    return parse


_float_list = _list_of(float, "float")
_int_list = _list_of(int, "integer")


def _seed(args):
    """--seed, else RSVD_SEED, else None; a malformed RSVD_SEED is a
    ValueError."""
    raw = os.environ.get("RSVD_SEED")
    if args.seed is not None or raw is None:
        return args.seed
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"RSVD_SEED must be an integer, got {raw!r}") from None


def _open_output(path):
    """path opened for writing; an OSError becomes a ValueError."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


def _solver_options(args):
    return SolverOptions(alpha=args.alpha, tol=args.tol,
                         max_iter=args.max_iter, eps_sigma=args.eps_sigma,
                         init=args.init, seed=_seed(args))


def _decomposition_json(dec):
    payload = {
        "lambdas": dec.lambdas.tolist(),
        "u": dec.U.tolist(),
        "v": dec.V.tolist(),
        "sigma2": dec.sigma2s.tolist(),
        "diagnostics": [
            {"layer": k, "iterations": d.iterations,
             "converged": bool(d.converged), "trace": d.trace.tolist()}
            for k, d in enumerate(dec.diagnostics)],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _decomposition_csv(dec):
    def row(values):
        return ",".join(map(repr, values))

    lines = ["# lambdas", row(dec.lambdas.tolist()), "# U"]
    lines += map(row, dec.U.tolist())
    lines.append("# V")
    lines += map(row, dec.V.tolist())
    lines += ["# sigma2", row(dec.sigma2s.tolist()), "# diagnostics",
              "layer,iterations,converged"]
    lines += [f"{k},{d.iterations},{d.converged}"
              for k, d in enumerate(dec.diagnostics)]
    return "\n".join(lines) + "\n"


def cmd_decompose(args):
    try:
        with warnings.catch_warnings():
            # an empty input is reported once, by _check_input
            warnings.filterwarnings("ignore", "loadtxt: ", UserWarning)
            X = np.loadtxt(args.input, delimiter=",",
                           skiprows=1 if args.header else 0, ndmin=2)
    except OSError as exc:
        raise ValueError(f"cannot read {args.input}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"malformed CSV in {args.input}: {exc}") from None
    dec = fit_svd(X, args.rank, _solver_options(args))
    with _open_output(args.output) as fh:
        fh.write(_decomposition_json(dec) if args.format == "json"
                 else _decomposition_csv(dec))
    return 0


def cmd_simulate(args):
    replicates = (FULL_REPLICATES if args.full_scale
                  else args.replicates or SimConfig.replicates)
    seed = _seed(args)
    cfg = SimConfig(setup=args.setup, replicates=replicates,
                    alphas=args.alphas,
                    seed=SimConfig.seed if seed is None else seed)
    # opened before the run, so a bad path fails before any replicate
    with _open_output(args.output) as fh:
        report = run_simulation(cfg, threads=args.threads)
        fh.write(report_to_csv(report))
    sys.stdout.write(format_table(report))
    return 0


def cmd_bench(args):
    # an unset --reps takes run_timing_bench's own default
    reps = {} if args.reps is None else {"reps": args.reps}
    result = run_timing_bench(args.rows, args.cols, args.alphas, **reps)
    sys.stdout.write(bench_to_csv(result))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dpdsvd",
        description="Robust singular value decomposition by minimum "
                    "density power divergence.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    dec = sub.add_parser("decompose", help="decompose a CSV matrix")
    dec.add_argument("--input", required=True, help="numeric CSV matrix")
    dec.add_argument("--output", required=True, help="output file path")
    dec.add_argument("--rank", type=_positive_int, required=True)
    dec.add_argument("--alpha", type=float, default=SolverOptions.alpha)
    dec.add_argument("--tol", type=float, default=SolverOptions.tol)
    dec.add_argument("--max-iter", type=_positive_int,
                     default=SolverOptions.max_iter)
    dec.add_argument("--eps-sigma", type=float, default=None)
    dec.add_argument("--init", default=SolverOptions.init,
                     choices=INIT_POLICIES)
    dec.add_argument("--seed", type=int, default=None)
    dec.add_argument("--format", default="json", choices=("csv", "json"))
    dec.add_argument("--header", action="store_true",
                     help="skip the first CSV row")
    dec.set_defaults(func=cmd_decompose)

    sim = sub.add_parser("simulate", help="run the Monte Carlo study")
    sim.add_argument("--setup", required=True,
                     help=f"one of {', '.join(SETUPS)}")
    scale = sim.add_mutually_exclusive_group()
    scale.add_argument("--replicates", type=_positive_int, default=None)
    scale.add_argument("--full-scale", action="store_true",
                       help=f"full-scale run with {FULL_REPLICATES} replicates")
    sim.add_argument("--alphas", type=_float_list, default=SimConfig.alphas)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--output", default="sim_report.csv")
    sim.add_argument("--threads", type=_positive_int, default=1,
                     help="accepted and ignored: replicates always run "
                          "in order in one thread, since the fits hold "
                          "the GIL and threads only made the study slower")
    sim.set_defaults(func=cmd_simulate)

    ben = sub.add_parser("bench", help="run the timing benchmark")
    ben.add_argument("--rows", type=_int_list, default=(50, 250, 1000))
    ben.add_argument("--cols", type=_positive_int, default=25)
    ben.add_argument("--alphas", type=_float_list, default=(0.1, 1.0))
    ben.add_argument("--reps", type=_positive_int, default=None,
                     help="fits per cell (default: run_timing_bench's)")
    ben.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    """Run one subcommand; returns its exit code (module docstring)."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FloatingPointError as exc:
        return _fail(f"solver degeneracy: {exc}", 3)
    except ValueError as exc:
        return _fail(str(exc), 2)
