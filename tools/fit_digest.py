"""Print one SHA-256 per group of fits, to check that two trees fit alike.

    PYTHONPATH=src python tools/fit_digest.py

dpdsvd is imported from the first tree on sys.path, so running this once
with each tree's src first on PYTHONPATH and comparing the two outputs
checks a claim that a change leaves fits bit-identical. The digests
depend on the BLAS and its thread count: compare runs made on one host
with OPENBLAS_NUM_THREADS=1. The groups:

criterion2    the 2004 fit_rank1 fits of the acceptance test's criterion 2
study         fit_svd at rank 4 and alpha 0.1, 0.5 and 1 of the S2c study
              replicates default_rng([b, r]), b = 1..8, r = 0..3
large         fit_svd at rank 3 and alpha 0.5 of the benchmark's 2000x200
              planted draw, permuted by seeds 0 and 1
reports       report_to_csv bytes of run_simulation on S2c, S3, S4 and S1
              at 12 replicates
alpha0        lambdas, U, V and sigma2s of alpha-0 fits: criterion 1's 100
              rank-3 10x4 draws and the benchmark's 1000x50 cli draw
alpha0-trace  the traces of the same alpha-0 fits

Outside the alpha-0 groups, a fit adds its lambdas, vectors, sigma2s,
traces, iteration counts and converged flags to its group's digest.
"""
import hashlib
import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402  (the benchmark's inputs)
from dpdsvd import (SimConfig, SolverOptions, fit_rank1, fit_svd,  # noqa: E402
                    make_ground_truth, report_to_csv, run_simulation,
                    sample_noise)


def _fit_bytes(fit):
    """The bytes of a Rank1Fit: every field, in a fixed order."""
    return b"".join([np.float64(fit.lambda_).tobytes(), fit.u.tobytes(),
                     fit.v.tobytes(), np.float64(fit.sigma2).tobytes(),
                     fit.trace.tobytes(),
                     f"{fit.iterations},{fit.converged};".encode()])


def _layers(dec):
    return b"".join(_fit_bytes(d) for d in dec.diagnostics)


def _factors(dec):
    return b"".join(np.ascontiguousarray(a).tobytes()
                    for a in (dec.lambdas, dec.U, dec.V, dec.sigma2s))


def _traces(dec):
    return b"".join(d.trace.tobytes() for d in dec.diagnostics)


def criterion2():
    families = ((10, 4, 8.0, 15.0), (20, 6, 10.0, 20.0))
    for fi, (n, p, lo, hi) in enumerate(families):
        for s in range(334):
            rng = np.random.default_rng([11, fi, s])
            uu = rng.standard_normal(n)
            vv = rng.standard_normal(p)
            lam0 = rng.uniform(lo, hi)
            E = rng.standard_normal((n, p))
            X = lam0 * np.outer(uu / np.linalg.norm(uu),
                                vv / np.linalg.norm(vv)) + E
            for alpha in (0.1, 0.5, 1.0):
                yield _fit_bytes(fit_rank1(X, SolverOptions(alpha=alpha)))


def study():
    X0 = make_ground_truth().X0
    for b in range(1, 9):
        for r in range(4):
            X = X0 + sample_noise("S2c", np.random.default_rng([b, r]))[0]
            for alpha in (0.1, 0.5, 1.0):
                yield _layers(fit_svd(X, 4, SolverOptions(alpha=alpha)))


def large():
    for seed in (0, 1):
        X = workloads.permuted_planted(seed, workloads.LARGE_SHAPE)[0]
        yield _layers(fit_svd(X, workloads.LARGE_RANK,
                              SolverOptions(alpha=workloads.LARGE_ALPHA)))


def reports():
    for setup in ("S2c", "S3", "S4", "S1"):
        yield report_to_csv(run_simulation(
            SimConfig(setup, replicates=12))).encode()


def _alpha0(part):
    for s in range(100):
        X = np.random.default_rng([3, s]).standard_normal((10, 4))
        yield part(fit_svd(X, 3))
    X = workloads.permuted_planted(0, workloads.CLI_SHAPE)[0]
    yield part(fit_svd(X, workloads.CLI_RANK))


GROUPS = {"criterion2": criterion2, "study": study, "large": large,
          "reports": reports, "alpha0": lambda: _alpha0(_factors),
          "alpha0-trace": lambda: _alpha0(_traces)}


def main():
    # a layer stopped at max_iter warns; its flag is in the digest
    warnings.simplefilter("ignore", RuntimeWarning)
    for name, group in GROUPS.items():
        digest = hashlib.sha256()
        for chunk in group():
            digest.update(chunk)
        print(f"{name:<14}{digest.hexdigest()}", flush=True)


if __name__ == "__main__":
    main()
