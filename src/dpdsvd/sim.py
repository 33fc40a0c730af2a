"""Monte Carlo study of the robust SVD under contaminated noise.

Ground truth is the 10x4 rank-3 matrix built from orthogonal polynomial
contrasts with singular values (10, 5, 3). Each replicate adds noise from
one of the study setups, fits the decomposition at full rank min(n, p) = 4
(the rank-3 signal plus the noise-floor singular value, so the fourth
estimate is compared against 0), and accumulates squared bias, MSE and
subspace dissimilarity per singular value. The least squares path
(alpha = 0) serves as the classical SVD baseline row.

Each report row also counts the fits that raised (failures) and the
layers that stopped at max_iter without converging (nonconverged).

Randomness: NumPy's default PCG64 generator; replicate r of a run with
seed s draws from default_rng([s, r]), so replicates are independent
streams and results do not depend on execution order. Replicates run in
order in the calling thread.
"""
from dataclasses import dataclass

import numpy as np

from .decomposition import fit_svd
from .objective import check_alpha
from .rank1 import SolverOptions

SETUPS = ("S1", "S2a", "S2b", "S2c", "S3", "S4", "S5")
# fraction of cells replaced by the value 25 in the contaminated setups
CONTAMINATION = {"s2a": 0.05, "s2b": 0.1, "s2c": 0.2}
CONTAMINATION_VALUE = 25.0
BLOCK = 2              # side of the substituted block in S3
FULL_REPLICATES = 1000


def canonical_setup(name):
    """Case-insensitive setup lookup; raises ValueError on unknown names."""
    low = str(name).lower()
    for s in SETUPS:
        if s.lower() == low:
            return s
    raise ValueError(f"unknown setup {name!r}")


@dataclass
class GroundTruth:
    X0: np.ndarray
    lambdas_true: np.ndarray
    U_true: np.ndarray
    V_true: np.ndarray


@dataclass
class SimConfig:
    """One simulation run: a setup, replicate count, alphas, seed.

    setup is one of SETUPS, in any case; seed must be non-negative. Every
    fit takes the solver's defaults at its row's alpha,
    SolverOptions(alpha=alpha).
    """
    setup: str
    replicates: int = 200
    alphas: tuple = (0.1, 0.5, 1.0)
    seed: int = 42

    def __post_init__(self):
        self.setup = canonical_setup(self.setup)
        if int(self.replicates) < 1:
            raise ValueError("replicates must be at least 1")
        self.replicates = int(self.replicates)
        self.alphas = tuple(check_alpha(a) for a in self.alphas)
        if not self.alphas:
            raise ValueError("alphas must be non-empty")
        self.seed = int(self.seed)
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class MethodResult:
    """Per-(method, alpha) row of a report; arrays are per singular value.

    failures counts the replicates whose fit raised; nonconverged counts
    the layers that stopped at max_iter, summed over the other replicates.
    """
    method: str
    alpha: float
    sq_bias: np.ndarray
    mse: np.ndarray
    variance: np.ndarray
    diss_left: np.ndarray
    diss_right: np.ndarray
    failures: int
    nonconverged: int = 0

    @property
    def sq_bias_total(self):
        return float(np.sum(self.sq_bias))

    @property
    def mse_total(self):
        return float(np.sum(self.mse))

    @property
    def diss_left_total(self):
        return float(np.sum(self.diss_left))

    @property
    def diss_right_total(self):
        return float(np.sum(self.diss_right))


@dataclass
class SimReport:
    setup: str
    replicates: int
    seed: int
    rows: list


def orthogonal_poly_contrasts(m, k):
    """Orthonormal polynomial contrasts of degrees 1..k at points 1..m.

    Column j spans exactly the degree-j polynomials orthogonal to all
    lower degrees and the constant; signs make the leading coefficient
    positive. Requires 1 <= k < m.
    """
    m = int(m)
    k = int(k)
    if m < 2:
        raise ValueError("m must be at least 2")
    if not 1 <= k < m:
        raise ValueError("k must satisfy 1 <= k < m")
    V = np.vander(np.arange(1, m + 1, dtype=float), k + 1, increasing=True)
    Q, R = np.linalg.qr(V)
    Q = Q * np.sign(np.diag(R))
    return Q[:, 1:]


def make_ground_truth():
    """The 10x4 rank-3 study matrix with singular values (10, 5, 3)."""
    U = orthogonal_poly_contrasts(10, 3)
    V = orthogonal_poly_contrasts(4, 3)
    lams = np.array([10.0, 5.0, 3.0])
    X0 = (U * lams) @ V.T
    return GroundTruth(X0=X0, lambdas_true=lams, U_true=U, V_true=V)


def sample_noise(setup, rng, shape=(10, 4)):
    """Noise draw for one replicate: (errors, substitution_mask).

    The mask is None except for S3, where a random 2x2 block of the data
    matrix (not of the errors) is substituted with the value 25; the
    caller applies X[mask] = 25 after adding the errors. Draw order per
    setup is fixed: the error array first, then any placement draws.
    """
    s = canonical_setup(setup).lower()
    n, p = shape
    if s == "s1":
        return rng.standard_normal(shape), None
    if s in CONTAMINATION:
        E = rng.standard_normal(shape)
        E[rng.random(shape) < CONTAMINATION[s]] = CONTAMINATION_VALUE
        return E, None
    if s == "s3":
        E = rng.standard_normal(shape)
        i0 = int(rng.integers(0, n - BLOCK + 1))
        j0 = int(rng.integers(0, p - BLOCK + 1))
        mask = np.zeros(shape, dtype=bool)
        mask[i0:i0 + BLOCK, j0:j0 + BLOCK] = True
        return E, mask
    if s == "s4":
        return np.tan(np.pi * (rng.random(shape) - 0.5)), None
    if s == "s5":
        return np.exp(rng.standard_normal(shape)), None
    raise ValueError(f"unknown setup {setup!r}")


def dissimilarity(u, v):
    """1 - |<u, v>|: 0 for equal-up-to-sign unit vectors, 1 for orthogonal."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > 1e-8 or abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise ValueError("dissimilarity requires unit-norm inputs")
    return 1.0 - abs(float(u @ v))


def _replicate(rep, truth, cfg, fit_alphas):
    """One replicate: data draw plus a fit per alpha, as (lambdas, left and
    right dissimilarities, count of layers stopped at max_iter); None
    marks a failure."""
    rng = np.random.default_rng([cfg.seed, rep])
    E, mask = sample_noise(cfg.setup, rng, truth.X0.shape)
    X = truth.X0 + E
    if mask is not None:
        X[mask] = CONTAMINATION_VALUE
    rank = min(X.shape)
    n_true = truth.lambdas_true.size
    out = {}
    for alpha in fit_alphas:
        try:
            dec = fit_svd(X, rank, SolverOptions(alpha=alpha))
            if not np.all(np.isfinite(dec.lambdas)):
                raise FloatingPointError("non-finite singular value estimate")
        except FloatingPointError:
            out[alpha] = None
            continue
        dl = np.array([dissimilarity(truth.U_true[:, k], dec.U[:, k])
                       for k in range(n_true)])
        dr = np.array([dissimilarity(truth.V_true[:, k], dec.V[:, k])
                       for k in range(n_true)])
        out[alpha] = (dec.lambdas, dl, dr,
                      sum(not d.converged for d in dec.diagnostics))
    return out


def _reduce(samples, alpha, method, lambdas_full):
    """Aggregate one (method, alpha) row from per-replicate samples."""
    oks = [s[alpha] for s in samples if s[alpha] is not None]
    failures = len(samples) - len(oks)
    if not oks:
        k = lambdas_full.size
        nan = np.full(k, np.nan)
        return MethodResult(method, alpha, nan, nan, nan,
                            np.full(3, np.nan), np.full(3, np.nan), failures)
    ests = np.stack([o[0] for o in oks])
    dls = np.stack([o[1] for o in oks])
    drs = np.stack([o[2] for o in oks])
    mean = ests.mean(axis=0)
    bias = mean - lambdas_full
    variance = np.mean((ests - mean) ** 2, axis=0)
    mse = np.mean((ests - lambdas_full) ** 2, axis=0)
    return MethodResult(method=method, alpha=float(alpha),
                        sq_bias=bias ** 2, mse=mse, variance=variance,
                        diss_left=dls.mean(axis=0), diss_right=drs.mean(axis=0),
                        failures=failures,
                        nonconverged=sum(o[3] for o in oks))


def run_simulation(cfg, threads=1):
    """Run the Monte Carlo study for one setup.

    Returns a SimReport whose first row is the classical baseline (the
    alpha = 0 least squares path) followed by one row per requested
    alpha. Replicates always run in order in the calling thread, and
    `threads` is accepted for compatibility and has no effect. A thread
    pool never made the study faster: the 10x4 fits are small NumPy
    calls that hold the GIL, and on a 2-CPU host with OpenBLAS at one
    thread S2c with 40 replicates and alphas (0.5, 1) took a median of
    2.13 s serially, 3.63 s on 2 threads and 4.16 s on 4.
    """
    truth = make_ground_truth()
    fit_alphas = []
    for a in (0.0,) + cfg.alphas:
        if a not in fit_alphas:
            fit_alphas.append(a)
    samples = [_replicate(r, truth, cfg, fit_alphas)
               for r in range(cfg.replicates)]
    rank = min(truth.X0.shape)
    lambdas_full = np.zeros(rank)
    lambdas_full[:truth.lambdas_true.size] = truth.lambdas_true
    rows = [_reduce(samples, 0.0, "svd", lambdas_full)]
    rows += [_reduce(samples, a, "rsvddpd", lambdas_full) for a in cfg.alphas]
    return SimReport(setup=cfg.setup, replicates=cfg.replicates,
                     seed=cfg.seed, rows=rows)


def report_to_csv(report):
    """CSV serialization, one line per (method, alpha) row."""
    lines = ["method,setup,alpha,sq_bias,mse,diss_left,diss_right,failures,"
             "nonconverged"]
    for r in report.rows:
        lines.append(",".join([
            r.method, report.setup, repr(r.alpha),
            repr(r.sq_bias_total), repr(r.mse_total),
            repr(r.diss_left_total), repr(r.diss_right_total),
            str(r.failures), str(r.nonconverged)]))
    return "\n".join(lines) + "\n"


def format_table(report):
    """Aligned text table of the report totals."""
    head = (f"setup {report.setup}  replicates {report.replicates}  "
            f"seed {report.seed}")
    cols = f"{'method':<9}{'alpha':>7}{'sq_bias':>14}{'mse':>14}" \
           f"{'diss_left':>11}{'diss_right':>12}{'failures':>10}" \
           f"{'nonconverged':>14}"
    lines = [head, cols, "-" * len(cols)]
    for r in report.rows:
        lines.append(f"{r.method:<9}{r.alpha:>7.2f}{r.sq_bias_total:>14.3f}"
                     f"{r.mse_total:>14.3f}{r.diss_left_total:>11.3f}"
                     f"{r.diss_right_total:>12.3f}{r.failures:>10d}"
                     f"{r.nonconverged:>14d}")
    return "\n".join(lines) + "\n"
