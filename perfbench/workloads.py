"""Inputs, operations and output checks of the benchmark's workloads.

Every input is a pure function of the benchmark seed. Checks return a
list of problems (empty when the output is correct) and compare the
program's outputs with computations made here, apart from dpdsvd: dense
SVDs from NumPy, the planted truth, and properties the method must have.

study  run_simulation on S2c (20% of the noise cells set to 25), alphas
       (0.5, 1.0) plus the alpha-0 baseline row, 4 replicates per call;
       a round runs the 4 batches of a fixed pool in the seed's order.
large  fit_svd at rank 3, alpha 0.5, on a planted rank-3 2000x200
       matrix plus N(0, 1) noise with 20% of the noise cells set to 25,
       rows and columns permuted by the seed.
cli    `python -m dpdsvd decompose --rank 3` on a 1000x50 CSV of the
       same make-up, at the default alpha 0 and JSON output.
"""
import numpy as np

CONTAM_FRACTION = 0.2
CONTAM_VALUE = 25.0

STUDY_SETUP = "S2c"
STUDY_SHAPE = (10, 4)
STUDY_LAMBDAS = (10.0, 5.0, 3.0)
STUDY_REPLICATES = 4
STUDY_ALPHAS = (0.5, 1.0)
STUDY_POOL = 4              # batches per round
STUDY_BIAS_BAND = 0.15      # criterion 5: robust sq_bias below this share

LARGE_SHAPE = (2000, 200)
LARGE_RANK = 3
LARGE_ALPHA = 0.5
CLI_SHAPE = (1000, 50)
CLI_RANK = 3
# planted singular values, in units of sqrt(n p)
PLANTED_SCALE = (8.0, 4.0, 2.0)
PLANTED_SEED = 0

# tolerances of the checks (see README.md)
TRACE_SLACK = 1e-10         # largest rise allowed between trace entries
ORTHO_TOL = 1e-8            # max |U'U - I| and |V'V - I|
LARGE_LAMBDA_RTOL = 0.01    # |lambda_k / planted_k - 1|
LARGE_DISS_TOL = 0.005      # 1 - |<u_k, planted u_k>|, same for v
SVD_RTOL = 1e-6             # alpha-0 outputs against np.linalg.svd


def study_pool(seed):
    """SimConfig seeds of the study pool's batches, in the seed's order.

    The pool is fixed (batch j has seed j + 1), so every seed runs the
    same replicates; a single replicate's cost varies by a factor of 10.
    """
    rng = np.random.default_rng([seed, STUDY_POOL])
    return [int(j) + 1 for j in rng.permutation(STUDY_POOL)]


def poly_contrasts(m, k):
    """Orthonormal polynomial contrasts of degrees 1..k at points 1..m."""
    V = np.vander(np.arange(1, m + 1, dtype=float), k + 1, increasing=True)
    Q, R = np.linalg.qr(V)
    return (Q * np.sign(np.diag(R)))[:, 1:]


def study_truth():
    """The 10x4 study matrix with singular values (10, 5, 3)."""
    U = poly_contrasts(STUDY_SHAPE[0], 3)
    V = poly_contrasts(STUDY_SHAPE[1], 3)
    lams = np.array(STUDY_LAMBDAS)
    return (U * lams) @ V.T, lams, U, V


def study_replicates(batch_seed):
    """The replicate matrices of one study batch, drawn as sim.py
    documents: stream default_rng([batch_seed, r]), N(0, 1) errors first,
    then one uniform per cell picks the cells set to 25."""
    X0 = study_truth()[0]
    out = []
    for r in range(STUDY_REPLICATES):
        rng = np.random.default_rng([batch_seed, r])
        E = rng.standard_normal(STUDY_SHAPE)
        E[rng.random(STUDY_SHAPE) < CONTAM_FRACTION] = CONTAM_VALUE
        out.append(X0 + E)
    return out


def planted(seed, shape, rank=3):
    """Planted rank-`rank` matrix plus N(0, 1) noise, 20% of the noise
    cells set to 25. Returns (X, lambdas, U0, V0)."""
    n, p = shape
    rng = np.random.default_rng([seed, n, p])
    U0 = np.linalg.qr(rng.standard_normal((n, rank)))[0]
    V0 = np.linalg.qr(rng.standard_normal((p, rank)))[0]
    lams = np.array(PLANTED_SCALE[:rank]) * np.sqrt(n * p)
    E = rng.standard_normal(shape)
    E[rng.random(shape) < CONTAM_FRACTION] = CONTAM_VALUE
    return (U0 * lams) @ V0.T + E, lams, U0, V0


def permuted_planted(seed, shape):
    """The fixed planted draw of this shape (PLANTED_SEED) with its rows
    and columns permuted by the seed. Returns (X, lambdas, U0, V0).

    Permutation equivariance makes every seed pose the same problem, so
    the solver makes the same iterations whatever the seed; a fresh draw
    would move the large fit's iteration count by up to 1.7x.
    """
    n, p = shape
    X, lams, U0, V0 = planted(PLANTED_SEED, shape)
    rng = np.random.default_rng([seed, n, p])
    rows, cols = rng.permutation(n), rng.permutation(p)
    return X[rows][:, cols], lams, U0[rows], V0[cols]


def _diss(a, b):
    return 1.0 - abs(float(a @ b)) / (np.linalg.norm(a) * np.linalg.norm(b))


def _trace_problems(traces, where):
    out = []
    for k, tr in enumerate(traces):
        tr = np.asarray(tr, dtype=float)
        if tr.size and not np.all(np.isfinite(tr)):
            out.append(f"{where} layer {k}: non-finite trace")
        elif tr.size > 1 and np.max(np.diff(tr)) > TRACE_SLACK:
            out.append(f"{where} layer {k}: trace rises by "
                       f"{np.max(np.diff(tr)):.3e}")
    return out


def _ortho_problems(A, what):
    dev = float(np.max(np.abs(A.T @ A - np.eye(A.shape[1]))))
    return [f"{what} not orthonormal: max |{what}'{what} - I| = {dev:.3e}"] \
        if not dev <= ORTHO_TOL else []


def _close(got, want, rtol, what):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape or \
            not np.all(np.abs(got - want) <= rtol * (1.0 + np.abs(want))):
        return [f"{what}: got {np.round(got, 8).tolist()}, "
                f"expected {np.round(want, 8).tolist()}"]
    return []


def check_study(report, batch_seed):
    """Problems in one study report (a dpdsvd SimReport)."""
    _, lams_true, U_true, V_true = study_truth()
    rank = min(STUDY_SHAPE)
    lams_full = np.zeros(rank)
    lams_full[:lams_true.size] = lams_true
    ests, dls, drs = [], [], []
    for X in study_replicates(batch_seed):
        U, s, Vt = np.linalg.svd(X, full_matrices=False)
        ests.append(s[:rank])
        dls.append([_diss(U_true[:, k], U[:, k]) for k in range(3)])
        drs.append([_diss(V_true[:, k], Vt[k]) for k in range(3)])
    ests = np.array(ests)
    mean = ests.mean(axis=0)
    want = {"sq_bias": (mean - lams_full) ** 2,
            "mse": np.mean((ests - lams_full) ** 2, axis=0),
            "variance": np.mean((ests - mean) ** 2, axis=0),
            "diss_left": np.mean(dls, axis=0),
            "diss_right": np.mean(drs, axis=0)}
    problems = []
    rows = report.rows
    if len(rows) != 1 + len(STUDY_ALPHAS):
        return [f"study: {len(rows)} rows, expected {1 + len(STUDY_ALPHAS)}"]
    base = rows[0]
    if base.alpha != 0.0:
        problems.append(f"study: first row has alpha {base.alpha}, not 0")
    for key, value in want.items():
        problems += _close(getattr(base, key), value, SVD_RTOL,
                           f"study alpha-0 {key}")
    for row in rows:
        if row.failures:
            problems.append(
                f"study alpha {row.alpha}: {row.failures} failures")
        gap = np.abs(row.mse - row.sq_bias - row.variance)
        if not np.all(gap <= 1e-9 * (1.0 + np.abs(row.mse))):
            problems.append(
                f"study alpha {row.alpha}: mse - sq_bias != variance")
    return problems


def study_bias_ratio(report):
    """Largest robust-row sq_bias_total as a share of the classical row's."""
    base = report.rows[0].sq_bias_total
    return max(row.sq_bias_total / base for row in report.rows[1:])


def check_study_band(ratios):
    """Criterion 5's band over a run: the median over its batches of
    study_bias_ratio must stay below STUDY_BIAS_BAND.

    A single 4-replicate batch is too small for the band: 6 of 92 batches
    of the program as it stands broke it, some by chance, some through a
    layer that stopped at max_iter far from the data (see README.md).
    """
    if not ratios:
        return ["study: no batch to check the bias band on"]
    mid = float(np.median(ratios))
    if not mid < STUDY_BIAS_BAND:
        return [f"study: median robust/classical sq_bias ratio {mid:.4g} "
                f"not below {STUDY_BIAS_BAND}"]
    return []


def check_large(dec, lams, U0, V0):
    """Problems in a rank-3 RobustSvd of the planted large matrix."""
    problems = []
    got = np.asarray(dec.lambdas, dtype=float)
    if got.shape != lams.shape:
        return [f"large: {got.size} lambdas, expected {lams.size}"]
    rel = np.abs(got / lams - 1.0)
    if not np.all(rel <= LARGE_LAMBDA_RTOL):
        problems.append(f"large: lambdas {got.round(3).tolist()} not within "
                        f"{LARGE_LAMBDA_RTOL} of {lams.round(3).tolist()}")
    for k in range(lams.size):
        for what, A, A0 in (("U", dec.U, U0), ("V", dec.V, V0)):
            d = _diss(A[:, k], A0[:, k])
            if not d <= LARGE_DISS_TOL:
                problems.append(f"large: {what}[:, {k}] dissimilarity "
                                f"{d:.4g} > {LARGE_DISS_TOL}")
    problems += _ortho_problems(np.asarray(dec.U), "U")
    problems += _ortho_problems(np.asarray(dec.V), "V")
    problems += _trace_problems([d.trace for d in dec.diagnostics], "large")
    for k, d in enumerate(dec.diagnostics):
        if not d.converged:
            problems.append(f"large layer {k}: not converged after "
                            f"{d.iterations} iterations")
    return problems


def check_cli(payload, X):
    """Problems in the JSON `decompose` output for the CSV matrix X."""
    try:
        lams = np.asarray(payload["lambdas"], dtype=float)
        U = np.asarray(payload["u"], dtype=float)
        V = np.asarray(payload["v"], dtype=float)
        traces = [d["trace"] for d in payload["diagnostics"]]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"cli: malformed output: {exc!r}"]
    n, p = X.shape
    if lams.shape != (CLI_RANK,) or U.shape != (n, CLI_RANK) \
            or V.shape != (p, CLI_RANK):
        return [f"cli: shapes {lams.shape}, {U.shape}, {V.shape}"]
    Us, s, Vt = np.linalg.svd(X, full_matrices=False)
    problems = _close(lams, s[:CLI_RANK], SVD_RTOL, "cli lambdas")
    for k in range(CLI_RANK):
        for what, A, ref in (("u", U[:, k], Us[:, k]), ("v", V[:, k], Vt[k])):
            d = _diss(A, ref)
            if not d <= SVD_RTOL:
                problems.append(f"cli: {what}[{k}] dissimilarity {d:.3e}")
    problems += _trace_problems(traces, "cli")
    return problems
