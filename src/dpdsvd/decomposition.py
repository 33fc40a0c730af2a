"""Fit entry points and the layer loop behind them.

fit_svd fits a multi-layer robust SVD by successive orthogonalized
rank-one fits, and fit_rank1 is its first layer: both take their layers
from one generator, _layers. Each layer solves the rank-one problem
(rank1._solve) on the running residual (the data minus all previously
fitted layers) with its singular vectors constrained orthogonal to those
of the previous layers (rank1 describes how the constraint is enforced).
At alpha = 0 these layers are the singular triples of X, so they are
computed in closed form from one SVD instead. X is fitted as a C-ordered
float array, so no fit depends on the memory order of its input. Layers
are returned in fit order (no sorting); sorted_by_lambda reorders on
request.

Which fit is returned at alpha > 0: layer 0 is unconstrained and, once
it converges, is Newton-polished to the exact stationary point of h; a
layer 0 that stops at max_iter is returned unpolished. Layers 1.. stop
where projected descent stalls (a projected regression target need not
lower h) and are not polished, so they are near, not at, the constrained
stationary point. A provided start serves layer 0 only; layers 1..
start from the "screened" policy. A layer 0 from a "screened" start
whose lambda passes the spike cap (SPIKE_FACTOR times the top singular
value of X) is solved again from "classical" on the iterations left;
layers 1.. never restart. rank1._solve holds these rules and the
measurements behind them.

The equivariance checks (check_equivariance_scale and
check_equivariance_permutation) live here too, since they fit X.
"""
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import RankCollapse, RankTooLarge
from .objective import _fit_state, h_value
from . import rank1
from .rank1 import (Rank1Fit, SolverOptions, _check_input, _fit_residuals,
                    _flip_sign, _init, _solve, sigma_floor)


@dataclass
class RobustSvd:
    """Rank-r robust decomposition: X ~ U diag(lambdas) V'.

    U is (n, r) and V is (p, r) with orthonormal columns, lambdas and
    sigma2s are (r,), diagnostics holds the per-layer Rank1Fit records
    in fit order.
    """
    rank: int
    lambdas: np.ndarray
    U: np.ndarray
    V: np.ndarray
    sigma2s: np.ndarray
    diagnostics: list


def _classical_layers(E, eps_sigma):
    """Yield the alpha = 0 deflation layers of X = E in closed form, as
    the results _solve returns.

    At alpha = 0 h is the Gaussian log-likelihood, so layer k is the k-th
    singular triple of one SVD of X, with the sign convention. Its sigma2
    is the mean square of the running residual E after the layer, floored
    at sigma_floor of the residual before it, whose mean square the layer
    before took; it reports 0 iterations, converged, and a one-entry
    trace, h at the fit. Raises RankCollapse at a zero singular value.
    """
    U, s, Vt = np.linalg.svd(E, full_matrices=False)
    ms = None       # mean E^2 of the running residual, once taken
    for k in range(s.size):
        if s[k] == 0.0:
            raise RankCollapse("rank collapse")
        u, v = _flip_sign(U[:, k].copy(), Vt[k].copy())
        eps = sigma_floor(E, eps_sigma, ms)
        E = _fit_residuals(E, s[k], u, v)
        ms = float(np.mean(E * E))
        s2 = max(ms, eps)
        yield dict(lam=float(s[k]), u=u, v=v, s2=s2, it=0, conv=True,
                   trace=np.array([h_value(E, s2, 0.0)]))


def _deflation_layers(E, opts):
    """Yield the _solve result of each successive layer at alpha > 0.

    E is the running residual, E - lam outer(u, v) after each layer,
    formed a block of rows at a time (rank1._fit_residuals, the same
    operations): X itself for the first layer, which is never written
    to, then one array of its own, updated in place. A provided start (a
    Rank1Fit or 4-tuple init) serves layer 0 only (rank1._solve holds
    that rule).
    """
    done = []
    for k in range(min(E.shape)):
        ortho_u = np.column_stack([f["u"] for f in done]) if done else None
        ortho_v = np.column_stack([f["v"] for f in done]) if done else None
        f = _solve(E, opts, ortho_u, ortho_v)
        yield f
        done.append(f)
        step = max(1, rank1.BLOCK_CELLS // E.shape[1])
        out = np.empty_like(E) if k == 0 else E
        for i in range(0, E.shape[0], step):
            rows = slice(i, i + step)
            _fit_residuals(E, f["lam"], f["u"], f["v"], rows, out[rows])
        E = out


def _layers(X, opts):
    """Yield the Rank1Fit of each successive layer of a checked X.

    opts defaults to SolverOptions(). At alpha = 0 the layers come from
    one SVD in closed form (_classical_layers), otherwise from the
    deflation loop (_deflation_layers). A layer that stopped at max_iter
    before converging warns once (RuntimeWarning), naming the file that
    called fit_rank1 or fit_svd.
    """
    if opts is None:
        opts = SolverOptions()
    layers = (_classical_layers(X, opts.eps_sigma) if opts.alpha == 0.0
              else _deflation_layers(X, opts))
    del X   # freed once layer 0's residual replaces it (see fit_svd)
    for k, f in enumerate(layers):
        if not f["conv"]:
            warnings.warn(f"layer {k}: stopped at max_iter after {f['it']} "
                          "iterations without converging", RuntimeWarning,
                          stacklevel=3)
        yield Rank1Fit(lambda_=f["lam"], u=f["u"], v=f["v"], sigma2=f["s2"],
                       iterations=f["it"], converged=f["conv"],
                       trace=f["trace"])


def fit_rank1(X, opts=None):
    """Fit the rank-one robust SVD model to X: layer 0 of fit_svd.

    Parameters
    ----------
    X : (n, p) array, finite, min(n, p) >= 2
    opts : SolverOptions, default SolverOptions()

    Returns
    -------
    Rank1Fit. The trace of objective values is non-increasing; the fit
    satisfies the unit-norm and sign conventions and sigma2 >= the floor.
    A fit that stops at max_iter before converging warns (RuntimeWarning).
    At alpha = 0 the fit is the top singular triple of X, computed in
    closed form with 0 iterations and a one-entry trace.

    Raises RankCollapse when the fitted singular value is 0, as for an
    all-zero matrix.
    """
    return next(_layers(_check_input(X), opts))


def fit_svd(X, rank, opts=None):
    """Fit a rank-`rank` robust SVD of X.

    Parameters
    ----------
    X : (n, p) array, finite, min(n, p) >= 2
    rank : int, 1 <= rank <= min(n, p)
    opts : SolverOptions, default SolverOptions()

    Raises RankTooLarge when rank exceeds min(n, p). Errors raised while
    fitting layer k are re-raised with a "layer k:" prefix; a layer that
    stops at max_iter before converging warns (RuntimeWarning). At alpha
    = 0 the fit is the top-`rank` SVD of X, computed in closed form: every
    layer reports 0 iterations and a one-entry trace, and a zero singular
    value raises RankCollapse.
    """
    X = _check_input(X)
    n, p = X.shape
    rank = int(rank)
    if rank < 1:
        raise ValueError("rank must be at least 1")
    if rank > min(n, p):
        raise RankTooLarge(f"rank {rank} exceeds min(n, p) = {min(n, p)}")
    layers = _layers(X, opts)
    # the layers own X from here, so the C-ordered copy that
    # _check_input makes of a Fortran-ordered X is freed once layer 0's
    # residual replaces it: kept, it added 3.2 MB (one copy of X) to the
    # peak of the benchmark's 2000x200 fit
    del X
    diags = []
    for k in range(rank):
        try:
            diags.append(next(layers))
        except (FloatingPointError, ValueError) as exc:
            raise type(exc)(f"layer {k}: {exc}") from exc
    return RobustSvd(rank=rank,
                     lambdas=np.array([d.lambda_ for d in diags]),
                     U=np.column_stack([d.u for d in diags]),
                     V=np.column_stack([d.v for d in diags]),
                     sigma2s=np.array([d.sigma2 for d in diags]),
                     diagnostics=diags)


def reconstruct(decomp):
    """U diag(lambdas) V' as an (n, p) matrix."""
    return (decomp.U * decomp.lambdas) @ decomp.V.T


def orthogonality_report(decomp):
    """Largest absolute off-diagonal inner product among the U columns
    and among the V columns, as a (row, column) pair. A rank-1
    decomposition reports (0.0, 0.0)."""
    def offdiag(A):
        G = A.T @ A
        G = G - np.diag(np.diag(G))
        return float(np.max(np.abs(G))) if G.size else 0.0

    return offdiag(decomp.U), offdiag(decomp.V)


def sorted_by_lambda(decomp):
    """A copy of the decomposition with layers in descending lambda order."""
    order = np.argsort(-decomp.lambdas, kind="stable")
    return RobustSvd(rank=decomp.rank,
                     lambdas=decomp.lambdas[order],
                     U=decomp.U[:, order],
                     V=decomp.V[:, order],
                     sigma2s=decomp.sigma2s[order],
                     diagnostics=[decomp.diagnostics[i] for i in order])


def _transforms_fit(X, opts, tol, transform_X, transform_state):
    """True iff fitting transform_X(X) gives transform_state of the fit of X
    within tol.

    The fits run from matched starts: the screened and classical policies
    derive their start from the data and commute with scaling and
    permutation; a random or provided start is transported through
    transform_state, which maps (lambda, u, v, sigma2) to its transform.
    Deviations are relative in lambda and sigma2 and absolute in the
    vector components.
    """
    if opts is None:
        opts = SolverOptions()
    X = _check_input(X)
    base = fit_rank1(X, opts)
    if opts.init not in ("screened", "classical"):
        st = _init(X, opts.init, sigma_floor(X, opts.eps_sigma), opts.seed)
        opts = replace(opts, init=transform_state(*st))
    got = fit_rank1(transform_X(X), opts)
    lam, u, v, s2 = transform_state(*_fit_state(base))
    return max(abs(got.lambda_ - lam) / (1.0 + abs(lam)),
               float(np.max(np.abs(got.u - u))),
               float(np.max(np.abs(got.v - v))),
               abs(got.sigma2 - s2) / (1.0 + abs(s2))) <= tol


def check_equivariance_scale(X, c, opts=None, tol=1e-10):
    """True iff fitting c*X returns the scaled fit of X within tol.

    The reference is (|c| lambda, u, sign(c) v, c^2 sigma2), which keeps
    the sign convention; see _transforms_fit for the matched starts and
    the deviations.
    """
    c = float(c)
    if c == 0.0:
        raise ValueError("c must be nonzero")
    return _transforms_fit(
        X, opts, tol, lambda A: c * A,
        lambda lam, u, v, s2: (abs(c) * lam, u, np.sign(c) * v, c * c * s2))


def _permutation(perm, m, name):
    """perm as an int array; ValueError unless it permutes range(m)."""
    perm = np.asarray(perm, dtype=int)
    if perm.shape != (m,) or np.any(np.sort(perm) != np.arange(m)):
        raise ValueError(f"{name} must be a permutation of range({m})")
    return perm


def check_equivariance_permutation(X, perm_rows, perm_cols, opts=None,
                                   tol=1e-10):
    """True iff fitting the row/column-permuted X permutes the fit of X.

    Raises ValueError unless perm_rows and perm_cols are permutations of
    range(n) and range(p).
    """
    X = _check_input(X)
    pr = _permutation(perm_rows, X.shape[0], "perm_rows")
    pc = _permutation(perm_cols, X.shape[1], "perm_cols")
    return _transforms_fit(
        X, opts, tol, lambda A: A[np.ix_(pr, pc)],
        lambda lam, u, v, s2: (lam, u[pr], v[pc], s2))
