"""Multi-layer robust SVD by successive orthogonalized rank-one fits.

Each layer solves the rank-one problem on the running residual (the data
minus all previously fitted layers) with its singular vectors constrained
orthogonal to those of the previous layers (rank1 describes how the
constraint is enforced). At alpha = 0 these layers are the singular
triples of X, so they are computed in closed form from one SVD instead.
Layers are returned in fit order (no sorting); sorted_by_lambda reorders
on request.

Which fit is returned at alpha > 0: layer 0 is unconstrained and, once
it converges, is Newton-polished to the exact stationary point of h; a
layer 0 that stops at max_iter is returned unpolished. Layers 1.. stop
where projected descent stalls (a projected regression target need not
lower h) and are not polished, so they are near, not at, the constrained
stationary point (rank1._solve holds this rule and the measurement
behind it).
"""
from dataclasses import dataclass

import numpy as np

from .errors import RankTooLarge
from .rank1 import (SolverOptions, _check_input, _classical_layers,
                    _layer_fit, _solve)


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


def _deflation_layers(X, opts):
    """Yield the _solve result of each successive layer at alpha > 0."""
    E = X.copy()
    done = []
    for _ in range(min(X.shape)):
        ortho_u = np.column_stack([f["u"] for f in done]) if done else None
        ortho_v = np.column_stack([f["v"] for f in done]) if done else None
        f = _solve(E, opts, ortho_u, ortho_v)
        yield f
        done.append(f)
        E = E - f["lam"] * np.outer(f["u"], f["v"])


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
    if opts is None:
        opts = SolverOptions()
    layers = (_classical_layers(X, opts.eps_sigma) if opts.alpha == 0.0
              else _deflation_layers(X, opts))
    diags = []
    for k in range(rank):
        try:
            f = next(layers)
        except (FloatingPointError, ValueError) as exc:
            raise type(exc)(f"layer {k}: {exc}") from exc
        diags.append(_layer_fit(f, k))
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
