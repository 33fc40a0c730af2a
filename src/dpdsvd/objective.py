"""Density power divergence objective for a Gaussian rank-one model.

Each cell X_ij is modelled as N(a_i b_j, sigma2). The divergence of the
empirical cell distribution from the model, summed over cells, reduces to
an average of closed-form per-cell terms; alpha >= 0 trades robustness
against efficiency, with alpha = 0 recovering the (shifted) Gaussian
log-likelihood.
"""
from dataclasses import dataclass

import numpy as np

ALPHA_MAX = 8.0


def check_alpha(alpha):
    """Validate the robustness exponent and return it as a float."""
    a = float(alpha)
    if not np.isfinite(a) or a < 0.0 or a > ALPHA_MAX:
        raise ValueError(f"alpha must be in [0, {ALPHA_MAX}], got {alpha!r}")
    return a


def psi(x, alpha):
    """Robustness weight exp(-alpha x^2 / 2) for standardized residuals x.

    Downweights large residuals smoothly; identically 1 at alpha = 0.
    Accepts scalars or arrays, x >= 0 by convention (the weight is even).
    """
    out = weights(np.asarray(x, dtype=float), 1.0, check_alpha(alpha))
    return out if out.ndim else float(out)


def weights(e, sigma2, alpha):
    """psi evaluated at e / sigma, written to avoid the square root.

    The pass builds one output array, exp(-alpha e e / (2 sigma2)) by the
    same operations in the same order, each in place after the first; a
    0-d e gives a NumPy scalar, as the expression would. sigma2 may not
    broadcast to a larger shape than e's (v_cell widens e first).
    """
    if alpha == 0.0:
        return np.ones_like(e)
    w = np.multiply(e, -alpha)
    w *= e
    w /= 2.0 * sigma2
    return np.exp(w, out=w) if w.ndim else np.exp(w)


def _check_sigma2(sigma2):
    """sigma2 as a float array; ValueError unless every entry is positive."""
    sigma2 = np.asarray(sigma2, dtype=float)
    if np.any(sigma2 <= 0.0):
        raise ValueError("sigma2 must be positive")
    return sigma2


def _cells(e, sigma2, alpha, W=None):
    """Per-cell divergence at residuals e; W, if given, holds
    weights(e, sigma2, alpha) already computed (alpha > 0 only).

    At alpha > 0 the cells are sigma2^(-alpha/2) (c1 - c2 W), at alpha 0
    e e / (2 sigma2) + log(sigma2) / 2, bit for bit, built in one output
    array: the weights pass's own when W is not given, else a new one,
    as W is the caller's. c1 - c2 W is formed as (-c2) W + c1, which
    rounds alike, since a sign flip is exact.
    """
    if alpha == 0.0:
        c = np.multiply(e, e)
        c /= 2.0 * sigma2
        c += 0.5 * np.log(sigma2)
        return c
    c1 = (1.0 + alpha) ** -0.5
    c2 = 1.0 + 1.0 / alpha
    if W is None:
        c = weights(e, sigma2, alpha)
        c *= -c2
    else:
        c = np.multiply(W, -c2)
    c += c1
    c *= sigma2 ** (-alpha / 2.0)
    return c


def v_cell(x, a, b, sigma2, alpha):
    """Per-cell divergence contribution for observed x under mean a*b.

    For alpha > 0 this is sigma^(-alpha) [c1 - c2 exp(-alpha e^2 / 2 sigma^2)]
    with e = x - a*b, c1 = (1+alpha)^(-1/2), c2 = 1 + 1/alpha. At alpha = 0 the
    limit (after dropping the constant) is e^2 / (2 sigma^2) + log(sigma^2)/2,
    so the cell value at a perfect fit with unit variance is 0.
    """
    al = check_alpha(alpha)
    sigma2 = _check_sigma2(sigma2)
    x = np.asarray(x, dtype=float)
    e = x - np.asarray(a, dtype=float) * np.asarray(b, dtype=float)
    # the cell passes write into an array of e's shape (weights)
    e = np.broadcast_to(e, np.broadcast_shapes(np.shape(e), sigma2.shape))
    out = _cells(e, sigma2, al)
    return out if out.ndim else float(out)


def _mean(x):
    """np.mean(x) of a float array: the same reduction and the same
    division, without np.mean's dispatch, which costs more than the
    arithmetic on a 10x4 matrix. A stack of matrices (ndim 3 or more)
    gets the mean of each matrix, over its last two axes, by the same
    reduction as that matrix alone."""
    if x.ndim < 3:
        return np.add.reduce(x, axis=None) / x.size
    return np.add.reduce(x, axis=(-2, -1)) / (x.shape[-2] * x.shape[-1])


def h_value(e, sigma2, alpha, W=None):
    """Objective h: the mean of the per-cell divergence (_cells) over the
    residual array e, at every alpha.

    W, if given, holds weights(e, sigma2, alpha) already computed. A
    stack e of shape (k, n, p) gives an array of k values, the h of each
    e[i] bit for bit; a matrix gives a float.
    """
    h = _mean(_cells(e, sigma2, alpha, W))
    return float(h) if e.ndim < 3 else h


def _fit_state(fit):
    """(lambda, u, v, sigma2) of a Rank1Fit or of a 4-tuple, as two floats
    and two float arrays."""
    if hasattr(fit, "lambda_"):
        fit = (fit.lambda_, fit.u, fit.v, fit.sigma2)
    lam, u, v, s2 = fit
    return (float(lam), np.asarray(u, dtype=float),
            np.asarray(v, dtype=float), float(s2))


@dataclass
class ObjectiveValue:
    """Objective h together with its per-cell terms (h = per_cell.mean())."""
    h: float
    per_cell: np.ndarray


def objective(X, fit, alpha):
    """Evaluate the divergence objective of a rank-one fit on X.

    Parameters
    ----------
    X : (n, p) array
    fit : object with attributes lambda_, u, v, sigma2 (a Rank1Fit),
        or a (lambda, u, v, sigma2) tuple.
    alpha : float in [0, ALPHA_MAX]

    Returns
    -------
    ObjectiveValue with h the mean of the per-cell array; cells are laid
    out row-major, matching X.
    """
    al = check_alpha(alpha)
    X = np.asarray(X, dtype=float)
    lam, u, v, s2 = _fit_state(fit)
    per = _cells(X - lam * np.outer(u, v), _check_sigma2(s2), al)
    return ObjectiveValue(h=float(np.mean(per)), per_cell=per)
