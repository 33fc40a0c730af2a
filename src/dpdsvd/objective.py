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
    a = check_alpha(alpha)
    x = np.asarray(x, dtype=float)
    if a == 0.0:
        out = np.ones_like(x)
    else:
        out = np.exp(-a * x * x / 2.0)
    return out if out.ndim else float(out)


def weights(e, sigma2, alpha):
    """psi evaluated at e / sigma, written to avoid the square root."""
    if alpha == 0.0:
        return np.ones_like(e)
    return np.exp(-alpha * e * e / (2.0 * sigma2))


def v_cell(x, a, b, sigma2, alpha):
    """Per-cell divergence contribution for observed x under mean a*b.

    For alpha > 0 this is sigma^(-alpha) [c1 - c2 exp(-alpha e^2 / 2 sigma^2)]
    with e = x - a*b, c1 = (1+alpha)^(-1/2), c2 = 1 + 1/alpha. At alpha = 0 the
    limit (after dropping the constant) is e^2 / (2 sigma^2) + log(sigma^2)/2,
    so the cell value at a perfect fit with unit variance is 0.
    """
    al = check_alpha(alpha)
    sigma2 = np.asarray(sigma2, dtype=float)
    if np.any(sigma2 <= 0.0):
        raise ValueError("sigma2 must be positive")
    x = np.asarray(x, dtype=float)
    e = x - np.asarray(a, dtype=float) * np.asarray(b, dtype=float)
    if al == 0.0:
        out = e * e / (2.0 * sigma2) + 0.5 * np.log(sigma2)
    else:
        c1 = (1.0 + al) ** -0.5
        c2 = 1.0 + 1.0 / al
        out = sigma2 ** (-al / 2.0) * (c1 - c2 * np.exp(-al * e * e / (2.0 * sigma2)))
    return out if out.ndim else float(out)


def h_value(e, sigma2, alpha, W=None):
    """Objective h: mean per-cell divergence for residual array e.

    W, if given, holds weights(e, sigma2, alpha) already computed.
    """
    if alpha == 0.0:
        return float(np.mean(e * e) / (2.0 * sigma2) + 0.5 * np.log(sigma2))
    c1 = (1.0 + alpha) ** -0.5
    c2 = 1.0 + 1.0 / alpha
    if W is None:
        W = weights(e, sigma2, alpha)
    return float(np.mean(sigma2 ** (-alpha / 2.0) * (c1 - c2 * W)))


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
    if s2 <= 0.0:
        raise ValueError("sigma2 must be positive")
    ab = lam * np.outer(u, v)
    per = v_cell(X, ab, 1.0, s2, al)
    return ObjectiveValue(h=float(np.mean(per)), per_cell=per)
