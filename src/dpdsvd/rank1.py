"""Rank-one robust SVD fit by alternating weighted regressions.

The estimator minimizes the density power divergence objective h (see
objective.py) over (lambda, u, v, sigma2) with unit-norm u, v. Each outer
iteration runs a row regression for u, a column regression for v (both
backtracked so h never increases; one function, _half_step, does either),
and a self-consistent scale update. The backtracking halves a step only
while its predicted decrease of h, the step length times the slope of h
toward the target, stays above h's rounding; the slope comes from the
regression's own denominators, since the gradient of h is a weighted
residual of the regression. The column regression is the row
regression of the transposed problem. After a warm-up the iteration is
accelerated by squared extrapolation of the fixed-point map (SQUAREM),
and every accelerated state is re-checked against h.

A deflated layer constrains u and v orthogonal to the earlier layers'
vectors. Three things are projected onto that constraint: the start,
each regression target and each extrapolated state. A backtracked
candidate lies between the current point and its target, both feasible,
so it is not projected again.

Plain alternating descent stalls inside a float-flat region around the
minimizer (step-to-step h differences underflow double precision long
before the parameters agree to 1e-10 across equivalent problem instances),
so an unconstrained fit is polished by a bordered Newton method with
analytic derivatives, each step solved by Schur elimination of the
diagonal row block; the polish lands on the exact stationary point at
float resolution, which makes independently computed fits of scaled or
permuted data agree to machine precision.

At alpha = 0 h is the Gaussian log-likelihood, whose minimizer is the top
singular triple; that case is computed in closed form from one SVD
(_classical_layers) and never reaches the iteration.
"""
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateWeights, NonFiniteInput, RankCollapse
from .objective import _fit_state, check_alpha, h_value, weights

PLAIN_FIRST = 10       # plain cycles before extrapolation kicks in
SIG_CAP = 0.5          # sigma^2 may shrink at most 2x per outer iteration
SPIKE_FACTOR = 4.0     # restart when lambda exceeds this multiple of sigma_1
SCREEN_K = 2.0         # init screening threshold in robust sd units
STALL_RTOL = 4e-16     # halve only while the predicted drop of h > this * |h|
INIT_POLICIES = ("screened", "classical", "random")


@dataclass
class Rank1Fit:
    """Result of a rank-one fit.

    lambda_ is the singular value (>= 0), u and v the unit singular
    vectors (largest-|u| entry positive), sigma2 the noise variance
    (>= the floor), trace the objective value per iteration.
    """
    lambda_: float
    u: np.ndarray
    v: np.ndarray
    sigma2: float
    iterations: int
    converged: bool
    trace: np.ndarray


@dataclass
class SolverOptions:
    """Solver configuration.

    init selects the starting point: "screened" (default) takes the top
    SVD pair of an outlier-screened copy of the data; "classical" the top
    SVD pair of the data itself; "random" seeded random unit vectors
    (set seed); a Rank1Fit or (lambda, u, v, sigma2) tuple is used as is.
    eps_sigma overrides the sigma2 floor (default 1e-10 max(1, mean X^2)).
    At alpha = 0 the fit is one SVD in closed form: tol, max_iter, init
    and seed have no effect there (an init string is still validated).
    """
    alpha: float = 0.0
    tol: float = 1e-8
    max_iter: int = 100
    eps_sigma: float | None = None
    init: object = "screened"
    seed: int | None = None

    def __post_init__(self):
        self.alpha = check_alpha(self.alpha)
        if not (self.tol > 0.0):
            raise ValueError("tol must be positive")
        if int(self.max_iter) < 1:
            raise ValueError("max_iter must be at least 1")
        self.max_iter = int(self.max_iter)
        if isinstance(self.init, str) and self.init not in INIT_POLICIES:
            raise ValueError(f"unknown init policy {self.init!r}")
        if self.eps_sigma is not None:
            _check_eps(self.eps_sigma)


def _check_eps(eps):
    """eps as a float; ValueError unless it is finite and positive."""
    if not 0.0 < eps < np.inf:
        raise ValueError("eps_sigma must be a finite positive number")
    return float(eps)


def _project(w, ortho):
    """w minus its part in the span of ortho's orthonormal columns.

    ortho is None for an unconstrained (first) layer.
    """
    if ortho is None:
        return w
    return w - ortho @ (ortho.T @ w)


def _project_unit(w, ortho, what):
    if ortho is None:
        return w
    w = _project(w, ortho)
    nw = np.linalg.norm(w)
    if nw <= 1e-12:
        raise FloatingPointError(f"degenerate {what} direction")
    return w / nw


def _flip_sign(u, v):
    """Sign convention: the largest-|u| entry is positive."""
    if u[np.argmax(np.abs(u))] < 0:
        return -u, -v
    return u, v


def _orient(u, v, M):
    """Canonical orientation: largest-|u| entry positive, then u'Mv >= 0."""
    u, v = _flip_sign(u, v)
    d = float(u @ M @ v)
    if d < 0:
        v = -v
        d = -d
    return u, v, d


def _residual_scale2(X, lam, u, v, eps):
    e = X - lam * np.outer(u, v)
    return max((1.4826 * float(np.median(np.abs(e)))) ** 2, eps)


def _init(X, init, eps, seed=None, ortho_u=None, ortho_v=None):
    """Starting state (lambda, u, v, sigma2) of SolverOptions.init.

    A provided state (Rank1Fit or 4-tuple) is used as is, with sigma2
    floored at eps. "screened" takes the top SVD pair of X with its gross
    cells zeroed out, "classical" the top SVD pair of X, "random" seeded
    normal directions. The directions are projected onto the constraints
    and oriented; lambda is u'Mv on the matrix M they came from, and
    sigma2 a robust scale of the residuals.
    """
    if not isinstance(init, str):
        lam, u, v, s2 = _fit_state(init)
        return lam, u, v, max(s2, eps)
    M = X
    if init == "random":
        rng = np.random.default_rng(0 if seed is None else seed)
        u, v = rng.standard_normal(X.shape[0]), rng.standard_normal(X.shape[1])
    else:
        if init == "screened":
            s = 1.4826 * float(np.median(np.abs(X)))
            if s <= 0:
                s = float(np.mean(np.abs(X))) or 1.0
            M = np.where(np.abs(X) <= SCREEN_K * s, X, 0.0)
            if not np.any(M):
                M = X
        Uc, _, Vct = np.linalg.svd(M, full_matrices=False)
        u, v = Uc[:, 0], Vct[0]
    u = _project_unit(u, ortho_u, "row")
    v = _project_unit(v, ortho_v, "column")
    if init == "random":
        u = u / np.linalg.norm(u)
        v = v / np.linalg.norm(v)
    u, v, d = _orient(u, v, M)
    lam = d if d > 0 else np.sqrt(eps)
    return lam, u, v, _residual_scale2(X, lam, u, v, eps)


def _sigma_solve(e, s2, alpha, lo, W=None):
    """Solve the scale equation s = T(s) by Newton's method from s2.

    T(s) = B / den with B = mean e^2 w, den = mean w - alpha (1+alpha)^(-3/2)
    and w the weights at scale s; its roots are the stationary points of h
    in sigma2 at these residuals. Each iterate makes one weights pass,
    which also gives C = mean e^4 w and T'(s) = alpha (C den - B^2) /
    (2 s^2 den^2). The step goes to s + (T - s) / (1 - T'), but not below
    lo, when T' < 1 is finite, and to T otherwise. W, if given, holds the
    weights at s2.

    Returns (sigma2, degenerate): T once |T - s| <= 4e-15 s, or once
    |T - s| <= 1e-8 s stops falling (the rounding floor of T); lo once T
    falls below lo. When den is not positive at s2, T(s2) has no positive
    value: s2 is returned with degenerate True. A Newton iterate that
    lands there is replaced by the plain step T from its predecessor.
    """
    c_sig = alpha * (1.0 + alpha) ** -1.5
    e2 = e * e
    plain = None            # T at the predecessor of a Newton iterate
    r_prev = np.inf
    for _ in range(200):
        if W is None:
            W = weights(e, s2, alpha)
        den = np.mean(W) - c_sig
        if den <= 0:
            if plain is None:
                return s2, True
            s2, plain, W = plain, None, None
            continue
        e2w = e2 * W
        B = np.mean(e2w)
        T = B / den
        if T < lo:
            return lo, False
        r = abs(T - s2)
        if r <= 4e-15 * s2 or r_prev <= r <= 1e-8 * s2:
            return T, False
        r_prev = r
        # T'(s) from b = B / s and c = C / s^2, which stay finite at any scale
        b = B / s2
        c = np.mean(e2w * (e2 / s2)) / s2
        d = alpha * (c * den - b * b) / (2.0 * den * den)
        if np.isfinite(d) and d < 1.0:
            s2, plain = max(s2 + (T - s2) / (1.0 - d), lo), T
        else:
            s2, plain = T, None
        W = None
    return s2, False


def _regress(X, W, w, what):
    """Weighted least squares coefficient of each row of X on w.

    Row i gets [sum_j w_j X_ij W_ij] / [sum_j w_j^2 W_ij]; the column
    regression is this one on X.T and W.T. Returns (coef, den), den the
    denominators.
    """
    den = W @ (w * w)
    if np.any(den <= 1e-300):
        raise DegenerateWeights(f"all {what} weights collapsed")
    return ((X * W) @ w) / den, den


def _target(X, W, cur, other, s2, alpha, ortho, what):
    """Projected regression target of a half-step and the slope toward it.

    The target is the row regression of X on other (_regress), projected
    onto the constraints. With raw the unprojected coefficients, the
    gradient of h in cur is -k den (raw - cur), because (W e) other =
    den (raw - cur) row by row; k = sigma2^(-alpha/2) (1+alpha) / (N
    sigma2) and N the number of cells. So the decrease rate of h at cur
    along d = target - cur is gain = k (den (raw - cur)) . d. Without
    constraints gain = k sum den (raw - cur)^2 >= 0 (an MM step); a
    projected target can make it <= 0, an uphill direction.

    Returns (target, gain).
    """
    raw, den = _regress(X, W, other, what)
    target = _project(raw, ortho)
    k = s2 ** (-alpha / 2.0) * (1.0 + alpha) / (X.size * s2)
    return target, k * float((den * (raw - cur)) @ (target - cur))


def _half_step(X, W, e, h, cur, other, s2, alpha, left, ortho):
    """One regression half-step: the row (left) or column update of cur.

    The target is the weighted regression of X (X.T for columns) on other
    with the weights W, projected onto the constraints (_target). cur
    moves toward it: the full step is always tried, since h is not
    convex, and the step is halved until h strictly decreases. Halving
    stops once the step t can no longer lower h by more than rounding,
    t gain <= STALL_RTOL |h| with gain the decrease rate of h along the
    step, so an uphill target (gain <= 0) costs one try; 40 tries is a
    guard. A step that finds no decrease leaves cur where it was. Every
    point between cur and the target satisfies the constraints, so the
    candidates are not projected again. e, W and h belong to cur.

    Returns (length, unit direction, h, residuals, weights) at the point
    reached. Raises RankCollapse at length 0.
    """
    if left:
        target, gain = _target(X, W, cur, other, s2, alpha, ortho, "row")
    else:
        target, gain = _target(X.T, W.T, cur, other, s2, alpha, ortho,
                               "column")
    t = 1.0
    for _ in range(40):
        cand = cur + t * (target - cur)
        e_c = X - (np.outer(cand, other) if left else np.outer(other, cand))
        W_c = weights(e_c, s2, alpha)
        h_c = h_value(e_c, s2, alpha, W_c)
        if h_c < h:
            cur, h, e, W = cand, h_c, e_c, W_c
            break
        t *= 0.5
        if t * gain <= STALL_RTOL * abs(h):
            break
    lam = np.linalg.norm(cur)
    if lam <= 0:
        raise RankCollapse("rank collapse")
    return lam, cur / lam, h, e, W


def _one_cycle(X, alpha, lam, u, v, s2, h, e, ortho_u, ortho_v, eps):
    W = weights(e, s2, alpha)
    lam, u, h, e, W = _half_step(X, W, e, h, lam * u, v, s2, alpha, True,
                                 ortho_u)
    lam, v, h, e, W = _half_step(X, W, e, h, lam * v, u, s2, alpha, False,
                                 ortho_v)
    s2_c = _sigma_solve(e, s2, alpha, max(eps, SIG_CAP * s2), W)[0]
    h_c = h_value(e, s2_c, alpha)
    if h_c <= h:
        s2, h = s2_c, h_c
    return lam, u, v, s2, h, e


def _cell_derivs(X, a, b, t, alpha):
    """Residuals and per-cell derivatives of the cell divergence.

    Returns (e, P, Q, R, S, T2): P = dV/de, Q = d2V/de2, R = dV/dt,
    S = d2V/de dt, T2 = d2V/dt2, in the coordinates (a, b, t = ln sigma2);
    alpha > 0.
    """
    e = X - np.outer(a, b)
    s2 = np.exp(t)
    c1 = (1.0 + alpha) ** -0.5
    c2 = 1.0 + 1.0 / alpha
    pre = np.exp(-alpha * t / 2.0)
    w = np.exp(-alpha * e * e / (2.0 * s2))
    P = pre * c2 * w * (alpha * e / s2)
    Q = pre * c2 * (alpha / s2) * w * (1.0 - alpha * e * e / s2)
    V = pre * (c1 - c2 * w)
    G = P * e / 2.0
    R = -(alpha / 2.0) * V - G
    S = P * (-alpha / 2.0 - 1.0 + alpha * e * e / (2.0 * s2))
    T2 = -(alpha / 2.0) * R - G * (-alpha / 2.0 + alpha * e * e / (2.0 * s2) - 1.0)
    return e, P, Q, R, S, T2


def _solve_bordered(Da, Db, M, wa, wb, htt, B, g, tau):
    """Newton step of the bordered system; None when the step must be damped.

    The Hessian has diagonal a-a and b-b blocks, dense a-b coupling, a scale
    border, and Lagrange columns B (the polish passes the gauge alone).
    The diagonal a-block is eliminated (Schur complement), O(n p^2) instead
    of O((n+p)^3); it must be positive, so a non-positive entry of Da + tau
    returns None, as does a singular complement.
    """
    n = Da.shape[0]
    p = Db.shape[0]
    dim = n + p + 1
    nc = B.shape[1]
    D = Da + tau
    if np.min(D) <= 1e-300:
        return None
    C = np.concatenate([M, wa[:, None], B[:n]], axis=1)
    m = p + 1 + nc
    E = np.zeros((m, m))
    E[:p, :p] = np.diag(Db + tau)
    E[:p, p] = wb
    E[p, :p] = wb
    E[p, p] = htt + tau
    E[:p, p + 1:] = B[n:n + p]
    E[p + 1:, :p] = B[n:n + p].T
    E[p, p + 1:] = B[dim - 1]
    E[p + 1:, p] = B[dim - 1]
    r1 = -g[:n]
    r2 = np.concatenate([-g[n:n + p], [-g[dim - 1]], np.zeros(nc)])
    CD = C / D[:, None]
    S = E - C.T @ CD
    try:
        y = np.linalg.solve(S, r2 - CD.T @ r1)
    except np.linalg.LinAlgError:
        return None
    da = (r1 - C @ y) / D
    return np.concatenate([da, y[:p + 1]])


def _newton_polish(X, lam, u, v, s2, alpha, eps):
    """Drive an unconstrained fit to the exact stationary point of h.

    Full Newton in (a, b, ln sigma2) with the scaling gauge (a, -b, 0) as
    a Lagrange border. Steps are trust capped, damped when the system is
    indefinite, and only accepted when h does not increase, so the descent
    trace stays monotone.
    """
    n, p = X.shape
    N = n * p
    dim = n + p + 1
    a = lam * u
    b = v.copy()
    t = float(np.log(s2))
    t_floor = float(np.log(eps))
    h = h_value(X - np.outer(a, b), np.exp(t), alpha)
    tau = 0.0
    for _ in range(40):
        e, P, Q, R, S, T2 = _cell_derivs(X, a, b, t, alpha)
        ga = -(P @ b) / N
        gb = -(P.T @ a) / N
        gt = float(np.sum(R)) / N
        Da = (Q @ (b * b)) / N
        Db = (Q.T @ (a * a)) / N
        M = (Q * np.outer(a, b) - P) / N
        wa = -(S @ b) / N
        wb = -(S.T @ a) / N
        htt = float(np.sum(T2)) / N
        z = np.concatenate([a, -b, [0.0]])
        B = (z / np.linalg.norm(z))[:, None]
        g = np.concatenate([ga, gb, [gt, 0.0]])
        cap = 1e-3 * (1.0 + max(np.max(np.abs(a)), np.max(np.abs(b)), abs(t)))
        for _try in range(12):
            # a try that does not solve, leaves the trust cap (a NaN step
            # fails the comparison) or raises h is damped
            d = _solve_bordered(Da, Db, M, wa, wb, htt, B, g, tau)
            if d is not None and np.max(np.abs(d)) <= cap:
                an = a + d[:n]
                bn = b + d[n:n + p]
                tn = max(t + d[dim - 1], t_floor)
                hn = h_value(X - np.outer(an, bn), np.exp(tn), alpha)
                if np.isfinite(hn) and hn <= h + 1e-14 * (1.0 + abs(h)):
                    break
            tau = max(10.0 * tau, 1e-8 * (1.0 + abs(htt)))
        else:
            break
        step = max(np.max(np.abs(an - a)) / (1.0 + np.max(np.abs(a))),
                   np.max(np.abs(bn - b)), abs(tn - t))
        a, b, t, h = an, bn, tn, hn
        tau = tau / 4.0 if tau > 1e-300 else 0.0
        if step < 1e-15:
            break
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na <= 0 or nb <= 0 or not np.isfinite(na * nb):
        return lam, u, v, s2, h_value(X - lam * np.outer(u, v), s2, alpha)
    u_o, v_o = _flip_sign(a / na, b / nb)
    return na * nb, u_o, v_o, float(np.exp(t)), h


def sigma_floor(X, eps_sigma=None):
    """sigma^2 floor: explicit override or 1e-10 max(1, mean X^2).

    Raises ValueError unless an override is finite and positive.
    """
    if eps_sigma is not None:
        return _check_eps(eps_sigma)
    return 1e-10 * max(1.0, float(np.mean(X * X)))


def _check_input(X):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-D matrix")
    if not np.all(np.isfinite(X)):
        raise NonFiniteInput("X contains non-finite entries")
    if min(X.shape) < 2:
        raise ValueError("X must have at least 2 rows and 2 columns")
    return X


def _solve(X, opts, ortho_u=None, ortho_v=None):
    """The iterative rank-one fit, for alpha > 0; returns a dict so
    callers can extend diagnostics.

    The fit is Newton-polished to the exact stationary point of h if and
    only if it is unconstrained (ortho_u is None). A constrained layer's
    projected regression targets are not descent steps, so its iteration
    stops where they stall, short of the constrained stationary point, and
    is returned as it stands. Polishing it with the orthogonality
    constraints as Lagrange borders was measured harmful: on the
    benchmark's 2000x200 rank-3 fit it moved layer 3's lambda to -1.85% of
    planted (outside the 1% check) and slowed the fit from 10.6 s to
    14.7 s.

    The iterate is one tuple (lam, u, v, s2, h, e): the state, h there
    and the residuals.
    """
    alpha = opts.alpha
    tol = opts.tol
    max_iter = opts.max_iter
    n, p = X.shape
    eps = sigma_floor(X, opts.eps_sigma)
    scale = np.sqrt(max(float(np.mean(X * X)), 1e-300))
    sig1 = np.linalg.svd(X, compute_uv=False)[0]
    lam_cap = SPIKE_FACTOR * max(sig1, np.sqrt(eps))

    def start(lam, u, v, s2):
        e = X - lam * np.outer(u, v)
        return lam, u, v, s2, h_value(e, s2, alpha), e

    def cycle(st):
        return _one_cycle(X, alpha, *st, ortho_u, ortho_v, eps)

    def pack(st):
        lam, u, v, s2 = st[:4]
        return np.concatenate([(lam / scale) * u, v, [np.log(s2)]])

    def unpack(th):
        # the extrapolation's coefficients amplify rounding, so its point is
        # projected again: without this, study batch 3, replicate 1, alpha
        # 1 ends at max |U'U - I| = 7.5e-10
        a = _project(th[:n] * scale, ortho_u)
        vv = _project(th[n:n + p], ortho_v)
        with np.errstate(over="ignore"):
            s2x = float(np.exp(th[-1]))
        la = np.linalg.norm(a)
        nv = np.linalg.norm(vv)
        if la <= 0 or nv <= 0 or not np.isfinite(s2x) or s2x <= 0:
            return None
        return start(la * nv, a / la, vv / nv, max(s2x, eps))

    st = start(*_init(X, opts.init, eps, opts.seed, ortho_u, ortho_v))
    trace = [st[4]]
    converged = False
    restarted = False
    it_total = 0
    it = 0
    while it_total < max_iter:
        it += 1
        it_total += 1
        prev = st
        if it <= PLAIN_FIRST:
            st = cycle(prev)
        else:
            st1 = cycle(prev)
            st = cycle(st1)
            th0, th1 = pack(prev), pack(st1)
            r = th1 - th0
            w = pack(st) - th1 - r
            nw = np.linalg.norm(w)
            if nw > 1e-300:
                sq = -np.linalg.norm(r) / nw
                acc = unpack(th0 - 2.0 * sq * r + sq * sq * w)
                if acc is not None and np.isfinite(acc[4]):
                    try:
                        acc = cycle(acc)
                    except FloatingPointError:
                        acc = None
                    if acc is not None and acc[4] < st[4]:
                        st = acc
        lam, u, v, s2, h, _ = st
        if lam > lam_cap and not restarted and opts.init == "screened":
            # the screened basin blew past the data's top singular value
            restarted = True
            st = start(*_init(X, "classical", eps, None, ortho_u, ortho_v))
            trace = [st[4]]
            it = 0
            continue
        trace.append(h)
        lam_p, u_p, v_p, s2_p, h_p, _ = prev
        theta_inf = max(lam, 1.0, s2)
        rel = max(abs(h - h_p) / (1.0 + abs(h)),
                  max(abs(lam - lam_p), np.max(np.abs(u - u_p)),
                      np.max(np.abs(v - v_p)), abs(s2 - s2_p)) / (1.0 + theta_inf))
        if rel < tol:
            converged = True
            break
    lam, u, v, s2, h, _ = st
    u, v = _flip_sign(u, v)
    if ortho_u is None:
        lam, u, v, s2, h = _newton_polish(X, lam, u, v, s2, alpha, eps)
        trace.append(h)
    return dict(lam=float(lam), u=u, v=v, s2=float(s2), h=h, it=it_total,
                conv=converged, restarted=restarted,
                trace=np.array(trace, dtype=float))


def _classical_layers(X, eps_sigma):
    """Yield the alpha = 0 deflation layers of X in closed form, as the
    results _layer_fit takes.

    At alpha = 0 h is the Gaussian log-likelihood, so layer k is the k-th
    singular triple of one SVD of X, with the sign convention. Its sigma2
    is the mean square of the running residual after the layer, floored
    at sigma_floor of the residual before it; it reports 0 iterations,
    converged, and a one-entry trace, h at the fit. Raises RankCollapse
    at a zero singular value.
    """
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    E = X
    for k in range(s.size):
        if s[k] == 0.0:
            raise RankCollapse("rank collapse")
        u, v = _flip_sign(U[:, k].copy(), Vt[k].copy())
        eps = sigma_floor(E, eps_sigma)
        E = E - s[k] * np.outer(u, v)
        s2 = max(float(np.mean(E * E)), eps)
        yield dict(lam=float(s[k]), u=u, v=v, s2=s2, it=0, conv=True,
                   trace=np.array([h_value(E, s2, 0.0)]))


def _layer_fit(f, layer):
    """The Rank1Fit of a _solve or _classical_layers result; one
    RuntimeWarning if the layer stopped at max_iter before converging."""
    if not f["conv"]:
        warnings.warn(f"layer {layer}: stopped at max_iter after {f['it']} "
                      "iterations without converging", RuntimeWarning,
                      stacklevel=3)
    return Rank1Fit(lambda_=f["lam"], u=f["u"], v=f["v"], sigma2=f["s2"],
                    iterations=f["it"], converged=f["conv"], trace=f["trace"])


def fit_rank1(X, opts=None):
    """Fit the rank-one robust SVD model to X.

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
    X = _check_input(X)
    if opts is None:
        opts = SolverOptions()
    if opts.alpha == 0.0:
        f = next(_classical_layers(X, opts.eps_sigma))
    else:
        f = _solve(X, opts)
    return _layer_fit(f, 0)


def _regress_fixpoint(X, a, w, s2, alpha, what):
    """Row regression of X on w, repeated until its weights agree with a."""
    for _ in range(100):
        W = weights(X - np.outer(a, w), s2, alpha)
        a_new = _regress(X, W, w, what)[0]
        done = np.max(np.abs(a_new - a)) <= 1e-13 * (1.0 + np.max(np.abs(a_new)))
        a = a_new
        if done:
            break
    return a


def update_u(X, fit, alpha):
    """Row-regression update: the weighted least squares coefficients a.

    Solves, per row i, min over a_i of the summed cell divergence at the
    fit's v and sigma2: a_i = [sum_j v_j X_ij w_ij] / [sum_j v_j^2 w_ij]
    with w the robustness weights, iterated until the weights agree with
    the returned coefficients. Returns the unnormalized length-n vector.

    Raises DegenerateWeights if a row's denominator falls to 1e-300.
    """
    al = check_alpha(alpha)
    X = np.asarray(X, dtype=float)
    lam, u, v, s2 = _fit_state(fit)
    return _regress_fixpoint(X, lam * u, v, s2, al, "row")


def update_v(X, fit, alpha):
    """Column-regression update, symmetric to update_u, using the fit's u."""
    al = check_alpha(alpha)
    X = np.asarray(X, dtype=float)
    lam, u, v, s2 = _fit_state(fit)
    return _regress_fixpoint(X.T, lam * v, u, s2, al, "column")


def update_sigma2(residuals, sigma2_prev, alpha, eps=1e-10):
    """Scale update: self-consistent weighted residual variance.

    Solves s2 = [mean e^2 w] / [mean w - alpha (1+alpha)^(-3/2)], with w
    the weights at s2, by Newton's method from sigma2_prev; the result is
    the fixpoint of that update, clamped to >= eps. Returns (sigma2,
    degenerate): when the denominator is not positive at sigma2_prev the
    update has no positive value, the previous value is carried forward
    and degenerate is True. Raises ValueError unless sigma2_prev is
    positive and eps finite and positive.
    """
    al = check_alpha(alpha)
    e = np.asarray(residuals, dtype=float)
    s2 = float(sigma2_prev)
    if not s2 > 0.0:
        raise ValueError("sigma2_prev must be positive")
    return _sigma_solve(e, s2, al, _check_eps(eps))


def _matched_fit_pair(X, opts, transform_X, transform_state):
    """Fit X and its transform from matched starts; return both fits.

    The screened and classical policies derive their start from the data
    and commute with scaling and permutation, so they are already matched.
    Random or provided starts are transported through the transform.
    """
    base = fit_rank1(X, opts)
    X = np.asarray(X, dtype=float)
    if opts.init in ("screened", "classical"):
        opts_t = opts
    else:
        st = _init(X, opts.init, sigma_floor(X, opts.eps_sigma), opts.seed)
        opts_t = replace(opts, init=transform_state(st))
    other = fit_rank1(transform_X(X), opts_t)
    return base, other


def _fit_deviation(got, want):
    lam, u, v, s2 = want
    return max(abs(got.lambda_ - lam) / (1.0 + abs(lam)),
               float(np.max(np.abs(got.u - u))),
               float(np.max(np.abs(got.v - v))),
               abs(got.sigma2 - s2) / (1.0 + abs(s2)))


def check_equivariance_scale(X, c, opts=None, tol=1e-10):
    """True iff fitting c*X returns the scaled fit of X within tol.

    Both fits run from matched initializations; the reference is
    (|c| lambda, u, sign(c) v, c^2 sigma2) with the sign convention
    applied. Deviations are relative in lambda and sigma2 and absolute
    in the vector components.
    """
    c = float(c)
    if c == 0.0:
        raise ValueError("c must be nonzero")
    if opts is None:
        opts = SolverOptions()
    sgn = 1.0 if c > 0 else -1.0

    def t_state(st):
        lam, u, v, s2 = st
        return (abs(c) * lam, u, sgn * v, c * c * s2)

    base, other = _matched_fit_pair(X, opts, lambda A: c * A, t_state)
    want = (abs(c) * base.lambda_, base.u, sgn * base.v, c * c * base.sigma2)
    return _fit_deviation(other, want) <= tol


def check_equivariance_permutation(X, perm_rows, perm_cols, opts=None,
                                   tol=1e-10):
    """True iff fitting the row/column-permuted X permutes the fit of X."""
    pr = np.asarray(perm_rows, dtype=int)
    pc = np.asarray(perm_cols, dtype=int)
    if opts is None:
        opts = SolverOptions()

    def t_state(st):
        lam, u, v, s2 = st
        return (lam, u[pr], v[pc], s2)

    base, other = _matched_fit_pair(X, opts,
                                    lambda A: A[np.ix_(pr, pc)], t_state)
    want = (base.lambda_, base.u[pr], base.v[pc], base.sigma2)
    return _fit_deviation(other, want) <= tol
