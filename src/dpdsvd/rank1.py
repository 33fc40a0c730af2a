"""The rank-one solver: a robust SVD layer by alternating weighted regressions.

The estimator minimizes the density power divergence objective h (see
objective.py) over (lambda, u, v, sigma2) with unit-norm u, v. Each outer
iteration runs a row regression for u, a column regression for v (both
backtracked so h never increases; one function, _half_step, does either),
and a self-consistent scale update. The backtracking halves a step only
while its predicted decrease of h, the step length times the slope of h
toward the target, stays above h's rounding; the slope comes from the
regression's own denominators, since the gradient of h is a weighted
residual of the regression. The full step is tried alone; the
halvings after it are known before any is tried, so they are evaluated
as stacks of candidates, many per pass over the cells on a small
matrix, with the results of trying them one by one. The column
regression is the row regression of the transposed problem. A row
whose weights have all underflowed, such as a whole tampered video
frame, is refit at its weights divided by their largest value instead
of raising. After a warm-up the iteration is accelerated by squared
extrapolation of the fixed-point map (SQUAREM), and every accelerated
state is re-checked against h. The iterate carries the residuals e and
the weights W of its point, so a cycle makes no weights pass of its own
at the top.

A deflated layer constrains u and v orthogonal to the earlier layers'
vectors. Three things are projected onto that constraint: the start,
each regression target and each extrapolated state. A backtracked
candidate lies between the current point and its target, both feasible,
so it is not projected again.

Plain alternating descent stalls inside a float-flat region around the
minimizer (step-to-step h differences underflow double precision long
before the parameters agree to 1e-10 across equivalent problem instances),
so an unconstrained fit that converged is polished by a bordered Newton
method with analytic derivatives, each step solved by Schur elimination
of the diagonal row block; the polish lands on the exact stationary point at
float resolution, which makes independently computed fits of scaled or
permuted data agree to machine precision.

At alpha = 0 h is the Gaussian log-likelihood, whose minimizer is the top
singular triple; that case is computed in closed form from one SVD
(decomposition._classical_layers) and never reaches the iteration. The
fit entry points and the layer loop that calls _solve are in
decomposition.py.
"""
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateWeights, NonFiniteInput, RankCollapse
from .objective import _fit_state, _mean, check_alpha, h_value, weights

PLAIN_FIRST = 10       # plain cycles before extrapolation kicks in
SIG_CAP = 0.5          # sigma^2 may shrink at most 2x per outer iteration
SPIKE_FACTOR = 4.0     # restart when lambda exceeds this multiple of sigma_1
SCREEN_K = 2.0         # init screening threshold in robust sd units
STALL_RTOL = 4e-16     # halve only while the predicted drop of h > this * |h|
HALVINGS = 0.5 ** np.arange(40.0)   # the step lengths a half-step may try
BATCH_CELLS = 1 << 14  # sizes a half-step's stacks of halvings (_half_step)
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
    (set seed, a non-negative integer); a Rank1Fit or (lambda, u, v,
    sigma2) tuple is used as is, once a fit has checked it (_init), as
    the start of the unconstrained fit only: _solve starts a deflated
    layer from "screened". eps_sigma overrides the sigma2 floor (default
    1e-10 max(1, mean X^2)).
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
        if self.seed is not None and self.seed < 0:
            raise ValueError("seed must be non-negative")


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


def _mad(x):
    """1.4826 median |x|, the robust sd of x's cells around 0.

    The median is taken by np.partition as np.median takes it, the mean
    of the two middle values at an even size, so the value is
    np.median's bit for bit; np.median's NaN check, which imports
    numpy.ma on its first call (NumPy 2), is skipped, as x is finite.
    The copy |x| is the only array made: it is partitioned in place.
    """
    a = np.abs(x).ravel()
    m = a.size // 2
    if a.size % 2:
        a.partition(m)
        return 1.4826 * float(a[m])
    a.partition((m - 1, m))
    return 1.4826 * float((a[m - 1] + a[m]) / 2.0)


def _fit_residuals(X, lam, u, v):
    """X - lam * np.outer(u, v), bit for bit, built in one array."""
    e = u[:, None] * v
    e *= lam
    return np.subtract(X, e, out=e)


def _init(X, init, eps, seed=None, ortho_u=None, ortho_v=None):
    """Starting state (lambda, u, v, sigma2) of SolverOptions.init.

    A provided state (Rank1Fit or 4-tuple) is used as is, with sigma2
    floored at eps. "screened" takes the top SVD pair of X with its gross
    cells zeroed out, "classical" the top SVD pair of X, "random" seeded
    normal directions. The directions are projected onto the constraints
    and oriented; lambda is u'Mv on the matrix M they came from, and
    sigma2 a robust scale of the residuals.

    A provided state raises NonFiniteInput unless its lambda, u and v are
    finite, and ValueError unless u and v have X's row and column counts
    and unit norm within 1e-8 and sigma2 is not NaN or infinite.
    """
    if not isinstance(init, str):
        lam, u, v, s2 = _fit_state(init)
        if not (np.isfinite(lam) and np.all(np.isfinite(u))
                and np.all(np.isfinite(v))):
            raise NonFiniteInput("init has a non-finite lambda, u or v")
        if u.shape != X.shape[:1] or v.shape != X.shape[1:]:
            raise ValueError(f"init u and v must have lengths {X.shape[0]} "
                             f"and {X.shape[1]}, got {u.shape} and {v.shape}")
        if max(abs(np.linalg.norm(u) - 1.0),
               abs(np.linalg.norm(v) - 1.0)) > 1e-8:
            raise ValueError("init u and v must have unit norm")
        if not np.isfinite(s2):
            raise ValueError("init sigma2 must be finite")
        return lam, u, v, max(s2, eps)
    M = X
    if init == "random":
        rng = np.random.default_rng(0 if seed is None else seed)
        u, v = rng.standard_normal(X.shape[0]), rng.standard_normal(X.shape[1])
    else:
        if init == "screened":
            s = _mad(X)
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
    # an unprojected, unflipped u is a column of the SVD's n x p factor,
    # which its view would keep alive through the first cycles
    u = np.ascontiguousarray(u)
    lam = d if d > 0 else np.sqrt(eps)
    return lam, u, v, max(_mad(_fit_residuals(X, lam, u, v)) ** 2, eps)


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

    Besides e and a given W, at most three arrays the size of e are alive:
    e^2, e^2 w and e^2 / s. An iterate's weights are dropped once e^2 w
    is formed, and the term of C is formed in e^2 w's buffer.
    """
    c_sig = alpha * (1.0 + alpha) ** -1.5
    e2 = e * e
    plain = None            # T at the predecessor of a Newton iterate
    r_prev = np.inf
    for _ in range(200):
        if W is None:
            W = weights(e, s2, alpha)
        den = _mean(W) - c_sig
        if den <= 0:
            if plain is None:
                return s2, True
            s2, plain, W = plain, None, None
            continue
        e2w = e2 * W
        W = None
        B = _mean(e2w)
        T = B / den
        if T < lo:
            return lo, False
        r = abs(T - s2)
        if r <= 4e-15 * s2 or r_prev <= r <= 1e-8 * s2:
            return T, False
        r_prev = r
        # T'(s) from b = B / s and c = C / s^2, which stay finite at any scale
        b = B / s2
        e2w *= e2 / s2
        c = _mean(e2w) / s2
        e2w = None
        d = alpha * (c * den - b * b) / (2.0 * den * den)
        if math.isfinite(d) and d < 1.0:
            s2, plain = max(s2 + (T - s2) / (1.0 - d), lo), T
        else:
            s2, plain = T, None
    return s2, False


def _regress(X, W, w, what):
    """Weighted least squares coefficient of each row of X on w.

    Row i gets [sum_j w_j X_ij W_ij] / [sum_j w_j^2 W_ij]; the column
    regression is this one on X.T and W.T. Returns (coef, den), den the
    denominators.
    """
    den = W @ (w * w)
    if (den <= 1e-300).any():
        raise DegenerateWeights(f"all {what} weights collapsed")
    return ((X * W) @ w) / den, den


def _regress_collapsed(X, W, cur, other, s2, alpha, what):
    """_regress when some rows' weights have all underflowed to 0.

    A row's coefficient does not depend on the scale of its weights, so
    each collapsed row is refit with its weights divided by their largest
    value, exp(-alpha (e^2 - min e^2) / (2 sigma2)) with e the row's
    residuals at cur. The gradient of h in such a row is below float
    resolution, so its den is returned as 0. Raises DegenerateWeights if
    a row still collapses.
    """
    low = W @ (other * other) <= 1e-300
    e2 = np.square(X[low] - np.outer(cur[low], other))
    W = W.copy()
    W[low] = np.exp(-alpha * (e2 - np.min(e2, axis=1, keepdims=True))
                    / (2.0 * s2))
    raw, den = _regress(X, W, other, what)
    den[low] = 0.0
    return raw, den


def _target(X, W, cur, other, s2, alpha, ortho, what):
    """Projected regression target of a half-step and the slope toward it.

    The target is the row regression of X on other (_regress), projected
    onto the constraints; rows whose weights have all collapsed, such as
    a whole tampered video frame, are refit at rescaled weights
    (_regress_collapsed). With raw the unprojected coefficients, the
    gradient of h in cur is -k den (raw - cur), because (W e) other =
    den (raw - cur) row by row; k = sigma2^(-alpha/2) (1+alpha) / (N
    sigma2) and N the number of cells. So the decrease rate of h at cur
    along d = target - cur is gain = k (den (raw - cur)) . d. Without
    constraints gain = k sum den (raw - cur)^2 >= 0 (an MM step); a
    projected target can make it <= 0, an uphill direction.

    Returns (target, gain).
    """
    try:
        raw, den = _regress(X, W, other, what)
    except DegenerateWeights:
        raw, den = _regress_collapsed(X, W, cur, other, s2, alpha, what)
    target = _project(raw, ortho)
    k = s2 ** (-alpha / 2.0) * (1.0 + alpha) / (X.size * s2)
    return target, k * float((den * (raw - cur)) @ (target - cur))


def _residuals(X, cand, other, left):
    """X minus the rank-one fit of a row (left) or column candidate and
    other; a stack of k candidates, shape (k, n) or (k, p), gives a
    (k, n, p) stack of residual matrices. The outer product's array is
    the output: the subtraction is made in place."""
    R = (cand[..., None] * other if left
         else other[:, None] * cand[..., None, :])
    return np.subtract(X, R, out=R)


def _half_step(X, W, e, h, cur, other, s2, alpha, left, ortho):
    """One regression half-step: the row (left) or column update of cur.

    The target is the weighted regression of X (X.T for columns) on other
    with the weights W, projected onto the constraints (_target). cur
    moves toward it: the full step is always tried, since h is not
    convex, and the step is halved until h strictly decreases. Halving
    stops once the step t can no longer lower h by more than rounding,
    t gain <= STALL_RTOL |h| with gain the decrease rate of h along the
    step, so an uphill target (gain <= 0) costs one try; 40 tries
    (HALVINGS) is a guard. A step that finds no decrease leaves cur
    where it was. Every point between cur and the target satisfies the
    constraints, so the candidates are not projected again. e, W and h
    belong to cur.

    The full step is tried alone, as one matrix: an unconstrained
    regression step nearly always lowers h there. The stop test does not
    depend on the tries, so the halvings after it are fixed next and
    tried as stacks of k = sqrt(BATCH_CELLS / X.size) of them (at least
    one): each stack is one residual array of shape (k, n, p), one
    weights pass and one h_value call, and the first candidate below h
    wins. The result is that of trying them one by one, bit for bit. A
    pass costs a fixed interpreter overhead plus k X.size cells, some of
    them past the winner, and the square root balances the two: a 10x4
    study step tries 20 halvings per pass, a 100x20 one 2, and an X of
    more than BATCH_CELLS / 4 cells one, as a loop would. A stack of
    k > 1 stays below BATCH_CELLS cells (128 KiB).

    Returns (length, unit direction, h, residuals, weights, vector) at
    the point reached, vector being that point unnormalized: the
    residuals are _residuals(X, vector, other, left) bit for bit, when
    the step moved. Raises RankCollapse at length 0.
    """
    if left:
        target, gain = _target(X, W, cur, other, s2, alpha, ortho, "row")
    else:
        target, gain = _target(X.T, W.T, cur, other, s2, alpha, ortho,
                               "column")
    step = target - cur
    cand = cur + step
    e_c = _residuals(X, cand, other, left)
    W_c = weights(e_c, s2, alpha)
    h_c = h_value(e_c, s2, alpha, W_c)
    if h_c < h:
        cur, h, e, W = cand, h_c, e_c, W_c
    else:
        e_c = W_c = None    # freed before the halvings' stacks are built
        # the try at 1/2**i follows only if no earlier halving met the
        # stop test; a NaN gain or h meets none
        stop = HALVINGS[1:] * gain <= STALL_RTOL * abs(h)
        i = int(stop.argmax())
        tries = i + 1 if stop[i] else HALVINGS.size
        chunk = max(1, int(math.sqrt(BATCH_CELLS / X.size)))
        for lo in range(1, tries, chunk):
            cand = cur + HALVINGS[lo:min(lo + chunk, tries), None] * step
            E = _residuals(X, cand, other, left)
            W_c = weights(E, s2, alpha)
            h_c = h_value(E, s2, alpha, W_c).tolist()
            i = next((i for i, h_i in enumerate(h_c) if h_i < h), None)
            if i is not None:
                cur, h, e, W = cand[i], h_c[i], E[i], W_c[i]
                break
    lam = math.sqrt(cur.dot(cur))
    if lam <= 0:
        raise RankCollapse("rank collapse")
    return lam, cur / lam, h, e, W, cur


def _one_cycle(X, alpha, st, ortho_u, ortho_v, eps):
    """Row half-step, column half-step, then the scale update, kept only
    if it does not raise h. st is the iterate [lam, u, v, s2, h, e, W,
    src], with W = weights(e, s2, alpha) and e = src[0](X, *src[1:]), the
    call that formed e (_solve); the cycle empties it, so its e and W are
    freed once the row half-step has replaced them. The iterate returned
    is a new list of the same form: the half-steps hand back the weights
    of the point they reach, and the scale update's weights are kept with
    its sigma2. A half-step that moved (lowered h) formed e, so src
    becomes its _residuals call."""
    lam, u, v, s2, h, e, W, src = st
    st.clear()
    lam, u, h_u, e, W, a = _half_step(X, W, e, h, lam * u, v, s2, alpha,
                                      True, ortho_u)
    if h_u < h:
        src = (_residuals, a, v, True)
    lam, v, h, e, W, b = _half_step(X, W, e, h_u, lam * v, u, s2, alpha,
                                    False, ortho_v)
    if h < h_u:
        src = (_residuals, b, u, False)
    s2_c = _sigma_solve(e, s2, alpha, max(eps, SIG_CAP * s2), W)[0]
    W_c = weights(e, s2_c, alpha)
    h_c = h_value(e, s2_c, alpha, W_c)
    if h_c <= h:
        s2, h, W = s2_c, h_c, W_c
    return [lam, u, v, s2, h, e, W, src]


def _polish_terms(X, a, b, t, alpha):
    """Gradient and Hessian blocks of h in (a, b, t = ln sigma2), alpha > 0.

    Returns (ga, gb, gt, Da, Db, M, wa, wb, htt): the gradient in a, b and
    t, the diagonals of the a-a and b-b blocks, the dense a-b block M, the
    a-t and b-t columns and the t-t entry. With q = alpha e^2 / (2 sigma2)
    and w = exp(-q), the cell value is V = pre (c1 - c2 w), and the cell
    derivatives are P = dV/de, Q = d2V/de2 and S = d2V/de dt = P (q -
    alpha/2 - 1). The t entries need no cell array of their own: dV/dt =
    -(alpha/2) V - P e/2 and d2V/dt2 = -(alpha/2) dV/dt - S e/2, so gt and
    htt are sums of w, P e and S e. Each cell array is built in place, so
    at most five arrays the size of X are alive at once besides X (M, the
    only one returned, is formed in the buffer of Q).
    """
    n, p = X.shape
    N = n * p
    s2 = np.exp(t)
    c1 = (1.0 + alpha) ** -0.5
    c2 = 1.0 + 1.0 / alpha
    pre = np.exp(-alpha * t / 2.0)
    # e = X - a b', q = alpha e e / (2 s2), w = exp(-q)
    e = np.outer(a, b)
    np.subtract(X, e, out=e)
    q = np.multiply(e, alpha)
    q *= e
    q /= 2.0 * s2
    w = np.negative(q)
    np.exp(w, out=w)
    sum_v = pre * c1 * N - pre * c2 * float(np.sum(w))
    # P = pre c2 w (alpha e / s2)
    P = np.multiply(e, alpha)
    P /= s2
    P *= np.multiply(w, pre * c2)
    ga = -(P @ b) / N
    gb = -(P.T @ a) / N
    # S = P (q - alpha / 2 - 1)
    S = np.add(q, -alpha / 2.0 - 1.0)
    S *= P
    wa = -(S @ b) / N
    wb = -(S.T @ a) / N
    # the sums of S e and P e, over S and e
    S *= e
    e *= P
    gt = (-(alpha / 2.0) * sum_v - float(np.sum(e)) / 2.0) / N
    htt = -(alpha / 2.0) * gt - float(np.sum(S)) / (2.0 * N)
    del S, e
    # Q = pre c2 (alpha / s2) w (1 - 2 q), over w (2 q is alpha e e / s2:
    # doubling is exact)
    q *= -2.0
    q += 1.0
    Q = w
    Q *= pre * c2 * (alpha / s2)
    Q *= q
    del q, w
    Da = (Q @ (b * b)) / N
    Db = (Q.T @ (a * a)) / N
    # M = (Q a b' - P) / N, over Q
    M = Q
    M *= np.outer(a, b)
    M -= P
    M /= N
    return ga, gb, gt, Da, Db, M, wa, wb, htt


def _solve_bordered(Da, Db, M, wa, wb, htt, a, b, g, tau):
    """Newton step of the bordered system; None when the step must be damped.

    The Hessian has diagonal a-a and b-b blocks, dense a-b coupling and a
    scale border. Its one Lagrange border is the scaling gauge
    z = (a, -b, 0) / |z|, the direction along which h does not change,
    built here from a and b; its row's right-hand side is zero. g is the
    gradient in (a, b, t).
    The diagonal a-block is eliminated (Schur complement), O(n p^2) instead
    of O((n+p)^3); it must be positive, so a non-positive entry of Da + tau
    returns None, as does a singular complement.
    """
    n = Da.shape[0]
    p = Db.shape[0]
    D = Da + tau
    if np.min(D) <= 1e-300:
        return None
    z = np.concatenate([a, -b, [0.0]])
    z /= np.linalg.norm(z)
    C = np.concatenate([M, wa[:, None], z[:n, None]], axis=1)
    E = np.zeros((p + 2, p + 2))
    E[:p, :p] = np.diag(Db + tau)
    E[:p, p] = wb
    E[p, :p] = wb
    E[p, p] = htt + tau
    E[:p, p + 1] = z[n:n + p]
    E[p + 1, :p] = z[n:n + p]
    r1 = -g[:n]
    r2 = np.concatenate([-g[n:], [0.0]])
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
    its one Lagrange border (_solve_bordered). Steps are trust capped,
    damped when the system is indefinite, and only accepted when h does
    not increase, so the descent trace stays monotone.

    Working set: besides X, at most five arrays the size of X at once
    (in _polish_terms; the last step's M is freed before the next is
    built), plus the two n x (p+2) blocks of the bordered solve. Measured
    peak: 5.12 times X.nbytes on a 400x100 matrix, 5.05 on a 2000x200 one.
    Inside a rank-1 fit the polish is the fit's peak, at 5.09 times
    X.nbytes on the benchmark's 2000x200 draw; a deflated layer is not
    polished, and the peak of a rank-3 fit, 6.14, lies in _solve's
    iteration (README, tools/fit_memory.py).
    """
    n, p = X.shape
    a = lam * u
    b = v.copy()
    t = float(np.log(s2))
    t_floor = float(np.log(eps))
    h = h_value(X - np.outer(a, b), np.exp(t), alpha)
    tau = 0.0
    for _ in range(40):
        M = None            # the last step's M is freed before the next
        ga, gb, gt, Da, Db, M, wa, wb, htt = _polish_terms(X, a, b, t,
                                                           alpha)
        g = np.concatenate([ga, gb, [gt]])
        cap = 1e-3 * (1.0 + max(np.max(np.abs(a)), np.max(np.abs(b)), abs(t)))
        for _try in range(12):
            # a try that does not solve, leaves the trust cap (a NaN step
            # fails the comparison) or raises h is damped
            d = _solve_bordered(Da, Db, M, wa, wb, htt, a, b, g, tau)
            if d is not None and np.max(np.abs(d)) <= cap:
                an = a + d[:n]
                bn = b + d[n:n + p]
                tn = max(t + d[-1], t_floor)
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


def sigma_floor(X, eps_sigma=None, ms=None):
    """sigma^2 floor: explicit override or 1e-10 max(1, mean X^2).

    ms, if given, holds mean X^2 already computed. Raises ValueError
    unless an override is finite and positive.
    """
    if eps_sigma is not None:
        return _check_eps(eps_sigma)
    if ms is None:
        ms = float(np.mean(X * X))
    return 1e-10 * max(1.0, ms)


def _check_input(X):
    """X as a C-ordered float array; raises ValueError unless it is real
    and 2-D with at least 2 rows and 2 columns, NonFiniteInput unless
    finite."""
    if np.iscomplexobj(X):
        raise ValueError("X must be real, not complex")
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-D matrix")
    if not np.all(np.isfinite(X)):
        raise NonFiniteInput("X contains non-finite entries")
    if min(X.shape) < 2:
        raise ValueError("X must have at least 2 rows and 2 columns")
    return X


def _solve(X, opts, ortho_u=None, ortho_v=None, budget=None):
    """The iterative rank-one fit, for alpha > 0; returns a dict so
    callers can extend diagnostics.

    A provided start (a Rank1Fit or 4-tuple opts.init) serves only the
    unconstrained fit (ortho_u is None), since it is not orthogonal to
    the earlier layers' vectors: a constrained fit starts from
    "screened", projected onto the constraints. Reused on every layer, a
    provided start left U'U or V'V entries of up to 0.98 off the
    diagonal.

    Only the unconstrained fit from a "screened" start computes the spike
    cap, SPIKE_FACTOR times the top singular value of X. When its lambda
    passes the cap, the iterate is freed and the fit is a second solve
    from "classical" on the budget of iterations left (max_iter by
    default), whose result is returned with the iterations already spent
    added and restarted set. A second solve with no iterations left
    returns the classical start, unconverged. Over S1-S5 at alpha 0.1,
    0.5 and 1 (200 replicates each) the restart fired on 16 of 4,200
    first layers and on none of 12,600 deflated ones, so a deflated
    layer takes no cap.

    The fit is Newton-polished to the exact stationary point of h if and
    only if it is unconstrained (ortho_u is None) and its iteration
    converged. An unconverged first layer may still be drifting: on the
    S2c replicate of default_rng([1076676197, 2]) at alpha 1 the polish
    jumped from there to lambda 597.4, 11 times sigma_1, so such a layer
    is returned as it stands and warns (decomposition._layers). A
    constrained layer's projected regression targets are not descent
    steps, so its iteration stops where they stall, short of the
    constrained stationary point, and is returned as it stands.
    Polishing it with the orthogonality constraints as Lagrange borders
    was measured harmful: on the benchmark's 2000x200 rank-3 fit it moved
    layer 3's lambda to -1.85% of planted (outside the 1% check) and
    slowed the fit from 10.6 s to 14.7 s.

    The iterate is one list [lam, u, v, s2, h, e, W, src]: the state, h
    there, the residuals, weights(e, s2, alpha) and how e was formed, as
    a call src[0](X, *src[1:]): _fit_residuals of the start's (lam, u,
    v), or _residuals of the unnormalized vector of the last half-step
    that moved, with its other factor (_one_cycle). Each array is held
    only while a next step needs it. The previous state and the middle
    state of an extrapolation are cut to (lam, u, v, s2, h) before their
    cycle runs, and the cycle empties the list it is given, so a state's
    e and W are freed once its row half-step has replaced them. While an
    extrapolated state is cycled, the current state gives up its e and
    W; if the extrapolation loses, e is formed again by src and W as
    weights(e, s2, alpha), which are the arrays it carried, bit for bit.
    That costs one residual pass and one weights pass per lost
    extrapolation. With the cell passes in place (objective.weights and
    _cells, _residuals), it took the peak of this iteration on the
    benchmark's 2000x200 draw from 7.07 to 5.07 times X.nbytes, below
    the polish's 5.09, and that of a rank-3 fit, reached in a deflated
    layer's stabilization cycle with the running residual alive, from
    8.10 to 6.14 (tools/fit_memory.py).
    """
    alpha = opts.alpha
    tol = opts.tol
    budget = opts.max_iter if budget is None else budget
    n, p = X.shape
    ms = float(np.mean(X * X))
    eps = sigma_floor(X, opts.eps_sigma, ms)
    scale = np.sqrt(max(ms, 1e-300))

    def start(lam, u, v, s2):
        e = _fit_residuals(X, lam, u, v)
        W = weights(e, s2, alpha)
        return [lam, u, v, s2, h_value(e, s2, alpha, W), e, W,
                (_fit_residuals, lam, u, v)]

    def cycle(st):
        return _one_cycle(X, alpha, st, ortho_u, ortho_v, eps)

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
        la = math.sqrt(a.dot(a))
        nv = math.sqrt(vv.dot(vv))
        if la <= 0 or nv <= 0 or not math.isfinite(s2x) or s2x <= 0:
            return None
        return start(la * nv, a / la, vv / nv, max(s2x, eps))

    init = (opts.init if isinstance(opts.init, str) or ortho_u is None
            else "screened")
    lam_cap = np.inf
    if init == "screened" and ortho_u is None:
        sig1 = np.linalg.svd(X, compute_uv=False)[0]
        lam_cap = SPIKE_FACTOR * max(sig1, np.sqrt(eps))
    st = start(*_init(X, init, eps, opts.seed, ortho_u, ortho_v))
    trace = [st[4]]
    converged = False
    it = 0                  # a second solve may have no iterations left
    for it in range(1, budget + 1):
        # the cut is made before the cycle empties st (_one_cycle)
        prev, st = st[:5], cycle(st)
        if it > PLAIN_FIRST:
            st1, st = st[:5], cycle(st)
            th0, th1 = pack(prev), pack(st1)
            r = th1 - th0
            w = pack(st) - th1 - r
            nw = math.sqrt(w.dot(w))
            if nw > 1e-300:
                sq = -math.sqrt(r.dot(r)) / nw
                acc = unpack(th0 - 2.0 * sq * r + sq * sq * w)
                if acc is not None and math.isfinite(acc[4]):
                    st[5] = st[6] = None    # rebuilt below if acc loses
                    try:
                        acc = cycle(acc)
                    except FloatingPointError:
                        acc = None
                    if acc is not None and acc[4] < st[4]:
                        st = acc
                    else:
                        src = st[7]
                        st[5] = src[0](X, *src[1:])
                        st[6] = weights(st[5], st[3], alpha)
                acc = None
        lam, u, v, s2, h = st[:5]
        if lam > lam_cap:
            # the screened basin blew past the data's top singular value
            st = None        # freed before the second solve
            f = _solve(X, replace(opts, init="classical"), budget=budget - it)
            return dict(f, it=f["it"] + it, restarted=True)
        trace.append(h)
        lam_p, u_p, v_p, s2_p, h_p = prev
        theta_inf = max(lam, 1.0, s2)
        rel = max(abs(h - h_p) / (1.0 + abs(h)),
                  max(abs(lam - lam_p), np.abs(u - u_p).max(),
                      np.abs(v - v_p).max(), abs(s2 - s2_p)) / (1.0 + theta_inf))
        if rel < tol:
            converged = True
            break
    lam, u, v, s2 = st[:4]
    st = None    # free its residuals and weights before the polish
    u, v = _flip_sign(u, v)
    if ortho_u is None and converged:
        lam, u, v, s2, h = _newton_polish(X, lam, u, v, s2, alpha, eps)
        trace.append(h)
    return dict(lam=float(lam), u=u, v=v, s2=float(s2), it=it,
                conv=converged, restarted=False,
                trace=np.array(trace, dtype=float))


def _regress_fixpoint(X, fit, alpha, left):
    """Row (left) or column regression of X at the fit's other vector and
    sigma2, repeated until its weights agree with the coefficients."""
    alpha = check_alpha(alpha)
    X = _check_input(X)
    lam, u, v, s2 = _fit_state(fit)
    if not 0.0 < s2 < np.inf:
        raise ValueError("sigma2 must be finite and positive")
    X, a, w, what = ((X, lam * u, v, "row") if left
                     else (X.T, lam * v, u, "column"))
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

    Raises NonFiniteInput or ValueError for an X that fit_rank1 rejects,
    ValueError unless the fit's sigma2 is finite and positive, and
    DegenerateWeights if a row's denominator falls to 1e-300.
    """
    return _regress_fixpoint(X, fit, alpha, True)


def update_v(X, fit, alpha):
    """Column-regression update, symmetric to update_u, using the fit's u."""
    return _regress_fixpoint(X, fit, alpha, False)


def update_sigma2(residuals, sigma2_prev, alpha, eps=1e-10):
    """Scale update: self-consistent weighted residual variance.

    Solves s2 = [mean e^2 w] / [mean w - alpha (1+alpha)^(-3/2)], with w
    the weights at s2, by Newton's method from sigma2_prev; the result is
    the fixpoint of that update, clamped to >= eps. Returns (sigma2,
    degenerate): when the denominator is not positive at sigma2_prev the
    update has no positive value, the previous value is carried forward
    and degenerate is True. Raises NonFiniteInput if a residual is not
    finite, and ValueError unless sigma2_prev is positive and eps finite
    and positive.
    """
    al = check_alpha(alpha)
    e = np.asarray(residuals, dtype=float)
    if not np.all(np.isfinite(e)):
        raise NonFiniteInput("residuals contain non-finite entries")
    s2 = float(sigma2_prev)
    if not s2 > 0.0:
        raise ValueError("sigma2_prev must be positive")
    return _sigma_solve(e, s2, al, _check_eps(eps))
