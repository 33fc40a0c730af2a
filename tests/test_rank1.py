"""Rank-one solver: update operators, full fits, and equivariance checks."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpdsvd import (
    DegenerateWeights,
    NonFiniteInput,
    Rank1Fit,
    RankCollapse,
    SolverOptions,
    check_equivariance_permutation,
    check_equivariance_scale,
    fit_rank1,
    objective,
    sigma_floor,
    update_sigma2,
    update_u,
    update_v,
    v_cell,
)
from dpdsvd import rank1
from dpdsvd.objective import h_value
from dpdsvd.rank1 import _solve_bordered


def unit(rng, n):
    w = rng.standard_normal(n)
    return w / np.linalg.norm(w)


def rank1_matrix(seed=3, n=8, p=5, lam=2.0):
    rng = np.random.default_rng(seed)
    u = unit(rng, n)
    v = unit(rng, p)
    return lam * np.outer(u, v), u, v


def provided(lam, u, v, s2):
    return Rank1Fit(lambda_=lam, u=np.asarray(u, float),
                    v=np.asarray(v, float), sigma2=s2, iterations=0,
                    converged=True, trace=np.array([]))


def bisect_row_minimum(row_h, coarse, width=1e-3, fd=1e-5):
    """Locate the row minimizer by the sign of a central-difference slope."""
    lo, hi = coarse - width, coarse + width
    slope = lambda a: row_h(a + fd) - row_h(a - fd)
    assert slope(lo) < 0 < slope(hi)
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if slope(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


class TestUpdateU:
    def test_alpha_zero_is_least_squares(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((6, 4))
        v = rng.standard_normal(4)
        fit = provided(1.0, rng.standard_normal(6), v, 0.7)
        got = update_u(X, fit, 0.0)
        want = (X @ v) / (v @ v)
        np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_rows_minimize_cell_divergence(self):
        # independent per-row search oracle on a 3x3 instance
        rng = np.random.default_rng(12)
        X = rng.standard_normal((3, 3)) * 2.0
        v = unit(rng, 3)
        s2, alpha = 0.6, 0.5
        fit = provided(0.5, unit(rng, 3), v, s2)
        a = update_u(X, fit, alpha)
        for i in range(3):
            row_h = lambda ai: sum(
                v_cell(X[i, j], ai, v[j], s2, alpha) for j in range(3))
            a_star = bisect_row_minimum(row_h, a[i])
            assert a[i] == pytest.approx(a_star, abs=1e-8)


class TestUpdateV:
    def test_alpha_zero_is_least_squares(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((6, 4))
        u = rng.standard_normal(6)
        fit = provided(1.0, u, rng.standard_normal(4), 0.7)
        got = update_v(X, fit, 0.0)
        want = (X.T @ u) / (u @ u)
        np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_columns_minimize_cell_divergence(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((3, 3)) * 2.0
        u = unit(rng, 3)
        s2, alpha = 0.6, 0.5
        fit = provided(0.5, u, unit(rng, 3), s2)
        b = update_v(X, fit, alpha)
        for j in range(3):
            col_h = lambda bj: sum(
                v_cell(X[i, j], u[i], bj, s2, alpha) for i in range(3))
            b_star = bisect_row_minimum(col_h, b[j])
            assert b[j] == pytest.approx(b_star, abs=1e-8)


# update_u regresses the rows of X on the fit's v; update_v is the same
# regression of X's columns on its u
OPERATORS = [pytest.param(update_u, False, id="update_u"),
             pytest.param(update_v, True, id="update_v")]


class TestRegressionUpdates:
    @pytest.mark.parametrize("update, columns", OPERATORS)
    def test_fixpoint_at_exact_rank1(self, update, columns):
        X, u, v = rank1_matrix()
        fit = provided(2.0, u, v, 0.5)
        got = update(X, fit, 0.8)
        np.testing.assert_allclose(got, 2.0 * (v if columns else u),
                                   rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("update, columns", OPERATORS)
    def test_self_consistent_weights(self, update, columns):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((5, 4))
        v = unit(rng, 4)
        u = unit(rng, 5)
        fit = provided(1.0, u, v, 0.4)
        c = update(X, fit, 1.0)
        if columns:
            W = np.exp(-1.0 * (X - np.outer(u, c)) ** 2 / (2.0 * 0.4))
            again = ((X * W).T @ u) / (W.T @ (u * u))
        else:
            W = np.exp(-1.0 * (X - np.outer(c, v)) ** 2 / (2.0 * 0.4))
            again = ((X * W) @ v) / (W @ (v * v))
        np.testing.assert_allclose(again, c, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("update, columns", OPERATORS)
    def test_collapsed_weights_raise(self, update, columns):
        X = np.full((4, 3), 1e6)
        fit = provided(0.0, np.ones(4) / 2.0, np.ones(3) / np.sqrt(3), 1e-6)
        with pytest.raises(DegenerateWeights):
            update(X, fit, 0.5)


def half_step_problem(seed, constrained):
    """Row half-step input (X, cur, other, s2 = 0.5, ortho) on a 12x5 planted
    rank-2 matrix with 15% of its cells set to 5: the layer-1 start
    (ortho None) or, with the top left singular vector as the constraint,
    the layer-2 start."""
    rng = np.random.default_rng(seed)
    U0 = np.linalg.qr(rng.standard_normal((12, 2)))[0]
    V0 = np.linalg.qr(rng.standard_normal((5, 2)))[0]
    X = (U0 * [6.0, 3.0]) @ V0.T + 0.3 * rng.standard_normal((12, 5))
    X[rng.random((12, 5)) < 0.15] = 5.0
    Uc, s, Vt = np.linalg.svd(X, full_matrices=False)
    k = 1 if constrained else 0
    ortho = Uc[:, :1] if constrained else None
    return X, s[k] * Uc[:, k], Vt[k], 0.5, ortho


class TestHalfStep:
    @pytest.mark.parametrize("seed, alpha", [(5, 0.1), (5, 0.5), (5, 1.0),
                                             (5, 3.0), (38, 3.0)])
    @pytest.mark.parametrize("constrained", [False, True])
    def test_gain_is_the_slope_of_h(self, seed, alpha, constrained):
        """gain is -dh/dt at t = 0 along target - cur, to 1e-7 of a
        central difference; seed 38 with the constraint is uphill."""
        X, cur, other, s2, ortho = half_step_problem(seed, constrained)
        W = rank1.weights(X - np.outer(cur, other), s2, alpha)
        target, gain = rank1._target(X, W, cur, other, s2, alpha, ortho,
                                     "row")
        d = target - cur
        if ortho is not None:
            assert abs(float(ortho[:, 0] @ target)) < 1e-12
        if seed == 38 and constrained:
            assert gain < 0
        else:
            assert gain > 0

        def h_at(t):
            return h_value(X - np.outer(cur + t * d, other), s2, alpha)

        fd = -(h_at(1e-5) - h_at(-1e-5)) / 2e-5
        assert gain == pytest.approx(fd, rel=1e-7)

    def test_uphill_target_stalls_after_one_try(self, monkeypatch):
        """A projected target along which h rises costs one weights pass,
        and the half-step hands back the residuals, weights and h it was
        given."""
        X, cur, other, s2, ortho = half_step_problem(38, True)
        alpha = 3.0
        e = X - np.outer(cur, other)
        W = rank1.weights(e, s2, alpha)
        h = h_value(e, s2, alpha, W)
        assert rank1._target(X, W, cur, other, s2, alpha, ortho, "row")[1] < 0
        count = [0]
        weights = rank1.weights

        def counted(*args):
            count[0] += 1
            return weights(*args)

        monkeypatch.setattr(rank1, "weights", counted)
        lam, u, h_out, e_out, W_out = rank1._half_step(
            X, W, e, h, cur, other, s2, alpha, True, ortho)
        assert count[0] == 1
        assert e_out is e and W_out is W
        assert h_out == h
        np.testing.assert_allclose(lam * u, cur, rtol=0, atol=1e-15)


def scale_map(e, s, alpha):
    """(T(s), den(s)) of the scale equation s = T(s), computed directly."""
    w = np.exp(-alpha * e * e / (2.0 * s))
    den = np.mean(w) - alpha * (1.0 + alpha) ** -1.5
    return np.mean(e * e * w) / den, den


def plain_scale_loop(e, s2, alpha, lo):
    """The scale loop the Newton solve replaced: s2 <- T(s2) repeated to
    float resolution, where a 2-cycle keeps its lower branch.

    Returns (sigma2, degenerate, weights evaluations).
    """
    c_sig = alpha * (1.0 + alpha) ** -1.5
    prev = -1.0
    for k in range(1, 201):
        W = np.exp(-alpha * e * e / (2.0 * s2))
        den = np.mean(W) - c_sig
        if den <= 0:
            return s2, True, k
        s2_new = np.mean(e * e * W) / den
        if s2_new < lo:
            return lo, False, k
        if s2_new == s2 or s2_new == prev:
            return (min(s2, s2_new) if s2_new == prev else s2_new), False, k
        prev = s2
        s2 = s2_new
    return s2, False, 200


@st.composite
def scale_problems(draw):
    """Residuals (N(0, 1) cells, a share of them replaced by gross values
    in [-30, 30], times 10^k for k in [-100, 100]), a start s0 and a
    floor lo, both relative to the squared scale, and alpha in (0, 8]."""
    shape = draw(st.sampled_from([(7,), (4, 3), (10, 4), (20, 6)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    e = rng.standard_normal(shape)
    gross = rng.random(shape) < draw(st.floats(0.0, 0.4))
    e = np.where(gross, rng.uniform(-30.0, 30.0, shape), e)
    k = draw(st.floats(-100.0, 100.0))
    alpha = draw(st.floats(0.0, 8.0, exclude_min=True))
    s0 = 10.0 ** (2.0 * k + draw(st.floats(-1.0, 1.0)))
    lo = 10.0 ** (2.0 * k + draw(st.floats(-12.0, 0.0)))
    return e * 10.0 ** k, s0, alpha, lo


BAD_FLOORS = [0.0, -1.0, float("nan"), float("inf")]


class TestUpdateSigma2:
    def test_alpha_zero_is_mean_square(self):
        rng = np.random.default_rng(4)
        e = rng.standard_normal((5, 5))
        s2, degen = update_sigma2(e, 1.0, 0.0)
        assert not degen
        assert s2 == pytest.approx(float(np.mean(e * e)), rel=1e-14)

    def test_zero_residuals_hit_floor(self):
        s2, degen = update_sigma2(np.zeros((4, 4)), 1.0, 0.5, eps=1e-10)
        assert not degen
        assert s2 == 1e-10

    def test_fixpoint_is_stationary(self):
        rng = np.random.default_rng(5)
        e = rng.standard_normal((4, 4))
        s2, degen = update_sigma2(e, 1.0, 0.5)
        assert not degen

        def mean_v(s):
            return np.mean([v_cell(e[i, j], 0.0, 1.0, s, 0.5)
                            for i in range(4) for j in range(4)])

        d = 1e-6 * s2
        deriv = (mean_v(s2 + d) - mean_v(s2 - d)) / (2.0 * d)
        assert abs(deriv) < 1e-6

    def test_degenerate_denominator_flagged(self):
        s2, degen = update_sigma2(np.full(10, 100.0), 1.0, 1.0)
        assert degen
        assert s2 == 1.0

    def test_rejects_nonpositive_previous(self):
        with pytest.raises(ValueError):
            update_sigma2(np.ones(4), 0.0, 0.5)
        with pytest.raises(ValueError):
            update_sigma2(np.ones(4), -1.0, 0.0)

    @pytest.mark.parametrize("eps", BAD_FLOORS)
    def test_rejects_nonpositive_floor(self, eps):
        with pytest.raises(ValueError, match="finite positive"):
            update_sigma2(np.ones((3, 3)), 1.0, 0.5, eps=eps)

    @pytest.mark.parametrize("eps", BAD_FLOORS)
    def test_sigma_floor_rejects_bad_override(self, eps):
        with pytest.raises(ValueError, match="finite positive"):
            sigma_floor(np.ones((3, 3)), eps)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(scale_problems())
    def test_result_is_a_root_or_a_flagged_stop(self, problem):
        """Every answer is a root of s = T(s) to 1e-13, the floor lo, or
        a degenerate stop where den <= 0 (at s0 itself when den(s0) <= 0)."""
        e, s0, alpha, lo = problem
        s2, degen = update_sigma2(e, s0, alpha, eps=lo)
        T, den = scale_map(e, s2, alpha)
        if scale_map(e, s0, alpha)[1] <= 0:
            assert (s2, degen) == (s0, True)
        elif degen:
            assert den <= 0
        elif s2 != lo:
            assert s2 > lo
            assert abs(T - s2) <= 1e-13 * s2

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(scale_problems())
    def test_matches_plain_loop_where_it_converges(self, problem):
        """Same root, floor and degenerate flag as the plain loop wherever
        the plain loop's answer is determined.

        The claim is made where den > 0 on [lo, hi], hi past every root
        (T(s) <= mean e^2 / den(s0) for s >= s0), and s - T(s) changes
        sign at most once on a 400-point grid there. Elsewhere the scale
        equation has several roots or a pole, and from a far start the two
        methods can settle on different ones; the plain loop also stops at
        2-cycles that are not roots (T' < -1) and at its 200-step cap (T'
        near 1), so its answer is compared only when it is a root.
        """
        e, s0, alpha, lo = problem
        s2, degen = update_sigma2(e, s0, alpha, eps=lo)
        ref, ref_degen, _ = plain_scale_loop(e, s0, alpha, lo)
        den0 = scale_map(e, s0, alpha)[1]
        if den0 <= 0:
            assert (s2, degen) == (ref, ref_degen) == (s0, True)
            return
        grid = np.geomspace(lo, max(s0, np.mean(e * e) / den0, lo), 400)
        T, den = np.array([scale_map(e, s, alpha) for s in grid]).T
        if np.any(den <= 0):
            return
        changes = np.count_nonzero(np.diff(np.sign(grid - T)))
        if changes == 0 and grid[0] > T[0]:
            # no root at or above lo: the plain loop returns lo too, unless
            # its 200-step cap stopped it short of lo
            assert (s2, degen) == (lo, False)
            if ref != lo:
                assert abs(scale_map(e, ref, alpha)[0] - ref) > 1e-14 * ref
        elif changes == 1 and not ref_degen and ref != lo:
            if abs(scale_map(e, ref, alpha)[0] - ref) <= 1e-14 * ref:
                assert not degen
                assert s2 == pytest.approx(ref, rel=1e-13)

    def test_warm_starts_take_few_weights_passes(self, monkeypatch):
        """Criterion-2-style fits: each scale solve, fed the weights of
        its start as the solver feeds them, makes at most 6 weights
        evaluations in 99% of calls and never more than the plain loop.

        A start where T' >= 1 takes plain steps, which can need more.
        """
        calls = []
        solve = rank1._sigma_solve

        def record(e, s2, alpha, lo, W=None):
            calls.append((e.copy(), s2, alpha, lo))
            return solve(e, s2, alpha, lo, W)

        monkeypatch.setattr(rank1, "_sigma_solve", record)
        for fi, (n, p, lo, hi) in enumerate(((10, 4, 8.0, 15.0),
                                             (20, 6, 10.0, 20.0))):
            for seed in range(12):
                rng = np.random.default_rng([11, fi, seed])
                uu = rng.standard_normal(n)
                vv = rng.standard_normal(p)
                lam0 = rng.uniform(lo, hi)
                X = lam0 * np.outer(uu / np.linalg.norm(uu),
                                    vv / np.linalg.norm(vv))
                X = X + rng.standard_normal((n, p))
                for alpha in (0.1, 0.5, 1.0):
                    fit_rank1(X, SolverOptions(alpha=alpha))
        monkeypatch.undo()
        count = [0]
        weights = rank1.weights

        def counted(*args):
            count[0] += 1
            return weights(*args)

        monkeypatch.setattr(rank1, "weights", counted)
        passes = []
        for e, s2, alpha, lo in calls:
            W = weights(e, s2, alpha)
            count[0] = 0
            rank1._sigma_solve(e, s2, alpha, lo, W)
            passes.append(count[0])
            assert count[0] <= plain_scale_loop(e, s2, alpha, lo)[2]
        passes = np.array(passes)
        assert len(passes) > 1000
        assert np.mean(passes <= 6) >= 0.99
        assert np.median(passes) <= 3


class TestSolverOptions:
    @pytest.mark.parametrize("kw", [dict(alpha=-0.1), dict(alpha=8.5),
                                    dict(tol=0.0), dict(tol=-1e-8),
                                    dict(max_iter=0), dict(init="weird"),
                                    dict(eps_sigma=0.0), dict(eps_sigma=-1.0),
                                    dict(eps_sigma=float("nan"))])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            SolverOptions(**kw)

    def test_unknown_init_policy(self):
        X = np.eye(3) + 0.1
        with pytest.raises(ValueError):
            fit_rank1(X, SolverOptions(init="weird"))


class TestFitRank1:
    def test_exact_rank1_recovery(self):
        X, u, v = rank1_matrix(seed=3, lam=2.0)
        fit = fit_rank1(X)
        assert fit.converged
        assert fit.lambda_ == pytest.approx(2.0, abs=1e-8)
        su = np.sign(u[np.argmax(np.abs(u))])
        np.testing.assert_allclose(fit.u, su * u, atol=1e-8)
        np.testing.assert_allclose(fit.v, su * v, atol=1e-8)
        assert fit.sigma2 == pytest.approx(sigma_floor(X), rel=1e-6)

    def test_matches_power_iteration_at_alpha_zero(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((12, 7)) + 3.0 * np.outer(unit(rng, 12),
                                                          unit(rng, 7))
        v = np.ones(7) / np.sqrt(7.0)
        for _ in range(10_000):
            v = X.T @ (X @ v)
            v /= np.linalg.norm(v)
        Xv = X @ v
        lam = float(np.linalg.norm(Xv))
        u = Xv / lam
        if u[np.argmax(np.abs(u))] < 0:
            u, v = -u, -v
        fit = fit_rank1(X)
        assert fit.lambda_ == pytest.approx(lam, rel=1e-6)
        np.testing.assert_allclose(fit.u, u, atol=1e-6)
        np.testing.assert_allclose(fit.v, v, atol=1e-6)

    def test_conventions_and_feasibility(self):
        rng = np.random.default_rng(18)
        for alpha in (0.0, 0.5, 1.0):
            X = rng.standard_normal((9, 6)) * rng.uniform(0.5, 3.0)
            fit = fit_rank1(X, SolverOptions(alpha=alpha))
            assert abs(np.linalg.norm(fit.u) - 1.0) <= 1e-12
            assert abs(np.linalg.norm(fit.v) - 1.0) <= 1e-12
            assert fit.u[np.argmax(np.abs(fit.u))] > 0
            assert fit.lambda_ >= 0
            assert fit.sigma2 >= sigma_floor(X) * (1.0 - 1e-12)
            assert fit.iterations <= 100

    def test_trace_monotone_and_final(self):
        rng = np.random.default_rng(19)
        for alpha in (0.1, 1.0):
            X = rng.standard_normal((10, 5))
            X[0, 0] = 20.0
            fit = fit_rank1(X, SolverOptions(alpha=alpha))
            tr = fit.trace
            assert np.all(np.diff(tr) <= 1e-10)
            assert tr[-1] <= tr[0]
            res = objective(X, fit, alpha)
            assert res.h == pytest.approx(tr[-1], rel=1e-10)

    def test_local_minimum_under_perturbations(self):
        # robust fit of a noisy low-rank matrix is not beaten by nearby
        # feasible states
        from dpdsvd.sim import make_ground_truth
        truth = make_ground_truth()
        rng = np.random.default_rng(21)
        X = truth.X0 + 0.1 * rng.standard_normal(truth.X0.shape)
        alpha = 0.5
        fit = fit_rank1(X, SolverOptions(alpha=alpha, tol=1e-10))
        h_star = objective(X, fit, alpha).h
        prng = np.random.default_rng(22)
        for _ in range(200):
            du = prng.standard_normal(X.shape[0])
            dv = prng.standard_normal(X.shape[1])
            u = fit.u + 1e-4 * du / np.linalg.norm(du)
            v = fit.v + 1e-4 * dv / np.linalg.norm(dv)
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            lam = fit.lambda_ * (1.0 + 1e-4 * prng.standard_normal())
            s2 = fit.sigma2 * (1.0 + 1e-4 * prng.standard_normal())
            h = objective(X, provided(lam, u, v, s2), alpha).h
            assert h >= h_star - 1e-10

    def test_provided_init_accepted(self):
        X, u, v = rank1_matrix(seed=23, lam=3.0)
        start = (2.5, u, v, 0.1)
        fit = fit_rank1(X, SolverOptions(alpha=0.3, init=start))
        assert fit.lambda_ == pytest.approx(3.0, abs=1e-6)

    def test_random_init_is_seeded(self):
        rng = np.random.default_rng(24)
        X = rng.standard_normal((8, 5))
        o = SolverOptions(alpha=0.5, init="random", seed=7)
        f1 = fit_rank1(X, o)
        f2 = fit_rank1(X, o)
        assert f1.lambda_ == f2.lambda_
        np.testing.assert_array_equal(f1.u, f2.u)
        np.testing.assert_array_equal(f1.trace, f2.trace)

    def test_max_iter_stop_warns(self):
        rng = np.random.default_rng(25)
        X = rng.standard_normal((10, 5))
        X[0, 0] = 20.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = fit_rank1(X, SolverOptions(alpha=0.5, max_iter=1))
        assert not fit.converged
        assert [str(w.message) for w in caught] == [
            "layer 0: stopped at max_iter after 1 iterations without "
            "converging"]
        assert caught[0].category is RuntimeWarning
        assert caught[0].filename == __file__

    def test_converged_fit_does_not_warn(self):
        rng = np.random.default_rng(25)
        X = rng.standard_normal((10, 5))
        X[0, 0] = 20.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_rank1(X, SolverOptions(alpha=0.5))
        assert fit.converged

    def test_spike_restart(self):
        # criterion 2's draw [11, 0, 58]: the screened basin's lambda
        # passes SPIKE_FACTOR sigma_1, so the fit restarts classically
        rng = np.random.default_rng([11, 0, 58])
        uu = rng.standard_normal(10)
        vv = rng.standard_normal(4)
        lam0 = rng.uniform(8.0, 15.0)
        E = rng.standard_normal((10, 4))
        X = lam0 * np.outer(uu / np.linalg.norm(uu),
                            vv / np.linalg.norm(vv)) + E
        out = rank1._solve(X, SolverOptions(alpha=0.5))
        assert out["restarted"]
        assert out["conv"]
        assert np.all(np.diff(out["trace"]) <= 1e-10)

    def test_input_validation(self):
        with pytest.raises(NonFiniteInput):
            fit_rank1(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(NonFiniteInput):
            fit_rank1(np.array([[1.0, np.inf], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            fit_rank1(np.ones(5))
        with pytest.raises(ValueError):
            fit_rank1(np.ones((5, 1)))

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_zero_matrix_raises_rank_collapse(self, alpha):
        with pytest.raises(RankCollapse, match="rank collapse"):
            fit_rank1(np.zeros((4, 3)), SolverOptions(alpha=alpha))


class TestClassicalClosedForm:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(2, 30), st.integers(2, 12), st.integers(0, 2 ** 32 - 1),
           st.floats(-100.0, 100.0))
    def test_alpha_zero_is_the_top_singular_triple(self, n, p, seed, k):
        """At alpha = 0 the fit is the top SVD triple of X with the sign
        convention, whatever tol, max_iter, init and seed say."""
        X = np.random.default_rng(seed).standard_normal((n, p)) * 10.0 ** k
        U, s, Vt = np.linalg.svd(X, full_matrices=False)
        u, v = U[:, 0], Vt[0]
        if u[np.argmax(np.abs(u))] < 0:
            u, v = -u, -v
        e = X - s[0] * np.outer(u, v)
        s2 = max(float(np.mean(e * e)), sigma_floor(X))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fits = [fit_rank1(X, opts) for opts in (
                SolverOptions(),
                SolverOptions(tol=0.5, max_iter=1),
                SolverOptions(init="classical"),
                SolverOptions(init="random", seed=5),
                SolverOptions(init=(1.0, np.ones(n), np.ones(p), 1.0)))]
        for fit in fits:
            assert fit.lambda_ == s[0]
            np.testing.assert_array_equal(fit.u, u)
            np.testing.assert_array_equal(fit.v, v)
            assert fit.sigma2 == s2
            assert (fit.iterations, fit.converged) == (0, True)
            np.testing.assert_array_equal(fit.trace, [h_value(e, s2, 0.0)])

    def test_eps_sigma_sets_the_floor(self):
        X, _, _ = rank1_matrix(seed=26, lam=2.0)
        assert fit_rank1(X, SolverOptions(eps_sigma=0.25)).sigma2 == 0.25

    def test_zero_matrix_message(self):
        with pytest.raises(RankCollapse, match="^rank collapse$"):
            fit_rank1(np.zeros((4, 3)))


def bordered_system(seed, n, p, nc):
    rng = np.random.default_rng(seed)
    dim = n + p + 1
    Da = rng.uniform(1.0, 2.0, n)
    Db = rng.uniform(1.0, 2.0, p)
    M = 0.1 * rng.standard_normal((n, p))
    wa = 0.1 * rng.standard_normal(n)
    wb = 0.1 * rng.standard_normal(p)
    htt = 1.5
    B = rng.standard_normal((dim, nc))
    g = np.concatenate([rng.standard_normal(dim), np.zeros(nc)])
    return Da, Db, M, wa, wb, htt, B, g


class TestBorderedSolve:
    @pytest.mark.parametrize("seed, n, p, nc", [
        pytest.param(31, 40, 30, 2, id="40x30"),
        pytest.param(32, 10, 4, 1, id="10x4"),
    ])
    def test_schur_path_matches_dense_oracle(self, seed, n, p, nc):
        # the solver eliminates the diagonal a-block; the result must match
        # a dense solve of the same bordered system, small or large
        Da, Db, M, wa, wb, htt, B, g = bordered_system(seed, n, p, nc)
        dim = n + p + 1
        tau = 1e-3

        got = _solve_bordered(Da, Db, M, wa, wb, htt, B, g, tau)

        H = np.zeros((dim + nc, dim + nc))
        H[:n, :n] = np.diag(Da + tau)
        H[n:n + p, n:n + p] = np.diag(Db + tau)
        H[:n, n:n + p] = M
        H[n:n + p, :n] = M.T
        H[:n, dim - 1] = wa
        H[dim - 1, :n] = wa
        H[n:n + p, dim - 1] = wb
        H[dim - 1, n:n + p] = wb
        H[dim - 1, dim - 1] = htt + tau
        H[:dim, dim:] = B
        H[dim:, :dim] = B.T
        want = np.linalg.solve(H, -g)[:dim]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_nonpositive_row_block_asks_for_damping(self):
        # the a-block cannot be eliminated while an entry of Da + tau is not
        # positive; the polish then raises tau until it is
        Da, Db, M, wa, wb, htt, B, g = bordered_system(33, 10, 4, 1)
        Da[3] = -0.5
        assert _solve_bordered(Da, Db, M, wa, wb, htt, B, g, 0.0) is None
        assert _solve_bordered(Da, Db, M, wa, wb, htt, B, g, 0.1) is None
        step = _solve_bordered(Da, Db, M, wa, wb, htt, B, g, 1.0)
        assert step is not None and np.all(np.isfinite(step))


class TestEquivariance:
    def test_scale_family(self):
        rng = np.random.default_rng(41)
        X = rng.standard_normal((10, 4))
        X[2, 3] = 15.0
        opts = SolverOptions(alpha=0.5)
        for c in (1.0, 3.0, -2.0, 0.5):
            assert check_equivariance_scale(X, c, opts)

    def test_scale_rejects_zero(self):
        X = np.eye(3) + 0.1
        with pytest.raises(ValueError):
            check_equivariance_scale(X, 0.0)

    def test_permutations(self):
        rng = np.random.default_rng(42)
        X = rng.standard_normal((8, 5))
        X[1, 1] = -12.0
        opts = SolverOptions(alpha=1.0)
        pr = rng.permutation(8)
        pc = rng.permutation(5)
        assert check_equivariance_permutation(X, pr, pc, opts)
        assert check_equivariance_permutation(X, np.arange(8), np.arange(5),
                                              opts)

    def test_other_init_policies(self):
        rng = np.random.default_rng(43)
        X = rng.standard_normal((7, 4))
        for opts in (SolverOptions(alpha=0.5, init="classical"),
                     SolverOptions(alpha=0.5, init="random", seed=11)):
            assert check_equivariance_scale(X, 3.0, opts)
            assert check_equivariance_permutation(
                X, rng.permutation(7), rng.permutation(4), opts)

    def test_provided_init_transported(self):
        X, u, v = rank1_matrix(seed=44, n=7, p=4, lam=2.0)
        rng = np.random.default_rng(45)
        X = X + 0.05 * rng.standard_normal(X.shape)
        opts = SolverOptions(alpha=0.5, init=(1.5, u, v, 0.2))
        assert check_equivariance_scale(X, -2.0, opts)
        assert check_equivariance_permutation(X, rng.permutation(7),
                                              rng.permutation(4), opts)
