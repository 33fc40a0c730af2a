"""Rank-one solver: update operators, full fits, and equivariance checks."""
import importlib
import math
import os
import subprocess
import sys
import tracemalloc
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
    fit_svd,
    objective,
    sigma_floor,
    update_sigma2,
    update_u,
    update_v,
    v_cell,
)
from dpdsvd import rank1
from dpdsvd.objective import h_value, weights
from dpdsvd.rank1 import _border, _solve_bordered
from dpdsvd.sim import make_ground_truth, sample_noise


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

    @pytest.mark.parametrize("update, columns", OPERATORS)
    def test_non_finite_input_raises(self, update, columns):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((6, 4))
        X[2, 1] = np.nan
        fit = provided(1.0, unit(rng, 6), unit(rng, 4), 0.5)
        with pytest.raises(NonFiniteInput):
            update(X, fit, 0.5)

    @pytest.mark.parametrize("s2", [-1.0, 0.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("update, columns", OPERATORS)
    def test_rejects_bad_sigma2(self, update, columns, s2):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((6, 4))
        fit = provided(1.0, unit(rng, 6), unit(rng, 4), s2)
        with pytest.raises(ValueError, match="sigma2 must be finite"):
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
        """A projected target along which h rises costs one evaluation
        (one weights pass), and the half-step hands back the residuals,
        weights and h it was given."""
        X, cur, other, s2, ortho = half_step_problem(38, True)
        alpha = 3.0
        e = X - np.outer(cur, other)
        W = rank1.weights(e, s2, alpha)
        h = h_value(e, s2, alpha, W)
        assert rank1._target(X, W, cur, other, s2, alpha, ortho, "row")[1] < 0
        count = [0]
        evaluate = rank1._evaluate

        def counted(*args):
            count[0] += 1
            return evaluate(*args)

        monkeypatch.setattr(rank1, "_evaluate", counted)
        lam, u, h_out, e_out, W_out, reached = rank1._half_step(
            X, W, e, h, cur, other, s2, alpha, True, ortho)
        assert count[0] == 1
        assert e_out is e and W_out is W and reached is cur
        assert h_out == h
        np.testing.assert_allclose(lam * u, cur, rtol=0, atol=1e-15)


def half_step_one_by_one(X, W, e, h, cur, other, s2, alpha, left, ortho):
    """_half_step with its halvings tried one at a time, each with its own
    weights pass. Returns (its result, the number of tries)."""
    if left:
        target, gain = rank1._target(X, W, cur, other, s2, alpha, ortho,
                                     "row")
    else:
        target, gain = rank1._target(X.T, W.T, cur, other, s2, alpha, ortho,
                                     "column")
    t = 1.0
    tries = 0
    for _ in range(40):
        cand = cur + t * (target - cur)
        e_c = X - (cand[:, None] * other if left else other[:, None] * cand)
        W_c = weights(e_c, s2, alpha)
        tries += 1
        h_c = h_value(e_c, s2, alpha, W_c)
        if h_c < h:
            cur, h, e, W = cand, h_c, e_c, W_c
            break
        t *= 0.5
        if t * gain <= rank1.STALL_RTOL * abs(h):
            break
    lam = math.sqrt(cur.dot(cur))
    return (lam, cur / lam, h, e, W), tries


class TestStackedSearch:
    """_half_step tries the full step alone, then the halvings as stacks
    of sqrt(BATCH_CELLS / X.size) candidates, and must give the result of
    trying them one by one, bit for bit, in one evaluation (_evaluate, one
    weights pass) per stack."""

    half_step = staticmethod(rank1._half_step)

    def check(self, monkeypatch, X, W, e, h, cur, other, s2, alpha, left,
              ortho):
        """Compare _half_step with half_step_one_by_one; returns the
        number of tries. A search that finds no decrease must evaluate
        exactly the candidates the loop tried."""
        passes, cells = [0], [0]
        evaluate = rank1._evaluate

        def counted(*args):
            out = evaluate(*args)
            passes[0] += 1
            cells[0] += out[0].size
            return out

        monkeypatch.setattr(rank1, "_evaluate", counted)
        try:
            got = self.half_step(X, W, e, h, cur, other, s2, alpha, left,
                                 ortho)
        finally:
            monkeypatch.setattr(rank1, "_evaluate", evaluate)
        want, tries = half_step_one_by_one(X, W, e, h, cur, other, s2, alpha,
                                           left, ortho)
        lam, u, h_out, e_out, W_out, reached = got
        assert lam == want[0] and h_out == want[2]
        for a, b in zip((u, e_out, W_out), (want[1], want[3], want[4])):
            assert np.array_equal(a, b)
        if h_out < h:
            # the vector reached forms the residuals again, bit for bit
            assert np.array_equal(rank1._residuals(X, reached, other, left),
                                  e_out)
        chunk = max(1, int(math.sqrt(rank1.BATCH_CELLS / X.size)))
        assert passes[0] == 1 + -(-(tries - 1) // chunk)
        if h_out == h:
            assert cells[0] == tries * X.size
        return tries

    def recorded(self, monkeypatch, alphas, replicates):
        """Check every half-step of rank-4 fits of S2c study replicates;
        returns {(alpha, layer, left): [tries of each step]}."""
        seen = {}

        def compared(X, W, e, h, cur, other, s2, alpha, left, ortho):
            tries = self.check(monkeypatch, X, W, e, h, cur, other, s2,
                               alpha, left, ortho)
            layer = 0 if ortho is None else ortho.shape[1]
            seen.setdefault((alpha, layer, left), []).append(tries)
            return self.half_step(X, W, e, h, cur, other, s2, alpha, left,
                                  ortho)

        monkeypatch.setattr(rank1, "_half_step", compared)
        for rep in range(replicates):
            X = (make_ground_truth().X0
                 + sample_noise("S2c", np.random.default_rng([1, rep]))[0])
            for alpha in alphas:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    fit_svd(X, 4, SolverOptions(alpha=alpha))
        return seen

    def test_study_layers(self, monkeypatch):
        """Row and column half-steps of layers 0-3 at alpha 0.5 and 1,
        with steps that win at once, after halvings, and not at all."""
        seen = self.recorded(monkeypatch, (0.5, 1.0), 2)
        assert set(seen) == {(a, k, left) for a in (0.5, 1.0)
                             for k in range(4) for left in (True, False)}
        tries = np.concatenate(list(seen.values()))
        assert np.any(tries == 1) and np.any(tries > 10)

    @pytest.mark.parametrize("factor", [1, 3, 7])
    def test_chunk_splits(self, monkeypatch, factor):
        """Stacks of 1, 3 and 7 halvings, with winners past the second
        stack and, in stacks of 3 and 7, behind a rejected candidate of
        their own stack."""
        monkeypatch.setattr(rank1, "BATCH_CELLS", factor ** 2 * 40)
        tries = np.concatenate(list(
            self.recorded(monkeypatch, (1.0,), 1).values()))
        assert np.any(tries > 1 + factor)
        if factor > 1:
            assert np.any((tries > 1) & ((tries - 2) % factor != 0))

    def test_uphill_target(self, monkeypatch):
        """The constrained seed-38 target is uphill: one try, no move."""
        X, cur, other, s2, ortho = half_step_problem(38, True)
        e = X - np.outer(cur, other)
        W = weights(e, s2, 3.0)
        h = h_value(e, s2, 3.0, W)
        assert self.check(monkeypatch, X, W, e, h, cur, other, s2, 3.0, True,
                          ortho) == 1

    @pytest.mark.parametrize("factor", [None, 1, 3, 7])
    @pytest.mark.parametrize("left", [True, False])
    def test_search_runs_to_the_cap(self, monkeypatch, factor, left):
        """Asked to beat an h below every candidate's, a downhill search
        halves until the 40-try guard and keeps its start."""
        if factor is not None:
            monkeypatch.setattr(rank1, "BATCH_CELLS", factor ** 2 * 60)
        X, cur, other, s2, _ = half_step_problem(5, False)
        if not left:
            cur, other = other * np.linalg.norm(cur), cur / np.linalg.norm(cur)
        e = X - (np.outer(cur, other) if left else np.outer(other, cur))
        W = weights(e, s2, 1.0)
        h = h_value(e, s2, 1.0, W) - 1.0
        assert self.check(monkeypatch, X, W, e, h, cur, other, s2, 1.0, left,
                          None) == 40

    @pytest.mark.parametrize("lower", [0.0, 1.0])
    def test_nan_gain(self, monkeypatch, lower):
        """A NaN gain meets no stop test: the search runs until a
        candidate wins or the guard ends it."""
        target = rank1._target
        monkeypatch.setattr(rank1, "_target",
                            lambda *args: (target(*args)[0], math.nan))
        X, cur, other, s2, _ = half_step_problem(5, False)
        e = X - np.outer(cur, other)
        W = weights(e, s2, 1.0)
        h = h_value(e, s2, 1.0, W) - lower
        tries = self.check(monkeypatch, X, W, e, h, cur, other, s2, 1.0, True,
                           None)
        assert tries == (40 if lower else 1)

    def test_large_x_makes_one_pass_per_try(self, monkeypatch):
        """Above BATCH_CELLS cells each stack holds one candidate (above
        BLOCK_CELLS, as here, a matrix swept in blocks)."""
        rng = np.random.default_rng(7)
        n, p = 400, 200
        assert n * p > rank1.BLOCK_CELLS > rank1.BATCH_CELLS
        u, v = unit(rng, n), unit(rng, p)
        X = 60.0 * np.outer(u, v) + rng.standard_normal((n, p))
        cur, other = 50.0 * u + 0.01 * rng.standard_normal(n), v
        e = X - np.outer(cur, other)
        W = weights(e, 1.0, 0.5)
        h = h_value(e, 1.0, 0.5, W)
        for h_asked in (h, h - 1.0):
            tries = self.check(monkeypatch, X, W, e, h_asked, cur, other,
                               1.0, 0.5, True, None)
            assert tries == (1 if h_asked == h else 40)


class TestCarriedWeights:
    """The iterate (lam, u, v, s2, h, e, W) carries W = weights(e, s2,
    alpha), so a cycle opens with no weights pass of its own."""

    def test_every_cycle_gets_and_returns_its_weights(self, monkeypatch):
        """Over rank-3 fits of study replicates, every state a cycle is
        given or returns holds exactly weights(e, s2, alpha): states from
        the start and from extrapolation, states whose weights were
        rebuilt after a lost extrapolation, cycles on unconstrained and
        on constrained layers, and cycles whose scale update h rejected.
        Outside the scale solve a cycle makes one weights pass per h
        evaluation and none besides, one fewer than a cycle that opens
        with a pass and hands h_value no weights at the end. A cycle
        empties the iterate it is given."""
        objective_module = importlib.import_module("dpdsvd.objective")
        weights, h_value_ = rank1.weights, rank1.h_value
        hidden = objective_module.weights
        sigma_solve, one_cycle = rank1._sigma_solve, rank1._one_cycle
        count = dict(passes=0, h=0, in_scale=False, s2_c=None)

        def counted(*args):
            count["passes"] += not count["in_scale"]
            return weights(*args)

        def counted_hidden(*args):
            # a pass inside h_value, made when it is handed no weights
            count["passes"] += 1
            return hidden(*args)

        def counted_h(*args):
            count["h"] += 1
            return h_value_(*args)

        def scale(*args):
            count["in_scale"] = True
            try:
                out = sigma_solve(*args)
            finally:
                count["in_scale"] = False
            count["s2_c"] = out[0]
            return out

        returned = []       # the W of every returned state, kept alive
        seen = dict(cycles=0, constrained=0, rejected=0, fresh=0)

        def cycle(X, alpha, st, ortho_u, ortho_v, eps):
            # the cycle empties st, so what is checked is copied out first
            s2, e, W = st[3], st[5].copy(), st[6].copy()
            seen["fresh"] += not any(st[6] is w for w in returned)
            assert np.array_equal(W, weights(e, s2, alpha))
            count.update(passes=0, h=0)
            out = one_cycle(X, alpha, st, ortho_u, ortho_v, eps)
            assert st == []
            assert count["passes"] == count["h"]
            s2_o, e_o, W_o = out[3], out[5], out[6]
            assert np.array_equal(W_o, weights(e_o, s2_o, alpha))
            returned.append(W_o)
            seen["cycles"] += 1
            seen["constrained"] += ortho_u is not None
            seen["rejected"] += s2_o != count["s2_c"]
            return out

        monkeypatch.setattr(rank1, "weights", counted)
        monkeypatch.setattr(rank1, "h_value", counted_h)
        monkeypatch.setattr(rank1, "_sigma_solve", scale)
        monkeypatch.setattr(rank1, "_one_cycle", cycle)
        monkeypatch.setattr(objective_module, "weights", counted_hidden)
        solves = 0
        for rep in range(2):
            X = (make_ground_truth().X0
                 + sample_noise("S2c", np.random.default_rng([3, rep]))[0])
            for alpha in (0.5, 1.0):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    fit_svd(X, 3, SolverOptions(alpha=alpha))
                solves += 3
        assert seen["cycles"] > 100
        assert seen["constrained"] > 0
        assert seen["rejected"] > 0
        # each solve's start, and at least one extrapolated state
        assert seen["fresh"] > solves


class TestCollapsedRows:
    def test_collapsed_row_is_refit_at_rescaled_weights(self):
        """A row whose weights all underflow (a stuck pixel) gets the
        regression coefficient at its weights divided by their largest
        value, adds nothing to the slope, and leaves the other rows as
        _regress has them."""
        X, cur, other, s2, _ = half_step_problem(5, False)
        X = X.copy()
        X[4] = 1e3
        alpha = 0.5
        e = X - np.outer(cur, other)
        W = rank1.weights(e, s2, alpha)
        assert not np.any(W[4])
        target, gain = rank1._target(X, W, cur, other, s2, alpha, None, "row")

        e2 = e[4] ** 2
        w4 = np.exp(-alpha * (e2 - e2.min()) / (2.0 * s2))
        assert target[4] == pytest.approx(
            (X[4] * w4) @ other / (w4 @ (other * other)), rel=1e-12)
        keep = np.arange(X.shape[0]) != 4
        raw, _ = rank1._regress(X[keep], W[keep], other, "row")
        np.testing.assert_array_equal(target[keep], raw)
        _, gain_rest = rank1._target(X[keep], W[keep], cur[keep], other, s2,
                                     alpha, None, "row")
        assert gain == pytest.approx(gain_rest * keep.sum() / X.shape[0],
                                     rel=1e-12)


def polish_point(seed=5):
    """(X, a, b, t): the layer-1 start of half_step_problem as a point of
    the polish, t = ln sigma2."""
    X, a, b, s2, _ = half_step_problem(seed, False)
    return X, a, b, float(np.log(s2))


def polish_direction(block, n, p):
    """A seeded direction (da, db, dt) that moves only block a, b or t."""
    rng = np.random.default_rng(["a", "b", "t"].index(block))
    da = rng.standard_normal(n) if block == "a" else np.zeros(n)
    db = rng.standard_normal(p) if block == "b" else np.zeros(p)
    dt = 0.7 if block == "t" else 0.0
    return da, db, dt


class TestPolishTerms:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("block", ["a", "b", "t"])
    def test_gradient_is_the_slope_of_h(self, alpha, block):
        """ga, gb, gt against a central difference of h_value along a
        direction in one block, to 1e-7 relative."""
        X, a, b, t = polish_point()
        ga, gb, gt = rank1._polish_terms(X, a, b, t, alpha)[:3]
        da, db, dt = polish_direction(block, *X.shape)

        def h_at(s):
            return h_value(X - np.outer(a + s * da, b + s * db),
                           np.exp(t + s * dt), alpha)

        fd = (h_at(1e-5) - h_at(-1e-5)) / 2e-5
        assert ga @ da + gb @ db + gt * dt == pytest.approx(fd, rel=1e-7)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("block", ["a", "b", "t"])
    def test_hessian_is_the_slope_of_the_gradient(self, alpha, block):
        """The Hessian blocks (Da, Db, M, wa, wb, htt) times a direction in
        one block against a central difference of the gradient."""
        X, a, b, t = polish_point()
        Da, Db, M, wa, wb, htt = rank1._polish_terms(X, a, b, t, alpha)[3:]
        da, db, dt = polish_direction(block, *X.shape)
        Hd = np.concatenate([Da * da + M @ db + wa * dt,
                             M.T @ da + Db * db + wb * dt,
                             [wa @ da + wb @ db + htt * dt]])

        def grad_at(s):
            ga, gb, gt = rank1._polish_terms(X, a + s * da, b + s * db,
                                             t + s * dt, alpha)[:3]
            return np.concatenate([ga, gb, [gt]])

        fd = (grad_at(1e-5) - grad_at(-1e-5)) / 2e-5
        np.testing.assert_allclose(Hd, fd, rtol=1e-6,
                                   atol=1e-8 * np.max(np.abs(fd)))

    def test_polish_working_set(self):
        """The polish of a 400x100 fit allocates at most 8 times X.nbytes
        at its peak (4.2 measured with four arrays the size of X in the
        terms, 5.1 with five; computing every cell derivative at once
        took 17)."""
        rng = np.random.default_rng(12)
        n, p = 400, 100
        X = 10.0 * np.outer(rng.standard_normal(n), rng.standard_normal(p))
        X += rng.standard_normal((n, p))
        X[rng.random((n, p)) < 0.1] = 25.0
        eps = sigma_floor(X)
        lam, u, v, s2 = rank1._init(X, "screened", eps)
        tracemalloc.start()
        try:
            rank1._newton_polish(X, lam, u, v, s2, 0.5, eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * X.nbytes

    def test_fit_working_set(self):
        """A rank-3 alpha-0.5 fit of a 400x100 planted rank-3 matrix, 20%
        of its cells set to 25, allocates at most 10 times X.nbytes at
        its peak. Measured: 8.23 when each iterate is freed once a cycle
        has used it, 12.19 when the states a cycle had used kept their
        residuals and weights. The draw is the benchmark's planted
        matrix of this shape. A small fit runs first: the first
        np.median of a process may import numpy.ma (NumPy 2), about 1.1
        MB, which would otherwise count in the peak of whichever test
        fits first (11.72 and 15.68 then)."""
        n, p = 400, 100
        rng = np.random.default_rng([0, n, p])
        U0 = np.linalg.qr(rng.standard_normal((n, 3)))[0]
        V0 = np.linalg.qr(rng.standard_normal((p, 3)))[0]
        E = rng.standard_normal((n, p))
        E[rng.random((n, p)) < 0.2] = 25.0
        X = (U0 * (np.array([8.0, 4.0, 2.0]) * math.sqrt(n * p))) @ V0.T + E
        opts = SolverOptions(alpha=0.5)
        fit_rank1(X[:10, :4], opts)
        tracemalloc.start()
        try:
            fit_svd(X, 3, opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * X.nbytes


def planted(n, p):
    """The benchmark's planted rank-3 n x p matrix, 20% of its cells set
    to 25."""
    rng = np.random.default_rng([0, n, p])
    U0 = np.linalg.qr(rng.standard_normal((n, 3)))[0]
    V0 = np.linalg.qr(rng.standard_normal((p, 3)))[0]
    E = rng.standard_normal((n, p))
    E[rng.random((n, p)) < 0.2] = 25.0
    return (U0 * (np.array([8.0, 4.0, 2.0]) * math.sqrt(n * p))) @ V0.T + E


def planted_400x100():
    """The planted 400x100 matrix: the draw of test_fit_working_set."""
    return planted(400, 100)


class TestWorkingSet:
    @pytest.mark.parametrize("rank, bound", [(3, 7), (1, 6)])
    def test_fit_peak(self, rank, bound):
        """An alpha-0.5 fit of the 400x100 planted draw allocates at most
        7 times X.nbytes at its peak at rank 3 and 6 at rank 1. Measured:
        6.62 and 5.23 with in-place cell passes and a held state that gives
        up its residuals while an extrapolated state is cycled; 8.23 and
        7.17 before. A small fit runs first, as in test_fit_working_set."""
        X = planted_400x100()
        opts = SolverOptions(alpha=0.5)
        fit_rank1(X[:10, :4], opts)
        tracemalloc.start()
        try:
            fit_svd(X, rank, opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * X.nbytes


def five_array_polish_terms(X, a, b, t, alpha):
    """_polish_terms as it was with five arrays the size of X alive at
    once: every cell array whole, S a new array and M formed last."""
    n, p = X.shape
    N = n * p
    s2 = np.exp(t)
    c1 = (1.0 + alpha) ** -0.5
    c2 = 1.0 + 1.0 / alpha
    pre = np.exp(-alpha * t / 2.0)
    e = np.outer(a, b)
    np.subtract(X, e, out=e)
    q = np.multiply(e, alpha)
    q *= e
    q /= 2.0 * s2
    w = np.negative(q)
    np.exp(w, out=w)
    sum_v = pre * c1 * N - pre * c2 * float(np.sum(w))
    P = np.multiply(e, alpha)
    P /= s2
    P *= np.multiply(w, pre * c2)
    ga = -(P @ b) / N
    gb = -(P.T @ a) / N
    S = np.add(q, -alpha / 2.0 - 1.0)
    S *= P
    wa = -(S @ b) / N
    wb = -(S.T @ a) / N
    S *= e
    e *= P
    gt = (-(alpha / 2.0) * sum_v - float(np.sum(e)) / 2.0) / N
    htt = -(alpha / 2.0) * gt - float(np.sum(S)) / (2.0 * N)
    q *= -2.0
    q += 1.0
    Q = w
    Q *= pre * c2 * (alpha / s2)
    Q *= q
    Da = (Q @ (b * b)) / N
    Db = (Q.T @ (a * a)) / N
    M = Q
    M *= np.outer(a, b)
    M -= P
    M /= N
    return ga, gb, gt, Da, Db, M, wa, wb, htt


def bordered_solve_from_M(Da, Db, M, wa, wb, htt, a, b, g, tau):
    """_solve_bordered as it was when every try formed C from M."""
    n, p = Da.shape[0], Db.shape[0]
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
    try:
        y = np.linalg.solve(E - C.T @ CD, r2 - CD.T @ r1)
    except np.linalg.LinAlgError:
        return None
    return np.concatenate([(r1 - C @ y) / D, y[:p + 1]])


def five_array_polish(X, lam, u, v, s2, alpha, eps):
    """_newton_polish as it was with five_array_polish_terms and
    bordered_solve_from_M."""
    n, p = X.shape
    a, b = lam * u, v.copy()
    t, t_floor = float(np.log(s2)), float(np.log(eps))
    h = rank1._evaluate(X, (rank1._residuals, a, b, True), np.exp(t),
                        alpha)[2]
    tau = 0.0
    for _ in range(40):
        ga, gb, gt, Da, Db, M, wa, wb, htt = five_array_polish_terms(
            X, a, b, t, alpha)
        g = np.concatenate([ga, gb, [gt]])
        cap = 1e-3 * (1.0 + max(np.max(np.abs(a)), np.max(np.abs(b)), abs(t)))
        for _try in range(12):
            d = bordered_solve_from_M(Da, Db, M, wa, wb, htt, a, b, g, tau)
            if d is not None and np.max(np.abs(d)) <= cap:
                an, bn = a + d[:n], b + d[n:n + p]
                tn = max(t + d[-1], t_floor)
                hn = rank1._evaluate(X, (rank1._residuals, an, bn, True),
                                     np.exp(tn), alpha)[2]
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
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na <= 0 or nb <= 0 or not np.isfinite(na * nb):
        return lam, u, v, s2, rank1._evaluate(
            X, (rank1._fit_residuals, lam, u, v), s2, alpha)[2]
    u_o, v_o = rank1._flip_sign(a / na, b / nb)
    return na * nb, u_o, v_o, float(np.exp(t)), h


def polish_start(shape, scale):
    """(X, lam, u, v, s2, eps): the planted draw of shape times scale and
    its screened start."""
    X = planted(*shape) * scale
    eps = sigma_floor(X)
    return (X, *rank1._init(X, "screened", eps), eps)


def as_bytes(values):
    return [np.asarray(x).tobytes() for x in values]


class TestFourArrayPolish:
    """The polish holds at most four arrays the size of X, its products of
    two of them formed over row blocks, and the bordered block once per
    Newton step, and gives the five-array polish's outputs bit for bit.
    333x77 splits into blocks of 53 rows and a last one of 15."""

    SHAPES = [(10, 4), (400, 100), (2000, 200), (333, 77)]

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "%dx%d" % s)
    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
    def test_terms(self, shape, scale):
        X, lam, u, v, s2, _ = polish_start(shape, scale)
        for alpha in (0.5, 1.0, 2.0):
            args = (X, lam * u, v, float(np.log(s2)), alpha)
            assert (as_bytes(rank1._polish_terms(*args))
                    == as_bytes(five_array_polish_terms(*args)))

    @pytest.mark.parametrize("shape", [(10, 4), (400, 100), (333, 77)],
                             ids=lambda s: "%dx%d" % s)
    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
    def test_polish(self, shape, scale):
        X, lam, u, v, s2, eps = polish_start(shape, scale)
        for alpha in (0.5, 2.0):
            assert (as_bytes(rank1._newton_polish(X, lam, u, v, s2, alpha,
                                                  eps))
                    == as_bytes(five_array_polish(X, lam, u, v, s2, alpha,
                                                  eps)))

    @pytest.mark.parametrize("shape", [(400, 100), (2000, 200)],
                             ids=lambda s: "%dx%d" % s)
    def test_working_set(self, shape):
        """The polish run alone from a start allocates at most 4.5 times
        X.nbytes at its peak. Measured: 4.21 and 4.06; 5.12 and 5.05 with
        five arrays in the terms and the bordered block formed by every
        try. A small fit runs first, as in test_fit_working_set."""
        X, lam, u, v, s2, eps = polish_start(shape, 1.0)
        fit_rank1(X[:10, :4], SolverOptions(alpha=0.5))
        tracemalloc.start()
        try:
            rank1._newton_polish(X, lam, u, v, s2, 0.5, eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * X.nbytes


class TestInPlaceResiduals:
    """_residuals and _fit_residuals build one array each and give the
    plain expressions bit for bit."""

    @pytest.mark.parametrize("k", [None, 1, 6])
    @pytest.mark.parametrize("left", [True, False])
    def test_residuals(self, k, left):
        rng = np.random.default_rng([18, k or 0, left])
        X = rng.standard_normal((10, 4)) * 10.0 ** rng.integers(-6, 6, (10, 4))
        m, o = (10, 4) if left else (4, 10)
        cand = rng.standard_normal(m if k is None else (k, m))
        other = rng.standard_normal(o)
        got = rank1._residuals(X, cand, other, left)
        want = X - (cand[..., None] * other if left
                    else other[:, None] * cand[..., None, :])
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_fit_residuals(self):
        rng = np.random.default_rng(19)
        X = rng.standard_normal((10, 4))
        u, v = unit(rng, 10), unit(rng, 4)
        for lam in (2.7, np.float64(1e-5)):
            got = rank1._fit_residuals(X, lam, u, v)
            assert got.tobytes() == (X - lam * np.outer(u, v)).tobytes()
            assert got.tobytes() == (X - lam * (u[:, None] * v)).tobytes()


def residual_sources(X, rng):
    """Calls that form X's residuals, as _evaluate takes them: the start's
    _fit_residuals and _residuals of a row and of a column vector."""
    n, p = X.shape
    u, v = unit(rng, n), unit(rng, p)
    return [(rank1._fit_residuals, 3.7, u, v),
            (rank1._residuals, 3.7 * u + 0.01 * rng.standard_normal(n), v,
             True),
            (rank1._residuals, v + 0.01 * rng.standard_normal(p), 3.7 * u,
             False)]


class TestEvaluate:
    """_evaluate gives the residuals, weights and h of the plain calls,
    bit for bit, as one block or swept in row blocks whose summation
    nodes begin and end inside rows."""

    @pytest.mark.parametrize("cells", [None, 128, 300, 1000],
                             ids=["one-block", "128", "300", "1000"])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_matches_plain_calls(self, monkeypatch, cells, alpha):
        if cells is not None:
            monkeypatch.setattr(rank1, "BLOCK_CELLS", cells)
        rng = np.random.default_rng([26, cells or 0, int(4 * alpha)])
        n, p = 61, 37
        X = 3.7 * np.outer(unit(rng, n), unit(rng, p))
        X += rng.standard_normal((n, p))
        X[rng.random((n, p)) < 0.2] = 25.0
        for src in residual_sources(X, rng):
            e_want = src[0](X, *src[1:])
            for s2 in (1e-300, 1e-8, 0.8, 1e8, 1e300):
                W_want = weights(e_want, s2, alpha)
                h_want = h_value(e_want, s2, alpha, W_want)
                for given in (None, e_want):
                    e, W, h = rank1._evaluate(X, src, s2, alpha, given)
                    assert e.tobytes() == e_want.tobytes()
                    assert W.tobytes() == W_want.tobytes()
                    assert type(h) is float and h == h_want
                e, W, h = rank1._evaluate(X, src, s2, alpha, with_h=False)
                assert e.tobytes() == e_want.tobytes()
                assert W.tobytes() == W_want.tobytes()
                assert h is None

    def test_stack_takes_the_plain_calls(self):
        """A stack of candidates (an X of at most BLOCK_CELLS cells) gives
        the stacked residuals, weights and h array of the plain calls."""
        rng = np.random.default_rng(27)
        X = rng.standard_normal((10, 4))
        cand = rng.standard_normal((5, 10))
        src = (rank1._residuals, cand, unit(rng, 4), True)
        e, W, h = rank1._evaluate(X, src, 0.7, 0.5)
        e_want = rank1._residuals(X, *src[1:])
        assert e.tobytes() == e_want.tobytes()
        assert W.tobytes() == weights(e_want, 0.7, 0.5).tobytes()
        assert h.tobytes() == h_value(e_want, 0.7, 0.5, W).tobytes()

    def test_polish_residual_is_the_row_form(self):
        """The polish's X - np.outer(a, b) is _residuals(X, a, b, True)."""
        rng = np.random.default_rng(28)
        X = rng.standard_normal((30, 7)) * 10.0 ** rng.integers(-5, 5, (30, 7))
        a, b = rng.standard_normal(30), rng.standard_normal(7)
        assert (rank1._residuals(X, a, b, True).tobytes()
                == (X - np.outer(a, b)).tobytes())


def whole_array_scale_solve(e, s2, alpha, lo, W=None):
    """_sigma_solve as it was before its blocked sweep: every iterate's
    weights, e^2 w and C term as arrays the size of e."""
    c_sig = alpha * (1.0 + alpha) ** -1.5
    e2 = e * e
    plain = None
    r_prev = np.inf
    for _ in range(200):
        if W is None:
            W = weights(e, s2, alpha)
        den = np.add.reduce(W, axis=None) / W.size - c_sig
        if den <= 0:
            if plain is None:
                return s2, True
            s2, plain, W = plain, None, None
            continue
        e2w = e2 * W
        W = None
        B = np.add.reduce(e2w, axis=None) / e2w.size
        T = B / den
        if T < lo:
            return lo, False
        r = abs(T - s2)
        if r <= 4e-15 * s2 or r_prev <= r <= 1e-8 * s2:
            return T, False
        r_prev = r
        b = B / s2
        e2w *= e2 / s2
        c = np.add.reduce(e2w, axis=None) / e2w.size / s2
        d = alpha * (c * den - b * b) / (2.0 * den * den)
        if math.isfinite(d) and d < 1.0:
            s2, plain = max(s2 + (T - s2) / (1.0 - d), lo), T
        else:
            s2, plain = T, None
    return s2, False


class TestBlockedScaleSolve:
    """_sigma_solve sweeps a residual array of more than BLOCK_CELLS cells
    in blocks and returns what the whole-array solve returns, bit for
    bit."""

    @pytest.mark.parametrize("cells", [None, 128, 1000],
                             ids=["default", "128", "1000"])
    @pytest.mark.parametrize("layout", ["C", "F", "strided", "1-D"])
    def test_matches_whole_array_solve(self, monkeypatch, cells, layout):
        if cells is not None:
            monkeypatch.setattr(rank1, "BLOCK_CELLS", cells)
        rng = np.random.default_rng([29, cells or 0])
        base = rng.standard_normal((122, 74))
        base[rng.random(base.shape) < 0.2] = 25.0
        e = {"C": base[:61, :37].copy(), "F": np.asfortranarray(base[:61, :37]),
             "strided": base[::2, ::2], "1-D": base.reshape(-1)[:3001]}[layout]
        for alpha in (0.1, 0.5, 1.0, 3.0):
            for s2 in (1e-6, 0.8, 30.0, 1e6):
                lo = 1e-10
                want = whole_array_scale_solve(e, s2, alpha, lo)
                assert rank1._sigma_solve(e, s2, alpha, lo) == want
                assert update_sigma2(e, s2, alpha, lo) == want
                W = weights(e, s2, alpha)
                W_kept = W.copy()
                assert (rank1._sigma_solve(e, s2, alpha, lo, W)
                        == whole_array_scale_solve(e, s2, alpha, lo, W))
                assert W.tobytes() == W_kept.tobytes()

    def test_degenerate_denominator(self, monkeypatch):
        """A blocked solve flags a start where den <= 0, as the whole-array
        one does."""
        monkeypatch.setattr(rank1, "BLOCK_CELLS", 128)
        e = np.full((40, 20), 50.0)
        e[0, 0] = 0.0
        assert (rank1._sigma_solve(e, 1.0, 1.0, 1e-10)
                == whole_array_scale_solve(e, 1.0, 1.0, 1e-10)
                == (1.0, True))

    @pytest.mark.parametrize("cells", [None, 16], ids=["default", "16"])
    def test_underflowing_slope_denominator(self, monkeypatch, cells):
        """A positive den whose square underflows to 0 gives no finite
        slope T', so the iterate takes the plain step, as in the
        whole-array solve, where the division gave inf or NaN."""
        if cells is not None:
            monkeypatch.setattr(rank1, "BLOCK_CELLS", cells)
        alpha = 1e-290
        e = np.full((10, 4), math.sqrt(560.0 * math.log(10.0) / alpha))
        den = weights(e, 1.0, alpha)[0, 0] - alpha * (1.0 + alpha) ** -1.5
        assert den > 0.0 and 2.0 * den * den == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = whole_array_scale_solve(e, 1.0, alpha, 1e-10)
            assert rank1._sigma_solve(e, 1.0, alpha, 1e-10) == want

    @pytest.mark.parametrize("cells", [None, 128], ids=["default", "128"])
    @pytest.mark.parametrize("shape", [(), (7,), (1, 10, 4), (3, 61, 37)],
                             ids=["0-d", "1-D", "3-D", "3-D-blocks"])
    def test_any_shape(self, monkeypatch, cells, shape):
        """update_sigma2 of residuals of any shape solves over all of
        their cells (a 3-D array used to raise, its means taken per
        matrix)."""
        if cells is not None:
            monkeypatch.setattr(rank1, "BLOCK_CELLS", cells)
        e = np.random.default_rng(30).standard_normal(shape) * 2.0
        for alpha in (0.5, 1.0):
            got = update_sigma2(e, 1.3, alpha, 1e-10)
            assert type(got[0]) is not np.ndarray
            assert got == whole_array_scale_solve(e, 1.3, alpha, 1e-10)


class TestSmallBlocks:
    """Fits do not depend on BLOCK_CELLS or BATCH_CELLS: evaluations,
    scale solves and the deflation swept in small blocks, and halvings
    tried one at a time, give the default fits bit for bit."""

    @staticmethod
    def fits(X, rank, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            dec = fit_svd(X, rank, SolverOptions(alpha=alpha))
        return [(d.lambda_, d.u.tobytes(), d.v.tobytes(), d.sigma2,
                 d.trace.tobytes(), d.iterations, d.converged)
                for d in dec.diagnostics]

    def test_study_fits(self, monkeypatch):
        """Rank-4 fits of S2c study replicates, 10x4 cells in blocks of
        16 cells, swept as one summation node, with single halvings (a
        stack of one, as BATCH_CELLS is 16 too)."""
        draws = [make_ground_truth().X0
                 + sample_noise("S2c", np.random.default_rng([1, r]))[0]
                 for r in range(2)]
        want = [self.fits(X, 4, a) for X in draws for a in (0.5, 1.0)]
        monkeypatch.setattr(rank1, "BLOCK_CELLS", 16)
        monkeypatch.setattr(rank1, "BATCH_CELLS", 16)
        assert [self.fits(X, 4, a) for X in draws for a in (0.5, 1.0)] == want

    def test_planted_fit(self, monkeypatch):
        """A rank-3 fit of a 150x40 planted draw, its 6000 cells in nodes
        of at most 256 cells that begin and end inside rows."""
        X = planted(150, 40)
        want = self.fits(X, 3, 0.5)
        monkeypatch.setattr(rank1, "BLOCK_CELLS", 256)
        assert self.fits(X, 3, 0.5) == want


class TestHeldStateRebuild:
    """While SQUAREM's extrapolated state is cycled, the held state gives
    up its residuals and weights. When the extrapolation loses, _solve
    forms them again from the call recorded with the state; they must
    equal the arrays it gave up, bit for bit."""

    def watch(self, monkeypatch, fail_extrapolated=False, stay=False):
        """Wrap _half_step and _one_cycle for the fits that follow; returns
        the labels of the held states checked.

        Each state a cycle returns is copied (e and W) and labelled by what
        formed its e: "full" or "halving" when the column half-step moved
        by its full step or by a halving (more than one weights pass),
        "unmoved" when the column half-step did not move but the row
        half-step did, and the label of the state the cycle was given
        when neither moved; a start is "start". A cycle given a state
        that is not the last one returned, while that one holds no e, is
        an extrapolated state's; the next cycle given the held state
        compares its e and W with the copies. fail_extrapolated makes an
        extrapolated state's cycle raise FloatingPointError, and stay
        makes every half-step return what a half-step that finds no
        decrease returns.
        """
        half_step, one_cycle, weights_ = (rank1._half_step, rank1._one_cycle,
                                          rank1.weights)
        passes, moves = [0], []
        last, held, checked = [None], [None], []

        def counted(*args):
            passes[0] += 1
            return weights_(*args)

        def half(X, W, e, h, cur, other, s2, alpha, left, ortho):
            if stay:
                moves.append(None)
                lam = math.sqrt(cur.dot(cur))
                return lam, cur / lam, h, e, W, cur
            passes[0] = 0
            out = half_step(X, W, e, h, cur, other, s2, alpha, left, ortho)
            moves.append(None if not out[2] < h
                         else "full" if passes[0] == 1 else "halving")
            return out

        def cycle(X, alpha, st, ortho_u, ortho_v, eps):
            if held[0] is not None and st is held[0][0]:
                _, e, W, label = held[0]
                assert st[5].tobytes() == e.tobytes()
                assert st[6].tobytes() == W.tobytes()
                checked.append(label)
            held[0] = None
            given = "start"
            if last[0] is not None:
                if st is last[0][0]:
                    given = last[0][3]
                elif last[0][0][5] is None:
                    assert last[0][0][6] is None
                    held[0] = last[0]
                    if fail_extrapolated:
                        raise FloatingPointError("injected")
            moves.clear()
            out = one_cycle(X, alpha, st, ortho_u, ortho_v, eps)
            row, col = moves
            label = col or ("unmoved" if row else given)
            last[0] = (out, out[5].copy(), out[6].copy(), label)
            return out

        monkeypatch.setattr(rank1, "weights", counted)
        monkeypatch.setattr(rank1, "_half_step", half)
        monkeypatch.setattr(rank1, "_one_cycle", cycle)
        return checked

    def test_states_from_half_steps(self, monkeypatch):
        """Rank-4 fits of an S2c study replicate lose extrapolations held at
        states whose e a full step, a halving stack, or the row half-step
        before a column half-step that did not move had formed."""
        checked = self.watch(monkeypatch)
        X = (make_ground_truth().X0
             + sample_noise("S2c", np.random.default_rng([1, 0]))[0])
        for alpha in (0.5, 1.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                fit_svd(X, 4, SolverOptions(alpha=alpha))
        assert {"full", "halving", "unmoved"} <= set(checked)

    def test_state_from_the_start(self, monkeypatch):
        """A held state whose e the start formed: no half-step moves, so
        e stays the start's, extrapolation begins at the first iteration
        and its cycle fails."""
        checked = self.watch(monkeypatch, fail_extrapolated=True, stay=True)
        monkeypatch.setattr(rank1, "PLAIN_FIRST", 0)
        X = (make_ground_truth().X0
             + sample_noise("S2c", np.random.default_rng([1, 0]))[0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rank1._solve(X, SolverOptions(alpha=0.5, max_iter=3))
        assert checked and set(checked) == {"start"}

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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_residuals_raise(self, bad):
        e = np.random.default_rng(17).standard_normal((6, 4))
        e[3, 2] = bad
        with pytest.raises(NonFiniteInput):
            update_sigma2(e, 1.0, 0.5)
        with pytest.raises(NonFiniteInput):
            update_sigma2(np.full((6, 4), bad), 1.0, 0.5)

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

    def test_rejects_negative_seed(self):
        """A negative seed is refused when the options are made, not only
        inside a "random" fit."""
        with pytest.raises(ValueError, match="seed must be non-negative"):
            SolverOptions(seed=-1)
        assert SolverOptions(seed=0).seed == 0


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

    def test_spike_restart_with_no_iterations_left(self):
        """The draw of test_spike_restart passes the cap at iteration 1:
        at max_iter 1 the second solve has no iterations left and returns
        the classical start, unconverged, after 1 iteration."""
        rng = np.random.default_rng([11, 0, 58])
        uu = rng.standard_normal(10)
        vv = rng.standard_normal(4)
        lam0 = rng.uniform(8.0, 15.0)
        E = rng.standard_normal((10, 4))
        X = lam0 * np.outer(uu / np.linalg.norm(uu),
                            vv / np.linalg.norm(vv)) + E
        out = rank1._solve(X, SolverOptions(alpha=0.5, max_iter=1))
        lam, u, v, s2 = rank1._init(X, "classical", sigma_floor(X))
        assert out["restarted"]
        assert not out["conv"]
        assert out["it"] == 1
        assert out["trace"].shape == (1,)
        assert out["lam"] == lam
        assert out["s2"] == s2

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


class TestSolveSetup:
    """What _solve computes from X before its first cycle."""

    def test_mean_square_taken_once(self, monkeypatch):
        """mean X^2 serves both the sigma2 floor and the packing scale."""
        X = rank1_matrix()[0] + 0.1
        mean = np.mean
        squares = [0]

        def counted(a, *args, **kwargs):
            if np.shape(a) == X.shape and np.array_equal(a, X * X):
                squares[0] += 1
            return mean(a, *args, **kwargs)

        monkeypatch.setattr(np, "mean", counted)
        rank1._solve(X, SolverOptions(alpha=0.5, max_iter=1))
        assert squares[0] == 1
        ms = mean(X * X)
        assert sigma_floor(X, None, ms) == sigma_floor(X)
        assert sigma_floor(X, 0.25, ms) == 0.25

    @pytest.mark.parametrize("init, caps", [("screened", 1), ("classical", 0),
                                            ("random", 0)])
    def test_spike_cap_svd_only_for_a_screened_start(self, monkeypatch,
                                                     init, caps):
        """The spike cap's singular values (compute_uv=False) are taken
        only when the start is "screened", the one policy that restarts:
        on the draw of test_spike_restart the screened lambda passes the
        cap, and the fit restarts from a "classical" start, whose SVD
        follows the screened start's."""
        X = spike_draw()
        calls = recorded_svds(monkeypatch)
        out = rank1._solve(X, SolverOptions(alpha=0.5, init=init, seed=1))
        assert out["restarted"] == (caps == 1)
        assert calls.count(False) == caps
        assert calls.count(True) == (0 if init == "random" else 1 + caps)

    def test_spike_cap_svd_only_for_the_free_layer(self, monkeypatch):
        """A rank-3 fit from a screened start takes the spike cap's
        singular values at most once, for layer 0: deflated layers never
        restart, so they take no cap (one per layer took 3). Layer 0 of
        the draw of test_spike_restart passes the cap."""
        X = spike_draw()
        calls = recorded_svds(monkeypatch)
        fit_svd(X, 3, SolverOptions(alpha=0.5))
        assert calls.count(False) == 1

    def test_spike_cap_svd_only_when_lambda_passes_its_bound(self,
                                                             monkeypatch):
        """The cap is at least SPIKE_FACTOR |X v| for the start's unit v,
        so its singular values are taken only once a lambda passes that:
        the rank-3 fit of the benchmark's 2000x200 planted draw, and a
        small one, take none, and restart nowhere."""
        calls = recorded_svds(monkeypatch)
        small = rank1_matrix()[0] + 0.1 * np.random.default_rng(
            4).standard_normal((8, 5))
        for X, rank in ((small, 1), (planted(2000, 200), 3)):
            calls.clear()
            dec = fit_svd(X, rank, SolverOptions(alpha=0.5))
            assert calls.count(False) == 0
            assert calls.count(True) == rank
            assert dec.lambdas[0] <= rank1.SPIKE_FACTOR * np.linalg.svd(
                X, compute_uv=False)[0]


def spike_draw():
    """Criterion 2's draw [11, 0, 58], whose screened basin's lambda
    passes SPIKE_FACTOR sigma_1 (test_spike_restart)."""
    rng = np.random.default_rng([11, 0, 58])
    uu = rng.standard_normal(10)
    vv = rng.standard_normal(4)
    lam0 = rng.uniform(8.0, 15.0)
    E = rng.standard_normal((10, 4))
    return lam0 * np.outer(uu / np.linalg.norm(uu),
                           vv / np.linalg.norm(vv)) + E


def recorded_svds(monkeypatch):
    """Record the compute_uv flag of every np.linalg.svd call that
    follows; returns the list the flags go to."""
    svd = np.linalg.svd
    calls = []

    def recorded(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return calls


class TestComplexInput:
    """A complex X is refused, not fitted as its real part."""

    X = (np.arange(12.0).reshape(4, 3) % 5 + 1.0) + 0j
    FIT = provided(1.0, np.ones(4) / 2.0, np.ones(3) / np.sqrt(3.0), 0.5)

    @pytest.mark.parametrize("call", [
        lambda X: fit_svd(X, 2),
        lambda X: fit_svd(X, 2, SolverOptions(alpha=0.5)),
        lambda X: fit_rank1(X, SolverOptions(alpha=0.5)),
        lambda X: update_u(X, TestComplexInput.FIT, 0.5),
        lambda X: update_v(X, TestComplexInput.FIT, 0.5),
        lambda X: check_equivariance_scale(X, 2.0),
        lambda X: check_equivariance_permutation(X, [1, 0, 3, 2], [2, 0, 1]),
    ], ids=["fit_svd", "fit_svd-alpha", "fit_rank1", "update_u", "update_v",
            "equivariance_scale", "equivariance_permutation"])
    def test_rejected_at_every_entry_point(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="complex"):
                call(self.X)


class TestLostExtrapolation:
    def test_failed_extrapolated_cycle_keeps_descent(self, monkeypatch):
        """When the cycle of an extrapolated state raises
        FloatingPointError, _solve drops that state, rebuilds the held
        state's weights and goes on: the fit still converges with a
        non-increasing trace."""
        X = (make_ground_truth().X0
             + sample_noise("S2c", np.random.default_rng([3, 0]))[0])
        one_cycle = rank1._one_cycle
        returned, raised = [], []

        def cycle(X, alpha, st, ortho_u, ortho_v, eps):
            # a state no cycle returned is the start or an extrapolation
            if returned and not any(st is r for r in returned):
                raised.append(st)
                raise FloatingPointError("injected")
            returned.append(one_cycle(X, alpha, st, ortho_u, ortho_v, eps))
            return returned[-1]

        monkeypatch.setattr(rank1, "_one_cycle", cycle)
        out = rank1._solve(X, SolverOptions(alpha=0.5))
        assert len(raised) > 1
        assert not out["restarted"]
        assert out["conv"]
        assert np.all(np.diff(out["trace"]) <= 1e-10)


class TestProjectUnit:
    def test_direction_in_the_span_raises(self):
        Q = np.linalg.qr(np.random.default_rng(5).standard_normal((6, 2)))[0]
        with pytest.raises(FloatingPointError, match="degenerate u direction"):
            rank1._project_unit(Q @ np.array([1.0, -2.0]), Q, "u")


class TestRobustScale:
    """rank1._mad, the robust scale of the start's screening and sigma2."""

    @pytest.mark.parametrize("shape", [(1,), (2,), (39,), (40,), (4000,),
                                       (40, 7), (39, 9)])
    @pytest.mark.parametrize("ties", [False, True])
    def test_equals_numpy_median(self, shape, ties):
        """1.4826 median |x| bit for bit, at odd and even sizes, 2-D,
        and with ties at the contamination value 25."""
        rng = np.random.default_rng(list(shape) + [ties])
        x = rng.standard_normal(shape)
        if ties:
            x[rng.random(shape) < 0.5] = 25.0
        assert rank1._mad(x) == 1.4826 * np.median(np.abs(x))

    def test_fit_loads_no_module(self):
        """An alpha-0.5 fit in an interpreter that has imported numpy and
        dpdsvd imports nothing more: np.median imported numpy.ma,
        numpy.ma.core and numpy.ma.extras on its first call (NumPy 2)."""
        pkg = os.path.dirname(os.path.dirname(os.path.abspath(
            rank1.__file__)))
        code = ("import sys, numpy, dpdsvd\n"
                "X = numpy.random.default_rng(0).standard_normal((10, 4))\n"
                "X[0, 0] = 25.0\n"
                "before = set(sys.modules)\n"
                "dpdsvd.fit_svd(X, 2, dpdsvd.SolverOptions(alpha=0.5))\n"
                "print(' '.join(sorted(set(sys.modules) - before)))\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (pkg, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env,
                              check=True, timeout=120)
        assert proc.stdout.split() == []


class TestProvidedStart:
    """A provided start is checked where every start is built."""

    X = np.random.default_rng(26).standard_normal((8, 5))
    u = np.full(8, 8 ** -0.5)
    v = np.full(5, 5 ** -0.5)

    def test_non_finite_vector_raises(self):
        u = self.u.copy()
        u[3] = np.nan
        opts = SolverOptions(alpha=0.5, init=(1.0, u, self.v, 1.0))
        with pytest.raises(NonFiniteInput,
                           match="^init has a non-finite lambda, u or v$"):
            fit_rank1(self.X, opts)
        with pytest.raises(NonFiniteInput, match="^layer 0: init has"):
            fit_svd(self.X, 2, opts)

    @pytest.mark.parametrize("s2", [np.inf, np.nan])
    def test_non_finite_sigma2_raises(self, s2):
        opts = SolverOptions(alpha=0.5, init=(1.0, self.u, self.v, s2))
        with pytest.raises(ValueError, match="^init sigma2 must be finite$"):
            fit_rank1(self.X, opts)

    def test_non_unit_vectors_raise(self):
        opts = SolverOptions(alpha=0.5,
                             init=(1.0, 3.0 * self.u, 2.0 * self.v, 1.0))
        with pytest.raises(ValueError,
                           match="^init u and v must have unit norm$"):
            fit_rank1(self.X, opts)

    def test_wrong_length_raises(self):
        opts = SolverOptions(alpha=0.5, init=(1.0, self.v, self.v, 1.0))
        with pytest.raises(ValueError, match="must have lengths 8 and 5"):
            fit_rank1(self.X, opts)

    def test_non_positive_sigma2_is_floored(self):
        fit = fit_rank1(self.X, SolverOptions(
            alpha=0.5, init=(1.0, self.u, self.v, -1.0)))
        assert fit.converged and fit.sigma2 > 0.0

    def test_alpha_zero_ignores_init(self):
        ones = (1.0, np.ones(8), np.ones(5), 1.0)
        got = fit_rank1(self.X, SolverOptions(alpha=0.0, init=ones))
        want = fit_rank1(self.X, SolverOptions(alpha=0.0))
        assert got.lambda_ == want.lambda_
        np.testing.assert_array_equal(got.u, want.u)


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


def bordered_system(seed, n, p):
    rng = np.random.default_rng(seed)
    Da = rng.uniform(1.0, 2.0, n)
    Db = rng.uniform(1.0, 2.0, p)
    M = 0.1 * rng.standard_normal((n, p))
    wa = 0.1 * rng.standard_normal(n)
    wb = 0.1 * rng.standard_normal(p)
    htt = 1.5
    a = rng.standard_normal(n)
    b = rng.standard_normal(p)
    g = rng.standard_normal(n + p + 1)
    return Da, Db, M, wa, wb, htt, a, b, g


class TestBorderedSolve:
    @pytest.mark.parametrize("seed, n, p", [
        pytest.param(31, 40, 30, id="40x30"),
        pytest.param(32, 10, 4, id="10x4"),
    ])
    def test_schur_path_matches_dense_oracle(self, seed, n, p):
        # the solver eliminates the diagonal a-block; the result must match
        # a dense solve of the same system bordered by the scaling gauge
        # (a, -b, 0) / |z|, small or large
        Da, Db, M, wa, wb, htt, a, b, g = bordered_system(seed, n, p)
        dim = n + p + 1
        tau = 1e-3

        got = _solve_bordered(Da, Db, *_border(M, wa, a, b), wb, htt, g,
                              tau)

        z = np.concatenate([a, -b, [0.0]])
        H = np.zeros((dim + 1, dim + 1))
        H[:n, :n] = np.diag(Da + tau)
        H[n:n + p, n:n + p] = np.diag(Db + tau)
        H[:n, n:n + p] = M
        H[n:n + p, :n] = M.T
        H[:n, dim - 1] = wa
        H[dim - 1, :n] = wa
        H[n:n + p, dim - 1] = wb
        H[dim - 1, n:n + p] = wb
        H[dim - 1, dim - 1] = htt + tau
        H[:dim, dim] = z / np.linalg.norm(z)
        H[dim, :dim] = z / np.linalg.norm(z)
        want = np.linalg.solve(H, np.concatenate([-g, [0.0]]))[:dim]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_nonpositive_row_block_asks_for_damping(self):
        # the a-block cannot be eliminated while an entry of Da + tau is not
        # positive; the polish then raises tau until it is
        Da, Db, M, wa, wb, htt, a, b, g = bordered_system(33, 10, 4)
        Da[3] = -0.5
        assert _solve_bordered(Da, Db, *_border(M, wa, a, b), wb, htt, g,
                               0.0) is None
        assert _solve_bordered(Da, Db, *_border(M, wa, a, b), wb, htt, g,
                               0.1) is None
        step = _solve_bordered(Da, Db, *_border(M, wa, a, b), wb, htt, g,
                               1.0)
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

    @pytest.mark.parametrize("rows, cols", [
        ([0, 0, 1, 2, 3, 4], range(4)),
        ([0, 1, 2], range(4)),
        ([0, 1, 2, 3, 4, 6], range(4)),
        (range(6), [3, 2, 1, 1]),
    ])
    def test_permutation_rejects_non_permutations(self, rows, cols):
        X = np.random.default_rng(46).standard_normal((6, 4))
        with pytest.raises(ValueError, match="must be a permutation of "
                                             "range"):
            check_equivariance_permutation(X, rows, cols,
                                           SolverOptions(alpha=0.5))

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
