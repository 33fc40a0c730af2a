"""Weight function, per-cell divergence, and scalar objective."""
import numpy as np
import pytest

from dpdsvd import ObjectiveValue, Rank1Fit, objective, psi, v_cell
from dpdsvd.objective import _cells, _mean, check_alpha, h_value, weights


def brute_force_h(X, lam, u, v, s2, alpha):
    """Independent double-loop summation oracle for the objective."""
    n, p = X.shape
    total = 0.0
    for i in range(n):
        for j in range(p):
            total += v_cell(X[i, j], lam * u[i], v[j], s2, alpha)
    return total / (n * p)


class TestAlpha:
    def test_accepts_zero_and_cap(self):
        assert check_alpha(0.0) == 0.0
        assert check_alpha(8.0) == 8.0

    @pytest.mark.parametrize("bad", [-0.1, 8.0001, np.nan, np.inf])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            check_alpha(bad)


class TestPsi:
    def test_zero_residual(self):
        assert psi(0.0, 0.5) == 1.0

    def test_alpha_zero_is_constant_one(self):
        for x in (0.0, 0.3, 2.0, 50.0):
            assert psi(x, 0.0) == 1.0

    def test_closed_form_point(self):
        assert psi(1.0, 1.0) == pytest.approx(np.exp(-0.5), rel=1e-15)

    def test_non_increasing_and_strict_for_positive_alpha(self):
        xs = np.linspace(0.0, 6.0, 101)
        for alpha in (0.0, 0.1, 1.0, 8.0):
            w = psi(xs, alpha)
            assert np.all(np.diff(w) <= 0)
            if alpha > 0:
                assert np.all(np.diff(w) < 0)

    def test_x_squared_psi_bounded_by_2_over_alpha_e(self):
        xs = np.linspace(0.0, 50.0, 20001)
        for alpha in (0.1, 0.5, 1.0, 8.0):
            vals = xs * xs * psi(xs, alpha)
            assert np.max(vals) <= 2.0 / (alpha * np.e) + 1e-12


class TestVCell:
    def test_zero_residual_unit_variance_closed_form(self):
        # exponent vanishes, leaving the two constants of the alpha=0.5 case
        want = 1.5 ** -0.5 - 3.0
        assert v_cell(2.0, 1.0, 2.0, 1.0, 0.5) == pytest.approx(want, abs=1e-15)

    def test_alpha_zero_anchored_at_zero(self):
        assert v_cell(2.0, 1.0, 2.0, 1.0, 0.0) == 0.0

    def test_symmetric_in_residual_sign(self):
        for alpha in (0.0, 0.7):
            for d in (0.1, 1.3, 7.0):
                up = v_cell(2.0 + d, 1.0, 2.0, 0.8, alpha)
                dn = v_cell(2.0 - d, 1.0, 2.0, 0.8, alpha)
                assert up == pytest.approx(dn, rel=1e-14)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            v_cell(1.0, 1.0, 1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            v_cell(1.0, 1.0, 1.0, -1.0, 0.0)

    def test_row_minimizer_matches_weighted_average_formula(self):
        # the 1-D minimum over the row coefficient, located by search over
        # v_cell sums alone, must agree with the self-consistent psi-weighted
        # average.  Golden-section stalls at ~sqrt(eps) on a flat quadratic,
        # so refine by bisecting the sign of a central-difference derivative.
        rng = np.random.default_rng(11)
        x = rng.standard_normal(6) * 2.0
        b = rng.standard_normal(6)
        s2 = 0.7
        alpha = 0.5

        def row_h(a):
            return sum(v_cell(x[j], a, b[j], s2, alpha) for j in range(6))

        lo, hi = -10.0, 10.0
        phi = (np.sqrt(5.0) - 1.0) / 2.0
        c, d = hi - phi * (hi - lo), lo + phi * (hi - lo)
        for _ in range(80):
            if row_h(c) < row_h(d):
                hi, d = d, c
                c = hi - phi * (hi - lo)
            else:
                lo, c = c, d
                d = lo + phi * (hi - lo)
        coarse = (lo + hi) / 2.0

        def slope(a, h=1e-5):
            return row_h(a + h) - row_h(a - h)

        lo, hi = coarse - 1e-3, coarse + 1e-3
        assert slope(lo) < 0 < slope(hi)
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if slope(mid) < 0:
                lo = mid
            else:
                hi = mid
        a_star = (lo + hi) / 2.0

        a = 0.0
        for _ in range(500):
            w = np.exp(-alpha * (x - a * b) ** 2 / (2.0 * s2))
            a = float((b * x * w).sum() / (b * b * w).sum())
        assert a == pytest.approx(a_star, abs=1e-8)


class TestObjective:
    def _fit(self, lam, u, v, s2):
        return Rank1Fit(lambda_=lam, u=np.asarray(u, float),
                        v=np.asarray(v, float), sigma2=s2, iterations=0,
                        converged=True, trace=np.array([]))

    def test_exact_rank1_constant_cells(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(7)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(5)
        v /= np.linalg.norm(v)
        X = 2.5 * np.outer(u, v)
        for alpha, s2 in ((0.5, 0.9), (1.0, 2.0)):
            got = objective(X, self._fit(2.5, u, v, s2), alpha)
            want = s2 ** (-alpha / 2.0) * ((1 + alpha) ** -0.5 - (1 + 1 / alpha))
            assert got.h == pytest.approx(want, rel=1e-13)

    def test_joint_sign_flip_invariance(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((6, 4))
        u = rng.standard_normal(6)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        h1 = objective(X, self._fit(1.7, u, v, 0.6), 0.8).h
        h2 = objective(X, self._fit(1.7, -u, -v, 0.6), 0.8).h
        assert h1 == h2

    def test_matches_brute_force_double_loop(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((5, 4))
        u = rng.standard_normal(5)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        for alpha in (0.0, 0.5, 1.3):
            got = objective(X, self._fit(1.2, u, v, 0.8), alpha)
            want = brute_force_h(X, 1.2, u, v, 0.8, alpha)
            assert got.h == pytest.approx(want, rel=1e-12)

    def test_result_mean_consistency(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((8, 3))
        u = rng.standard_normal(8)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        res = objective(X, self._fit(0.9, u, v, 1.1), 0.4)
        assert isinstance(res, ObjectiveValue)
        assert res.per_cell.shape == X.shape
        assert res.h == pytest.approx(float(res.per_cell.mean()), rel=1e-12)

    def test_lower_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            X = rng.standard_normal((6, 5)) * rng.uniform(0.1, 10.0)
            u = rng.standard_normal(6)
            u /= np.linalg.norm(u)
            v = rng.standard_normal(5)
            v /= np.linalg.norm(v)
            s2 = rng.uniform(0.05, 4.0)
            alpha = rng.uniform(0.05, 2.0)
            h = objective(X, self._fit(rng.uniform(0, 5), u, v, s2), alpha).h
            bound = s2 ** (-alpha / 2.0) * ((1 + alpha) ** -0.5 - (1 + 1 / alpha))
            assert h >= bound - 1e-12

    def test_scale_identity_for_positive_alpha(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((6, 4))
        u = rng.standard_normal(6)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        lam, s2 = 1.4, 0.7
        for alpha in (0.3, 1.0):
            for c in (0.5, 3.0):
                lhs = objective(c * X, self._fit(c * lam, u, v, c * c * s2),
                                alpha).h
                rhs = c ** -alpha * objective(X, self._fit(lam, u, v, s2),
                                              alpha).h
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        X = np.zeros((4, 3))
        bad = self._fit(1.0, np.ones(5) / np.sqrt(5), np.ones(3) / np.sqrt(3), 1.0)
        with pytest.raises(ValueError):
            objective(X, bad, 0.5)

    def test_h_value_fast_path_agrees(self):
        rng = np.random.default_rng(9)
        e = rng.standard_normal((7, 5))
        for alpha in (0.0, 0.6):
            fast = h_value(e, 0.9, alpha)
            slow = np.mean([v_cell(e[i, j], 0.0, 1.0, 0.9, alpha)
                            for i in range(7) for j in range(5)])
            assert fast == pytest.approx(slow, rel=1e-12)

    def test_h_value_with_precomputed_weights_is_identical(self):
        rng = np.random.default_rng(10)
        e = rng.standard_normal((6, 4))
        for alpha in (0.0, 0.6, 2.0):
            W = weights(e, 0.7, alpha)
            assert h_value(e, 0.7, alpha, W) == h_value(e, 0.7, alpha)


MEAN_LAYOUTS = {
    "1-D": lambda A: A.ravel(),
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "transposed view": lambda A: A.T,
}


class TestMean:
    """_mean is np.mean's reduction and division without its dispatch."""

    @pytest.mark.parametrize("shape", [(1, 1), (7, 1), (10, 4), (43, 3),
                                       (2000, 200)])
    @pytest.mark.parametrize("layout", sorted(MEAN_LAYOUTS))
    def test_matches_np_mean_bit_for_bit(self, shape, layout):
        rng = np.random.default_rng([12, *shape])
        base = rng.standard_normal(shape)
        for scale in (1e-150, 1e-75, 1e-10, 1.0, 1e10, 1e75, 1e150):
            x = MEAN_LAYOUTS[layout](base * scale)
            got = _mean(x)
            want = np.mean(x)
            assert type(got) is type(want)
            assert got == want

    @pytest.mark.parametrize("shape", [(1, 1), (7, 1), (10, 4), (43, 3),
                                       (2000, 200)])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    def test_stack_matches_each_matrix(self, shape, alpha):
        """h_value of a (k, n, p) stack, with or without its weights,
        equals h_value of each matrix bit for bit."""
        k = 2 if shape == (2000, 200) else 5
        base = np.random.default_rng([13, *shape]).standard_normal((k, *shape))
        for scale in (1e-150, 1e-75, 1e-10, 1.0, 1e10, 1e75, 1e150):
            e = base * scale
            s2 = 0.7 * scale * scale
            W = weights(e, s2, alpha)
            for given in (None, W):
                got = h_value(e, s2, alpha, given)
                want = [h_value(e[i], s2, alpha,
                                None if given is None else given[i])
                        for i in range(k)]
                assert type(want[0]) is float
                assert got.shape == (k,)
                assert np.array_equal(got, want)
            assert np.array_equal(_mean(e), [_mean(m) for m in e])


def plain_weights(e, sigma2, alpha):
    """weights as the plain expression that its in-place pass replaced."""
    return np.exp(-alpha * e * e / (2.0 * sigma2))


def plain_cells(e, sigma2, alpha):
    """_cells as the plain expressions that its in-place passes replaced."""
    if alpha == 0.0:
        return e * e / (2.0 * sigma2) + 0.5 * np.log(sigma2)
    c1 = (1.0 + alpha) ** -0.5
    c2 = 1.0 + 1.0 / alpha
    return sigma2 ** (-alpha / 2.0) * (c1 - c2 * plain_weights(e, sigma2,
                                                               alpha))


def same_bits(got, want):
    """got and want hold the same float64 values, bit for bit (signed
    zeros too), at the same shape."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype == float
            and got.tobytes() == want.tobytes())


def residual_draw(shape, seed):
    """Residuals at mixed scales, with zeros of both signs, gross cells
    and cells whose weights underflow to 0."""
    rng = np.random.default_rng([14, seed, *shape])
    e = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    if e.ndim:
        flat = e.reshape(-1)
        flat[::5] = 25.0
        flat[1::7] = 0.0
        flat[2::7] = -0.0
        flat[3::11] = -1e150
    return e


class TestInPlacePasses:
    """weights and _cells build one output array each, in place, and
    give the plain expressions bit for bit on every input shape."""

    @pytest.mark.parametrize("shape", [(), (7,), (10, 4), (3, 10, 4)],
                             ids=["0-d", "1-D", "2-D", "stack"])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    def test_match_plain_expressions(self, shape, alpha):
        e = residual_draw(shape, 0)
        rng = np.random.default_rng([15, *shape])
        for s2 in (0.7, 3e-5, 4e12, np.asarray(2.5),
                   rng.uniform(0.1, 10.0, shape)):
            if alpha > 0.0:
                W = weights(e, s2, alpha)
                assert same_bits(W, plain_weights(e, s2, alpha))
                W_kept = W.copy()
                assert same_bits(_cells(e, s2, alpha, W),
                                 plain_cells(e, s2, alpha))
                assert same_bits(W, W_kept)    # the caller's W is read only
            assert same_bits(_cells(e, s2, alpha), plain_cells(e, s2, alpha))
            if e.ndim == 3:
                want = [_mean(plain_cells(e[i], s2 if np.ndim(s2) < 3
                                          else s2[i], alpha))
                        for i in range(e.shape[0])]
                assert same_bits(h_value(e, s2, alpha), want)
            elif e.ndim == 2:
                assert same_bits(h_value(e, s2, alpha),
                                 _mean(plain_cells(e, s2, alpha)))

    def test_psi_scalar_and_array(self):
        """psi of a 0-d x is a float; it used to fail when the in-place
        exp was handed the scalar a 0-d product gives."""
        for x in (0.0, 1.3, 40.0):
            got = psi(x, 0.5)
            assert type(got) is float
            assert got == float(plain_weights(np.float64(x), 1.0, 0.5))
        xs = np.linspace(0.0, 6.0, 13)
        assert same_bits(psi(xs, 0.5), plain_weights(xs, 1.0, 0.5))

    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    def test_v_cell_with_array_sigma2(self, alpha):
        """v_cell broadcasts like the plain expression, also when sigma2
        has more cells than x, a and b."""
        rng = np.random.default_rng(16)
        s2 = rng.uniform(0.1, 4.0, (3, 4))
        x = rng.standard_normal((3, 4))
        b = rng.standard_normal(4)
        assert same_bits(v_cell(x, 1.3, b, s2, alpha),
                         plain_cells(x - 1.3 * b, s2, alpha))
        assert same_bits(v_cell(2.0, 1.0, 1.5, s2, alpha),
                         plain_cells(np.float64(0.5), s2, alpha))
        assert same_bits(v_cell(x, 1.3, b, s2[0], alpha),
                         plain_cells(x - 1.3 * b, s2[0], alpha))
        got = v_cell(2.0, 1.0, 1.5, 0.8, alpha)
        assert type(got) is float
        assert got == float(plain_cells(np.float64(0.5), 0.8, alpha))

    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    def test_objective_cells(self, alpha):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((9, 5))
        u = rng.standard_normal(9)
        v = rng.standard_normal(5)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        got = objective(X, (1.7, u, v, 0.6), alpha)
        want = plain_cells(X - 1.7 * np.outer(u, v), np.asarray(0.6), alpha)
        assert same_bits(got.per_cell, want)
        assert got.h == float(np.mean(want))
