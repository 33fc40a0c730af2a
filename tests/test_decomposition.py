"""Multi-layer decomposition by residual deflation."""
import warnings

import numpy as np
import pytest

from dpdsvd import (
    RankCollapse,
    RankTooLarge,
    RobustSvd,
    SolverOptions,
    dissimilarity,
    fit_svd,
    orthogonality_report,
    reconstruct,
    sorted_by_lambda,
)
from dpdsvd.sim import make_ground_truth


def rank2_matrix():
    rng = np.random.default_rng(7)
    Qa, _ = np.linalg.qr(rng.standard_normal((10, 2)))
    Qb, _ = np.linalg.qr(rng.standard_normal((4, 2)))
    return 5.0 * np.outer(Qa[:, 0], Qb[:, 0]) + 2.0 * np.outer(Qa[:, 1], Qb[:, 1])


class TestNoiseless:
    def test_rank3_alpha_zero_recovers_truth(self):
        truth = make_ground_truth()
        dec = fit_svd(truth.X0, 3)
        np.testing.assert_allclose(dec.lambdas, truth.lambdas_true, atol=1e-8)
        for k in range(3):
            assert dissimilarity(dec.U[:, k], truth.U_true[:, k]) < 1e-8
            assert dissimilarity(dec.V[:, k], truth.V_true[:, k]) < 1e-8
        off_u, off_v = orthogonality_report(dec)
        assert off_u < 1e-10 and off_v < 1e-10
        np.testing.assert_allclose(reconstruct(dec), truth.X0, atol=1e-8)

    @pytest.mark.xfail(reason="positive alpha shrinks noiseless singular "
                              "values; exact recovery holds only at alpha=0",
                       strict=True)
    def test_rank3_alpha_half_is_not_exact(self):
        truth = make_ground_truth()
        dec = fit_svd(truth.X0, 3, SolverOptions(alpha=0.5))
        np.testing.assert_allclose(dec.lambdas, truth.lambdas_true, rtol=1e-6)

    def test_rank3_alpha_half_deterministic(self):
        # regression pin for the damped noiseless values at alpha=0.5
        truth = make_ground_truth()
        dec = fit_svd(truth.X0, 3, SolverOptions(alpha=0.5))
        np.testing.assert_allclose(
            dec.lambdas,
            [9.273414273079307, 3.3711467729813327, 1.2953133410858335],
            rtol=1e-6)
        assert np.all(np.diff(dec.lambdas) < 0)

    def test_rank2_alpha_zero_exact(self):
        dec = fit_svd(rank2_matrix(), 2)
        np.testing.assert_allclose(dec.lambdas, [5.0, 2.0], atol=1e-8)

    @pytest.mark.xfail(reason="positive alpha shrinks noiseless singular "
                              "values; exact recovery holds only at alpha=0",
                       strict=True)
    def test_rank2_alpha_half_is_not_exact(self):
        dec = fit_svd(rank2_matrix(), 2, SolverOptions(alpha=0.5))
        np.testing.assert_allclose(dec.lambdas, [5.0, 2.0], rtol=1e-6)

    def test_rank2_alpha_half_deterministic(self):
        dec = fit_svd(rank2_matrix(), 2, SolverOptions(alpha=0.5))
        np.testing.assert_allclose(
            dec.lambdas, [2.7639087570673904, 0.7219618082581124], rtol=1e-6)


class TestFitSvd:
    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(61)
        X = rng.standard_normal((9, 4))
        dec = fit_svd(X, 4)
        np.testing.assert_allclose(reconstruct(dec), X, atol=1e-8)
        sv = np.linalg.svd(X, compute_uv=False)
        np.testing.assert_allclose(dec.lambdas, sv, rtol=1e-8)

    def test_shapes_and_diagnostics(self):
        rng = np.random.default_rng(62)
        X = rng.standard_normal((8, 6))
        dec = fit_svd(X, 3, SolverOptions(alpha=0.5))
        assert dec.rank == 3
        assert dec.lambdas.shape == (3,)
        assert dec.U.shape == (8, 3)
        assert dec.V.shape == (6, 3)
        assert dec.sigma2s.shape == (3,)
        assert len(dec.diagnostics) == 3
        for k, d in enumerate(dec.diagnostics):
            assert d.lambda_ == dec.lambdas[k]
            assert d.converged
            assert np.all(np.diff(d.trace) <= 1e-10)

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(63)
        X = rng.standard_normal((10, 7))
        X[0, 0] = 25.0
        for alpha in (0.0, 1.0):
            dec = fit_svd(X, 4, SolverOptions(alpha=alpha))
            np.testing.assert_allclose(dec.U.T @ dec.U, np.eye(4), atol=1e-10)
            np.testing.assert_allclose(dec.V.T @ dec.V, np.eye(4), atol=1e-10)
            off_u, off_v = orthogonality_report(dec)
            assert off_u < 1e-10 and off_v < 1e-10

    def test_second_layer_of_rank1_data_is_negligible(self):
        rng = np.random.default_rng(64)
        u = rng.standard_normal(8)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(5)
        v /= np.linalg.norm(v)
        X = 3.0 * np.outer(u, v)
        dec = fit_svd(X, 2)
        assert dec.lambdas[0] == pytest.approx(3.0, abs=1e-10)
        assert dec.lambdas[1] < 1e-8

    def test_rank_validation(self):
        X = np.ones((6, 4)) + np.eye(6, 4)
        with pytest.raises(ValueError):
            fit_svd(X, 0)
        with pytest.raises(RankTooLarge):
            fit_svd(X, 5)

    def test_max_iter_stop_warns_once_per_layer(self):
        X = make_ground_truth().X0 + np.random.default_rng(66).standard_normal(
            (10, 4))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            dec = fit_svd(X, 3, SolverOptions(alpha=0.5, max_iter=1))
        assert [d.converged for d in dec.diagnostics] == [False] * 3
        assert [str(w.message) for w in caught] == [
            f"layer {k}: stopped at max_iter after 1 iterations without "
            "converging" for k in range(3)]
        assert all(w.category is RuntimeWarning for w in caught)

    def test_zero_matrix_raises_typed_rank_collapse(self):
        with pytest.raises(RankCollapse, match="layer 0: rank collapse"):
            fit_svd(np.zeros((5, 4)), 2)
        assert issubclass(RankCollapse, FloatingPointError)

    def test_layer_annotated_failure(self, monkeypatch):
        from dpdsvd import decomposition as dm

        calls = {"n": 0}
        orig = dm._solve

        def boom(X, opts, ortho_u=None, ortho_v=None, polish=True):
            if calls["n"] >= 1:
                raise FloatingPointError("weights collapsed")
            calls["n"] += 1
            return orig(X, opts, ortho_u=ortho_u, ortho_v=ortho_v,
                        polish=polish)

        monkeypatch.setattr(dm, "_solve", boom)
        rng = np.random.default_rng(65)
        with pytest.raises(FloatingPointError, match="layer 1: weights"):
            fit_svd(rng.standard_normal((6, 5)), 2)


class TestHelpers:
    def test_orthogonality_report_rank1(self):
        rng = np.random.default_rng(66)
        dec = fit_svd(rng.standard_normal((6, 4)), 1)
        assert orthogonality_report(dec) == (0.0, 0.0)

    def test_sorted_by_lambda(self):
        dec = RobustSvd(
            rank=3,
            lambdas=np.array([2.0, 5.0, 3.0]),
            U=np.arange(12, dtype=float).reshape(4, 3),
            V=np.arange(9, dtype=float).reshape(3, 3),
            sigma2s=np.array([0.2, 0.5, 0.3]),
            diagnostics=[{"layer": 0}, {"layer": 1}, {"layer": 2}],
        )
        out = sorted_by_lambda(dec)
        np.testing.assert_array_equal(out.lambdas, [5.0, 3.0, 2.0])
        np.testing.assert_array_equal(out.U, dec.U[:, [1, 2, 0]])
        np.testing.assert_array_equal(out.V, dec.V[:, [1, 2, 0]])
        np.testing.assert_array_equal(out.sigma2s, [0.5, 0.3, 0.2])
        assert [d["layer"] for d in out.diagnostics] == [1, 2, 0]


class TestLayerwiseEquivariance:
    def _deviation(self, da, db, c):
        sgn = 1.0 if c > 0 else -1.0
        return max(
            float(np.max(np.abs(db.lambdas - abs(c) * da.lambdas)
                         / (1.0 + abs(c) * da.lambdas))),
            float(np.max(np.abs(db.U - da.U))),
            float(np.max(np.abs(db.V - sgn * da.V))),
            float(np.max(np.abs(db.sigma2s - c * c * da.sigma2s)
                         / (1.0 + c * c * da.sigma2s))),
        )

    def test_scaling_all_layers(self):
        truth = make_ground_truth()
        rng = np.random.default_rng(55)
        X = truth.X0 + 0.1 * rng.standard_normal(truth.X0.shape)
        for alpha, tol in ((0.0, 1e-12), (0.5, 1e-8)):
            opts = SolverOptions(alpha=alpha)
            da = fit_svd(X, 3, opts)
            for c in (3.0, -2.0):
                db = fit_svd(c * X, 3, opts)
                assert self._deviation(da, db, c) <= tol
