"""Monte Carlo harness: ground truth, noise setups, and aggregation."""
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import dpdsvd
from dpdsvd import (
    SimConfig,
    SolverOptions,
    dissimilarity,
    fit_svd,
    make_ground_truth,
    orthogonal_poly_contrasts,
    report_to_csv,
    run_simulation,
    sample_noise,
    sim,
)
from dpdsvd.sim import (
    CONTAMINATION,
    CONTAMINATION_VALUE,
    MethodResult,
    _reduce,
    _replicate,
    canonical_setup,
    format_table,
)


class TestContrasts:
    def test_linear_contrast_three_points(self):
        Q = orthogonal_poly_contrasts(3, 1)
        np.testing.assert_allclose(
            Q[:, 0], np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0), atol=1e-14)

    def test_orthonormal_and_centered(self):
        Q = orthogonal_poly_contrasts(10, 3)
        np.testing.assert_allclose(Q.T @ Q, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(Q.sum(axis=0), 0.0, atol=1e-12)

    def test_columns_are_exact_degree_polynomials(self):
        m = 4
        Q = orthogonal_poly_contrasts(m, 3)
        x = np.arange(1, m + 1, dtype=float)
        for col in range(3):
            deg = col + 1
            coef = np.polyfit(x, Q[:, col], deg)
            fitted = np.polyval(coef, x)
            assert np.max(np.abs(fitted - Q[:, col])) < 1e-10
            if deg > 1:
                low = np.polyfit(x, Q[:, col], deg - 1)
                worse = np.polyval(low, x)
                assert np.max(np.abs(worse - Q[:, col])) > 0.1

    @pytest.mark.parametrize("m,k", [(1, 1), (3, 0), (3, 3), (5, 7)])
    def test_rejects_bad_orders(self, m, k):
        with pytest.raises(ValueError):
            orthogonal_poly_contrasts(m, k)


class TestGroundTruth:
    def test_dimensions_and_rank(self):
        truth = make_ground_truth()
        assert truth.X0.shape == (10, 4)
        sv = np.linalg.svd(truth.X0, compute_uv=False)
        np.testing.assert_allclose(sv[:3], [10.0, 5.0, 3.0], atol=1e-10)
        assert sv[3] < 1e-10

    def test_factor_orthonormality(self):
        truth = make_ground_truth()
        np.testing.assert_allclose(truth.U_true.T @ truth.U_true, np.eye(3),
                                   atol=1e-12)
        np.testing.assert_allclose(truth.V_true.T @ truth.V_true, np.eye(3),
                                   atol=1e-12)


class TestCanonicalSetup:
    def test_case_insensitive(self):
        assert canonical_setup("s2C") == "S2c"
        assert canonical_setup("S1") == "S1"

    def test_unknown_rejected(self):
        for name in ("s9", "clean"):
            with pytest.raises(ValueError):
                canonical_setup(name)


class TestSampleNoise:
    def test_same_seed_is_bit_identical(self):
        for setup in ("S1", "S2b", "S3", "S4", "S5"):
            E1, m1 = sample_noise(setup, np.random.default_rng(123))
            E2, m2 = sample_noise(setup, np.random.default_rng(123))
            np.testing.assert_array_equal(E1, E2)
            if m1 is None:
                assert m2 is None
            else:
                np.testing.assert_array_equal(m1, m2)

    def test_contaminated_draw_order_is_frozen(self):
        # errors first, then the replacement mask, from the same stream
        E, mask = sample_noise("s2c", np.random.default_rng(99))
        assert mask is None
        rng = np.random.default_rng(99)
        want = rng.standard_normal((10, 4))
        want[rng.random((10, 4)) < CONTAMINATION["s2c"]] = CONTAMINATION_VALUE
        np.testing.assert_array_equal(E, want)

    def test_contamination_fraction(self):
        E, _ = sample_noise("S2c", np.random.default_rng(7), shape=(200, 400))
        frac = float(np.mean(E == CONTAMINATION_VALUE))
        assert frac == pytest.approx(0.2, abs=0.01)

    def test_block_setup_mask(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            E, mask = sample_noise("S3", rng)
            assert mask.shape == (10, 4)
            assert mask.sum() == 4
            rows = np.flatnonzero(mask.any(axis=1))
            cols = np.flatnonzero(mask.any(axis=0))
            assert len(rows) == 2 and rows[1] == rows[0] + 1
            assert len(cols) == 2 and cols[1] == cols[0] + 1

    def test_block_draw_order_is_frozen(self):
        E, mask = sample_noise("S3", np.random.default_rng(31))
        rng = np.random.default_rng(31)
        want = rng.standard_normal((10, 4))
        i0 = int(rng.integers(0, 9))
        j0 = int(rng.integers(0, 3))
        np.testing.assert_array_equal(E, want)
        assert mask[i0, j0] and mask[i0 + 1, j0 + 1]

    def test_heavy_tail_median(self):
        E, _ = sample_noise("S4", np.random.default_rng(11),
                            shape=(1000, 1000))
        assert float(np.median(E)) == pytest.approx(0.0, abs=0.01)

    def test_lognormal_is_positive(self):
        E, mask = sample_noise("S5", np.random.default_rng(13))
        assert mask is None
        assert np.all(E > 0)


class TestDissimilarity:
    def test_examples(self):
        u = np.array([1.0, 0.0])
        assert dissimilarity(u, u) == 0.0
        assert dissimilarity(u, -u) == 0.0
        assert dissimilarity(u, np.array([0.0, 1.0])) == 1.0
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert dissimilarity(u, v) == pytest.approx(1.0 - np.sqrt(0.5),
                                                    abs=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            dissimilarity(np.array([2.0, 0.0]), np.array([1.0, 0.0]))


class TestSimConfig:
    def test_normalizes_setup_and_types(self):
        cfg = SimConfig("s2A", replicates=10.0, alphas=[1, 0.5], seed=3.0)
        assert cfg.setup == "S2a"
        assert cfg.replicates == 10
        assert cfg.alphas == (1.0, 0.5)
        assert cfg.seed == 3

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            SimConfig("S1", replicates=0)
        with pytest.raises(ValueError):
            SimConfig("S1", alphas=())
        with pytest.raises(ValueError):
            SimConfig("nope")

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha must be in"):
            SimConfig("S1", alphas=(0.5, 9))

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            SimConfig("S1", seed=-1)
        assert SimConfig("S1", seed=0).seed == 0

    def test_fits_take_the_solver_defaults(self, monkeypatch):
        """Every fit of a run is SolverOptions(alpha=alpha) for its row."""
        seen = []

        def recorded(X, rank, opts):
            seen.append(opts)
            return fit_svd(X, rank, opts)

        monkeypatch.setattr(sim, "fit_svd", recorded)
        run_simulation(SimConfig("S1", replicates=2, alphas=(0.5, 1.0)))
        assert seen == [SolverOptions(alpha=a)
                        for _ in range(2) for a in (0.0, 0.5, 1.0)]


class TestReduce:
    def _sample(self, lams, nonconverged=0):
        k = np.asarray(lams, float)
        return {0.5: (k, np.zeros(3), np.zeros(3), nonconverged)}

    def test_counts_failures_and_aggregates_rest(self):
        samples = [self._sample([9.0, 5.0, 3.0, 0.0], 2), {0.5: None},
                   self._sample([11.0, 5.0, 3.0, 0.0], 1)]
        truth = np.array([10.0, 5.0, 3.0, 0.0])
        row = _reduce(samples, 0.5, "rsvddpd", truth)
        assert row.failures == 1
        assert row.nonconverged == 3
        assert row.sq_bias[0] == pytest.approx(0.0, abs=1e-12)
        assert row.variance[0] == pytest.approx(1.0)
        assert row.mse[0] == pytest.approx(1.0)

    def test_all_failed_is_nan_row(self):
        row = _reduce([{0.5: None}, {0.5: None}], 0.5, "rsvddpd",
                      np.zeros(4))
        assert row.failures == 2
        assert row.nonconverged == 0
        assert np.all(np.isnan(row.mse))
        assert np.all(np.isnan(row.diss_left))

    def test_counts_layers_stopped_at_max_iter(self):
        # S2c seed 43, replicate 80: at alpha 1 layer 0 stops at max_iter
        # near lambda 83, against a top singular value of 52.4 and a true
        # 10. The fit raises nothing, so failures alone reads 0.
        truth = make_ground_truth()
        X = truth.X0 + sample_noise("S2c",
                                    np.random.default_rng([43, 80]))[0]
        cfg = SimConfig("S2c", replicates=1, alphas=(1.0,), seed=43)
        with pytest.warns(RuntimeWarning, match="max_iter"):
            dec = fit_svd(X, 4, SolverOptions(alpha=1.0))
            samples = [_replicate(80, truth, cfg, [0.0, 1.0])]
        assert not dec.diagnostics[0].converged
        lambdas = np.array([10.0, 5.0, 3.0, 0.0])
        svd = _reduce(samples, 0.0, "svd", lambdas)
        robust = _reduce(samples, 1.0, "rsvddpd", lambdas)
        assert (svd.failures, svd.nonconverged) == (0, 0)
        assert robust.failures == 0
        assert robust.nonconverged == sum(not d.converged
                                          for d in dec.diagnostics)


class TestRunSimulation:
    def test_failed_fits_are_counted_and_left_out(self, monkeypatch):
        """A fit that raises FloatingPointError or returns a non-finite
        lambda counts as a failure of its row, and its replicate is left
        out of that row's averages."""
        cfg = SimConfig("S2c", replicates=3, alphas=(0.5,), seed=4)
        truth = make_ground_truth()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            clean = [_replicate(r, truth, cfg, [0.0, 0.5]) for r in range(3)]
        calls = []

        def flaky(X, rank, opts):
            # fits run replicate by replicate, alpha 0 first
            calls.append(opts.alpha)
            if len(calls) == 4:         # replicate 1 at alpha 0.5
                raise FloatingPointError("injected")
            dec = fit_svd(X, rank, opts)
            if len(calls) == 5:         # replicate 2 at alpha 0
                dec.lambdas[1] = np.nan
            return dec

        monkeypatch.setattr(sim, "fit_svd", flaky)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            svd, robust = run_simulation(cfg).rows
        lambdas = np.array([10.0, 5.0, 3.0, 0.0])
        want_svd = _reduce(clean[:2], 0.0, "svd", lambdas)
        want_robust = _reduce(clean[::2], 0.5, "rsvddpd", lambdas)
        assert (svd.failures, robust.failures) == (1, 1)
        for got, want in ((svd, want_svd), (robust, want_robust)):
            assert got.nonconverged == want.nonconverged
            for name in ("sq_bias", "mse", "variance", "diss_left",
                         "diss_right"):
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(want, name))

    def test_noise_free_replicates_recover_exactly(self, monkeypatch):
        # the least squares path reproduces the noise-free truth; positive
        # alpha stops short of the full singular values on noise-free data
        # (see the decomposition tests), so the zero-noise run pins alpha 0
        monkeypatch.setattr(sim, "sample_noise",
                            lambda setup, rng, shape: (np.zeros(shape), None))
        cfg = SimConfig("S1", replicates=3, alphas=(0.0,), seed=1)
        rep = run_simulation(cfg)
        for row in rep.rows:
            assert row.failures == 0
            assert row.sq_bias_total < 1e-10
            assert row.mse_total < 1e-10
            assert row.diss_left_total < 1e-10
            assert row.diss_right_total < 1e-10

    def test_row_layout(self):
        cfg = SimConfig("S1", replicates=4, alphas=(0.5, 1.0), seed=2)
        rep = run_simulation(cfg)
        assert rep.setup == "S1"
        assert [r.method for r in rep.rows] == ["svd", "rsvddpd", "rsvddpd"]
        assert [r.alpha for r in rep.rows] == [0.0, 0.5, 1.0]
        for row in rep.rows:
            assert row.sq_bias.shape == (4,)
            assert row.diss_left.shape == (3,)

    def test_metric_identity_and_bounds(self):
        cfg = SimConfig("S2a", replicates=50, alphas=(0.5,), seed=9)
        rep = run_simulation(cfg)
        for row in rep.rows:
            np.testing.assert_allclose(row.mse - row.sq_bias, row.variance,
                                       atol=1e-10)
            assert np.all(row.sq_bias <= row.mse + 1e-12)
            assert 0.0 <= row.diss_left_total <= 3.0
            assert 0.0 <= row.diss_right_total <= 3.0

    def test_same_seed_same_report(self):
        cfg = SimConfig("S3", replicates=6, alphas=(0.5,), seed=4)
        r1 = run_simulation(cfg)
        r2 = run_simulation(cfg)
        assert report_to_csv(r1) == report_to_csv(r2)
        for a, b in zip(r1.rows, r2.rows):
            np.testing.assert_array_equal(a.mse, b.mse)
            np.testing.assert_array_equal(a.diss_right, b.diss_right)

    def test_thread_count_does_not_change_results(self):
        cfg = SimConfig("S3", replicates=8, alphas=(0.5,), seed=4)
        serial = run_simulation(cfg, threads=1)
        threaded = run_simulation(cfg, threads=4)
        assert report_to_csv(serial) == report_to_csv(threaded)

    def test_replicates_run_in_order_in_the_calling_thread(self,
                                                           monkeypatch):
        calls = []
        replicate = sim._replicate

        def recording(rep, *args):
            calls.append((rep, threading.get_ident()))
            return replicate(rep, *args)

        monkeypatch.setattr(sim, "_replicate", recording)
        cfg = SimConfig("S1", replicates=6, alphas=(0.5,), seed=2)
        run_simulation(cfg, threads=4)
        assert calls == [(r, threading.get_ident()) for r in range(6)]

    @pytest.mark.slow
    def test_heavy_contamination_bias_ordering(self):
        # more aggressive downweighting must reduce squared bias under the
        # 20 percent replacement setup; the gap clears Monte Carlo noise
        # at 1000 replicates
        cfg = SimConfig("S2c", replicates=1000, alphas=(0.1, 1.0), seed=43)
        rep = run_simulation(cfg)
        base, light, heavy = rep.rows
        assert heavy.sq_bias_total < light.sq_bias_total
        assert light.sq_bias_total < base.sq_bias_total


class TestSerialization:
    def _report(self):
        cfg = SimConfig("S1", replicates=3, alphas=(0.5,), seed=8)
        return run_simulation(cfg)

    def test_csv_header_and_shape(self):
        rep = self._report()
        lines = report_to_csv(rep).splitlines()
        assert lines[0] == ("method,setup,alpha,sq_bias,mse,diss_left,"
                            "diss_right,failures,nonconverged")
        assert len(lines) == 1 + len(rep.rows)
        first = lines[1].split(",")
        assert first[0] == "svd" and first[1] == "S1"
        float(first[3])
        int(first[7])
        assert int(first[8]) == 0

    def test_csv_round_trips_totals(self):
        rep = self._report()
        line = report_to_csv(rep).splitlines()[2].split(",")
        assert float(line[2]) == rep.rows[1].alpha
        assert float(line[4]) == rep.rows[1].mse_total

    def test_table_layout(self):
        rep = self._report()
        text = format_table(rep)
        lines = text.splitlines()
        assert len(lines) == 3 + len(rep.rows)
        assert "setup S1" in lines[0] and "seed 8" in lines[0]
        assert lines[1].split()[-2:] == ["failures", "nonconverged"]
        assert lines[3].startswith("svd")
        assert lines[4].startswith("rsvddpd")


class TestMethodResultTotals:
    def test_totals_sum_components(self):
        row = MethodResult("svd", 0.0, np.array([1.0, 2.0]),
                           np.array([3.0, 4.0]), np.array([2.0, 2.0]),
                           np.array([0.1, 0.2, 0.3]),
                           np.array([0.0, 0.0, 0.5]), 0)
        assert row.sq_bias_total == 3.0
        assert row.mse_total == 7.0
        assert row.diss_left_total == pytest.approx(0.6)
        assert row.diss_right_total == 0.5


def test_import_loads_no_pool_modules():
    # a fresh interpreter pays for every module the import loads; with
    # bytecode caching off each one is compiled from source
    pkg = os.path.dirname(os.path.dirname(os.path.abspath(dpdsvd.__file__)))
    code = ("import sys, numpy; before = set(sys.modules); import dpdsvd; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    added = proc.stdout.split()
    assert "dpdsvd" in added
    assert not [m for m in added
                if m.startswith(("concurrent", "multiprocessing"))]
