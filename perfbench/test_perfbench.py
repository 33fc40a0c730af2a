"""Tests of the benchmark itself: python3 -m pytest perfbench

Each output check must reject a wrong output, the traced run's counts
must repeat exactly, and the benchmark must refuse to run without the
program's sources.
"""
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads as W  # noqa: E402
from dpdsvd import Rank1Fit, RobustSvd, SimConfig, run_simulation  # noqa: E402

COUNTS = [name for name, unit in spans.PER_LAYER if unit == "count"]


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- study

@pytest.fixture(scope="module")
def study_report():
    seed = W.study_pool(5)[0]
    cfg = SimConfig(W.STUDY_SETUP, replicates=W.STUDY_REPLICATES,
                    alphas=W.STUDY_ALPHAS, seed=seed)
    return seed, run_simulation(cfg)


def test_study_check_accepts_the_program(study_report):
    seed, report = study_report
    assert W.check_study(report, seed) == []


def _with_row(report, k, **changes):
    rows = list(report.rows)
    rows[k] = replace(rows[k], **changes)
    return replace(report, rows=rows)


def test_study_check_rejects_wrong_baseline(study_report):
    seed, report = study_report
    base = report.rows[0]
    bad = _with_row(report, 0, sq_bias=base.sq_bias * (1 + 1e-4),
                    mse=base.mse + base.sq_bias * 1e-4)
    assert any("alpha-0 sq_bias" in p for p in W.check_study(bad, seed))
    bad = _with_row(report, 0, diss_left=base.diss_left + 1e-3)
    assert any("diss_left" in p for p in W.check_study(bad, seed))
    # the right numbers for another batch are wrong for this one
    assert W.check_study(report, seed + 1)


def test_study_check_rejects_broken_identity_and_band(study_report):
    seed, report = study_report
    row = report.rows[1]
    bad = _with_row(report, 1, variance=row.variance + 1e-3)
    assert any("mse - sq_bias" in p for p in W.check_study(bad, seed))
    big = report.rows[0].sq_bias * 0.2
    bad = _with_row(report, 2, sq_bias=big, mse=big + report.rows[2].variance)
    assert W.study_bias_ratio(bad) == pytest.approx(0.2)
    ratio = W.study_bias_ratio(report)
    assert ratio < W.STUDY_BIAS_BAND
    assert W.check_study_band([ratio, ratio, 0.2]) == []
    assert any("not below" in p
               for p in W.check_study_band([ratio, 0.2, 0.2]))
    assert W.check_study_band([])
    bad = _with_row(report, 1, failures=1)
    assert any("failures" in p for p in W.check_study(bad, seed))


# ---------------------------------------------------------------- large

def planted_decomposition():
    """A RobustSvd equal to the planted truth, with descending traces."""
    _, lams, U0, V0 = W.permuted_planted(0, W.LARGE_SHAPE)
    diags = [Rank1Fit(lambda_=lams[k], u=U0[:, k], v=V0[:, k], sigma2=1.0,
                      iterations=5, converged=True,
                      trace=np.array([3.0, 2.0, 1.0, 1.0]))
             for k in range(3)]
    dec = RobustSvd(rank=3, lambdas=lams.copy(), U=U0.copy(), V=V0.copy(),
                    sigma2s=np.ones(3), diagnostics=diags)
    return dec, lams, U0, V0


def test_large_check_accepts_the_truth():
    dec, lams, U0, V0 = planted_decomposition()
    assert W.check_large(dec, lams, U0, V0) == []


def test_large_check_rejects_perturbed_lambda():
    dec, lams, U0, V0 = planted_decomposition()
    dec.lambdas[1] *= 1.0 + 2 * W.LARGE_LAMBDA_RTOL
    assert any("lambdas" in p for p in W.check_large(dec, lams, U0, V0))


def test_large_check_rejects_non_orthonormal_u():
    dec, lams, U0, V0 = planted_decomposition()
    dec.U[:, 2] = dec.U[:, 2] + 1e-6 * dec.U[:, 0]
    problems = W.check_large(dec, lams, U0, V0)
    assert any("U not orthonormal" in p for p in problems)


def test_large_check_rejects_wrong_subspace():
    dec, lams, U0, V0 = planted_decomposition()
    dec.V = dec.V[:, [1, 0, 2]]
    assert any("V[:, 0]" in p for p in W.check_large(dec, lams, U0, V0))


def test_large_check_rejects_rising_trace_and_nonconvergence():
    dec, lams, U0, V0 = planted_decomposition()
    dec.diagnostics[1].trace = np.array([3.0, 2.0, 2.0 + 1e-9, 1.0])
    dec.diagnostics[2].converged = False
    problems = W.check_large(dec, lams, U0, V0)
    assert any("layer 1: trace rises" in p for p in problems)
    assert any("layer 2: not converged" in p for p in problems)


def test_seeds_permute_one_problem():
    X1, lams, U1, V1 = W.permuted_planted(1, W.LARGE_SHAPE)
    X2, _, U2, V2 = W.permuted_planted(2, W.LARGE_SHAPE)
    assert not np.array_equal(X1, X2)
    assert np.array_equal(np.sort(X1, axis=None), np.sort(X2, axis=None))
    noise1 = X1 - (U1 * lams) @ V1.T
    noise2 = X2 - (U2 * lams) @ V2.T
    np.testing.assert_allclose(np.sort(noise1, axis=None),
                               np.sort(noise2, axis=None), atol=1e-9)
    assert W.study_pool(1) != W.study_pool(2)
    assert sorted(W.study_pool(1)) == sorted(W.study_pool(2))


# ---------------------------------------------------------------- cli

def svd_payload(X):
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    r = W.CLI_RANK
    return {"lambdas": s[:r].tolist(), "u": U[:, :r].tolist(),
            "v": Vt[:r].T.tolist(), "sigma2": [1.0] * r,
            "diagnostics": [{"layer": k, "iterations": 3, "converged": True,
                             "trace": [2.0, 1.5, 1.5]} for k in range(r)]}


def test_cli_check_accepts_the_svd_and_rejects_wrong_outputs():
    X = W.planted(0, (60, 8))[0]
    assert W.check_cli(svd_payload(X), X) == []
    bad = svd_payload(X)
    bad["lambdas"][0] *= 1.0 + 1e-5
    assert any("lambdas" in p for p in W.check_cli(bad, X))
    bad = svd_payload(X)
    for row in bad["u"]:
        row[0], row[1] = row[1], row[0]
    assert any("u[0]" in p for p in W.check_cli(bad, X))
    bad = svd_payload(X)
    bad["diagnostics"][2]["trace"] = [2.0, 1.0, 1.1]
    assert any("layer 2: trace rises" in p for p in W.check_cli(bad, X))
    assert W.check_cli({"lambdas": [1.0]}, X)


# ---------------------------------------------------------------- spans

def test_installed_restores_the_program():
    import dpdsvd.decomposition
    import dpdsvd.rank1
    before = (dpdsvd.rank1.weights, dpdsvd.decomposition._solve)
    with spans.installed(spans.Tracer()):
        assert dpdsvd.rank1.weights is not before[0]
    assert (dpdsvd.rank1.weights, dpdsvd.decomposition._solve) == before


@pytest.mark.parametrize("workload", ["study", "cli", "large"])
def test_traced_counts_repeat_exactly(workload):
    runs = [last_json(run_bench("--workload", workload, "--seed", "3",
                                "--seconds", "1", "--trace", "1"))
            for _ in range(2)]
    for r in runs:
        assert r["correct"] and r["failed"] == 0
        assert set(r["metrics"]) == {name for name, _ in spans.PER_LAYER}
    for name in COUNTS:
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name], name
    m = runs[0]["metrics"]
    assert m["objective.weights_calls"]["value"] > 0
    assert m["rank1.iterations"]["value"] > 0
    assert m["rank1.self_s"]["value"] > 0


def test_untraced_run_reports_the_end_to_end_metrics():
    r = last_json(run_bench("--workload", "cli", "--seed", "4",
                            "--seconds", "1", "--trace", "0"))
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in bench["end_to_end"]:
        got = r["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "study", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path,
                     script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
