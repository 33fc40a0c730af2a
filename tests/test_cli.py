"""Command line interface: argument handling, outputs, exit codes."""
import json

import numpy as np
import pytest

from dpdsvd.cli import main
from dpdsvd.sim import make_ground_truth


@pytest.fixture
def truth_csv(tmp_path):
    path = tmp_path / "x0.csv"
    np.savetxt(path, make_ground_truth().X0, delimiter=",")
    return path


def run(argv):
    return main([str(a) for a in argv])


class TestDecompose:
    def test_noiseless_least_squares(self, truth_csv, tmp_path):
        out = tmp_path / "dec.json"
        code = run(["decompose", "--input", truth_csv, "--output", out,
                    "--rank", "3"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"lambdas", "u", "v", "sigma2", "diagnostics"}
        np.testing.assert_allclose(payload["lambdas"], [10.0, 5.0, 3.0],
                                   atol=1e-6)

    @pytest.mark.xfail(reason="positive alpha shrinks noiseless singular "
                              "values; exact recovery holds only at alpha=0",
                       strict=True)
    def test_noiseless_alpha_half_is_not_exact(self, truth_csv, tmp_path):
        out = tmp_path / "dec.json"
        assert run(["decompose", "--input", truth_csv, "--output", out,
                    "--rank", "3", "--alpha", "0.5"]) == 0
        payload = json.loads(out.read_text())
        np.testing.assert_allclose(payload["lambdas"], [10.0, 5.0, 3.0],
                                   rtol=1e-6)

    def test_rank_collapse_exits_3(self, tmp_path, capsys):
        path = tmp_path / "zeros.csv"
        np.savetxt(path, np.zeros((5, 4)), delimiter=",")
        code = run(["decompose", "--input", path, "--output",
                    tmp_path / "dec.json", "--rank", "2"])
        assert code == 3
        assert "layer 0: rank collapse" in capsys.readouterr().err

    def test_json_round_trip(self, truth_csv, tmp_path):
        out = tmp_path / "dec.json"
        assert run(["decompose", "--input", truth_csv, "--output", out,
                    "--rank", "3"]) == 0
        payload = json.loads(out.read_text())
        U = np.array(payload["u"])
        V = np.array(payload["v"])
        lams = np.array(payload["lambdas"])
        X = np.loadtxt(truth_csv, delimiter=",")
        assert np.max(np.abs((U * lams) @ V.T - X)) < 1e-12
        diags = payload["diagnostics"]
        assert [d["layer"] for d in diags] == [0, 1, 2]
        assert all(d["converged"] for d in diags)

    def test_csv_format_sections(self, truth_csv, tmp_path):
        out = tmp_path / "dec.csv"
        assert run(["decompose", "--input", truth_csv, "--output", out,
                    "--rank", "2", "--format", "csv"]) == 0
        text = out.read_text()
        for section in ("# lambdas", "# U", "# V", "# sigma2",
                        "# diagnostics"):
            assert section in text
        lam_line = text.splitlines()[1]
        lams = [float(t) for t in lam_line.split(",")]
        assert lams[0] == pytest.approx(10.0, abs=1e-6)

    def test_rerun_is_byte_identical(self, truth_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["decompose", "--input", truth_csv, "--output", a, "--rank", "3",
             "--alpha", "0.5"])
        run(["decompose", "--input", truth_csv, "--output", b, "--rank", "3",
             "--alpha", "0.5"])
        assert a.read_bytes() == b.read_bytes()

    def test_header_flag_skips_first_row(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("c1,c2,c3\n" + "\n".join(
            ",".join(str(v) for v in row)
            for row in np.eye(4, 3) + 0.1) + "\n")
        out = tmp_path / "dec.json"
        assert run(["decompose", "--input", path, "--output", out,
                    "--rank", "1", "--header"]) == 0
        assert run(["decompose", "--input", path, "--output", out,
                    "--rank", "1"]) == 2

    def test_rank_zero_exits_2_with_usage(self, truth_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["decompose", "--input", truth_csv,
                 "--output", tmp_path / "o", "--rank", "0"])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_rank_too_large_exits_2(self, truth_csv, tmp_path, capsys):
        code = run(["decompose", "--input", truth_csv,
                    "--output", tmp_path / "o", "--rank", "5"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path):
        assert run(["decompose", "--input", tmp_path / "nope.csv",
                    "--output", tmp_path / "o", "--rank", "1"]) == 2

    def test_non_numeric_input_exits_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\nc,d\n")
        assert run(["decompose", "--input", path,
                    "--output", tmp_path / "o", "--rank", "1"]) == 2

    def test_non_finite_input_exits_2(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("1.0,nan\n2.0,3.0\n")
        assert run(["decompose", "--input", path,
                    "--output", tmp_path / "o", "--rank", "1"]) == 2


class TestSimulate:
    def test_writes_csv_and_prints_table(self, tmp_path, capsys):
        out = tmp_path / "rep.csv"
        code = run(["simulate", "--setup", "s1", "--replicates", "3",
                    "--alphas", "0.5,1.0", "--seed", "5", "--output", out])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == \
            "method,setup,alpha,sq_bias,mse,diss_left,diss_right,failures"
        assert len(lines) == 4
        table = capsys.readouterr().out
        assert "setup S1" in table and "seed 5" in table
        assert "rsvddpd" in table

    def test_unknown_setup_exits_2(self, tmp_path, capsys):
        assert run(["simulate", "--setup", "s9",
                    "--output", tmp_path / "r.csv",
                    "--replicates", "2"]) == 2
        assert "unknown setup" in capsys.readouterr().err

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RSVD_SEED", "7")
        out = tmp_path / "rep.csv"
        assert run(["simulate", "--setup", "S1", "--replicates", "2",
                    "--alphas", "0.5", "--output", out]) == 0
        assert "seed 7" in capsys.readouterr().out

    def test_explicit_seed_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RSVD_SEED", "7")
        out = tmp_path / "rep.csv"
        assert run(["simulate", "--setup", "S1", "--replicates", "2",
                    "--alphas", "0.5", "--seed", "9", "--output", out]) == 0
        assert "seed 9" in capsys.readouterr().out

    def test_threads_give_identical_file(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["simulate", "--setup", "S3", "--replicates", "4",
                "--alphas", "0.5", "--seed", "3"]
        run(base + ["--output", a, "--threads", "1"])
        run(base + ["--output", b, "--threads", "3"])
        assert a.read_bytes() == b.read_bytes()

    def test_replicates_and_full_scale_conflict(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--setup", "S1", "--replicates", "2",
                 "--full-scale", "--output", tmp_path / "r.csv"])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestBench:
    def test_prints_grid(self, capsys):
        assert run(["bench", "--rows", "8,16", "--cols", "5",
                    "--alphas", "0.0,0.5", "--reps", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,0.0,0.5"
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "8"

    def test_bad_rows_exit_2(self, capsys):
        assert run(["bench", "--rows", "1,8", "--cols", "5",
                    "--alphas", "0.5", "--reps", "1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

    def test_rejects_bad_alpha_list(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--setup", "S1", "--alphas", "x,y",
                 "--output", tmp_path / "r.csv"])
        assert exc.value.code == 2
