"""Command line interface: argument handling, outputs, exit codes."""
import inspect
import json
import warnings

import numpy as np
import pytest

from dpdsvd import SimConfig, SolverOptions, cli, run_timing_bench
from dpdsvd.cli import main
from dpdsvd.sim import FULL_REPLICATES, make_ground_truth


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

    def test_non_positive_eps_sigma_exits_2(self, truth_csv, tmp_path, capsys):
        code = run(["decompose", "--input", truth_csv,
                    "--output", tmp_path / "o", "--rank", "1",
                    "--eps-sigma", "0"])
        assert code == 2
        assert ("eps_sigma must be a finite positive number"
                in capsys.readouterr().err)

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

    def test_unwritable_output_exits_2(self, truth_csv, tmp_path, capsys):
        out = tmp_path / "missing" / "dec.json"
        assert run(["decompose", "--input", truth_csv, "--output", out,
                    "--rank", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("dpdsvd: error: cannot write")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("text, header", [("", False),
                                              ("a,b,c\n", True)])
    def test_empty_input_prints_one_line(self, tmp_path, capsys, text,
                                         header):
        """No data rows: one error line, with loadtxt's warning silenced."""
        path = tmp_path / "empty.csv"
        path.write_text(text)
        out = tmp_path / "o.json"
        argv = ["decompose", "--input", path, "--output", out, "--rank", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv + ["--header"] * header) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("from_env", [False, True])
    def test_negative_seed_exits_2_and_writes_nothing(
            self, truth_csv, tmp_path, capsys, monkeypatch, from_env):
        out = tmp_path / "dec.json"
        argv = ["decompose", "--input", truth_csv, "--output", out,
                "--rank", "1", "--alpha", "0.5", "--init", "random"]
        if from_env:
            monkeypatch.setenv("RSVD_SEED", "-1")
        else:
            argv += ["--seed", "-1"]
        assert run(argv) == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_unset_flags_take_the_solver_defaults(self, monkeypatch):
        monkeypatch.delenv("RSVD_SEED", raising=False)
        args = cli.build_parser().parse_args(
            ["decompose", "--input", "x.csv", "--output", "o", "--rank", "1"])
        assert cli._solver_options(args) == SolverOptions()

    def test_malformed_env_seed_exits_2(self, truth_csv, tmp_path, capsys,
                                        monkeypatch):
        monkeypatch.setenv("RSVD_SEED", "abc")
        assert run(["decompose", "--input", truth_csv,
                    "--output", tmp_path / "o", "--rank", "1",
                    "--alpha", "0.5"]) == 2
        assert "RSVD_SEED must be an integer" in capsys.readouterr().err


class TestSimulate:
    def test_writes_csv_and_prints_table(self, tmp_path, capsys):
        out = tmp_path / "rep.csv"
        code = run(["simulate", "--setup", "s1", "--replicates", "3",
                    "--alphas", "0.5,1.0", "--seed", "5", "--output", out])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("method,setup,alpha,sq_bias,mse,diss_left,"
                            "diss_right,failures,nonconverged")
        assert len(lines) == 4
        table = capsys.readouterr().out
        assert "setup S1" in table and "seed 5" in table
        assert "rsvddpd" in table

    def test_unknown_setup_exits_2(self, tmp_path, capsys):
        assert run(["simulate", "--setup", "s9",
                    "--output", tmp_path / "r.csv",
                    "--replicates", "2"]) == 2
        assert "unknown setup" in capsys.readouterr().err

    def test_bad_alpha_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        assert run(["simulate", "--setup", "S1", "--replicates", "2",
                    "--alphas", "9", "--output", out]) == 2
        assert "alpha must be in" in capsys.readouterr().err
        assert not out.exists()

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RSVD_SEED", "7")
        out = tmp_path / "rep.csv"
        assert run(["simulate", "--setup", "S1", "--replicates", "2",
                    "--alphas", "0.5", "--output", out]) == 0
        assert "seed 7" in capsys.readouterr().out

    @pytest.mark.parametrize("from_env", [False, True])
    def test_negative_seed_exits_2_and_writes_nothing(
            self, tmp_path, capsys, monkeypatch, from_env):
        out = tmp_path / "rep.csv"
        argv = ["simulate", "--setup", "S1", "--replicates", "2",
                "--output", out]
        if from_env:
            monkeypatch.setenv("RSVD_SEED", "-1")
        else:
            argv += ["--seed", "-1"]
        assert run(argv) == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, want", [
        ([], SimConfig("S1")),
        (["--full-scale"], SimConfig("S1", replicates=FULL_REPLICATES))])
    def test_unset_flags_take_the_sim_config_defaults(
            self, tmp_path, monkeypatch, flags, want):
        monkeypatch.delenv("RSVD_SEED", raising=False)
        seen = []

        def recorded(cfg, threads):
            seen.append(cfg)
            raise ValueError("stop")
        monkeypatch.setattr(cli, "run_simulation", recorded)
        assert run(["simulate", "--setup", "s1",
                    "--output", tmp_path / "r.csv"] + flags) == 2
        assert seen == [want]

    def test_malformed_env_seed_exits_2(self, tmp_path, capsys,
                                        monkeypatch):
        monkeypatch.setenv("RSVD_SEED", "abc")
        assert run(["simulate", "--setup", "S1", "--replicates", "2",
                    "--alphas", "0.5", "--output", tmp_path / "r.csv"]) == 2
        assert "RSVD_SEED must be an integer" in capsys.readouterr().err

    def test_unwritable_output_exits_2_before_the_run(self, tmp_path, capsys,
                                                      monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("the simulation ran")
        monkeypatch.setattr(cli, "run_simulation", no_run)
        assert run(["simulate", "--setup", "S1", "--replicates", "2",
                    "--output", tmp_path / "missing" / "r.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("dpdsvd: error: cannot write")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("error, code", [(FloatingPointError, 3),
                                             (ValueError, 2)])
    def test_run_errors_map_to_exit_codes(self, tmp_path, capsys,
                                          monkeypatch, error, code):
        def failing_run(*args, **kwargs):
            raise error("boom")
        monkeypatch.setattr(cli, "run_simulation", failing_run)
        assert run(["simulate", "--setup", "S1", "--replicates", "2",
                    "--output", tmp_path / "r.csv"]) == code
        err = capsys.readouterr().err
        assert err == ("dpdsvd: error: "
                       + ("solver degeneracy: " if code == 3 else "")
                       + "boom\n")

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

    @pytest.mark.parametrize("flags, want", [
        ([], inspect.signature(run_timing_bench).parameters["reps"].default),
        (["--reps", "2"], 2)])
    def test_reps_default_is_the_library_default(self, monkeypatch, flags,
                                                 want):
        seen = []

        def recorded(*args, **kwargs):
            seen.append(run_timing_bench(*args, **kwargs).reps)
            raise ValueError("stop")
        monkeypatch.setattr(cli, "run_timing_bench", recorded)
        assert run(["bench", "--rows", "8", "--cols", "5",
                    "--alphas", "0.5"] + flags) == 2
        assert seen == [want]


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
