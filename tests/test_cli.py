import os
import pathlib
import subprocess
import sys

import pytest

from isingring import INFINITE
from isingring.cli import RunConfig, main, parse_config, parse_j_hat, UsageError

REPO = pathlib.Path(__file__).resolve().parents[1]


class TestParsing:
    def test_simulate_flags(self):
        config = parse_config(["simulate", "--n", "8", "--j-hat", "0.5", "--m", "1000000", "--seed", "7"])
        assert config.command == "simulate"
        assert config.n == 8 and config.j_hat == 0.5 and config.m == 1000000 and config.seed == 7

    def test_spectra_accepts_inf(self):
        config = parse_config(["spectra", "--j-hat", "inf", "--m", "100", "--n", "16"])
        assert config.j_hat is INFINITE

    def test_only_inf_spelling(self):
        for bad in ("Inf", "INF", "infinity", "oo"):
            with pytest.raises(UsageError):
                parse_j_hat(bad)

    def test_kernel_cap_rejected(self):
        with pytest.raises(UsageError):
            parse_config(["kernel-verify", "--n", "20", "--j-hat", "1.0"])

    def test_invalid_combinations(self):
        with pytest.raises(UsageError):
            parse_config(["simulate", "--n", "6", "--j-hat", "inf", "--dynamics", "glauber"])
        with pytest.raises(UsageError):
            parse_config(["simulate", "--n", "6", "--j-hat", "inf", "--initial", "stationary"])
        with pytest.raises(UsageError):
            parse_config(["lsi-verify", "--n", "6", "--j-hat", "inf"])

    def test_missing_required(self):
        with pytest.raises(UsageError):
            parse_config(["simulate", "--n", "6"])

    def test_sweep_and_hitting_bounds(self):
        with pytest.raises(UsageError):
            parse_config(["sweep", "--j-hat", "0.5", "--n-list", "1,4"])
        with pytest.raises(UsageError):
            parse_config(["sweep", "--j-hat", "0.5", "--n-list", ","])
        with pytest.raises(UsageError):
            parse_config(["hitting", "--n", "70"])

    def test_config_file_merge_and_override(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("n=6\nj-hat=0.25\nm=5000\n# comment\n")
        config = parse_config(["simulate", "--config", str(conf), "--m", "77"])
        assert config.n == 6 and config.j_hat == 0.25
        assert config.m == 77  # flag wins over file

    def test_unknown_config_key(self, tmp_path):
        conf = tmp_path / "run.conf"
        for line in ("bogus=1\n", "threads=2\n"):
            conf.write_text(line)
            with pytest.raises(UsageError, match="unknown config key"):
                parse_config(["simulate", "--config", str(conf), "--n", "4", "--j-hat", "0"])

    def test_hash_ignores_output_path(self):
        a = parse_config(["hitting", "--n", "6", "--out", "/tmp/a"])
        b = parse_config(["hitting", "--n", "6", "--out", "/tmp/b"])
        assert a.hash() == b.hash()


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert main(["kernel-verify", "--n", "20", "--j-hat", "1"]) == 2
        assert "exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["spectra", "--n", "8", "--j-hat", "inf", "--m", "100", "--replicas", "0"],
        ["sweep", "--j-hat", "0.5", "--n-list", "4", "--replicas", "0"],
        ["hitting", "--n", "6", "--count", "-3"],
        ["hitting", "--n", "6", "--count", "0"],
        ["lsi-verify", "--n", "4", "--j-hat", "0.5", "--functions", "-1"],
        ["kernel-verify", "--n", "4", "--j-hat", "0.5", "--trials", "-5"],
        ["spectra", "--n", "65", "--j-hat", "0.5", "--m", "100"],
        ["sweep", "--j-hat", "0.5", "--n-list", "8,65"],
        ["spectra", "--n", "64", "--j-hat", "inf", "--m", "100"],
        ["spectra", "--n", "8", "--j-hat", "0.5", "--m", "39"],
        ["sweep", "--j-hat", "0.5", "--n-list", "3,8"],
        ["sweep", "--j-hat", "0.5", "--n-list", "4", "--threads", "2"],
    ])
    def test_invalid_input_exits_2_with_one_line(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("argv", [
        ["kernel-verify", "--n", "4", "--j-hat", "0.5", "--db-tol"],
        ["kernel-verify", "--n", "4", "--j-hat", "0.5", "--trials", "100", "--z-max"],
        ["lsi-verify", "--n", "4", "--j-hat", "0.5", "--slack-tol"],
        ["spectra", "--n", "8", "--j-hat", "0.0", "--m", "4000", "--lambda1-tol"],
        ["sweep", "--j-hat", "0.5", "--n-list", "4", "--lambda1-tol"],
    ], ids=["db-tol", "z-max", "slack-tol", "spectra-lambda1-tol", "sweep-lambda1-tol"])
    def test_tolerance_must_be_finite_and_nonnegative(self, argv, value, tmp_path, capsys):
        assert main(argv + [value, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid value for {argv[-1]}: ") and err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["spectra", "--n", "8", "--j-hat", "30", "--m", "100"],
        ["sweep", "--j-hat", "30", "--n-list", "4,6"],
        ["lsi-verify", "--n", "4", "--j-hat", "30"],
        ["lsi-verify", "--n", "4", "--j-hat", "3.62"],
        ["kernel-verify", "--n", "4", "--j-hat", "400"],
        ["simulate", "--n", "8", "--j-hat", "400", "--m", "100"],
        ["simulate", "--n", "30", "--j-hat", "1e300", "--m", "100", "--initial", "uniform"],
    ])
    def test_huge_coupling_exits_2_naming_it(self, argv, tmp_path, capsys):
        # the closed forms these commands evaluate overflow a float64 at this coupling
        assert main(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --j-hat {float(argv[argv.index('--j-hat') + 1])!r} is too large")
        assert err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    def test_huge_coupling_kernel_verify_and_simulate_run(self, tmp_path, capsys):
        # tanh J rounds to 1.0 here; the kernel and the chain need only e^{-2J}
        assert main(["kernel-verify", "--n", "4", "--j-hat", "30", "--out", str(tmp_path)]) == 0
        assert main(["simulate", "--n", "8", "--j-hat", "30", "--m", "100", "--out", str(tmp_path)]) == 0
        row = (tmp_path / "simulate.csv").read_text().splitlines()[1].split(",")
        assert abs(float(row[5])) == 0.0 and float(row[6]) == 1.0 == float(row[7])  # full flips of an aligned ring

    def test_limits_of_the_new_checks_still_parse(self):
        parse_config(["spectra", "--n", "64", "--j-hat", "0.5", "--m", "40"])
        parse_config(["spectra", "--n", "63", "--j-hat", "inf", "--m", "5"])
        parse_config(["sweep", "--j-hat", "0.5", "--n-list", "4,64"])
        parse_config(["hitting", "--n", "6", "--count", "1"])
        parse_config(["lsi-verify", "--n", "4", "--j-hat", "0.5", "--functions", "0"])
        parse_config(["kernel-verify", "--n", "4", "--j-hat", "0.5", "--trials", "0"])
        parse_config(["lsi-verify", "--n", "14", "--j-hat", "3.6"])
        parse_config(["sweep", "--j-hat", "3.6", "--n-list", "4,64"])
        parse_config(["kernel-verify", "--n", "14", "--j-hat", "50"])
        parse_config(["simulate", "--n", "30", "--j-hat", "354", "--m", "1"])

    def test_kernel_verify_passes(self, tmp_path, capsys):
        code = main(["kernel-verify", "--n", "4", "--j-hat", "1.0", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "detailed-balance max violation" in out and "PASS" in out

    def test_kernel_verify_fails_on_a_doctored_wolff_kernel(self, tmp_path, monkeypatch):
        from isingring import cli
        from test_kernel import doctored_kernel

        monkeypatch.setattr(cli, "build_wolff_kernel", lambda params: doctored_kernel(params, (0, 1)))
        assert main(["kernel-verify", "--n", "5", "--j-hat", "0.7", "--out", str(tmp_path)]) == 1
        rows = [line.split(",") for line in (tmp_path / "kernel-verify.csv").read_text().splitlines()]
        row = next(r for r in rows if r[0] == "wolff_dual_form_disagreement")
        assert float(row[1]) >= 1e-12 and row[2:] == ["1e-15", "0"]

    def test_kernel_verify_trials_above_n_8_exit_3_before_any_work(self, tmp_path, monkeypatch, capsys):
        from isingring import cli

        def unexpected(params):
            raise AssertionError("the kernel was built before the size check")

        monkeypatch.setattr(cli, "build_wolff_kernel", unexpected)
        assert main(["kernel-verify", "--n", "12", "--j-hat", "0.5", "--trials", "10", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err == "error: empirical check enumerates all start states; cap is n <= 8\n"
        assert not any(tmp_path.iterdir())

    def test_hitting_passes(self, tmp_path):
        assert main(["hitting", "--n", "7", "--count", "40", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "hitting.csv").read_text().splitlines()
        assert lines[0] == "n,replica,ctilde,hit_index,pass"
        assert lines[-1].startswith("# config_hash=")
        assert lines[-2].startswith("# version=")

    def test_spectra_critical(self, tmp_path):
        assert main(["spectra", "--n", "8", "--j-hat", "inf", "--m", "200", "--replicas", "2", "--out", str(tmp_path)]) == 0

    def test_lsi_verify_small(self, tmp_path):
        assert main(["lsi-verify", "--n", "3", "--j-hat", "0.5", "--functions", "50", "--out", str(tmp_path)]) == 0

    def test_simulate_reproducible(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        args = ["simulate", "--n", "5", "--j-hat", "0.5", "--m", "2000", "--seed", "3"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "simulate.csv").read_bytes() == (out2 / "simulate.csv").read_bytes()

    def test_sweep_small(self, tmp_path):
        assert main(["sweep", "--j-hat", "0.5", "--n-list", "4,6", "--seed", "2", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("n,j_hat,m,seed,lambda1")


class TestParallelismAndArtifacts:
    @pytest.mark.parametrize("argv, units", [
        # sweep numbers its units size by size, then seed by seed
        (["sweep", "--j-hat", "0.5", "--n-list", "4,6", "--seed", "9", "--replicas", "2"],
         [((4, 0.5, 64), 9), ((4, 0.5, 64), 10), ((6, 0.5, 216), 9), ((6, 0.5, 216), 10)]),
        (["spectra", "--n", "8", "--j-hat", "inf", "--m", "200", "--seed", "3", "--replicas", "3"],
         [((8, INFINITE, 200), 3), ((8, INFINITE, 200), 4), ((8, INFINITE, 200), 5)]),
    ], ids=["sweep", "spectra"])
    def test_grid_rows_follow_the_unit_stream_map(self, argv, units, tmp_path):
        from isingring import WOLFF, ExperimentCell, ModelParams, RngStream, evaluate_cell, run_covariance_chain
        from isingring.spectra import result_row

        main(argv + ["--out", str(tmp_path)])
        rows = [line.split(",") for line in (tmp_path / f"{argv[0]}.csv").read_text().splitlines()[1:-2]]
        expected = []
        for unit, ((n, j, m), seed) in enumerate(units):
            cell = ExperimentCell(n=n, j_hat=j, m=m)
            run = run_covariance_chain(ModelParams(n, j), m, WOLFF, RngStream(seed, unit))
            expected.append(result_row(evaluate_cell(cell, run, seed)))
        assert rows == expected

    def test_spectra_save_matrix_round_trip(self, tmp_path):
        from isingring import read_matrix_dump
        import numpy as np

        code = main(["spectra", "--n", "6", "--j-hat", "0.5", "--m", "2000",
                     "--save-matrix", "1", "--out", str(tmp_path)])
        assert code == 0
        n, j, mat = read_matrix_dump(tmp_path / "covariance.bin")
        assert n == 6 and j == 0.5
        assert np.trace(mat) == pytest.approx(1.0, abs=1e-12)


def test_module_entry_point(tmp_path):
    # one subprocess check that python -m isingring wires up correctly
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    result = subprocess.run(
        [sys.executable, "-m", "isingring", "hitting", "--n", "5", "--count", "5", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO),
    )
    assert result.returncode == 0, result.stderr
    assert "PASS" in result.stdout
