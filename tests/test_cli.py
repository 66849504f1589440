import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

from isingring import INFINITE, InitialLaw, ModelParams, RngStream, __version__, iter_chain
from isingring.cli import RunConfig, _ergodic_sums, main, parse_config, parse_j_hat, UsageError

import _oracles as oracle

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
        with pytest.raises(UsageError, match="exceeds 63"):
            parse_config(["hitting", "--n", "64"])

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
        # the monotonicity rule compares sizes in list order
        ["sweep", "--j-hat", "0.5", "--n-list", "16,8"],
        ["sweep", "--j-hat", "0.5", "--n-list", "8,8"],
    ])
    def test_invalid_input_exits_2_with_one_line(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("value", ["False", "maybe", ""])
    def test_save_matrix_rejects_other_values(self, value, source, tmp_path, capsys):
        # the switch takes exactly 0/1/false/true/no/yes; anything else writes nothing
        out = tmp_path / "out"
        argv = ["spectra", "--n", "8", "--j-hat", "0.5", "--m", "400", "--out", str(out)]
        if source == "flag":
            argv += ["--save-matrix", value]
        else:
            conf = tmp_path / "run.conf"
            conf.write_text(f"save-matrix={value}\n")
            argv += ["--config", str(conf)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: invalid value for --save-matrix: {value!r} "
                                "is not one of 0, 1, false, true, no, yes\n")
        assert not out.exists()

    def test_save_matrix_values_keep_their_config_hash(self):
        # the hash records the parsed switch; these are the hashes version 0.5.0
        # wrote for the accepted spellings, the off one also with no --save-matrix
        base = ["spectra", "--n", "8", "--j-hat", "0.5", "--m", "400"]
        assert parse_config(base).hash() == "657a1e2da8c3674c"
        for value, expected in [("0", False), ("false", False), ("no", False),
                                ("1", True), ("true", True), ("yes", True)]:
            config = parse_config(base + ["--save-matrix", value])
            assert config.save_matrix is expected
            assert config.hash() == ("4652688239611cf3" if expected else "657a1e2da8c3674c")

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("argv", [
        ["kernel-verify", "--n", "4", "--j-hat", "0.5", "--db-tol"],
        ["kernel-verify", "--n", "4", "--j-hat", "0.5", "--trials", "100", "--z-max"],
        ["lsi-verify", "--n", "4", "--j-hat", "0.5", "--slack-tol"],
        ["spectra", "--n", "8", "--j-hat", "0.0", "--m", "4000", "--lambda1-tol"],
        ["sweep", "--j-hat", "0.5", "--n-list", "4", "--lambda1-tol"],
    ], ids=["db-tol", "z-max", "slack-tol", "spectra-lambda1-tol", "sweep-lambda1-tol"])
    def test_tolerance_must_be_finite_and_nonnegative(self, argv, value, tmp_path, capsys):
        # the thresholds are fixed constants; no flag or config key sets them,
        # whatever the value
        out = tmp_path / "out"
        assert main(argv + [value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: unrecognized arguments: {argv[-1]} {value}\n"
        conf = tmp_path / "run.conf"
        conf.write_text(f"{argv[-1][2:]}={value}\n")
        assert main(argv[:-1] + ["--config", str(conf), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: unknown config key {argv[-1][2:]!r} for command {argv[0]}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [[], ["simulate"], ["kernel-verify"], ["lsi-verify"], ["spectra"],
                                      ["hitting"], ["sweep"]], ids=lambda argv: argv[0] if argv else "top")
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["-h"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: isingring")
        assert "error:" not in captured.out + captured.err

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

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "8", "--j-hat", "0.5", "--m", "100"],
        ["kernel-verify", "--n", "4", "--j-hat", "0.5"],
        ["lsi-verify", "--n", "4", "--j-hat", "0.5", "--functions", "5"],
        ["spectra", "--n", "8", "--j-hat", "inf", "--m", "100"],
        ["hitting", "--n", "6", "--count", "5"],
        ["sweep", "--j-hat", "0.5", "--n-list", "4"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_exits_2_with_one_line(self, argv, source, tmp_path, capsys):
        # RngStream keys are nonnegative; kernel-verify without --trials draws nothing
        out = tmp_path / "out"
        if source == "flag":
            seed = ["--seed", "-1"]
        else:
            conf = tmp_path / "run.conf"
            conf.write_text("seed=-1\n")
            seed = ["--config", str(conf)]
        assert main(argv + seed + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need --seed >= 0: RngStream keys are nonnegative\n"
        assert not out.exists()

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
        parse_config(["hitting", "--n", "63", "--count", "1"])
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

    def test_hitting_requires_the_exact_hit_index(self, tmp_path, monkeypatch):
        # one step short of the law is a certification failure, not a PASS
        import isingring.cli as cli

        real = cli.hitting_time_aligned
        monkeypatch.setattr(cli, "hitting_time_aligned", lambda initial, rng: real(initial, rng) - 1)
        assert main(["hitting", "--n", "7", "--count", "40", "--out", str(tmp_path)]) == 1
        rows = [line.split(",") for line in (tmp_path / "hitting.csv").read_text().splitlines()[1:-2]]
        assert rows and all(row[4] == "0" for row in rows)

    def test_hitting_at_the_largest_ring(self, tmp_path):
        # the uniform start at n = 63 is drawn below 2^63, the top of an int64
        assert main(["hitting", "--n", "63", "--count", "20", "--out", str(tmp_path)]) == 0
        rows = [line.split(",") for line in (tmp_path / "hitting.csv").read_text().splitlines()[1:-2]]
        assert len(rows) == 20 and all(row[0] == "63" and row[4] == "1" for row in rows)

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
        import numpy as np

        code = main(["spectra", "--n", "6", "--j-hat", "0.5", "--m", "2000",
                     "--save-matrix", "1", "--out", str(tmp_path)])
        assert code == 0
        n, j, mat = oracle.read_matrix_dump(tmp_path / "covariance.bin")
        assert n == 6 and j == 0.5
        assert np.trace(mat) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind, j_hat", [("wolff", 0.5), ("wolff", INFINITE), ("glauber", 0.5)],
                         ids=["wolff-0.5", "wolff-inf", "glauber-0.5"])
@pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 100])
def test_ergodic_sums_equal_the_per_state_sums(n, kind, j_hat):
    # simulate's block reduction (n <= 64) and per-int loop (n > 64) give
    # the same floats as one += per state, across accumulate-block edges
    law = InitialLaw.uniform_random() if j_hat is INFINITE else InitialLaw.stationary()
    params = ModelParams(n, j_hat)
    for m in (1, 8191, 8192, 8193, 20000):
        states = list(iter_chain(law, m, kind, params, RngStream(3, m)))
        assert len(states) == m
        assert _ergodic_sums(iter(states), m, n) == oracle.per_state_simulate_sums(states, n)


def test_benchmark_command_lines_parse(tmp_path):
    # the benchmark runs these command lines against the package; a flag they
    # pass that the cli drops would otherwise only show up as failed operations
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_workloads", REPO / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    lines = [argv for table in (workloads.WORKLOADS, workloads.TINY_WORKLOADS)
             for commands in table.values() for argv in commands]
    assert lines
    for argv in lines:
        config = parse_config(argv + ["--seed", "0", "--out", str(tmp_path)])
        assert config.command == argv[0]


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


# sha256 of lsi-verify.csv without its "# version=" line, written by version
# 0.4.0 and unchanged at GOLDEN_VERSION. A change to the arithmetic of the
# certification sweep or its adversary moves them: bump the version, then
# renew GOLDEN_VERSION and the hashes together.
GOLDEN_VERSION = "0.5.0"
GOLDEN_LSI_VERIFY = [
    (["--n", "8", "--j-hat", "1.0", "--functions", "200"], 0,
     "569cf1f61597448cfbcc8348cecab90580decd25c62273955fbcc8d3e1dcf0c3"),
    (["--n", "8", "--j-hat", "1.0", "--functions", "200"], 7,
     "a81a99b44b08f095bd28f5939c64d2d824fc7206d41edd2639181b3d8ea6aa96"),
    (["--n", "10", "--j-hat", "0.5", "--functions", "2000"], 0,
     "22f3ba79c965dec49955199a88528cf4e14c07121edaa1b28fcc92c114e92e3d"),
    (["--n", "10", "--j-hat", "0.5", "--functions", "2000"], 7,
     "bd744e5f630ca1bd4a5ea82aa59b3820a0849a12321b30895c5ec46fa97e6f23"),
]


# The chain commands at sizes that cross a draw block (4096 steps) and, for
# spectra (batches of 8500 states), an accumulate block (8192 states): sha256
# of the CSV without its "# version=" line and the exit code, both written by
# version 0.5.0 when chains made one function call per step. Any change to
# the chains' draws or arithmetic moves them. sweep exits 0 here; the default
# sweep and the benchmark's sweep exit 1 at seed 0 through pass_42.
GOLDEN_CHAIN_COMMANDS = [
    (["sweep", "--j-hat", "0.5", "--n-list", "16,24"], 0, 0,
     "76fd8ff11a8e0f70f3b7973c72dad7655d666d36ebf41dc03779bc5d8889b9c1"),
    (["sweep", "--j-hat", "0.5", "--n-list", "16,24"], 7, 0,
     "8b2ae51ad7ded8dba7535d915af508df4643bea87d451ad053b33a12dabce279"),
    (["spectra", "--n", "16", "--j-hat", "inf", "--m", "170000"], 0, 0,
     "442cf55d405475a80c18fc002eeaf15eb267842df38b43e6b59804789e3fec43"),
    (["spectra", "--n", "16", "--j-hat", "inf", "--m", "170000"], 7, 0,
     "37d609a76165ce5470b949118d8bb436bb46753c610c48e7fc55aefa26afe1d2"),
    (["simulate", "--n", "32", "--j-hat", "0.5", "--m", "20000"], 0, 0,
     "40370e3b1ad766c3fcaeee89bde2c7873353ef73870be1a11f30c7203a9db462"),
    (["simulate", "--n", "32", "--j-hat", "0.5", "--m", "20000"], 7, 0,
     "ce524e318045b119d85b810ade3b333533f709c59fca636849f8abfb19640a2e"),
    (["simulate", "--n", "32", "--j-hat", "0.5", "--m", "20000", "--dynamics", "glauber"], 0, 0,
     "7edfb09d7b5f014f3a64e4225084a8c51cb10854639c2dc425c6f1b48563180d"),
    (["simulate", "--n", "32", "--j-hat", "0.5", "--m", "20000", "--dynamics", "glauber"], 7, 0,
     "49268abc8bdbeeece731170153b8885bc8f3a671a750b9ad37e9280b4d6b62f8"),
    # simulate at the largest ring packed into a uint64 (64) and past it (100),
    # written by simulate's per-state sums before they moved to uint64 blocks
    (["simulate", "--n", "64", "--j-hat", "0.5", "--m", "20000"], 0, 0,
     "f44dcee1c5fc264159b8f39b692dcfca6a92fabceb6c262e5792bd4d85ceeb80"),
    (["simulate", "--n", "64", "--j-hat", "0.5", "--m", "20000"], 7, 0,
     "03d29b2ae7cefec03487603deaef7962f14fb07484468891a9256ec6df0499b6"),
    (["simulate", "--n", "64", "--j-hat", "0.5", "--m", "20000", "--dynamics", "glauber"], 0, 0,
     "e33568dd90a5f7bcb17c8e944449e22acf98ebe319834f73866f99859ff153e8"),
    (["simulate", "--n", "64", "--j-hat", "0.5", "--m", "20000", "--dynamics", "glauber"], 7, 0,
     "b744007723ffed6d65d443f92fecaa11dd718029fb532d23efb11419e6d5305c"),
    (["simulate", "--n", "100", "--j-hat", "0.5", "--m", "5000"], 0, 0,
     "1b0bae549ba64e39715de0d50e2663341ace6f4922e7e4b01320d49cb1fb4292"),
    (["simulate", "--n", "100", "--j-hat", "0.5", "--m", "5000"], 7, 0,
     "c6cfb76718c76df4c654bba244ebb9f122b2048eced588ab8bf8ebc31cd1a09c"),
    (["simulate", "--n", "100", "--j-hat", "0.5", "--m", "5000", "--dynamics", "glauber"], 0, 0,
     "a00256e7446f67560846332a12f6e46b69bfbf7d4ecb40b07d091d2e95b0311f"),
    (["simulate", "--n", "100", "--j-hat", "0.5", "--m", "5000", "--dynamics", "glauber"], 7, 0,
     "bffeb5a70fedf0bbf0fc531cd66769e8f294cb57db815f9e959cca2c32617952"),
    (["hitting", "--n", "48", "--count", "200"], 0, 0,
     "2c235a013a37b7cb25ba6250c4c936bf50ea9df0f7f7a32fb6b515510b53a744"),
    (["hitting", "--n", "48", "--count", "200"], 7, 0,
     "5a7f8adb977e9a509100957eea9e0adf9fc749e1d579c72b30b7f76070e57bee"),
]


def _csv_digest(path):
    lines = path.read_bytes().splitlines(keepends=True)
    assert lines[-2] == f"# version={__version__}\n".encode()
    return hashlib.sha256(b"".join(lines[:-2] + lines[-1:])).hexdigest()


def _golden_id(argv, seed):
    # "<command>-<last value>-seed<seed>"; rings of 64 sites and more also name their size
    n = int(argv[argv.index("--n") + 1]) if "--n" in argv else 0
    return f"{argv[0]}{f'-n{n}' if n >= 64 else ''}-{argv[-1]}-seed{seed}"


class TestGoldenCsv:
    def test_hashes_belong_to_this_version(self):
        assert __version__ == GOLDEN_VERSION, "renew GOLDEN_LSI_VERIFY and GOLDEN_CHAIN_COMMANDS for the new version"

    @pytest.mark.parametrize("argv, seed, digest", GOLDEN_LSI_VERIFY,
                             ids=[f"n{argv[1]}-seed{seed}" for argv, seed, _ in GOLDEN_LSI_VERIFY])
    def test_lsi_verify_csv(self, tmp_path, argv, seed, digest):
        assert main(["lsi-verify", *argv, "--seed", str(seed), "--out", str(tmp_path)]) == 0
        assert _csv_digest(tmp_path / "lsi-verify.csv") == digest

    @pytest.mark.parametrize("argv, seed, code, digest", GOLDEN_CHAIN_COMMANDS,
                             ids=[_golden_id(argv, seed) for argv, seed, _, _ in GOLDEN_CHAIN_COMMANDS])
    def test_chain_command_csv(self, tmp_path, argv, seed, code, digest):
        assert main([*argv, "--seed", str(seed), "--out", str(tmp_path)]) == code
        assert _csv_digest(tmp_path / f"{argv[0]}.csv") == digest
