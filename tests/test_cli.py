import contextlib
import hashlib
import io
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from isingring import INFINITE, ModelParams, RngStream, __version__, iter_chain
from isingring.cli import RunConfig, _ergodic_sums, main, parse_config, parse_j_hat, UsageError
from isingring.clusters import plus_component_count
from isingring.dynamics import CHAIN_DRAW_BLOCK, STORAGE_BUDGET, _uniform_states

import _oracles as oracle

REPO = pathlib.Path(__file__).resolve().parents[1]

#: The largest rings hitting (n + 1 states of n bits, one replica's steps) and
#: simulate (one draw block of n-bit states) accept within the storage budget.
LARGEST_HITTING_N = 46340
LARGEST_SIMULATE_N = 8 * STORAGE_BUDGET // CHAIN_DRAW_BLOCK


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
        assert (LARGEST_HITTING_N + 1) * LARGEST_HITTING_N <= 8 * STORAGE_BUDGET
        assert (LARGEST_HITTING_N + 2) * (LARGEST_HITTING_N + 1) > 8 * STORAGE_BUDGET
        parse_config(["hitting", "--n", str(LARGEST_HITTING_N - 1)])
        parse_config(["hitting", "--n", str(LARGEST_HITTING_N)])
        with pytest.raises(UsageError, match=f"n={LARGEST_HITTING_N + 1} is too large for hitting"):
            parse_config(["hitting", "--n", str(LARGEST_HITTING_N + 1)])
        with pytest.raises(UsageError, match="is too large for hitting"):
            parse_config(["hitting", "--n", str(10**12)])

    def test_simulate_ring_bound(self):
        # one draw block of n-bit states must fit the storage budget; nothing here allocates it
        argv = ["simulate", "--j-hat", "0.5", "--m", "10", "--n"]
        parse_config(argv + [str(LARGEST_SIMULATE_N - 1)])
        parse_config(argv + [str(LARGEST_SIMULATE_N)])
        with pytest.raises(UsageError, match=f"n={LARGEST_SIMULATE_N + 1} is too large for simulate"):
            parse_config(argv + [str(LARGEST_SIMULATE_N + 1)])

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

    @pytest.mark.parametrize("spelling", ["-0", "-0.0"])
    def test_negative_zero_coupling_is_the_zero_coupling(self, spelling, tmp_path):
        # a signed zero computes every number as 0 does, so it writes the same bytes
        argv = ["simulate", "--n", "6", "--m", "100"]
        assert parse_j_hat(spelling) == 0.0 and str(parse_j_hat(spelling)) == "0.0"
        assert main(argv + ["--j-hat", "0", "--out", str(tmp_path / "zero")]) == 0
        assert main(argv + ["--j-hat", spelling, "--out", str(tmp_path / "flag")]) == 0
        conf = tmp_path / "run.conf"
        conf.write_text(f"j-hat={spelling}\n")
        assert main(argv + ["--config", str(conf), "--out", str(tmp_path / "file")]) == 0
        zero = (tmp_path / "zero" / "simulate.csv").read_bytes()
        assert (tmp_path / "flag" / "simulate.csv").read_bytes() == zero
        assert (tmp_path / "file" / "simulate.csv").read_bytes() == zero
        assert zero.endswith(b"# config_hash=250d36ec1789805d\n")

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
        ["spectra", "--n", "65", "--j-hat", "inf", "--m", "100"],
        ["spectra", "--n", "8", "--j-hat", "0.5", "--m", "39"],
        ["sweep", "--j-hat", "0.5", "--n-list", "3,8"],
        ["sweep", "--j-hat", "0.5", "--n-list", "4", "--threads", "2"],
        # the monotonicity rule compares sizes in list order
        ["sweep", "--j-hat", "0.5", "--n-list", "16,8"],
        ["sweep", "--j-hat", "0.5", "--n-list", "8,8"],
        # replica k draws stream k + 1, and stream ids are 32-bit
        ["hitting", "--n", "6", "--count", str(2**32)],
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
        parse_config(["spectra", "--n", "64", "--j-hat", "inf", "--m", "5"])
        parse_config(["sweep", "--j-hat", "0.5", "--n-list", "4,64"])
        parse_config(["hitting", "--n", "6", "--count", "1"])
        parse_config(["hitting", "--n", str(LARGEST_HITTING_N), "--count", "1"])
        parse_config(["hitting", "--n", "6", "--count", str(2**32 - 1)])
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

    @pytest.mark.parametrize("j_hat", ["0.5", "10"])
    def test_kernel_verify_scores_a_row_pooled_whole(self, j_hat, tmp_path):
        # at 5 trials every target of a row is pooled; the bucket holds all the
        # row's mass (exactly, or a rounding unit above 1 at j_hat = 10), so its
        # binomial variance is not positive: it scores 0, not a NaN dropped
        # with a RuntimeWarning (an error in this suite)
        assert main(["kernel-verify", "--n", "3", "--j-hat", j_hat, "--trials", "5", "--out", str(tmp_path)]) == 0
        rows = [line.split(",") for line in (tmp_path / "kernel-verify.csv").read_text().splitlines()]
        assert next(r for r in rows if r[0] == "wolff_empirical_max_z") == ["wolff_empirical_max_z", "0.0", "4.0", "1"]

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
        monkeypatch.setattr(cli, "hitting_time_aligned", lambda bits, n, rng: real(bits, n, rng) - 1)
        assert main(["hitting", "--n", "7", "--count", "40", "--out", str(tmp_path)]) == 1
        rows = [line.split(",") for line in (tmp_path / "hitting.csv").read_text().splitlines()[1:-2]]
        assert rows and all(row[4] == "0" for row in rows)

    def test_hitting_starts_cross_a_draw_block(self, tmp_path):
        # starts come CHAIN_DRAW_BLOCK at a time from stream 0, as one draw of --count would give them
        n, count, seed = 40, CHAIN_DRAW_BLOCK + 100, 3
        assert main(["hitting", "--n", str(n), "--count", str(count), "--seed", str(seed), "--out", str(tmp_path)]) == 0
        rows = [line.split(",") for line in (tmp_path / "hitting.csv").read_text().splitlines()[1:-2]]
        starts = _uniform_states(n, count, RngStream(seed).generator())
        assert [int(row[1]) for row in rows] == list(range(count))
        assert [int(row[2]) for row in rows] == [plus_component_count(bits, n) for bits in starts]
        assert all(row[4] == "1" for row in rows)

    def test_hitting_at_the_largest_ring(self, tmp_path):
        # starts of 725 words; a replica steps HIT_STEP_CHUNK states of n bits at a time
        n = str(LARGEST_HITTING_N)
        assert main(["hitting", "--n", n, "--count", "2", "--out", str(tmp_path)]) == 0
        rows = [line.split(",") for line in (tmp_path / "hitting.csv").read_text().splitlines()[1:-2]]
        assert len(rows) == 2 and all(row[0] == n and row[4] == "1" for row in rows)

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


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


#: Malformed spellings tried for every option.
_JUNK = st.sampled_from(["", "x", "1.5", "1e2", "0x3", "- 1", "nan", "-inf", "None", "\u0663", "1,2"])

#: Each option's (in-range values, edge and out-of-range values); the in-range
#: values are bounded so that any run that starts stays small.
_FUZZ_OPTIONS = {
    "seed": (_ints(0, 9), _ints(-2, -1)),
    "n": (_ints(2, 6), _ints(-1, 1)),
    "j-hat": (st.one_of(st.sampled_from(["0", "-0", "0.0", "inf"]), st.floats(0.0, 3.6).map(repr)),
              st.sampled_from(["3.7", "10", "30", "400", "1e300", "5e-324", "-1", "-0.5", "Inf"])),
    "m": (_ints(1, 400), _ints(-1, 0)),
    "dynamics": (st.sampled_from(["wolff", "glauber"]), st.sampled_from(["metropolis", "WOLFF"])),
    "initial": (st.sampled_from(["stationary", "all-plus", "uniform"]), st.sampled_from(["fixed", "Uniform"])),
    "trials": (_ints(0, 60), _ints(-2, -1)),
    "functions": (_ints(0, 20), _ints(-2, -1)),
    "replicas": (_ints(1, 3), _ints(-1, 0)),
    "save-matrix": (st.sampled_from(["0", "1", "yes", "no", "true", "false"]), st.sampled_from(["maybe", "2"])),
    "count": (_ints(1, 30), _ints(-1, 0)),
    "n-list": (st.lists(st.integers(2, 6), min_size=1, max_size=4, unique=True).map(lambda ns: ",".join(map(str, sorted(ns)))),
               st.one_of(st.lists(st.integers(-1, 6), max_size=4).map(lambda ns: ",".join(map(str, ns))),
                         st.sampled_from([",", "4,,6", "4;6", "4, 6", "6,4", "4,4", "a"]))),
}

_FUZZ_COMMANDS = {
    "simulate": ["seed", "n", "j-hat", "m", "dynamics", "initial"],
    "kernel-verify": ["seed", "n", "j-hat", "trials"],
    "lsi-verify": ["seed", "n", "j-hat", "functions"],
    "spectra": ["seed", "n", "j-hat", "m", "replicas", "save-matrix"],
    "hitting": ["seed", "n", "count"],
    "sweep": ["seed", "j-hat", "n-list", "replicas"],
}

#: Options whose defaults are past the size bounds, so they are always given.
_ALWAYS = {"m", "functions", "count", "n-list"}


@st.composite
def _command_lines(draw):
    # an option is given three times in four (a required one seven times in
    # eight), with an in-range value four times in five, so that many command
    # lines get as far as a run
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    argv = [command]
    for name in _FUZZ_COMMANDS[command]:
        if name in _ALWAYS or draw(st.integers(0, 7)) < (7 if name in ("n", "j-hat") else 6):
            kind = draw(st.integers(0, 9))
            good, edge = _FUZZ_OPTIONS[name]
            argv += [f"--{name}", draw(good if kind < 8 else edge if kind == 8 else _JUNK)]
    if draw(st.integers(0, 19)) == 0:
        argv += ["--config", "missing.conf"]
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=_command_lines())
def test_no_invalid_input_escapes_as_a_traceback(argv):
    # any command line, valid or not, ends in an exit code: a run's own (0 or 1),
    # or one "error:" line on stderr (2 usage, 3 resource limit); never an exception
    with tempfile.TemporaryDirectory() as out:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--out", out])
    assert code in (0, 1, 2, 3)
    err = stderr.getvalue()
    if code >= 2:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert stdout.getvalue() == ""
    else:
        assert err == ""


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
        from isingring.cli import result_row

        main(argv + ["--out", str(tmp_path)])
        rows = [line.split(",") for line in (tmp_path / f"{argv[0]}.csv").read_text().splitlines()[1:-2]]
        expected = []
        for unit, ((n, j, m), seed) in enumerate(units):
            cell = ExperimentCell(n=n, j_hat=j, m=m)
            run = run_covariance_chain(ModelParams(n, j), m, WOLFF, RngStream(seed, unit))
            expected.append(result_row(evaluate_cell(cell, run, seed)))
        assert rows == expected

    def test_spectra_replicas_run_in_bounded_memory(self, tmp_path):
        # a unit keeps its CellResult and two batch-norm numbers, not its 20
        # batch matrices (0.65 MiB at n = 64), so the peak does not grow with --replicas
        import tracemalloc

        peaks = []
        for replicas in (4, 64):
            tracemalloc.start()
            try:
                main(["spectra", "--n", "64", "--j-hat", "0.5", "--m", "40", "--replicas", str(replicas),
                      "--out", str(tmp_path)])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2 * 2**20

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
    law = "uniform" if j_hat is INFINITE else "stationary"
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
# 0.7.0, whose flip-sector decomposition changed the eigenvectors of degenerate
# eigenspaces, so the eigenfunction, abs-eigenfunction and poincare-vs-gap rows;
# the random, character, indicator and adversarial rows are those of 0.4.0. A
# change to the arithmetic of the certification sweep, its adversary or the
# decomposition moves them: bump the version, then renew GOLDEN_VERSION and the
# hashes together.
GOLDEN_VERSION = "0.7.0"
GOLDEN_LSI_VERIFY = [
    (["--n", "8", "--j-hat", "1.0", "--functions", "200"], 0,
     "649f3af4289e81d383ce8f89c1edf8583ee5d5258aec70c258f91f9368cffa5e"),
    (["--n", "8", "--j-hat", "1.0", "--functions", "200"], 7,
     "be5d9cf5d464979dc7ed302c1dfc6684ed959e049d26fe269f0a933de73ff7ae"),
    (["--n", "10", "--j-hat", "0.5", "--functions", "2000"], 0,
     "6cf73aa019fa9b890dac0b93cf954feb03db275cae1b2c79f76518dccd18f4d4"),
    (["--n", "10", "--j-hat", "0.5", "--functions", "2000"], 7,
     "b040b6f330461b35e0375c9d865f1efad978c4e48452ea09ff40b8daad1ca8f8"),
]


# The chain commands at sizes that cross a draw block (4096 steps) and, for
# spectra (batches of 8500 states), an accumulate block (8192 states): sha256
# of the CSV without its "# version=" line and the exit code. Any change to
# the chains' draws or arithmetic moves them; version 0.7.0 kept them all.
# Version 0.6.0 wrote the commands with a stationary start (sweep, simulate),
# a uniform start at n <= 32 (spectra, hitting at n = 2 and 3) or past 63
# sites; the rest are the files of version 0.5.0. sweep exits 1 at seed 0 through pass_42 at n = 16,
# as the default sweep and the benchmark's sweep do.
GOLDEN_CHAIN_COMMANDS = [
    (["sweep", "--j-hat", "0.5", "--n-list", "16,24"], 0, 1,
     "663707e70e3cc81d1656b6c97a1f04a898d0e4d5be579c1d1e6cc32f6cc1b338"),
    (["sweep", "--j-hat", "0.5", "--n-list", "16,24"], 7, 0,
     "59a65f42180def45c0c72e7717b3af0b2edd93aaa7626db8028138eda292d0e7"),
    (["spectra", "--n", "16", "--j-hat", "inf", "--m", "170000"], 0, 0,
     "d95a7e43a863006365c8f3736c0c1563c287ebca591a0ff7c4c10ecd89d2ec4f"),
    (["spectra", "--n", "16", "--j-hat", "inf", "--m", "170000"], 7, 0,
     "3500e2a84c9232808524d4efe4bd011eb26a88b3571e70f8bfe1e77fbdb27867"),
    (["simulate", "--n", "32", "--j-hat", "0.5", "--m", "20000"], 0, 0,
     "65f7a816ae9324c732135107efd0c1006b052c944d33d5709d8b9f2a390e9569"),
    (["simulate", "--n", "32", "--j-hat", "0.5", "--m", "20000"], 7, 0,
     "31800c89ff25f3c75d807f45ea9230c57535faa053ce5ed82cf775dff3366aa7"),
    (["simulate", "--n", "32", "--j-hat", "0.5", "--m", "20000", "--dynamics", "glauber"], 0, 0,
     "1c00a5286520e771497a55e94f928b60a7dc15590a7cbb83a7c7b92a59f0e8c2"),
    (["simulate", "--n", "32", "--j-hat", "0.5", "--m", "20000", "--dynamics", "glauber"], 7, 0,
     "c1bf19eec8b21834c0b2444d5eac8c00e03e0977ffbf8585ceb62cd94705318c"),
    # simulate at the largest ring packed into a uint64 (64) and past it (100)
    (["simulate", "--n", "64", "--j-hat", "0.5", "--m", "20000"], 0, 0,
     "eaa4edb2c6e46cc119945042002c39ded0a27b9c79eb6d622fa85d08adbf6f70"),
    (["simulate", "--n", "64", "--j-hat", "0.5", "--m", "20000"], 7, 0,
     "9c2582a60cb34f0d896c1a4c2da259b3a1b6bf3214f06b6ff3b7eac640c76eee"),
    (["simulate", "--n", "64", "--j-hat", "0.5", "--m", "20000", "--dynamics", "glauber"], 0, 0,
     "12827d51cebb468bb9c65d9a331eed0a1f4d93e2ba9cc932220da1b529e2939a"),
    (["simulate", "--n", "64", "--j-hat", "0.5", "--m", "20000", "--dynamics", "glauber"], 7, 0,
     "b31aceca3687ebe22225ec92c8ceb758016eca632e3bdff8e0c4e59d0b9c9508"),
    (["simulate", "--n", "100", "--j-hat", "0.5", "--m", "5000"], 0, 0,
     "71538d9c87193b6e1e79a920de3f29f0840f1dfa5783844f9af83d7047103e55"),
    (["simulate", "--n", "100", "--j-hat", "0.5", "--m", "5000"], 7, 0,
     "419c164f93e0e51228c38e5e55daa5646ce9ba1b48029f806de489f54fb4b47d"),
    (["simulate", "--n", "100", "--j-hat", "0.5", "--m", "5000", "--dynamics", "glauber"], 0, 0,
     "ea1cb0fe1213eda1c7c82b356d253a97662e13dde753483dd8a33f996899d222"),
    (["simulate", "--n", "100", "--j-hat", "0.5", "--m", "5000", "--dynamics", "glauber"], 7, 0,
     "abb66570040ef8d7638ebb7788a15f65121fc5af3797e6d3e7e488f22e747e5b"),
    (["hitting", "--n", "48", "--count", "200"], 0, 0,
     "2c235a013a37b7cb25ba6250c4c936bf50ea9df0f7f7a32fb6b515510b53a744"),
    (["hitting", "--n", "48", "--count", "200"], 7, 0,
     "5a7f8adb977e9a509100957eea9e0adf9fc749e1d579c72b30b7f76070e57bee"),
    # tiny rings draw aligned starts, all-plus (ctilde 1) and all-minus (ctilde 0),
    # which the n = 48 runs never do
    (["hitting", "--n", "2", "--count", "12"], 0, 0,
     "aa715bc57d47b9e79f7a8567800637014de50857eb5662a41e7dd8023956d89b"),
    (["hitting", "--n", "2", "--count", "12"], 7, 0,
     "a015807607792b66aeecaf75c9653604c85752ddfe4737ee1e121f4bf6dd20af"),
    (["hitting", "--n", "3", "--count", "40"], 0, 0,
     "5e9a1527ea84f42b6c0ab95cbe4374ded627249bac2692615ea73e2a88d7dfd8"),
    (["hitting", "--n", "3", "--count", "40"], 7, 0,
     "586d967e9057e0f5a79be63aaa8341c34afb5dfb1f3b9bed99f2b54e3c990ef6"),
    # uniform starts of 63 bits, the widest version 0.5.0 drew, and a three-word seed,
    # written by version 0.5.0 when every hitting replica built its own RngStream generator
    (["hitting", "--n", "63", "--count", "50"], 0, 0,
     "772a06c88f09677b0ff4ce5fb013fc8e658793133402fdfa115dc6b228ade028"),
    (["hitting", "--n", "63", "--count", "50"], 7, 0,
     "081edd78861ebf15c82ed401d8f6ef6df45f7de22a8ed75019683a122ce075ad"),
    (["hitting", "--n", "48", "--count", "200"], 2**64 + 3, 0,
     "f7b14e52cb4cef819b6095afb4d74ceb35a81998d9e7eabab953f373713c2f09"),
    # uniform starts of one full word and of two words, and the critical spectra at the packing cap
    (["hitting", "--n", "64", "--count", "30"], 0, 0,
     "6dd013db097aa089f7e2bdf812889e614863b2be08da61e217b79db72be38bfe"),
    (["hitting", "--n", "64", "--count", "30"], 7, 0,
     "833a94b69e827fcff644279fc0c9096538cb9cb6590c0f529a8e6e6d9085cc39"),
    (["hitting", "--n", "100", "--count", "30"], 0, 0,
     "5241bfbbccb3d98726c8d66383da03201413b90eea89087f551a62727c327c6f"),
    (["hitting", "--n", "100", "--count", "30"], 7, 0,
     "83cb72277749901bf6cd7b84e3f77e9a35f7443d50fca5228f1eaaf5d315b849"),
    (["spectra", "--n", "64", "--j-hat", "inf", "--m", "1000"], 0, 0,
     "2a3fc3156b3431bf90f3329f1a6409e80cde20dad048325bebd02069750a3a8e"),
    (["spectra", "--n", "64", "--j-hat", "inf", "--m", "1000"], 7, 0,
     "c8b652498c001091a438b82704917a41ad8c213c62b16d4dde41e07c4e7a6e83"),
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
