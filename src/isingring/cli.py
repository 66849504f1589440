"""Command-line front end: experiment orchestration with deterministic
seeding and CSV emission.

Commands: simulate, kernel-verify, lsi-verify, spectra, hitting, sweep.
A flat key=value config file can supply any long flag (without dashes
prefix, e.g. ``j-hat=0.5``); explicit command-line flags override file
values and unknown keys are rejected. The only accepted spelling of the
critical coupling is ``inf``.

Exit codes: 0 all enabled certifications pass, 1 certification failure,
2 usage/config error, 3 resource-limit error.

Outputs are UTF-8 CSV with LF line endings, a header row, and a trailing
metadata comment block (version, config hash). Two runs with identical
config produce byte-identical files: every work unit owns an RngStream
keyed by (seed, unit index) and units run one after another in grid order.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor  # unused here; bench/tracer.py rebinds this name on cli
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .model import (
    INFINITE,
    KERNEL_SITE_LIMIT,
    CriticalCouplingError,
    ModelParams,
    ResourceLimitError,
    _rotated_bits,
    gibbs_measure,
    two_point_correlation,
)
from .clusters import decompose  # unused here; bench/tracer.py rebinds this name on cli
from .clusters import plus_component_count
from .dynamics import (
    CHAIN_DRAW_BLOCK,
    GLAUBER,
    INITIAL_LAWS,
    STORAGE_BUDGET,
    WOLFF,
    _uniform_states,
    hitting_time_aligned,
    iter_chain,
)
from .kernel import (
    Z_MAX,
    _check_empirical_size,
    build_glauber_kernel,
    build_wolff_kernel,
    check_detailed_balance,
    empirical_vs_exact,
    symmetrize_and_decompose,
    wolff_dual_form_disagreement,
    wolff_entry_from_boundary,  # unused here; bench/tracer.py rebinds these two names on cli
    wolff_entry_from_components,
    write_matrix_dump,
)
from .functionals import (
    certification_sweep,
    lsi_constant_bound,
    poincare_constant_bound,
)
from .randomness import RngStream, keyed_generators
from .spectra import (
    ACCUMULATE_BLOCK,
    DEFAULT_BATCHES,
    CellResult,
    ExperimentCell,
    evaluate_cell,
    run_covariance_chain,
)

USAGE_ERROR = 2
CERTIFICATION_ERROR = 1
RESOURCE_ERROR = 3

#: ``hitting`` replica k draws stream k + 1, and stream ids are one 32-bit spawn word.
MAX_HITTING_COUNT = (1 << 32) - 1


class UsageError(ValueError):
    pass


def parse_j_hat(text: str):
    if text == "inf":
        return INFINITE
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"invalid coupling {text!r}: use a nonnegative float or 'inf'")
    if not math.isfinite(value) or value < 0:
        raise UsageError(f"invalid coupling {text!r}: use a nonnegative float or 'inf'")
    return 0.0 if value == 0.0 else value  # "-0" is the coupling 0: same CSV, same config hash


_SWITCH_VALUES = {"0": False, "1": True, "false": False, "true": True, "no": False, "yes": True}


def parse_switch(text: str) -> bool:
    if text not in _SWITCH_VALUES:
        raise ValueError(f"{text!r} is not one of {', '.join(_SWITCH_VALUES)}")
    return _SWITCH_VALUES[text]


def parse_int_list(text: str):
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise UsageError(f"invalid integer list {text!r}")


@dataclass
class RunConfig:
    """Validated run configuration shared by all commands."""

    command: str
    values: dict = field(default_factory=dict)

    def __getattr__(self, name):
        try:
            return self.values[name]
        except KeyError:
            raise AttributeError(name)

    def canonical(self) -> str:
        # out does not affect any computed value, so it is not part of the
        # experiment identity
        parts = [f"command={self.command}"]
        for key in sorted(self.values):
            if key == "out":
                continue
            parts.append(f"{key}={self.values[key]!r}")
        return "\n".join(parts)

    def hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


_REQUIRED = object()

# option name -> (converter, default); _REQUIRED marks mandatory options.
_COMMON = {
    "seed": (int, 0),
    "out": (str, "."),
}

_OPTIONS = {
    "simulate": {
        **_COMMON,
        "n": (int, _REQUIRED),
        "j-hat": (parse_j_hat, _REQUIRED),
        "m": (int, 100000),
        "dynamics": (str, WOLFF),
        "initial": (str, "stationary"),
    },
    "kernel-verify": {
        **_COMMON,
        "n": (int, _REQUIRED),
        "j-hat": (parse_j_hat, _REQUIRED),
        "trials": (int, 0),
    },
    "lsi-verify": {
        **_COMMON,
        "n": (int, _REQUIRED),
        "j-hat": (parse_j_hat, _REQUIRED),
        "functions": (int, 10000),
    },
    "spectra": {
        **_COMMON,
        "n": (int, _REQUIRED),
        "j-hat": (parse_j_hat, _REQUIRED),
        "m": (int, _REQUIRED),
        "replicas": (int, 1),
        "save-matrix": (parse_switch, False),
    },
    "hitting": {
        **_COMMON,
        "n": (int, _REQUIRED),
        "count": (int, 1000),
    },
    "sweep": {
        **_COMMON,
        "j-hat": (parse_j_hat, _REQUIRED),
        "n-list": (parse_int_list, [8, 16, 32, 64]),
        "replicas": (int, 1),
    },
}


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    return values


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # one "error:" line from main, not argparse's usage block
        raise UsageError(message)


def parse_config(argv) -> RunConfig:
    """Build a validated RunConfig from argv (+ optional key=value file)."""
    parser = _ArgumentParser(
        prog="isingring",
        description="Exact verification and sampling for Wolff/Glauber dynamics on the 1D Ising ring",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in _OPTIONS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None)
        for name in options:
            p.add_argument(f"--{name}", default=None)
    ns = parser.parse_args(argv)

    options = _OPTIONS[ns.command]
    values = {}
    file_values = _read_config_file(ns.config) if ns.config else {}
    for key in file_values:
        if key not in options:
            raise UsageError(f"unknown config key {key!r} for command {ns.command}")
    for name, (convert, default) in options.items():
        raw = getattr(ns, name.replace("-", "_"))
        if raw is None and name in file_values:
            raw = file_values[name]
        if raw is None:
            if default is _REQUIRED:
                raise UsageError(f"missing required option --{name}")
            values[name.replace("-", "_")] = default
        else:
            try:
                values[name.replace("-", "_")] = convert(raw)
            except UsageError:
                raise
            except (TypeError, ValueError) as exc:
                raise UsageError(f"invalid value for --{name}: {exc}")
    config = RunConfig(command=ns.command, values=values)
    _validate(config)
    return config


def _validate(config: RunConfig):
    v = config.values
    if v["seed"] < 0:
        raise UsageError("need --seed >= 0: RngStream keys are nonnegative")
    if "n" in v and v["n"] < 2:
        raise UsageError("need n >= 2")
    if "m" in v and v["m"] < 1:
        raise UsageError("need m >= 1")
    critical = v.get("j_hat") is INFINITE
    if config.command in ("kernel-verify", "lsi-verify"):
        if v["n"] > KERNEL_SITE_LIMIT:
            raise UsageError(f"n={v['n']} exceeds the dense-kernel cap n <= {KERNEL_SITE_LIMIT}")
        if config.command == "lsi-verify" and critical:
            raise UsageError("lsi-verify needs a finite coupling: Gibbs-measure operations reject 'inf'")
        if config.command == "kernel-verify" and critical:
            raise UsageError("kernel-verify needs a finite coupling: detailed balance uses the Gibbs measure")
    if config.command == "simulate":
        if v["dynamics"] not in (WOLFF, GLAUBER):
            raise UsageError(f"unknown dynamics {v['dynamics']!r}")
        if v["initial"] not in INITIAL_LAWS:
            raise UsageError(f"unknown initial law {v['initial']!r}")
        if critical and v["dynamics"] == GLAUBER:
            raise UsageError("Glauber dynamics is undefined at the critical coupling 'inf'")
        if critical and v["initial"] == "stationary":
            raise UsageError("stationary start is undefined at 'inf': the Gibbs measure does not exist")
    if config.command == "sweep":
        if v.get("j_hat") is INFINITE:
            raise UsageError("sweep covers the subcritical regime; use the spectra command at 'inf'")
        if not v["n_list"] or any(n < 2 for n in v["n_list"]):
            raise UsageError("--n-list needs one or more sizes, all >= 2")
        if any(a >= b for a, b in zip(v["n_list"], v["n_list"][1:])):
            raise UsageError("--n-list sizes must be strictly increasing: the norms are compared in list order")
    if config.command in ("spectra", "sweep"):
        if v["replicas"] < 1:
            raise UsageError("need --replicas >= 1")
        cells = [(n, n**3) for n in v["n_list"]] if config.command == "sweep" else [(v["n"], v["m"])]
        largest = max(n for n, _ in cells)
        if largest > 64:
            raise UsageError(f"n={largest} exceeds 64: chain states are packed into 64-bit words")
        min_m = 2 * DEFAULT_BATCHES
        if not critical and any(m < min_m for _, m in cells):
            raise UsageError(f"need m >= {min_m} at finite coupling, two states per batch for the {DEFAULT_BATCHES} "
                             "batch means (sweep runs m = n^3, so every size must be >= 4)")
    if config.command in ("simulate", "hitting"):
        # simulate holds one draw block of states; hitting keeps the cap of a replica's n + 1 steps
        held = v["n"] + 1 if config.command == "hitting" else CHAIN_DRAW_BLOCK
        if held * v["n"] > 8 * STORAGE_BUDGET:
            raise UsageError(f"n={v['n']} is too large for {config.command}: {held} n-bit states exceed {STORAGE_BUDGET} bytes")
    if config.command == "hitting":
        if not 1 <= v["count"] <= MAX_HITTING_COUNT:
            raise UsageError(f"need 1 <= --count <= {MAX_HITTING_COUNT}: replica k draws stream k + 1, "
                             "and stream ids are 32-bit")
    if config.command == "lsi-verify" and v["functions"] < 0:
        raise UsageError("need --functions >= 0")
    if config.command == "kernel-verify" and v["trials"] < 0:
        raise UsageError("need --trials >= 0 (0 skips the empirical check)")
    if "j_hat" in v and not critical:
        _check_coupling_range(config)
    if config.command == "kernel-verify" and v["trials"]:
        _check_empirical_size(v["n"])


def _check_coupling_range(config: RunConfig):
    """Reject a finite coupling at which a closed form the command evaluates overflows a float64.

    Commands that tabulate the Gibbs measure need the weight sum, at most
    2^n e^(j n), to be finite; the others evaluate e^(2j) (heat-bath odds)
    at most. lsi-verify, spectra and sweep also need the log-Sobolev constant.
    """
    v = config.values
    j = v["j_hat"]
    n = max(v["n_list"]) if config.command == "sweep" else v["n"]
    log_max = math.log(sys.float_info.max)
    if config.command in ("kernel-verify", "lsi-verify") and j * n + n * math.log(2.0) >= log_max:
        raise UsageError(f"--j-hat {j!r} is too large for n={n}: the Gibbs weights e^(j-hat*n) overflow a float64")
    if 2.0 * j >= log_max:
        raise UsageError(f"--j-hat {j!r} is too large: e^(2*j-hat) overflows a float64")
    if config.command in ("lsi-verify", "spectra", "sweep"):
        try:
            lsi_constant_bound(j, n)
        except ValueError as exc:
            raise UsageError(f"--j-hat {j!r} is too large for {config.command}: {exc}")


def write_csv(path, header, rows, config: RunConfig):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
        fh.write(f"# version={__version__}\n")
        fh.write(f"# config_hash={config.hash()}\n")


def _fmt(x: float) -> str:
    return repr(float(x))


def _j_label(j) -> str:
    return "inf" if j is INFINITE else repr(float(j))


CSV_COLUMNS = [
    "n", "j_hat", "m", "seed", "lambda1", "lambda2", "norm1",
    "khat_norm_bound", "thm43_bound", "pass_41", "pass_42", "pass_43",
]


def result_row(result: CellResult) -> list:
    return [
        str(result.n), _j_label(result.j_hat), str(result.m), str(result.seed),
        _fmt(result.lambda1), _fmt(result.lambda2), _fmt(result.norm1),
        _fmt(result.khat_norm_bound), _fmt(result.thm43_bound),
        str(int(result.pass_41)), str(int(result.pass_42)), str(int(result.pass_43)),
    ]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _run_cells(units) -> tuple:
    """Run one Wolff covariance chain per ``(cell, seed, stream)`` unit, in unit order.

    Each unit owns ``RngStream(seed, stream)``. Returns the ``CellResult`` and
    the (batch-norm mean, batch-norm standard error) pair of each unit, in
    unit order, and unit 0's covariance matrix. A run's batch matrices are
    dropped once these are read, so memory does not grow with the units.
    """
    results, batch_norms, first_matrix = [], [], None
    for cell, seed, stream in units:
        run = run_covariance_chain(ModelParams(cell.n, cell.j_hat), cell.m, WOLFF, RngStream(seed, stream))
        results.append(evaluate_cell(cell, run, seed))
        batch_norms.append((run.norm1_batch_mean, run.norm1_batch_se))
        if first_matrix is None:
            first_matrix = run.matrix
    return results, batch_norms, first_matrix


def _ergodic_sums(states, m: int, n: int) -> tuple:
    """Sums of the magnetization (2 popcount - n)/n and the nearest-neighbour
    correlation (n - 2 frustrated bonds)/n over ``m`` bit-packed states.

    Up to n = 64 the states come ``ACCUMULATE_BLOCK`` at a time into uint64
    arrays; the terms are exact float64 quotients of small ints, and
    ``np.add.accumulate`` adds them strictly left to right, so both sums are
    the floats of a per-state ``+=`` loop, which larger rings run.
    """
    mag_sum = corr_sum = 0.0
    if n > 64:
        for bits in states:
            mag_sum += (2 * bits.bit_count() - n) / n
            corr_sum += (n - 2 * (bits ^ _rotated_bits(bits, n)).bit_count()) / n
        return mag_sum, corr_sum

    def add(total, terms):
        return float(np.add.accumulate(np.concatenate(([total], terms)))[-1])

    for done in range(0, m, ACCUMULATE_BLOCK):
        seg = np.fromiter(states, dtype=np.uint64, count=min(ACCUMULATE_BLOCK, m - done))
        pc = np.bitwise_count(seg).astype(np.int64)
        frustrated = np.bitwise_count(seg ^ _rotated_bits(seg, n)).astype(np.int64)
        mag_sum = add(mag_sum, (2 * pc - n) / n)
        corr_sum = add(corr_sum, (n - 2 * frustrated) / n)
    return mag_sum, corr_sum


def _cmd_simulate(config: RunConfig) -> int:
    params = ModelParams(config.n, config.j_hat)
    n = config.n
    states = iter_chain(config.initial, config.m, config.dynamics, params, RngStream(config.seed))
    mag_sum, corr_sum = _ergodic_sums(states, config.m, n)
    mag = mag_sum / config.m
    corr = corr_sum / config.m
    header = ["n", "j_hat", "m", "dynamics", "seed", "mean_magnetization", "mean_nn_correlation", "exact_nn_correlation", "nn_error"]
    if params.is_critical:
        exact = math.nan
        err = math.nan
    else:
        exact = two_point_correlation(1, 2, params)
        err = abs(corr - exact)
    row = [str(n), _j_label(config.j_hat), str(config.m), config.dynamics, str(config.seed), _fmt(mag), _fmt(corr), _fmt(exact), _fmt(err)]
    write_csv(os.path.join(config.out, "simulate.csv"), header, [row], config)
    print(f"simulate n={n} j={_j_label(config.j_hat)} m={config.m} {config.dynamics}: "
          f"magnetization {mag:+.5f}, nn correlation {corr:.5f}" + ("" if params.is_critical else f" (exact {exact:.5f})"))
    return 0


#: kernel-verify's bound on row-sum errors and detailed-balance violations,
#: both differences of float64 probabilities.
PROBABILITY_TOLERANCE = 1e-12


def _cmd_kernel_verify(config: RunConfig) -> int:
    params = ModelParams(config.n, config.j_hat)
    rng = RngStream(config.seed)
    wolff = build_wolff_kernel(params)
    measure = gibbs_measure(params)
    rows = []
    failures = []

    def record(check: str, value: float, tol: float):
        ok = value <= tol
        rows.append([check, _fmt(value), _fmt(tol), str(int(ok))])
        if not ok:
            failures.append(check)
        return ok

    record("wolff_row_sum_error", wolff.row_sum_error(), PROBABILITY_TOLERANCE)
    record("wolff_diagonal_max", float(np.abs(np.diag(wolff.matrix)).max()), 0.0)
    db = check_detailed_balance(wolff, measure)
    record("wolff_detailed_balance", db, PROBABILITY_TOLERANCE)

    glauber = build_glauber_kernel(params)
    record("glauber_row_sum_error", glauber.row_sum_error(), PROBABILITY_TOLERANCE)
    record("glauber_detailed_balance", check_detailed_balance(glauber, measure), PROBABILITY_TOLERANCE)

    record("wolff_dual_form_disagreement", wolff_dual_form_disagreement(wolff), 1e-15)

    # single-flip comparison with the Glauber rates
    n = params.n
    states = np.arange(1 << n, dtype=np.int64)
    factor = 0.5 * math.exp(2.0 * float(params.j_hat))
    comparison = 0.0
    for b in range(n):
        targets = states ^ (1 << b)
        gd = glauber.matrix[states, targets]
        wf = wolff.matrix[states, targets]
        comparison = max(comparison, float((gd - factor * wf).max()))
    record("glauber_wolff_comparison_excess", comparison, 1e-15)

    if config.trials:
        check = empirical_vs_exact(wolff, params, config.trials, rng)
        ok = check.passes()
        rows.append(["wolff_empirical_max_z", _fmt(check.max_z), _fmt(Z_MAX), str(int(ok))])
        if not ok:
            failures.append("wolff_empirical_max_z")

    write_csv(os.path.join(config.out, "kernel-verify.csv"), ["check", "value", "tolerance", "pass"], rows, config)
    print(f"kernel-verify n={params.n} j={_j_label(config.j_hat)}: detailed-balance max violation {db:.3e} "
          f"(tolerance {PROBABILITY_TOLERANCE:.1e}) -> {'PASS' if not failures else 'FAIL: ' + ','.join(failures)}")
    return 0 if not failures else CERTIFICATION_ERROR


def _cmd_lsi_verify(config: RunConfig) -> int:
    params = ModelParams(config.n, config.j_hat)
    measure = gibbs_measure(params)
    kernel = build_wolff_kernel(params)
    decomposition = symmetrize_and_decompose(kernel, measure)
    results = certification_sweep(kernel, measure, decomposition, config.functions, RngStream(config.seed))
    gap = decomposition.gap
    c_pi = poincare_constant_bound(float(params.j_hat), params.n)
    spectral_ok = 1.0 / gap <= c_pi * (1.0 + 1e-9)
    worst_slack = math.inf
    fails = 0

    def rows():
        # streamed into the CSV: the worst slack and the fail count are kept as the rows go
        nonlocal worst_slack, fails
        for r in results:
            worst_slack = min(worst_slack, r.slack)
            fails += 0 if r.passed else 1
            yield [str(params.n), _fmt(params.j_hat), f"{r.family}/{r.kind}", _fmt(r.lhs), _fmt(r.rhs), _fmt(r.slack), str(int(r.passed))]
        yield [str(params.n), _fmt(params.j_hat), "spectrum/poincare-vs-gap", _fmt(1.0 / gap), _fmt(c_pi), _fmt(c_pi - 1.0 / gap), str(int(spectral_ok))]

    write_csv(os.path.join(config.out, "lsi-verify.csv"), ["n", "j_hat", "family", "lhs", "rhs", "slack", "pass"], rows(), config)
    passed = fails == 0 and spectral_ok
    print(f"lsi-verify n={params.n} j={float(params.j_hat)!r}: {len(results)} certifications, "
          f"worst slack {worst_slack:.3e}, 1/gap={1.0/gap:.4f} <= C_PI={c_pi:.4f}: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else CERTIFICATION_ERROR


def _cmd_spectra(config: RunConfig) -> int:
    cell = ExperimentCell(n=config.n, j_hat=config.j_hat, m=config.m)
    units = [(cell, config.seed + r, r) for r in range(config.replicas)]
    results, _, first_matrix = _run_cells(units)
    rows = [result_row(r) for r in results]
    write_csv(os.path.join(config.out, "spectra.csv"), CSV_COLUMNS, rows, config)
    if config.save_matrix:
        j_float = float("inf") if cell.j_hat is INFINITE else float(cell.j_hat)
        write_matrix_dump(os.path.join(config.out, "covariance.bin"), cell.n, j_float, first_matrix)
    ok = all(r.pass_41 and r.pass_42 and r.pass_43 for r in results)
    lam1 = results[0].lambda1
    print(f"spectra n={config.n} j={_j_label(config.j_hat)} m={config.m} x{config.replicas}: "
          f"lambda1={lam1:.5f} -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else CERTIFICATION_ERROR


def _cmd_hitting(config: RunConfig) -> int:
    n = config.n
    full = (1 << n) - 1
    ok = True

    def rows():
        # replica k starts from the k-th uniform draw of stream 0 and steps on stream k + 1;
        # the starts are drawn CHAIN_DRAW_BLOCK at a time, so rows stream out in bounded memory
        nonlocal ok
        start_gen = RngStream(config.seed).generator()
        for lo in range(0, config.count, CHAIN_DRAW_BLOCK):
            hi = min(lo + CHAIN_DRAW_BLOCK, config.count)
            starts = _uniform_states(n, hi - lo, start_gen)
            for k, bits, gen in zip(range(lo, hi), starts, keyed_generators(config.seed, range(lo + 1, hi + 1))):
                ctilde = plus_component_count(bits, n)
                hit = hitting_time_aligned(bits, n, gen)
                # each step merges one component pair: ctilde plus components align after ctilde steps
                good = hit == (1 if bits == 0 or bits == full else ctilde + 1)
                ok = ok and good
                yield [str(n), str(k), str(ctilde), str(hit), str(int(good))]

    write_csv(os.path.join(config.out, "hitting.csv"), ["n", "replica", "ctilde", "hit_index", "pass"], rows(), config)
    print(f"hitting n={n} count={config.count}: every hit index is ctilde+1 (1 if aligned): {'PASS' if ok else 'FAIL'}")
    return 0 if ok else CERTIFICATION_ERROR


def _cmd_sweep(config: RunConfig) -> int:
    """Subcritical decay sweep: M = N^3 per size, Gershgorin norms decreasing
    up to batch-error bars and below the closed-form double-limit bound."""
    j = config.j_hat
    seeds = [config.seed + r for r in range(config.replicas)]
    units = [(ExperimentCell(n=n, j_hat=j, m=n**3), seed, idx)
             for idx, (n, seed) in enumerate((n, s) for n in config.n_list for s in seeds)]
    results, batch_norms, _ = _run_cells(units)
    rows = [result_row(r) for r in results]
    write_csv(os.path.join(config.out, "sweep.csv"), CSV_COLUMNS, rows, config)

    ok = all(r.pass_42 and r.pass_43 for r in results)
    # mean batch norms per size, with the error-bar monotonicity rule
    per_size = []
    for k, n in enumerate(config.n_list):
        group = batch_norms[k * len(seeds) : (k + 1) * len(seeds)]
        means = [mean for mean, _ in group]
        ses = [se for _, se in group]
        per_size.append((sum(means) / len(means), max(ses)))
    monotone = all(
        m2 <= m1 + 2.0 * math.hypot(s1, s2)
        for (m1, s1), (m2, s2) in zip(per_size, per_size[1:])
    )
    print(f"sweep j={_j_label(j)} n={config.n_list}: norm1 means "
          + " ".join(f"{m:.4f}" for m, _ in per_size)
          + f" -> {'PASS' if ok and monotone else 'FAIL'}")
    return 0 if ok and monotone else CERTIFICATION_ERROR


_COMMANDS = {
    "simulate": _cmd_simulate,
    "kernel-verify": _cmd_kernel_verify,
    "lsi-verify": _cmd_lsi_verify,
    "spectra": _cmd_spectra,
    "hitting": _cmd_hitting,
    "sweep": _cmd_sweep,
}


def run(config: RunConfig) -> int:
    os.makedirs(config.out, exist_ok=True)
    return _COMMANDS[config.command](config)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_config(argv)
        return run(config)
    except (UsageError, CriticalCouplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RESOURCE_ERROR


if __name__ == "__main__":
    sys.exit(main())
