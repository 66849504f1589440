"""The benchmark's workloads and the checks on their outputs.

A workload is a fixed list of ``isingring`` CLI commands that one client
runs back to back (a closed loop: the next command starts when the previous
one returns). The workload seed is passed as ``--seed`` to every command, so
the same seed gives the same inputs and, by the CLI's ``(config, seed)``
contract, byte-identical CSV files.

Checks are split in two. Deterministic checks decide whether a command
failed: the CSV parses with its header and ``# version``/``# config_hash``
trailer, exact certifications hold, and exit codes 2 and 3 never occur.
Statistical verdicts (``pass_42``, ``pass_43``, the sweep monotonicity rule,
the empirical kernel z-test) are counted and reported, never gated: at a
fixed error rate they fail on some seeds by design.
"""

from __future__ import annotations

import os

#: Full-size commands per workload (without ``--seed``/``--out``).
WORKLOADS = {
    "covariance_grid": [
        ["sweep", "--j-hat", "0.5", "--n-list", "16,24,32,48", "--replicas", "2"],
        ["spectra", "--n", "32", "--j-hat", "inf", "--m", "20000", "--replicas", "2"],
    ],
    "exact_certify": [
        ["kernel-verify", "--n", "10", "--j-hat", "0.5"],
        ["kernel-verify", "--n", "8", "--j-hat", "1.0", "--trials", "20000"],
        ["lsi-verify", "--n", "10", "--j-hat", "0.5", "--functions", "2000"],
    ],
    "chain_stream": [
        ["simulate", "--n", "32", "--j-hat", "0.5", "--m", "200000", "--dynamics", "glauber"],
        ["simulate", "--n", "32", "--j-hat", "1.5", "--m", "50000"],
        ["hitting", "--n", "48", "--count", "2000"],
    ],
}

#: The same commands at tiny sizes, for the smoke run.
TINY_WORKLOADS = {
    "covariance_grid": [
        ["sweep", "--j-hat", "0.5", "--n-list", "6,8", "--replicas", "2"],
        ["spectra", "--n", "8", "--j-hat", "inf", "--m", "400", "--replicas", "2"],
    ],
    "exact_certify": [
        ["kernel-verify", "--n", "4", "--j-hat", "0.5"],
        ["kernel-verify", "--n", "4", "--j-hat", "1.0", "--trials", "200"],
        ["lsi-verify", "--n", "4", "--j-hat", "0.5", "--functions", "20"],
    ],
    "chain_stream": [
        ["simulate", "--n", "8", "--j-hat", "0.5", "--m", "2000", "--dynamics", "glauber"],
        ["simulate", "--n", "8", "--j-hat", "1.5", "--m", "500"],
        ["hitting", "--n", "8", "--count", "20"],
    ],
}

CSV_NAMES = {
    "simulate": "simulate.csv",
    "kernel-verify": "kernel-verify.csv",
    "lsi-verify": "lsi-verify.csv",
    "spectra": "spectra.csv",
    "sweep": "sweep.csv",
    "hitting": "hitting.csv",
}

GRID_HEADER = ["n", "j_hat", "m", "seed", "lambda1", "lambda2", "norm1",
               "khat_norm_bound", "thm43_bound", "pass_41", "pass_42", "pass_43"]

HEADERS = {
    "simulate": ["n", "j_hat", "m", "dynamics", "seed", "mean_magnetization",
                 "mean_nn_correlation", "exact_nn_correlation", "nn_error"],
    "kernel-verify": ["check", "value", "tolerance", "pass"],
    "lsi-verify": ["n", "j_hat", "family", "lhs", "rhs", "slack", "pass"],
    "spectra": GRID_HEADER,
    "sweep": GRID_HEADER,
    "hitting": ["n", "replica", "ctilde", "hit_index", "pass"],
}

EXACT_KERNEL_CHECKS = {
    "wolff_row_sum_error", "wolff_diagonal_max", "wolff_detailed_balance",
    "glauber_row_sum_error", "glauber_detailed_balance",
    "wolff_dual_form_disagreement", "glauber_wolff_comparison_excess",
}

#: Commands whose exit code 1 can only come from a failed exact check.
NO_STATISTICAL_VERDICT = {"simulate", "lsi-verify", "hitting"}


def commands(workload: str, seed: int, tiny: bool = False) -> list:
    table = TINY_WORKLOADS if tiny else WORKLOADS
    return [argv + ["--seed", str(seed)] for argv in table[workload]]


def flags(argv: list) -> dict:
    """``--name value`` pairs of a command line, keyed by name."""
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


class CheckFailure(Exception):
    pass


def _require(condition: bool, message: str):
    if not condition:
        raise CheckFailure(message)


def parse_csv(text: str, command: str, version: str, config_hash: str) -> list:
    """Rows of a CLI CSV after checking its header and metadata trailer."""
    _require(text.endswith("\n"), "missing final newline")
    lines = text[:-1].split("\n")
    _require(len(lines) >= 3, "fewer than three lines")
    _require(lines[0].split(",") == HEADERS[command], f"header {lines[0]!r}")
    _require(lines[-2] == f"# version={version}", f"trailer {lines[-2]!r}")
    _require(lines[-1] == f"# config_hash={config_hash}", f"trailer {lines[-1]!r}")
    width = len(HEADERS[command])
    rows = [line.split(",") for line in lines[1:-2]]
    for row in rows:
        _require(len(row) == width, f"row {row!r} has {len(row)} fields")
    return rows


def _floats(row, *idx):
    return [float(row[i]) for i in idx]


def check_output(argv: list, exit_code: int, rows: list, verdicts: dict) -> int:
    """Deterministic checks on one command's CSV rows; returns chain states produced.

    Statistical verdict failures are added to ``verdicts``. Raises
    CheckFailure on any deterministic failure.
    """
    command = argv[0]
    opts = flags(argv)
    _require(exit_code in (0, 1), f"exit code {exit_code}")
    statistical_failures = 0

    if command == "simulate":
        _require(len(rows) == 1, "simulate writes one row")
        row = rows[0]
        _require(row[0] == opts["n"] and row[2] == opts["m"], "n/m columns")
        mag, corr = _floats(row, 5, 6)
        _require(abs(mag) <= 1.0 and abs(corr) <= 1.0, "observables outside [-1, 1]")
        states = int(opts["m"])

    elif command == "kernel-verify":
        names = [row[0] for row in rows]
        expected = set(EXACT_KERNEL_CHECKS)
        if int(opts.get("trials", "0")):
            expected.add("wolff_empirical_max_z")
        _require(set(names) == expected and len(names) == len(expected), f"checks {names}")
        for name, value, tol, ok in rows:
            if name == "wolff_empirical_max_z":
                if ok != "1":
                    verdicts["kernel.empirical_z_fail"] += 1
                    statistical_failures += 1
                continue
            _require(ok == "1" and float(value) <= float(tol), f"exact check {name} = {value} > {tol}")
        states = (1 << int(opts["n"])) * int(opts.get("trials", "0"))

    elif command == "lsi-verify":
        _require(len(rows) >= 2 * int(opts["functions"]) + 1, "too few certification rows")
        tol = float(opts.get("slack-tol", "1e-10"))
        for row in rows:
            slack = float(row[5])
            _require(row[6] == "1" and slack >= -tol, f"certification {row[2]} slack {slack}")
        states = 0

    elif command in ("spectra", "sweep"):
        replicas = int(opts.get("replicas", "1"))
        sizes = [int(n) for n in opts["n-list"].split(",")] if command == "sweep" else [int(opts["n"])]
        _require(len(rows) == len(sizes) * replicas, "one row per size and replica")
        states = 0
        for k, row in enumerate(rows):
            n = sizes[k // replicas]
            m = n**3 if command == "sweep" else int(opts["m"])
            _require(row[0] == str(n) and row[2] == str(m), "n/m columns")
            lam1, lam2, norm1 = _floats(row, 4, 5, 6)
            _require(lam2 <= lam1 <= min(norm1, 1.0) + 1e-12, f"spectrum order {lam2} {lam1} {norm1}")
            if row[1] == "inf":
                _require(row[9] == "1", "pass_41 fails at the critical point")
            if row[10] != "1":
                verdicts["spectra.pass42_fail"] += 1
                statistical_failures += 1
            if row[11] != "1":
                verdicts["spectra.pass43_fail"] += 1
                statistical_failures += 1
            states += m
        if command == "sweep" and exit_code == 1 and statistical_failures == 0:
            # all cells pass, so the exit code reports the monotonicity rule
            statistical_failures += 1

    elif command == "hitting":
        count = int(opts["count"])
        _require(len(rows) == count, "one row per replica")
        states = 0
        for k, (n, replica, ctilde, hit, ok) in enumerate(rows):
            c, h = int(ctilde), int(hit)
            _require(n == opts["n"] and replica == str(k), "n/replica columns")
            _require(ok == "1" and (h == 1 or h in (c, c + 1)), f"hit index {h} for ctilde {c}")
            states += h

    else:
        raise CheckFailure(f"unknown command {command}")

    if exit_code == 1:
        _require(command not in NO_STATISTICAL_VERDICT and statistical_failures > 0,
                 "exit code 1 without a failed statistical verdict")
    return states


def csv_path(out_dir: str, argv: list) -> str:
    return os.path.join(out_dir, CSV_NAMES[argv[0]])

