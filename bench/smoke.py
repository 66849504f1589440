"""Smoke run of the benchmark: every workload at tiny sizes, traced and untraced.

    python3 bench/smoke.py

Checks that each run prints a last line with exactly ``correct``,
``attempted``, ``failed`` and ``metrics``, that every end-to-end (untraced)
or per-layer (traced) name in ``BENCHMARK.json`` is emitted with its unit and
a finite value, and that the benchmark exits non-zero without a result in a
directory holding only ``BENCHMARK.json`` and the benchmark's own files.
Exits 1 on the first problem. Takes about half a minute.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(root, *args):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=170)


def check_run(spec, workload, trace) -> list:
    proc = bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", str(trace), "--tiny")
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{where}: missing {sorted(set(expected) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {entry}, expected unit {unit}")
    return problems


def check_bare() -> list:
    """The benchmark must fail, printing no result, where the package is absent."""
    bare = os.path.join(ROOT, ".bench_out", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = bench(bare, "--workload", "chain_stream", "--seed", "0", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_bare()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not problems else 'FAILED'}", flush=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
