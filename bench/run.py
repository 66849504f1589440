"""isingring benchmark: end-to-end and per-layer numbers for three CLI workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload covariance_grid --seed 0 --seconds 20 --trace 0

Workloads (``bench/workloads.py``; the reasons are in ``BENCHMARK.json``):
``covariance_grid``, ``exact_certify`` and ``chain_stream``. A run starts
fresh interpreters with ``src`` on ``PYTHONPATH``, so nothing is installed
or built. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run and the tracing overhead. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the run record (revision,
machine, versions, BLAS, pool size, seed, sample counts, per-command times,
statistical verdicts). Spans of a traced run are written to
``.bench_out/spans-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: Fresh interpreters timed for ``setup_s`` in every untraced run.
SETUP_SAMPLES = 9
#: A run must end within this many seconds.
RUN_LIMIT_S = 175.0



def load_units(section: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, deadline):
    """Run a benchmark interpreter to completion; returns its standard output."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + argv,
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def revision() -> dict:
    """Git revision when the checkout has a ``.git`` directory, and a hash of ``src``."""
    git = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        git = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path, encoding="utf-8") as fh:
                    git = fh.read().strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "isingring")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git": git, "src_sha256": digest.hexdigest()}


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cli_pool": {"cpu_count": os.cpu_count(), "ISING_THREADS": os.environ.get("ISING_THREADS"),
                     "threads": int(os.environ.get("ISING_THREADS") or 0) or os.cpu_count()},
    }


def measure(args, deadline, run_dir) -> tuple:
    """Runs the setup samples and the workload; returns (metrics, record, correct)."""
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "revision": revision(), "machine": machine()}
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            setups.append(float(run_child(["setup"], deadline).strip()))
    out = run_child(["run", "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--out", run_dir] + (["--tiny"] if args.tiny else []), deadline)
    result = json.loads(out.strip().splitlines()[-1])
    record["environment"] = result["environment"]
    if not result["environment"]["isingring"].startswith(os.path.join(ROOT, "src") + os.sep):
        raise RuntimeError(f"imported isingring from {result['environment']['isingring']}, not from src/")
    walls = result["walls"]
    states = result["states"]
    wall = statistics.median(walls)
    failed = len(result["failures"])
    attempted = result["attempted"]
    correct = failed == 0 and len(set(states)) == 1
    record["samples"] = {"setup_s": len(setups), "wall_s": len(walls), "states_per_s": len(walls),
                         "peak_rss_mib": 1, "ops_ok_frac": attempted}
    record["command_wall_s"] = [
        {"argv": argv[:-2], "median_s": statistics.median(c[k] for c in result["command_walls"])}
        for k, argv in enumerate(workloads.commands(args.workload, args.seed, args.tiny))]
    record["pass_walls_s"] = walls
    # user + system CPU seconds of the worker per pass; wall minus CPU is time
    # no thread of the worker ran, such as GIL hand-offs under the cli pool
    record["pass_cpu_s"] = result["cpu"]
    record["states_per_pass"] = states[0]
    record["attempted"] = attempted
    record["failed"] = failed
    record["ops_failed_frac"] = failed / attempted
    record["failures"] = result["failures"]
    record["statistical_verdicts"] = result["verdicts"]

    if args.trace:
        traced_wall = statistics.median(result["traced_walls"])
        metrics = dict(result["layers"])
        metrics["trace.overhead"] = traced_wall / wall - 1.0
        # the traced count of chain states must match the count read from the outputs
        traced_states = metrics["dynamics.states"]
        correct = correct and set(result["traced_states"]) == {states[0]} and traced_states == states[0]
        record["samples"] = {"untraced_passes": len(walls), "traced_passes": len(result["traced_walls"])}
        record["traced_pass_walls_s"] = result["traced_walls"]
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(result["spans"], fh)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "states_per_s": states[0] / wall,
            "peak_rss_mib": result["peak_rss_mib"],
            "ops_ok_frac": 1.0 - failed / attempted,
        }
    units = load_units("per_layer" if args.trace else "end_to_end")
    return {name: (metrics[name], unit) for name, unit in units.items()}, record, correct


def main() -> int:
    start = time.monotonic()
    parser = argparse.ArgumentParser(description="isingring benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny command sizes (smoke run)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "isingring", "__init__.py")):
        print(f"error: no isingring package at {os.path.join(ROOT, 'src', 'isingring')}", file=sys.stderr)
        return 2

    run_dir = os.path.join(OUT, f"run-{os.getpid()}")
    try:
        metrics, record, correct = measure(args, start + RUN_LIMIT_S, run_dir)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:50s} {value:16.6g} {unit}")
    print(f"{'ops_failed_frac (record only)':50s} {record['ops_failed_frac']:16.6g} fraction")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
