"""One fresh interpreter of the benchmark (started by ``run.py``).

``worker.py setup`` times ``import isingring`` plus the first BLAS and
LAPACK calls and prints the seconds. ``worker.py run ...`` runs one
workload's commands back to back, in process, through
``isingring.cli.main(argv)``, pass after pass, and prints one JSON object.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402


def _first_blas_call():
    import numpy as np

    a = np.arange(64 * 64, dtype=np.float64).reshape(64, 64) / 4096.0
    return float(np.linalg.eigvalsh(a @ a.T)[-1])


if __name__ == "__main__" and sys.argv[1:2] == ["setup"]:
    import isingring  # noqa: F401

    _first_blas_call()
    print(time.perf_counter() - T0)
    sys.exit(0)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: Stop starting passes once this many seconds have gone, whatever --seconds
#: says, so that a run ends within its time limit.
PASS_CUTOFF_S = 120.0

#: Statistical verdicts counted from the CSVs; ``cli.sweep_monotone_fail`` needs
#: the batch means, so only the tracer reports it.
VERDICTS = ("spectra.pass42_fail", "spectra.pass43_fail", "kernel.empirical_z_fail")


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Runner:
    """Runs one workload's command list as timed passes and checks every output."""

    def __init__(self, workload, seed, tiny, out_root):
        import isingring
        import isingring.cli as cli

        self.cli = cli
        self.version = isingring.__version__
        self.commands = []
        for k, argv in enumerate(workloads.commands(workload, seed, tiny)):
            out = os.path.join(out_root, f"cmd{k}")
            os.makedirs(out, exist_ok=True)
            full = argv + ["--out", out]
            self.commands.append((full, workloads.csv_path(out, full), cli.parse_config(full).hash()))
        self.reference = {}  # command index -> CSV bytes of the first pass
        self.attempted = 0
        self.failures = []

    def one_pass(self, tracer=None):
        """Run every command once; returns the pass's timings and checked results."""
        for _, path, _ in self.commands:
            if os.path.exists(path):
                os.remove(path)
        results = []
        sink = io.StringIO()
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        for argv, _, _ in self.commands:
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = tracer.command(self.cli.main, argv) if tracer else self.cli.main(argv)
            except Exception:
                code = traceback.format_exc(limit=3)
            results.append((code, time.perf_counter() - t0))
        wall = time.perf_counter() - start
        cpu = _cpu_seconds() - cpu0
        return wall, dict(self._check(results, traced=tracer is not None), cpu_s=cpu)

    def _check(self, results, traced):
        verdicts = Counter({name: 0 for name in VERDICTS})
        states = 0
        walls = []
        for k, ((argv, path, config_hash), (code, seconds)) in enumerate(zip(self.commands, results)):
            self.attempted += 1
            walls.append(seconds)
            try:
                if not isinstance(code, int):
                    raise workloads.CheckFailure(f"raised: {code}")
                with open(path, "rb") as fh:
                    data = fh.read()
                if self.reference.setdefault(k, data) != data:
                    raise workloads.CheckFailure("CSV differs from the first pass with the same seed")
                rows = workloads.parse_csv(data.decode("utf-8"), argv[0], self.version, config_hash)
                states += workloads.check_output(argv, code, rows, verdicts)
            except (workloads.CheckFailure, OSError, ValueError, KeyError, IndexError) as exc:
                self.failures.append({"pass_traced": traced, "argv": argv[:-2],
                                      "error": f"{type(exc).__name__}: {exc}"})
        return {"command_walls": walls, "states": states, "verdicts": dict(verdicts)}


def run(workload, seed, seconds, trace, tiny, out_root):
    runner = Runner(workload, seed, tiny, out_root)
    started = time.perf_counter()

    def passes(until, tracer=None):
        done = []
        while True:
            gc.collect()
            done.append(runner.one_pass(tracer))
            elapsed = time.perf_counter() - started
            if elapsed >= until or elapsed + done[-1][0] >= PASS_CUTOFF_S:
                return done

    untraced = passes(seconds / 2 if trace else seconds)
    result = {"walls": [w for w, _ in untraced],
              "command_walls": [c["command_walls"] for _, c in untraced],
              "cpu": [c["cpu_s"] for _, c in untraced],
              "states": [c["states"] for _, c in untraced],
              "verdicts": untraced[0][1]["verdicts"]}
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = passes(seconds, tracer)
        finally:
            tracer.uninstall()
        layers = tracing.layer_metrics(tracer, len(traced))
        layers.update(traced[0][1]["verdicts"])
        result.update(
            traced_walls=[w for w, _ in traced],
            traced_states=[c["states"] for _, c in traced],
            layers=layers,
            spans=tracer.spans,
        )
    result.update(
        attempted=runner.attempted,
        failures=runner.failures,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=environment(),
    )
    return result


def environment():
    import importlib.metadata

    import isingring
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})

    def version(name):
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "isingring": isingring.__file__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["run"])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    _first_blas_call()
    result = run(args.workload, args.seed, args.seconds, args.trace, args.tiny, args.out)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
