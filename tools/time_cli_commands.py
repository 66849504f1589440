"""Seconds per in-process ``cli.main`` call, and peak RSS per command, of one benchmark workload, for one source tree.

    python3 tools/time_cli_commands.py [--src SRC] [--workload WORKLOAD]

Imports ``isingring`` from ``SRC`` (default: this checkout's ``src``) and the
command lines of ``WORKLOAD`` (default: ``chain_stream``) from this
checkout's ``bench/workloads.py``, so two trees can be timed on one host with
the same commands. Each command runs once to warm up, then ``REPEATS`` times
at seed 0 into a temporary directory. Its peak RSS comes from one more run in
a fresh interpreter, started before this process imports numpy: ``ru_maxrss``
is a high-water mark, so read in this process it would carry the peaks of the
commands before, and a child's starts at its parent's. Prints one JSON
object: per command, the exit code, the samples and their median and
quartiles, in seconds, and the peak RSS in MiB.
"""

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
REPEATS = 5

#: Run by a fresh interpreter: argv is SRC, then the command line; prints the exit code and ru_maxrss in MiB.
PEAK_RSS_SCRIPT = """
import contextlib, io, resource, sys
sys.path.insert(0, sys.argv[1])
from isingring.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[2:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
"""


def peak_rss_mib(src: str, line: list) -> float:
    """Peak RSS in MiB of one ``cli.main(line)`` call in a fresh interpreter (Linux ``ru_maxrss`` is in KiB)."""
    out = subprocess.run([sys.executable, "-c", PEAK_RSS_SCRIPT, src, *line],
                         check=True, capture_output=True, text=True).stdout
    return float(out.split()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--workload", default="chain_stream")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        lines = {" ".join(command): [*command, "--seed", "0", "--out", tmp] for command in WORKLOADS[args.workload]}
        # before this process imports numpy: a child's ru_maxrss starts at its parent's high-water mark
        peaks = {name: peak_rss_mib(src, line) for name, line in lines.items()}
        sys.path.insert(0, src)
        from isingring.cli import main as cli_main

        for name, line in lines.items():
            samples = []
            for r in range(REPEATS + 1):
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main(line)
                if r:  # the first call warms up
                    samples.append(time.perf_counter() - t0)
            q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
            out[name] = {"exit": code, "median": round(median, 5), "q1": round(q1, 5), "q3": round(q3, 5),
                         "samples": [round(x, 5) for x in samples], "peak_rss_mib": round(peaks[name], 2)}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
