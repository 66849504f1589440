"""Seconds per in-process ``cli.main`` call of the ``chain_stream`` benchmark commands, for one source tree.

    python3 tools/time_cli_commands.py [--src SRC]

Imports ``isingring`` from ``SRC`` (default: this checkout's ``src``) and the
command lines from this checkout's ``bench/workloads.py``, so two trees can
be timed on one host with the same commands. Each command runs once to warm
up, then ``REPEATS`` times at seed 0 into a temporary directory. Prints one
JSON object: per command, the samples and their median and quartiles, in
seconds.
"""

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
WORKLOAD = "chain_stream"
REPEATS = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from isingring.cli import main as cli_main
    from workloads import WORKLOADS

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command in WORKLOADS[WORKLOAD]:
            line = [*command, "--seed", "0", "--out", tmp]
            samples = []
            for r in range(REPEATS + 1):
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main(line)
                if r:  # the first call warms up
                    samples.append(time.perf_counter() - t0)
            q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
            out[" ".join(command)] = {"exit": code, "median": round(median, 5), "q1": round(q1, 5),
                                      "q3": round(q3, 5), "samples": [round(x, 5) for x in samples]}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
