"""Microseconds per chain step of ``run_chain``, for one source tree.

    python3 tools/time_chain_steps.py [--src SRC]

Imports ``isingring`` from ``SRC`` (default: this checkout's ``src``), so two
trees can be timed on one host with one script. Each case runs a stored chain
of ``STATES`` states from a fixed start ``REPEATS`` times; the time of a run
divided by its steps is one sample. Prints one JSON object: per case, the
samples and their median and quartiles, in microseconds per step.
"""

import argparse
import json
import os
import statistics
import sys
import time

#: (name, kind, n, j_hat); "inf" is the critical point.
CASES = [
    ("wolff-n16-j0.5", "wolff", 16, 0.5),
    ("wolff-n24-j0.5", "wolff", 24, 0.5),
    ("wolff-n32-j0.5", "wolff", 32, 0.5),
    ("wolff-n48-j0.5", "wolff", 48, 0.5),
    ("wolff-n32-inf", "wolff", 32, "inf"),
    ("glauber-n32-j0.5", "glauber", 32, 0.5),
]

STATES = 100_000
REPEATS = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from isingring import INFINITE, Configuration, InitialLaw, ModelParams, RngStream, run_chain

    out = {}
    for name, kind, n, j in CASES:
        params = ModelParams(n, INFINITE if j == "inf" else j)
        law = InitialLaw.fixed(Configuration(0b1011 << (n // 2), n))
        run_chain(law, 10_000, kind, params, RngStream(1))  # warm up
        samples = []
        for r in range(REPEATS):
            t0 = time.perf_counter()
            run_chain(law, STATES, kind, params, RngStream(2, r))
            samples.append(1e6 * (time.perf_counter() - t0) / (STATES - 1))
        q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
        out[name] = {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
                     "samples": [round(x, 4) for x in samples]}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
