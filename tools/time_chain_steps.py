"""Microseconds per chain step of ``iter_chain`` and per start of ``hitting_time_aligned``, for one source tree.

    python3 tools/time_chain_steps.py [--src SRC]

Imports ``isingring`` from ``SRC`` (default: this checkout's ``src``), so two
trees can be timed on one host with one script. Each chain case streams a
chain of the case's number of states through ``iter_chain`` from a fixed start
``REPEATS`` times; the time of a run divided by its steps is one sample. The
rings past 64 sites check that the block loops, whose masks grow with n, do
not lose to the parent there. The hitting case runs
``hitting_time_aligned`` from the ``HITTING_STARTS`` starts that
``isingring hitting --seed 0`` draws, start k on the generator of stream
k + 1 as that command takes it (from ``keyed_generators`` in trees that have
it, else ``RngStream(0, k + 1)``), ``REPEATS`` times; the time of a run
divided by its starts is one sample. Prints one JSON object: per case, the samples and their median
and quartiles, in microseconds per step or per start.
"""

import argparse
import collections
import json
import os
import statistics
import sys
import time

#: (name, kind, n, j_hat, states); "inf" is the critical point, where "hitting" runs.
CASES = [
    ("wolff-n16-j0.5", "wolff", 16, 0.5, 100_000),
    ("wolff-n24-j0.5", "wolff", 24, 0.5, 100_000),
    ("wolff-n32-j0.5", "wolff", 32, 0.5, 100_000),
    ("wolff-n48-j0.5", "wolff", 48, 0.5, 100_000),
    ("wolff-n32-inf", "wolff", 32, "inf", 100_000),
    ("wolff-n300-j0.5", "wolff", 300, 0.5, 50_000),
    ("wolff-n1000-j0.5", "wolff", 1000, 0.5, 50_000),
    ("wolff-n20000-j0.5", "wolff", 20000, 0.5, 5_000),
    ("glauber-n32-j0.5", "glauber", 32, 0.5, 100_000),
    ("glauber-n32-j1.5", "glauber", 32, 1.5, 100_000),
    ("glauber-n300-j0.5", "glauber", 300, 0.5, 50_000),
    ("glauber-n1000-j0.5", "glauber", 1000, 0.5, 50_000),
    ("glauber-n20000-j0.5", "glauber", 20000, 0.5, 5_000),
    ("hitting-n48", "hitting", 48, "inf", None),
]

HITTING_STARTS = 2000
REPEATS = 3


def _run_hitting(starts, hitting_time_aligned, replica_gens) -> float:
    """Seconds for one pass of ``hitting_time_aligned`` over ``starts``, start k on stream k + 1."""
    t0 = time.perf_counter()
    for initial, gen in zip(starts, replica_gens(len(starts))):
        hitting_time_aligned(initial, gen)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from isingring import INFINITE, Configuration, InitialLaw, ModelParams, RngStream, hitting_time_aligned, iter_chain
    from isingring import randomness

    if hasattr(randomness, "keyed_generators"):
        def replica_gens(count):
            return randomness.keyed_generators(0, range(1, count + 1))
    else:
        def replica_gens(count):
            return (RngStream(0, k + 1) for k in range(count))

    out = {}
    for name, kind, n, j, states in CASES:
        samples = []
        if kind == "hitting":
            gen = RngStream(0).generator()
            starts = [Configuration(int(gen.integers(0, 1 << n)), n) for _ in range(HITTING_STARTS)]
            _run_hitting(starts[:200], hitting_time_aligned, replica_gens)  # warm up
            for r in range(REPEATS):
                samples.append(1e6 * _run_hitting(starts, hitting_time_aligned, replica_gens) / HITTING_STARTS)
        else:
            params = ModelParams(n, INFINITE if j == "inf" else j)
            law = InitialLaw.fixed(Configuration(0b1011 << (n // 2), n))
            collections.deque(iter_chain(law, states // 10, kind, params, RngStream(1)), maxlen=0)  # warm up
            for r in range(REPEATS):
                t0 = time.perf_counter()
                collections.deque(iter_chain(law, states, kind, params, RngStream(2, r)), maxlen=0)
                samples.append(1e6 * (time.perf_counter() - t0) / (states - 1))
        q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
        out[name] = {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
                     "samples": [round(x, 4) for x in samples]}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
