"""Call-level tracing of ``isingring`` from outside the package.

Each wrapper is installed by rebinding a name in the module that makes the
call (``isingring.cli.build_wolff_kernel``, ``isingring.kernel.decompose``,
...), so no file of the package changes and ``uninstall`` restores it.

Every traced call records wall time (``perf_counter``) and busy time
(``thread_time``, the CPU time of the calling thread); wait is wall minus
busy, which under the ``cli`` thread pool is mostly time spent waiting for
the GIL. Times are inclusive of nested traced calls. Boundaries with few
calls become spans (name, id, parent, thread, start, end, busy); boundaries
crossed ~10^5 times per command (``wolff_entry_*``, ``decompose``,
``iter_chain`` steps) are only aggregated into a count and totals. Spans in
``kernel`` and ``functionals`` also record their tracemalloc peak; tracemalloc
runs only while such a span is open, and its peaks are meaningful only when
those spans run on one thread, as they do in every ``isingring`` command.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
import tracemalloc

perf = time.perf_counter
cpu = time.thread_time

SPAN, AGG, ALLOC = "span", "agg", "alloc"

#: (module under ``isingring``, attribute, traced name, kind)
BOUNDARIES = [
    ("cli", "build_wolff_kernel", "kernel.build_wolff_kernel", ALLOC),
    ("cli", "build_glauber_kernel", "kernel.build_glauber_kernel", ALLOC),
    ("cli", "check_detailed_balance", "kernel.check_detailed_balance", ALLOC),
    ("kernel", "check_detailed_balance", "kernel.check_detailed_balance", ALLOC),
    ("cli", "symmetrize_and_decompose", "kernel.symmetrize_and_decompose", ALLOC),
    ("cli", "certification_sweep", "functionals.certification_sweep", ALLOC),
    ("functionals", "dirichlet_form", "functionals.dirichlet_form", ALLOC),
    ("functionals", "dirichlet_form_batch", "functionals.dirichlet_form_batch", ALLOC),
    ("cli", "gibbs_measure", "model.gibbs_measure", SPAN),
    ("dynamics", "gibbs_measure", "model.gibbs_measure", SPAN),
    ("cli", "evaluate_cell", "spectra.evaluate_cell", SPAN),
    ("spectra", "sample_stationary", "dynamics.sample_stationary", SPAN),
    ("dynamics", "sample_stationary", "dynamics.sample_stationary", SPAN),
    ("cli", "wolff_entry_from_boundary", "kernel.wolff_entry", AGG),
    ("cli", "wolff_entry_from_components", "kernel.wolff_entry", AGG),
    ("cli", "decompose", "clusters.decompose", AGG),
    ("kernel", "decompose", "clusters.decompose", AGG),
    ("spectra", "decompose", "clusters.decompose", AGG),
    ("spectra", "decode_states", "spectra.accumulate", AGG),
    ("spectra.CovarianceAccumulator", "add_spins", "spectra.accumulate", AGG),
]

CHAIN = "spectra.run_covariance_chain"
COMMAND = "cli.main"
POOL_TASK = "cli.pool_task"

# frame fields: a list per open call, cheaper than an object on hot paths
ID, START, BUSY0, CHILD_WALL, CHILD_BUSY, ALLOC_ENTRY = range(6)


class Tracer:
    """Holds spans and per-thread totals in memory until ``layer_metrics`` reads them."""

    def __init__(self):
        self.spans = []
        self.chains = []  # (command id, command, stream, n, norm1 batch mean, batch se)
        self.hit_states = 0
        self.sampled_states = 0
        self._thread_totals = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._alloc_stack = []
        self._patches = []
        self._command = (0, "")

    # -- recording -----------------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.stack, local.totals
        except AttributeError:
            local.stack, local.totals = [], {}
            self._thread_totals.append(local.totals)
            return local.stack, local.totals

    def current_id(self) -> int:
        stack, _ = self._state()
        return stack[-1][ID] if stack else 0

    def call(self, name, fn, args, kwargs, kind=SPAN, parent=None, attrs=None):
        stack, totals = self._state()
        if parent is None:
            parent = stack[-1][ID] if stack else 0
        frame = [next(self._ids), 0.0, 0.0, 0.0, None, None]
        stack.append(frame)
        if kind == ALLOC:
            self._alloc_enter(frame)
        frame[START] = perf()
        frame[BUSY0] = cpu()
        try:
            return fn(*args, **kwargs)
        finally:
            busy = cpu() - frame[BUSY0]
            end = perf()
            wall = end - frame[START]
            stack.pop()
            peak = self._alloc_exit(frame) if kind == ALLOC else 0.0
            total = totals.get(name)
            if total is None:
                totals[name] = [1, wall, busy, peak]
            else:
                total[0] += 1
                total[1] += wall
                total[2] += busy
                if peak > total[3]:
                    total[3] = peak
            if stack:
                outer = stack[-1]
                outer[CHILD_WALL] += wall
                child_busy = outer[CHILD_BUSY]
                if child_busy is None:
                    outer[CHILD_BUSY] = {name: busy}
                else:
                    child_busy[name] = child_busy.get(name, 0.0) + busy
            if kind != AGG:
                self.spans.append({
                    "name": name, "id": frame[ID], "parent": parent,
                    "thread": threading.get_ident(), "start": frame[START], "end": end,
                    "busy": busy, "child_wall": frame[CHILD_WALL],
                    "child_busy": frame[CHILD_BUSY] or {},
                    **({"peak_alloc_mib": peak} if kind == ALLOC else {}),
                    **(attrs or {}),
                })

    def _alloc_enter(self, frame):
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._alloc_stack:
            outer = self._alloc_stack[-1]
            outer[1] = max(outer[1], peak)
        tracemalloc.reset_peak()
        frame[ALLOC_ENTRY] = [current, current]
        self._alloc_stack.append(frame[ALLOC_ENTRY])

    def _alloc_exit(self, frame) -> float:
        entry = self._alloc_stack.pop()
        _, peak = tracemalloc.get_traced_memory()
        if self._alloc_stack:
            outer = self._alloc_stack[-1]
            outer[1] = max(outer[1], peak)
        else:
            tracemalloc.stop()
        return (max(entry[1], peak) - entry[0]) / 2**20

    def command(self, main, argv):
        """Run ``main(argv)`` as the span of one CLI command."""
        self._command = (next(self._ids), argv[0])
        return self.call(COMMAND, main, (argv,), {}, attrs={"command": argv[0]})

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import importlib

        for module, attr, name, kind in BOUNDARIES:
            path, _, cls = module.partition(".")
            owner = importlib.import_module(f"isingring.{path}")
            if cls:
                owner = getattr(owner, cls)
            self._patch(owner, attr, self._wrapper(name, getattr(owner, attr), kind))

        cli = importlib.import_module("isingring.cli")
        self._patch(cli, "empirical_vs_exact", self._sampler_wrapper(cli.empirical_vs_exact))
        self._patch(cli, "run_covariance_chain", self._chain_wrapper(cli.run_covariance_chain))
        self._patch(cli, "iter_chain", self._iter_chain_wrapper(cli.iter_chain))
        self._patch(cli, "hitting_time_aligned", self._hitting_wrapper(cli.hitting_time_aligned))
        self._patch(cli, "ThreadPoolExecutor", self._pool_class(cli.ThreadPoolExecutor))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrapper(self, name, fn, kind):
        call = self.call

        def traced(*args, **kwargs):
            return call(name, fn, args, kwargs, kind)

        traced.__wrapped__ = fn
        return traced

    def _chain_wrapper(self, fn):
        tracer = self

        def traced(params, m, kind, rng, *args, **kwargs):
            attrs = {"regime": "critical" if params.is_critical else "subcritical",
                     "kind": kind, "m": m, "n": params.n}
            run = tracer.call(CHAIN, fn, (params, m, kind, rng) + args, kwargs, attrs=attrs)
            tracer.chains.append((*tracer._command, rng.stream, params.n,
                                  run.norm1_batch_mean, run.norm1_batch_se))
            return run

        return traced

    def _iter_chain_wrapper(self, fn):
        call = self.call

        def traced(initial, steps, kind, params, rng):
            it = fn(initial, steps, kind, params, rng)
            name = f"dynamics.iter_chain.{kind}"
            for _ in range(steps):
                yield call(name, next, (it,), {}, AGG)

        return traced

    def _sampler_wrapper(self, fn):
        tracer = self

        def traced(kernel, params, trials, *args, **kwargs):
            check = tracer.call("kernel.empirical_vs_exact", fn, (kernel, params, trials) + args, kwargs, ALLOC)
            tracer.sampled_states += kernel.size * trials  # one-step draws from every start state
            return check

        return traced

    def _hitting_wrapper(self, fn):
        tracer = self

        def traced(*args, **kwargs):
            hit = tracer.call("dynamics.hitting_time_aligned", fn, args, kwargs, AGG)
            tracer.hit_states += hit
            return hit

        return traced

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current_id()
                return super().submit(tracer.call, POOL_TASK, fn, args, kwargs, SPAN, parent)

        return TracedPool

    # -- reading -------------------------------------------------------------

    def totals(self) -> dict:
        merged = {}
        for totals in list(self._thread_totals):
            for name, (calls, wall, busy, peak) in totals.items():
                m = merged.setdefault(name, [0, 0.0, 0.0, 0.0])
                m[0] += calls
                m[1] += wall
                m[2] += busy
                m[3] = max(m[3], peak)
        return merged


def _union_length(intervals) -> float:
    covered, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def sweep_monotone_failures(tracer: Tracer) -> int:
    """Sweep commands whose per-size norm means break the CLI's monotonicity rule.

    Re-applies the rule of ``isingring sweep`` (mean of batch-mean norms per
    size, largest batch SE, ``m2 <= m1 + 2 hypot(s1, s2)``) to the traced
    chains, because the CSV does not carry batch means. A sweep numbers its
    chains size by size, so sorting by stream groups them in ``--n-list`` order.
    """
    by_command = {}
    for command_id, command, stream, n, mean, se in tracer.chains:
        if command == "sweep":
            by_command.setdefault(command_id, []).append((stream, n, mean, se))
    failures = 0
    for chains in by_command.values():
        per_size = []
        for _, group in itertools.groupby(sorted(chains), key=lambda c: c[1]):
            group = list(group)
            per_size.append((sum(c[2] for c in group) / len(group), max(c[3] for c in group)))
        if not all(m2 <= m1 + 2.0 * math.hypot(s1, s2)
                   for (m1, s1), (m2, s2) in zip(per_size, per_size[1:])):
            failures += 1
    return failures


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer numbers per traced pass of the workload (see BENCHMARK.json)."""
    totals = tracer.totals()

    def total(name, field):
        return totals.get(name, [0, 0.0, 0.0, 0.0])[field]

    def per_pass(value):
        return value / passes

    out = {}
    commands = [s for s in tracer.spans if s["name"] == COMMAND]
    tasks = [s for s in tracer.spans if s["name"] == POOL_TASK]
    cli_self = 0.0
    for cmd in commands:
        own_tasks = [(t["start"], t["end"]) for t in tasks if t["parent"] == cmd["id"]]
        cli_self += cmd["end"] - cmd["start"] - cmd["child_wall"] - _union_length(own_tasks)
    out["cli.self_s"] = per_pass(cli_self)
    out["cli.pool_wait_s"] = per_pass(sum(t["end"] - t["start"] - t["busy"] for t in tasks))

    chain_busy = total(CHAIN, 2)
    out[f"{CHAIN}.busy_s"] = per_pass(chain_busy)
    out[f"{CHAIN}.wait_s"] = per_pass(total(CHAIN, 1) - chain_busy)
    out[f"{CHAIN}.calls"] = per_pass(total(CHAIN, 0))
    accumulate = total("spectra.accumulate", 2)
    out["spectra.accumulate.busy_s"] = per_pass(accumulate)
    out["spectra.accumulate.share"] = accumulate / chain_busy if chain_busy else 0.0
    out["spectra.evaluate_cell.busy_s"] = per_pass(total("spectra.evaluate_cell", 2))

    stepping = {"subcritical": [0.0, 0], "critical": [0.0, 0]}
    for span in tracer.spans:
        if span["name"] == CHAIN and span["kind"] == "wolff":
            children = span["child_busy"]
            step = (span["busy"] - children.get("spectra.accumulate", 0.0)
                    - children.get("dynamics.sample_stationary", 0.0))
            stepping[span["regime"]][0] += step
            stepping[span["regime"]][1] += span["m"]
    out["dynamics.wolff_step.busy_s"] = per_pass(sum(busy for busy, _ in stepping.values()))
    for regime, (busy, states) in stepping.items():
        out[f"dynamics.wolff_us_per_state.{regime}"] = 1e6 * busy / states if states else 0.0
    chain_states = sum(states for _, states in stepping.values())

    iter_states = 0
    for kind in ("glauber", "wolff"):
        name = f"dynamics.iter_chain.{kind}"
        calls = total(name, 0)
        iter_states += calls
        out[f"dynamics.iter_chain.us_per_state.{kind}"] = 1e6 * total(name, 2) / calls if calls else 0.0
    hits = total("dynamics.hitting_time_aligned", 0)
    out["dynamics.hitting_time_aligned.us_per_call"] = (
        1e6 * total("dynamics.hitting_time_aligned", 2) / hits if hits else 0.0)
    out["dynamics.sample_stationary.busy_s"] = per_pass(total("dynamics.sample_stationary", 2))
    out["dynamics.states"] = per_pass(chain_states + iter_states + tracer.hit_states + tracer.sampled_states)

    for name in ("build_wolff_kernel", "build_glauber_kernel", "check_detailed_balance",
                 "symmetrize_and_decompose", "empirical_vs_exact"):
        out[f"kernel.{name}.busy_s"] = per_pass(total(f"kernel.{name}", 2))
        out[f"kernel.{name}.peak_alloc_mib"] = total(f"kernel.{name}", 3)
    out["kernel.wolff_entry.calls"] = per_pass(total("kernel.wolff_entry", 0))
    out["kernel.wolff_entry.busy_s"] = per_pass(total("kernel.wolff_entry", 2))

    out["functionals.certification_sweep.busy_s"] = per_pass(total("functionals.certification_sweep", 2))
    out["functionals.dirichlet_form.calls"] = per_pass(total("functionals.dirichlet_form", 0))
    out["functionals.dirichlet_form.busy_s"] = per_pass(total("functionals.dirichlet_form", 2))
    out["functionals.dirichlet_form.peak_alloc_mib"] = total("functionals.dirichlet_form", 3)
    out["functionals.dirichlet_form_batch.busy_s"] = per_pass(total("functionals.dirichlet_form_batch", 2))
    out["functionals.dirichlet_form_batch.peak_alloc_mib"] = total("functionals.dirichlet_form_batch", 3)

    out["clusters.decompose.calls"] = per_pass(total("clusters.decompose", 0))
    out["clusters.decompose.busy_s"] = per_pass(total("clusters.decompose", 2))
    out["model.gibbs_measure.busy_s"] = per_pass(total("model.gibbs_measure", 2))
    out["cli.sweep_monotone_fail"] = per_pass(sweep_monotone_failures(tracer))
    return out
