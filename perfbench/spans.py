"""Spans recorded from outside the library, and the layer metrics derived from them.

The benchmark never edits the library.  It wraps public functions in the
namespace their caller looks them up in (``controllers`` imports
``build_condensed`` and ``solve_qp`` by name, ``harness`` imports
``solve_strategy`` by name, and so on), records one span per call, and
restores the originals when the traced pass ends.

A span holds its name, start and end (``perf_counter`` seconds), the index
of the span that was open when it started, and the id of the solve that
caused it.  A solve is one strategy call made by the harness; spans outside
any solve carry solve id None.  Spans stay in memory until the benchmark
writes them out.
"""

import json
import time
from contextlib import contextmanager, nullcontext

from coopmpc import SolverFailure, config, controllers, harness, synthesis

# (module, attribute, span name).  Each entry is the lookup a caller makes,
# so the same library function can appear once per calling module.
LAYER_HOOKS = (
    (config, "load_config", "config.load"),
    (config, "config_from_dict", "config.load"),
    (config, "build_composite", "plant.regroup"),
    (config, "build_permutation", "plant.regroup"),
    (config, "transform_plant", "plant.regroup"),
    (synthesis, "transform_cost", "plant.regroup"),
    (synthesis, "solve_discrete_lyapunov", "synthesis.lyapunov"),
    (synthesis, "lqr_gain", "synthesis.lqr"),
    (synthesis, "select_terminal_weights", "synthesis.select"),
    (controllers, "build_condensed", "qp.condense"),
    (controllers, "solve_qp", "qp.solve"),
    (controllers, "solve_centralized", "controllers.centralized"),
    (controllers, "solve_noiter_all", "controllers.noiter"),
    (controllers, "solve_cooperative", "controllers.coop"),
    (harness, "solve_centralized", "controllers.centralized"),
    (harness, "solve_cooperative", "controllers.coop"),
    (harness, "shift_sequences", "controllers.shift"),
    (harness, "evaluate_cost", "harness.cost"),
    (harness, "run_closed_loop", "harness.loop"),
    (harness, "compare_strategies", "harness.compare"),
    (harness, "monte_carlo", "harness.montecarlo"),
)

# The harness calls these once per solve; each call opens a new solve id.
# The value names the strategy a call solves with.
SOLVE_ENTRY_POINTS = {
    "solve_strategy": lambda args: args[0].kind,
    "solve_centralized": lambda args: "centralized",
    "solve_cooperative": lambda args: "coop",
}

HARNESS_SPANS = ("harness.loop", "harness.compare", "harness.montecarlo")


class SolveLog:
    """Start and end of every solve and its outcome, plus what the gate needs.

    This is the only instrumentation of an untraced pass: two clock reads
    per solve, and a host speed sample before it when one is due (see
    hostclock.py).  ``plans`` keeps (strategy, state,
    returned sequences) of each successful solve and ``failed_states`` the
    state of each solve that raised SolverFailure, for the checks made after
    the timed region.
    """

    def __init__(self, clock):
        self.clock = clock
        self.intervals = []
        self.failures = 0
        self.plans = []
        self.failed_states = []


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._solve_id = None
        self._next_solve = 0

    def open(self, name):
        span = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "solve": self._solve_id,
        }
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    @contextmanager
    def solve(self):
        """Scope of one solve: spans opened inside share a new solve id."""
        outer = self._solve_id
        self._solve_id = self._next_solve
        self._next_solve += 1
        try:
            with self.span("solve") as span:
                yield span
        finally:
            self._solve_id = outer

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            with self.span(name) as span:
                out = fn(*args, **kwargs)
                if name == "qp.solve":
                    span["iterations"] = int(out.iterations)
                    span["status"] = out.status
                return out

        return traced

    def dump(self, path, meta):
        """Write every span, with start and end relative to the first one."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        rows = []
        for i, span in enumerate(self.spans):
            row = dict(span, id=i, start=span["start"] - t0, end=span["end"] - t0)
            rows.append(row)
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": rows}, fh)
            fh.write("\n")


def _solve_hook(fn, kind, log, tracer):
    def timed(problem, xbar, *args, **kwargs):
        log.clock.maybe_sample()
        with tracer.solve() if tracer is not None else nullcontext():
            t0 = time.perf_counter()
            try:
                out = fn(problem, xbar, *args, **kwargs)
            except SolverFailure:
                log.intervals.append((t0, time.perf_counter()))
                log.failures += 1
                log.failed_states.append(xbar.copy())
                raise
            log.intervals.append((t0, time.perf_counter()))
        log.plans.append((kind(args), xbar.copy(), out[0]))
        return out

    return timed


@contextmanager
def instrumented(log, tracer=None):
    """Patch the library for one pass or build; always restores the originals.

    With a tracer every layer hook records spans.  With a log the harness's
    solve entry points are timed into it.
    """
    saved = []
    try:
        if tracer is not None:
            for module, attr, name in LAYER_HOOKS:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, tracer.wrap(getattr(module, attr), name))
        if log is not None:
            for attr, kind in SOLVE_ENTRY_POINTS.items():
                saved.append((harness, attr, getattr(harness, attr)))
                setattr(harness, attr, _solve_hook(getattr(harness, attr), kind, log, tracer))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def durations(spans, clock):
    """Wall seconds of each span, host speed samples left out."""
    return [clock.wall(s["start"], s["end"]) for s in spans]


def self_times(spans, dur):
    """Duration of each span minus the time its direct children cover.

    Calls are sequential on one thread, so children never overlap and the
    covered time is the sum of their durations.
    """
    out = list(dur)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            out[s["parent"]] -= d
    return out


def outermost_ms(spans, dur, name):
    """Total duration of the spans called `name` not nested in one of the same name."""
    total = 0.0
    for s, d in zip(spans, dur):
        if s["name"] != name:
            continue
        p = s["parent"]
        while p is not None and spans[p]["name"] != name:
            p = spans[p]["parent"]
        if p is None:
            total += d
    return 1e3 * total
