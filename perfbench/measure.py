"""Set-up, timed passes, metrics and report of one benchmark run.

Imported by run.py after it has pinned BLAS and put the checkout's src/ on
the import path.
"""

import ctypes
import json
import os
import platform
import resource
import statistics
import time
from contextlib import nullcontext

import numpy as np
import scipy
from scipy.special import betainc

import oracle
import workloads
from hostclock import HostClock
from spans import HARNESS_SPANS, SolveLog, Tracer, durations, instrumented, outermost_ms, self_times

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
# The host's speed drifts (see hostclock.py), so set-up is sampled in
# batches before and after every pass, and setup_s is the median over all
# of them.  A batch repeats cheap builds until it has taken
# SETUP_BATCH_SECONDS, at most SETUP_BATCH_MAX builds.
SETUP_BATCH_SECONDS = 0.3
SETUP_BATCH_MAX = 50


def blas_threads():
    """Thread count each loaded OpenBLAS reports, keyed by library file."""
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    found = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in names:
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_pinned": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def make_workload(args):
    if args.workload == "montecarlo":
        return workloads.MonteCarlo(args.smoke, args.mc_seed)
    return workloads.WORKLOADS[args.workload](args.smoke)


def timed_pass(workload, problem, log, tracer=None):
    """One pass of the solve phase; returns (outputs, (start, end))."""
    with instrumented(log, tracer), (tracer.span("pass") if tracer else nullcontext()):
        t0 = time.perf_counter()
        outputs = workload.run(problem)
        t1 = time.perf_counter()
    return outputs, (t0, t1)


def build_batch(workload, clock, smoke, tracer=None):
    """Build the problem at least once and until a batch's time is spent.

    Returns (problem, [(start, end) of each build]).
    """
    spans = []
    budget = 0.0 if smoke else SETUP_BATCH_SECONDS
    while not spans or (sum(b - a for a, b in spans) < budget and len(spans) < SETUP_BATCH_MAX):
        clock.maybe_sample()
        with instrumented(None, tracer), (tracer.span("setup.build") if tracer else nullcontext()):
            t0 = time.perf_counter()
            problem = workload.build()
            spans.append((t0, time.perf_counter()))
    return problem, spans


def quantile(values, q):
    """Harrell-Davis estimate of quantile q of the values.

    A Beta-weighted mean of all order statistics: with 95 Monte Carlo
    solves, per-solve jitter reorders the solves next to the 90th
    percentile, which moves a single order statistic far more than this
    weighted mean.  On montecarlo the weights of the 90th percentile reach
    the cap-hitting solves, so it reads well above the plain order statistic.
    """
    x = np.sort(values)
    n = len(x)
    # Increments of the Beta(q(n+1), (1-q)(n+1)) distribution function.
    weights = np.diff(betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def end_to_end(setup_s, run_s, solve_s, log):
    """End-to-end metrics from per-build, per-pass and per-solve seconds."""
    attempted = len(solve_s)
    solve_ms = [1e3 * s for s in solve_s]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "run_s": (statistics.median(run_s), "s"),
        "solve_ms_p50": (quantile(solve_ms, 0.5), "ms"),
        "solve_ms_p90": (quantile(solve_ms, 0.9), "ms"),
        "solved_frac": ((attempted - log.failures) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, clock, builds, problem, overhead, false_failures):
    spans = tracer.spans
    dur = durations(spans, clock)
    own = self_times(spans, dur)

    def total_ms(name):
        return outermost_ms(spans, dur, name)

    def self_ms(names):
        return 1e3 * sum(t for s, t in zip(spans, own) if s["name"] in names)

    qp = [s for s in spans if s["name"] == "qp.solve"]
    iters = sum(s["iterations"] for s in qp)
    useful = sum(s["iterations"] for s in qp if s["status"] == "solved")
    solve_ms = total_ms("qp.solve")
    return {
        "config.load_ms": (total_ms("config.load") / builds, "ms"),
        "plant.regroup_ms": (total_ms("plant.regroup") / builds, "ms"),
        "synthesis.lyapunov_ms": (total_ms("synthesis.lyapunov") / builds, "ms"),
        "synthesis.lyapunov_system_mb": (8.0 * problem.n ** 4 / 1e6, "MB"),
        "synthesis.lqr_ms": (total_ms("synthesis.lqr") / builds, "ms"),
        "synthesis.select_ms": (total_ms("synthesis.select") / builds, "ms"),
        "qp.condense_ms": (total_ms("qp.condense"), "ms"),
        "qp.condense_calls": (sum(1 for s in spans if s["name"] == "qp.condense"), "count"),
        "qp.solve_ms": (solve_ms, "ms"),
        "qp.solve_calls": (len(qp), "count"),
        "qp.admm_iters": (iters, "count"),
        "qp.us_per_iter": (1e3 * solve_ms / iters if iters else 0.0, "us"),
        "qp.cap_hits": (sum(1 for s in qp if s["status"] == "max_iters"), "count"),
        "qp.infeasible": (sum(1 for s in qp if s["status"] == "infeasible"), "count"),
        "qp.useful_iter_frac": (useful / iters if iters else 1.0, "ratio"),
        "qp.false_failures": (false_failures, "count"),
        "controllers.centralized_ms": (total_ms("controllers.centralized"), "ms"),
        "controllers.noiter_ms": (total_ms("controllers.noiter"), "ms"),
        "controllers.coop_ms": (total_ms("controllers.coop"), "ms"),
        "controllers.coord_ms": (self_ms(("controllers.coop",)), "ms"),
        "controllers.shift_ms": (total_ms("controllers.shift"), "ms"),
        "harness.cost_ms": (total_ms("harness.cost"), "ms"),
        "harness.self_ms": (self_ms(HARNESS_SPANS), "ms"),
        "trace.overhead_frac": (overhead, "ratio"),
    }


NOTES = {
    "setup_s": "median of %(builds)d builds",
    "run_s": "median of %(passes)d passes",
    "solve_ms_p50": "Harrell-Davis, %(solves)d solves",
    "solve_ms_p90": "Harrell-Davis, %(solves)d solves",
    "synthesis.lyapunov_system_mb": "computed: 8*n^4 bytes, n=%(n)d",
}


def print_metrics(title, metrics, context):
    print("%s:" % title)
    for name, (value, unit) in metrics.items():
        note = NOTES.get(name)
        print("  %-30s %16.6g %-6s %s" % (name, value, unit, (note % context) if note else ""))


def run(args):
    """Run one workload as parsed by run.py; prints the report, returns 0."""
    env = environment()
    workload = make_workload(args)
    tracer = Tracer() if args.trace else None
    clock = HostClock()
    log = SolveLog(clock)
    with clock:
        problem, builds = build_batch(workload, clock, args.smoke, tracer)
        outputs, first = timed_pass(workload, problem, log)
        passes = [first]
        if tracer is None:
            # Passes fill --seconds; a pass starts only if half of it fits.
            builds += build_batch(workload, clock, args.smoke)[1]
            while sum(b - a for a, b in passes) + 0.5 * (passes[-1][1] - passes[-1][0]) < args.seconds:
                passes.append(timed_pass(workload, problem, log)[1])
                builds += build_batch(workload, clock, args.smoke)[1]
        else:
            traced = timed_pass(workload, problem, SolveLog(clock), tracer)[1]
    record = workload.record(problem)

    errors = workloads.gate(workload, problem, outputs, log)
    false_count, margins = oracle.false_failures(problem, log.failed_states)

    attempted = len(log.intervals)
    context = {"builds": len(builds), "passes": len(passes), "solves": attempted, "n": problem.n}
    print("workload %s  seed %d  trace %d%s" % (args.workload, args.seed, args.trace, "  smoke" if args.smoke else ""))
    print("environment %s" % json.dumps(env, sort_keys=True))
    print("problem %s" % json.dumps(record, sort_keys=True))
    for label, _, _, _, trace in outputs.get("loops", ()):
        print("loop %-18s steps %3d  admm_iters %d" % (label, len(trace.steps), sum(r.iterations for r in trace.steps)))
    if "montecarlo" in outputs:
        report = outputs["montecarlo"]
        print("montecarlo draws %d  excluded %d  loss_mean %r" % (report.draws, report.excluded, report.loss_mean))
    print("failed_frac %d/%d ratio  (solves that raised SolverFailure / solves attempted)"
          % (log.failures, attempted))
    print("verdicts of failed solves: %d false failures; least agent margin per state %s"
          % (false_count, [round(m, 4) for m in margins]))
    for err in errors:
        print("GATE FAILED: %s" % err)

    print("host speed %.4f of reference (%d kernel samples); raw wall seconds below, metrics in reference seconds"
          % (clock.speed(), len(clock.kernel_s)))
    for title, seconds in (("raw_wall", clock.wall), ("end_to_end", clock.reference)):
        e2e = end_to_end(
            [seconds(*iv) for iv in builds],
            [seconds(*iv) for iv in passes],
            [seconds(*iv) for iv in log.intervals],
            log,
        )
        print_metrics(title, e2e, context)
    if tracer is not None:
        untraced_s = clock.reference(*first)
        overhead = (clock.reference(*traced) - untraced_s) / untraced_s
        layers = per_layer(tracer, clock, len(builds), problem, overhead, false_count)
        print_metrics("per_layer", layers, context)
        spans_path = args.spans or os.path.join(OUT_DIR, "spans-%s-%d.json" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(os.path.abspath(spans_path)), exist_ok=True)
        tracer.dump(spans_path, {"workload": args.workload, "seed": args.seed, "environment": env, "problem": record})
        print("spans %d written to %s" % (len(tracer.spans), spans_path))
        metrics = layers
    else:
        metrics = e2e

    failed = 0 if workload.failures_allowed else log.failures
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0
