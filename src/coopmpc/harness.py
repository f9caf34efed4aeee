"""Closed-loop simulation, strategy comparison, and Monte-Carlo studies.

Cost accounting follows the cooperative objective split: the global cost
GC of an open-loop sequence set is the full finite-horizon sum, the
coupled cost CC is the part contributed by the coupling residuals Qtilde
and Ptilde, and GC minus CC is what the decoupled weights alone see.
Both are quadratic forms evaluated at the plan with no trajectory
simulated: GC is the centralized condensed objective, CC the cached blocks
of `Problem.coupled_cost_blocks`.
"""

from dataclasses import asdict, astuple, dataclass, field

import numpy as np

from .controllers import (
    StrategyConfig,
    is_count,
    shift_sequences,
    solve_centralized,
    solve_cooperative,
    solve_strategy,
)
from .errors import DimensionMismatch, SolverFailure

MAX_CONSECUTIVE_FAILURES = 3


def global_cost(problem, xbar0, seqs):
    """Global cost GC of an open-loop sequence set.

    The centralized condensed objective 0.5 u'Hu + g'u + const at the
    stacked plan u: the stage costs over the horizon plus the terminal
    cost, with no trajectory simulated.
    """
    return _global_cost(problem, problem.state(xbar0), seqs)


def _global_cost(problem, xbar0, seqs):
    """`global_cost` at a state `Problem.state` has already checked."""
    qp = problem.centralized_operators().condense(xbar0)
    return qp.objective(problem.plan(seqs).stacked())


def evaluate_cost(problem, xbar0, seqs):
    """Global and coupled cost of an open-loop sequence set.

    Returns (GC, CC).  GC is `global_cost`.  CC is the coupling residual
    weights' share, Qtilde over the horizon and Ptilde at its end (no
    input term), evaluated as u'Au + 2 u'B xbar0 + xbar0'C xbar0 on the
    cached `Problem.coupled_cost_blocks`, with no trajectory simulated.
    """
    xbar0 = problem.state(xbar0)
    gc = _global_cost(problem, xbar0, seqs)
    A, B, C = problem.coupled_cost_blocks()
    u = seqs.stacked()
    cc = float(u @ (A @ u) + 2.0 * (u @ (B @ xbar0)) + xbar0 @ (C @ xbar0))
    return gc, cc


@dataclass
class StepRecord:
    t: int
    xbar: np.ndarray
    u0: tuple
    gc: float
    cc: float
    iterations: int
    millis: float
    strategy: str


@dataclass(eq=False)
class ClosedLoopTrace:
    steps: list
    meta: dict = field(default_factory=dict)

    def states(self):
        return np.array([rec.xbar for rec in self.steps])

    def norms(self):
        return np.array([float(np.linalg.norm(rec.xbar)) for rec in self.steps])


def run_closed_loop(problem, xbar0, strategy, steps):
    """Simulate the receding-horizon loop for `steps` sampling instants.

    `strategy` is a StrategyConfig or a schedule [(start_step, cfg), ...]
    switching strategies mid-run.  The cooperative strategy starts from the
    shifted-sequence plan: the applied sequence, shifted one stage with the
    terminal controller move appended.  meta["strategy"] names the
    strategies of the schedule in order.

    Solver failures are logged in meta["failures"], each with its step t,
    error message, status and least terminal-ball margin (None when the
    solve stopped before the certificate ran); the run aborts after three
    consecutive ones and the truncated trace is returned with
    meta["aborted"] set.  `steps` must be an integer of at least 0 and
    every schedule start one of at least 0, the least of them 0, or
    DimensionMismatch is raised before any solve.
    """
    if not is_count(steps, 0):
        raise DimensionMismatch("steps must be an integer >= 0, got %r" % (steps,))
    schedule = strategy if isinstance(strategy, list) else [(0, strategy)]
    starts = [start for start, _ in schedule]
    if not all(is_count(start, 0) for start in starts) or min(starts, default=None) != 0:
        raise DimensionMismatch(
            "a strategy schedule needs integer starts >= 0, the first at step 0, got %r" % (starts,)
        )
    schedule = sorted(schedule, key=lambda sc: sc[0])
    xbar = np.asarray(xbar0, dtype=float).reshape(-1).copy()
    trace = ClosedLoopTrace(steps=[], meta={"strategy": " / ".join(cfg.label() for _, cfg in schedule)})
    previous = None
    failures = 0
    failure_log = []
    for t in range(steps):
        cfg = None
        for start, candidate in schedule:
            if t >= start:
                cfg = candidate
        try:
            seqs, info = solve_strategy(problem, xbar, cfg, previous=previous)
        except SolverFailure as exc:
            failures += 1
            failure_log.append({"t": t, "error": str(exc), "status": exc.status, "margin": exc.solution.margin})
            if failures >= MAX_CONSECUTIVE_FAILURES:
                trace.meta["aborted"] = True
                trace.meta["failures"] = failure_log
                return trace
            previous = None
            continue
        failures = 0
        gc, cc = evaluate_cost(problem, xbar, seqs)
        rec = StepRecord(
            t=t,
            xbar=xbar.copy(),
            u0=tuple(ui[:, 0].copy() for ui in seqs.u),
            gc=gc,
            cc=cc,
            iterations=info.iterations,
            millis=info.millis,
            strategy=cfg.label(),
        )
        previous = shift_sequences(problem, xbar, seqs)
        xbar = problem.step(xbar, rec.u0)
        trace.steps.append(rec)
    if failure_log:
        trace.meta["failures"] = failure_log
    return trace


def replay_states(problem, trace, xbar0):
    """Recompute the state path from the logged first moves."""
    xbar = np.asarray(xbar0, dtype=float).reshape(-1).copy()
    out = [xbar.copy()]
    for rec in trace.steps:
        xbar = problem.step(xbar, rec.u0)
        out.append(xbar.copy())
    return np.array(out)


def _csv(header, rows):
    """CSV text: the header row, then one line per row.

    Floats (numpy's included) print as the repr of the Python float, the
    shortest round trip, so equal values give byte-identical text; every
    other cell prints as its str.
    """
    cell = lambda v: repr(float(v)) if isinstance(v, float) else str(v)
    lines = [",".join(header)] + [",".join(map(cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def trace_to_csv(trace, include_timing=True):
    """Render a trace in the canonical column layout.

    Columns: t, the regrouped state, the applied first input of each
    agent, GC, CC, the iteration count and, unless disabled, the solve
    time.  Numbers use shortest round-trip formatting, so two runs of the
    same configuration produce byte-identical text (timing excluded).
    """
    if not trace.steps:
        return ""
    n = len(trace.steps[0].xbar)
    header = ["t"]
    header += ["xbar_%d" % k for k in range(n)]
    for i, ui in enumerate(trace.steps[0].u0):
        if len(ui) == 1:
            header.append("u_agent%d" % (i + 1))
        else:
            header += ["u_agent%d_%d" % (i + 1, c) for c in range(len(ui))]
    header += ["GC", "CC", "iters"]
    if include_timing:
        header.append("millis")
    rows = []
    for rec in trace.steps:
        row = [rec.t, *rec.xbar, *np.concatenate(rec.u0), rec.gc, rec.cc, rec.iterations]
        rows.append(row + [rec.millis] if include_timing else row)
    return _csv(header, rows)


def timing_summary(trace):
    """Worst-case and average solve time per strategy label, in seconds."""
    groups = {}
    for rec in trace.steps:
        groups.setdefault(rec.strategy, []).append(rec.millis / 1e3)
    return [
        {"method": label, "worst_case_s": max(vals), "average_s": sum(vals) / len(vals)}
        for label, vals in groups.items()
    ]


def timing_summary_csv(rows):
    header = ["method", "worst_case_s", "average_s"]
    return _csv(header, [[row[key] for key in header] for row in rows])


@dataclass
class ComparisonRow:
    method: str
    gc: float
    gc_loss: float
    cc: float
    cc_loss: float


def _loss(value, centralized):
    """Loss of a cost relative to the centralized one; 0.0 when that is 0."""
    return (value - centralized) / centralized if centralized else 0.0


def compare_strategies(problem, xbar0, iter_counts=(1, 2, 3, 4, 5), warmup_steps=3):
    """Single-instant comparison of the three strategies.

    Protocol: run the closed loop under the no-iteration strategy for
    `warmup_steps` instants, then solve every strategy once at the common
    resulting state.  The cooperative runs all start from the shifted
    no-iteration sequences of the last warm-up instant, so the row for p
    iterations is the p-th iterate of one deterministic run.  Losses are
    relative to the centralized row, and 0.0 where its cost is 0 (at the
    origin every strategy plans zero inputs).  Every iteration count must
    be an integer of at least 1, as for the cooperative strategy itself,
    and `warmup_steps` an integer of at least 0.
    """
    if not all(is_count(p, 1) for p in iter_counts or ()):
        raise DimensionMismatch("iteration counts must be integers >= 1, got %r" % (tuple(iter_counts),))
    if not is_count(warmup_steps, 0):
        raise DimensionMismatch("warm-up steps must be an integer >= 0, got %r" % (warmup_steps,))
    xbar = np.asarray(xbar0, dtype=float).reshape(-1).copy()
    previous = None
    noiter_cfg = StrategyConfig(kind="noiter")
    for _ in range(warmup_steps):
        seqs, _ = solve_strategy(problem, xbar, noiter_cfg)
        previous = shift_sequences(problem, xbar, seqs)
        xbar = problem.step(xbar, tuple(ui[:, 0] for ui in seqs.u))
    rows = []
    cen_seqs, _ = solve_centralized(problem, xbar)
    cen_gc, cen_cc = evaluate_cost(problem, xbar, cen_seqs)
    rows.append(ComparisonRow("centralized", cen_gc, 0.0, cen_cc, 0.0))
    if iter_counts:
        p_max = max(iter_counts)
        coop_cfg = StrategyConfig(kind="coop", iters=p_max)
        _, _, history = solve_cooperative(
            problem, xbar, coop_cfg, previous=previous, keep_history=True
        )
        for p in sorted(iter_counts, reverse=True):
            gc, cc = evaluate_cost(problem, xbar, history[p - 1])
            rows.append(ComparisonRow("coop_%d" % p, gc, _loss(gc, cen_gc), cc, _loss(cc, cen_cc)))
    ni_seqs, _ = solve_strategy(problem, xbar, noiter_cfg)
    ni_gc, ni_cc = evaluate_cost(problem, xbar, ni_seqs)
    rows.append(ComparisonRow("noiter", ni_gc, _loss(ni_gc, cen_gc), ni_cc, _loss(ni_cc, cen_cc)))
    return rows, xbar


def comparison_to_csv(rows):
    return _csv(
        ["method", "GC", "GC_loss", "CC", "CC_loss"],
        [astuple(row) for row in rows],
    )


@dataclass(eq=False)
class MonteCarloReport:
    draws: int
    seed: int
    strategy: str
    bounds: tuple
    loss_mean: float
    loss_worst: float
    excluded: int
    per_draw_losses: list
    excluded_draws: list

    def to_dict(self):
        return dict(asdict(self), bounds=list(self.bounds))


def monte_carlo(problem, draws, bounds, strategy, seed):
    """Estimate the cost loss of a strategy against the centralized solve.

    Initial states are drawn uniformly from the box `bounds` in the
    original ordering with a PCG64 generator (all draws up front, so the
    sample is a pure function of the seed) and mapped through the
    permutation.  Draws where either solve fails are excluded and
    reported as null losses at their seed-stable index; `excluded_draws`
    records each one's index, the failed solve's status and its least
    terminal-ball margin (None when the solve stopped before the
    certificate ran).  loss_mean and loss_worst are None when every draw
    is excluded.  Each loss compares the `global_cost` of the two plans,
    so no trajectory is simulated; where the centralized cost is 0 (a
    draw at the origin) the loss is 0.0.  `draws` and `seed` must be
    integers of at least 0, or DimensionMismatch is raised before any draw.
    """
    for name, value in (("draws", draws), ("seed", seed)):
        if not is_count(value, 0):
            raise DimensionMismatch("%s must be an integer >= 0, got %r" % (name, value))
    draws, seed = int(draws), int(seed)
    lo, hi = float(bounds[0]), float(bounds[1])
    rng = np.random.Generator(np.random.PCG64(seed))
    X0 = lo + (hi - lo) * rng.random((draws, problem.n))
    losses = []
    excluded_draws = []
    for d in range(draws):
        xbar = problem.pmap.to_regrouped(X0[d])
        try:
            seqs, _ = solve_strategy(problem, xbar, strategy)
            cen, _ = solve_centralized(problem, xbar)
        except SolverFailure as exc:
            losses.append(None)
            excluded_draws.append({"index": d, "status": exc.status, "margin": exc.solution.margin})
            continue
        losses.append(_loss(global_cost(problem, xbar, seqs), global_cost(problem, xbar, cen)))
    kept = [v for v in losses if v is not None]
    return MonteCarloReport(
        draws=draws,
        seed=seed,
        strategy=strategy.label(),
        bounds=(lo, hi),
        loss_mean=float(np.mean(kept)) if kept else None,
        loss_worst=float(np.max(kept)) if kept else None,
        excluded=len(excluded_draws),
        per_draw_losses=losses,
        excluded_draws=excluded_draws,
    )
