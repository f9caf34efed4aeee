"""Solver strategies: centralized, local no-iteration, and cooperative.

The regrouped dynamics are decoupled across agents, so the centralized
problem couples agents only through the cost.  The no-iteration strategy
drops the coupling weights and solves M independent local problems.  The
cooperative strategy iterates: each agent minimizes the full cooperative
cost over its own sequence with the others frozen, and the new iterate is
the convex combination of the agents' candidate points, which keeps the
cooperative cost nonincreasing and every iterate feasible.

In condensed form the cooperative cost is the centralized QP and the
iteration a Jacobi sweep on it.  Agent i's subproblem keeps its own
quadratic term and takes its linear term from its positions of
g_x xbar0 + 2A u, u the current iterate and 2A, from
`Problem.coupled_cost_blocks`, the centralized H without the agents' own blocks.
"""

import time
from dataclasses import dataclass
from itertools import accumulate
from numbers import Integral

import numpy as np

from .errors import DimensionMismatch, SolverFailure

# build_condensed is not called here (the strategies condense through the
# operators cached on Problem) but stays bound next to solve_qp, so tools
# that wrap this module's QP entry points by name find both.
from .qp import INFEASIBLE, SOLVED, build_condensed, solve_qp  # noqa: F401


def is_count(value, least):
    """True for an int, not a bool, of at least `least`."""
    return type(value) is not bool and isinstance(value, Integral) and value >= least


@dataclass
class StrategyConfig:
    """Which solver runs at each sampling instant.

    kind is one of "centralized", "noiter", "coop".  For "coop", iters is
    the fixed iteration budget and weights the averaging weights (default
    1/M each).
    """

    kind: str
    iters: int = 1
    weights: tuple = None

    def __post_init__(self):
        if self.kind not in ("centralized", "noiter", "coop"):
            raise DimensionMismatch("unknown strategy kind %r" % (self.kind,))
        if self.kind == "coop" and not is_count(self.iters, 1):
            raise DimensionMismatch("cooperative strategy needs an integer iters >= 1, got %r" % (self.iters,))
        if self.weights is not None:
            w = tuple(float(v) for v in self.weights)
            if not all(np.isfinite(w)) or any(v < 0 for v in w) or abs(sum(w) - 1.0) > 1e-12:
                raise DimensionMismatch("averaging weights must be a convex combination")
            self.weights = w

    def label(self):
        if self.kind == "coop":
            return "coop_%d" % self.iters
        return self.kind


def _agent_columns(m):
    """Slice of each agent's inputs in a stage of the stacked input."""
    return [slice(end - mi, end) for mi, end in zip(m, accumulate(m))]


@dataclass(eq=False, slots=True)
class InputSequenceSet:
    """The input sequences of all agents over the horizon.

    `stage` is the (N, sum(m)) stage-major array: row k holds u(k), agent by
    agent, the layout of the condensed QP's stacked input.  `m` lists each
    agent's input count.
    """

    stage: np.ndarray
    m: tuple

    @property
    def N(self):
        return self.stage.shape[0]

    @property
    def u(self):
        """Agent i's (m_i, N) sequence as u[i], a view of its columns."""
        return tuple(self.stage[:, cols].T for cols in _agent_columns(self.m))

    def stacked(self):
        """Stage-major stacked vector [u(0); u(1); ...], a view of `stage`."""
        return self.stage.reshape(-1)

    @classmethod
    def from_stacked(cls, vec, m, N):
        """The set whose stacked vector is `vec`, sharing its memory."""
        return cls(np.asarray(vec, dtype=float).reshape(N, sum(m)), tuple(m))


@dataclass
class SolveInfo:
    """Aggregated effort of one strategy invocation.

    millis follows the parallel accounting convention: the maximum over
    agents of that agent's total solve time (a centralized solve is its
    own single agent).  iterations is the summed QP iteration count.
    """

    millis: float
    iterations: int
    label: str = ""


def _solved(qp, options, context):
    sol = solve_qp(qp, options=options)
    if sol.status != SOLVED:
        margin = "n/a" if sol.margin is None else "%.4g" % sol.margin
        raise SolverFailure(
            "%s finished with status %s (terminal-ball margin %s)" % (context, sol.status, margin),
            status=sol.status,
            solution=sol,
        )
    return sol


def solve_centralized(problem, xbar0):
    """Joint solve over all agents with the product-of-balls terminal set.

    Returns (InputSequenceSet, SolveInfo).
    """
    xbar0 = problem.state(xbar0)
    t0 = time.perf_counter()
    qp = problem.centralized_operators().condense(xbar0)
    sol = _solved(qp, problem.solver, "centralized solve")
    millis = 1e3 * (time.perf_counter() - t0)
    seqs = InputSequenceSet.from_stacked(sol.u_stack, problem.m, problem.N)
    return seqs, SolveInfo(millis=millis, iterations=sol.iterations, label="centralized")


def solve_local_noiter(problem, i, x_i0):
    """Agent-i solve using only its own block data; no coupling terms.

    Returns (u_i of shape (m_i, N), SolveInfo).  The result depends only
    on agent i's state and data, never on the other agents.
    """
    t0 = time.perf_counter()
    qp = problem.agent_operators(i).condense(x_i0)
    sol = _solved(qp, problem.solver, "local solve of agent %d" % i)
    millis = 1e3 * (time.perf_counter() - t0)
    u_i = sol.u_stack.reshape(problem.N, problem.m[i]).T
    return u_i, SolveInfo(millis=millis, iterations=sol.iterations, label="noiter")


def _decisiveness(failure):
    # An infeasible agent before a capped one, then the least margin.
    margin = failure.solution.margin
    return (failure.status != INFEASIBLE, np.inf if margin is None else margin)


def solve_noiter_all(problem, xbar0):
    """All local solves, each from the agent's own state alone; time
    accounted as the slowest agent.

    One product with `Problem.noiter_law()` gives every agent's
    unconstrained plan L xbar0 and terminal state K xbar0.  An agent whose
    plan lies in its box and whose terminal state lies in its ball, with no
    tolerance, has its optimum there: the exact check of `solve_qp`, one
    iteration, with no QP condensed.  Only the other agents run
    `solve_local_noiter`.  The shared product is charged to every agent's
    time and each fallback solve to its own agent.

    Every agent is solved even when one fails, so the verdict does not
    depend on agent order: the SolverFailure raised is the most decisive
    one, an infeasible agent before a capped one, then the least
    terminal-ball margin.
    """
    xbar0 = problem.state(xbar0)
    M, m = problem.M, problem.m
    t0 = time.perf_counter()
    L, K = problem.noiter_law()
    stage = (L @ xbar0).reshape(problem.N, sum(m))
    reach = K @ xbar0
    # Written as "not inside" so that a NaN fails the check.
    outside = ~(np.abs(stage) <= np.concatenate(problem.u_max)).all(axis=0)
    box_misses = np.bincount(np.repeat(np.arange(M), m), weights=outside, minlength=M)
    sq_norms = np.bincount(np.repeat(np.arange(M), problem.pmap.bar_dims), weights=reach * reach, minlength=M)
    exact = (box_misses == 0) & (np.sqrt(sq_norms) <= problem.ingredients.ball_radius)
    per_agent = np.full(M, 1e3 * (time.perf_counter() - t0))
    iters = int(np.count_nonzero(exact))
    slices = problem.group_slices()
    columns = _agent_columns(m)
    failures = []
    for i in np.flatnonzero(~exact).tolist():
        try:
            u_i, info = solve_local_noiter(problem, i, xbar0[slices[i]])
        except SolverFailure as exc:
            failures.append(exc)
            continue
        stage[:, columns[i]] = u_i.T
        per_agent[i] += info.millis
        iters += info.iterations
    if failures:
        raise min(failures, key=_decisiveness)
    return (
        InputSequenceSet(stage, m),
        SolveInfo(millis=float(np.max(per_agent)), iterations=iters, label="noiter"),
    )


def solve_cooperative(problem, xbar0, cfg, previous=None, keep_history=False):
    """Fixed-budget cooperative iteration from a feasible starting point.

    Each iteration solves every agent's subproblem against the others'
    previous sequences and averages the candidate points with the
    configured weights.  Agent i's subproblem is its own QP, condensed
    once per call, with g replaced by its positions of g_x xbar0 + 2A u
    (formed once per iteration for all agents), u the stacked iterate and
    A the first of `Problem.coupled_cost_blocks()`, so its objective is
    the cooperative cost in agent i's sequence up to a constant.
    `previous`, with stage shape (N, sum(m)), is the starting iterate;
    when absent the no-iteration plan is used.  Time is the maximum over
    agents of their summed solve times, shared products charged to every
    agent.

    Returns (InputSequenceSet, SolveInfo) or, with keep_history, the
    history of iterates as a third element.
    """
    xbar0 = problem.state(xbar0)
    M = problem.M
    weights = cfg.weights or tuple(1.0 / M for _ in range(M))
    if len(weights) != M:
        raise DimensionMismatch("need one averaging weight per agent")
    m = problem.m
    if previous is not None:
        problem.plan(previous)
    columns = _agent_columns(m)
    # Each input's averaging weight: agent i's weight on its own columns.
    column_weights = np.repeat(weights, m)
    per_agent = np.zeros(M)
    iters = 0
    if previous is None:
        iterate, info0 = solve_noiter_all(problem, xbar0)
        per_agent[:] = info0.millis
        iters = info0.iterations
    else:
        iterate = previous
    qps = []
    for i, s in enumerate(problem.group_slices()):
        t0 = time.perf_counter()
        qps.append(problem.agent_operators(i).condense(xbar0[s]))
        per_agent[i] += 1e3 * (time.perf_counter() - t0)
    t0 = time.perf_counter()
    g0 = problem.centralized_operators().g_x @ xbar0
    A = problem.coupled_cost_blocks()[0]
    per_agent += 1e3 * (time.perf_counter() - t0)
    history = []
    for _ in range(cfg.iters):
        t0 = time.perf_counter()
        g = (g0 + 2.0 * (A @ iterate.stacked())).reshape(iterate.stage.shape)
        per_agent += 1e3 * (time.perf_counter() - t0)
        candidates = np.empty_like(iterate.stage)
        for i, (qp, cols) in enumerate(zip(qps, columns)):
            t0 = time.perf_counter()
            qp.g = g[:, cols].reshape(-1)
            sol = _solved(qp, problem.solver, "cooperative solve of agent %d" % i)
            per_agent[i] += 1e3 * (time.perf_counter() - t0)
            iters += sol.iterations
            candidates[:, cols] = sol.u_stack.reshape(problem.N, m[i])
        # A new array each iteration, so the history needs no copies.
        iterate = InputSequenceSet(
            column_weights * candidates + (1.0 - column_weights) * iterate.stage, m
        )
        if keep_history:
            history.append(iterate)
    info = SolveInfo(millis=float(np.max(per_agent)), iterations=iters, label=cfg.label())
    if keep_history:
        return iterate, info, history
    return iterate, info


def solve_strategy(problem, xbar0, cfg, previous=None):
    """Dispatch one sampling-instant solve for a StrategyConfig.

    `previous` is the cooperative strategy's starting iterate; the
    centralized and no-iteration solves depend on the state alone.
    """
    if cfg.kind == "centralized":
        return solve_centralized(problem, xbar0)
    if cfg.kind == "noiter":
        return solve_noiter_all(problem, xbar0)
    return solve_cooperative(problem, xbar0, cfg, previous=previous)


def shift_sequences(problem, xbar0, seqs):
    """The cooperative starting iterate of the next instant: drop the first
    move, append the terminal controller action at the predicted terminal
    state."""
    traj = problem.simulate(xbar0, seqs)
    tail = np.concatenate(
        [K @ traj[problem.N, s] for K, s in zip(problem.ingredients.K, problem.group_slices())]
    )
    return InputSequenceSet(np.vstack([seqs.stage[1:], tail]), seqs.m)
