"""Solver strategies: centralized, local no-iteration, and cooperative.

The regrouped dynamics are decoupled across agents, so the centralized
problem couples agents only through the cost.  The no-iteration strategy
drops the coupling weights and solves M independent local problems, so
the two are one settle path over two partitions of the agents
(`_settle`).  The cooperative strategy iterates: each agent minimizes the
full cooperative cost over its own sequence with the others frozen, and
the new iterate is the convex combination of the agents' candidate
points, which keeps the cooperative cost nonincreasing and every iterate
feasible.  All three raise the most decisive failure of all their parts
or agents (`_decisiveness`), so a verdict does not depend on agent order.

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
    own single agent).  iterations is the summed QP iteration count.  The
    harness names a step by its `StrategyConfig.label()`.
    """

    millis: float
    iterations: int


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


def _law_step(problem, law, xbar0):
    """The plan of an unconstrained law at xbar0, as an (N, sum(m)) stage,
    and which agents it settles exactly.

    `law` is (L, K), `Problem.noiter_law()` or `Problem.centralized_law()`.
    Agent i is exact where its inputs of L xbar0 lie in its box and its
    group's terminal state, rows of K xbar0, in its ball, with no
    tolerance: the exact check of `solve_qp`.  Written as "not inside" so
    that a NaN fails it.
    """
    L, K = law
    u_max, columns, rows, radius = problem.law_check()
    stage = (L @ xbar0).reshape(problem.N, -1)
    reach = K @ xbar0
    box_misses = ~(np.abs(stage) <= u_max).all(axis=0) @ columns
    return stage, (box_misses == 0) & (np.sqrt((reach * reach) @ rows) <= radius)


def _solve_part(problem, agents, x0, context):
    """Condense and solve `Problem._horizon(agents)` at x0, the state of
    the agents' groups: (stage, iterations, millis), stage the (N, inputs
    of `agents`) optimum.  SolverFailure naming `context` unless solved."""
    t0 = time.perf_counter()
    sol = _solved(problem._horizon(agents).condense(x0), problem.solver, context)
    return sol.u_stack.reshape(problem.N, -1), sol.iterations, 1e3 * (time.perf_counter() - t0)


def _decisiveness(failure):
    # An infeasible agent before a capped one, then the least margin.
    margin = failure.solution.margin
    return (failure.status != INFEASIBLE, np.inf if margin is None else margin)


def _span(slices, part):
    """One slice over the blocks of a part's consecutive agents."""
    return slice(slices[part[0]].start, slices[part[-1]].stop)


def _settle(problem, xbar0, joint):
    """The centralized (`joint`) or no-iteration solve at xbar0: one
    horizon problem, `Problem._horizon(part)`, per part of a partition of
    the agents, all in one part or each alone.  One product with the
    partition's law settles each part whose agents all pass `_law_step`'s
    exact check, in one iteration with no QP condensed; every other part
    is condensed and solved at its groups' state.  The shared product is
    charged to every part and each fallback to its own; millis is the
    slowest part's.  Every part is tried before the most decisive failure
    is raised.
    """
    xbar0 = problem.state(xbar0)
    t0 = time.perf_counter()
    stage, exact = _law_step(problem, problem.centralized_law() if joint else problem.noiter_law(), xbar0)
    shared = 1e3 * (time.perf_counter() - t0)
    if exact.all():
        return InputSequenceSet(stage, problem.m), SolveInfo(millis=shared, iterations=1 if joint else problem.M)
    agents = tuple(range(problem.M))
    slices, columns, exact = problem.group_slices(), _agent_columns(problem.m), exact.tolist()
    millis, iterations, failures = [shared], 0, []
    for part in [agents] if joint else [(i,) for i in agents]:
        if all(exact[i] for i in part):
            iterations += 1
            continue
        context = "centralized solve" if joint else "local solve of agent %d" % part[0]
        try:
            plan, its, ms = _solve_part(problem, part, xbar0[_span(slices, part)], context)
        except SolverFailure as exc:
            failures.append(exc)
            continue
        stage[:, _span(columns, part)] = plan
        millis.append(shared + ms)
        iterations += its
    if failures:
        raise min(failures, key=_decisiveness)
    return InputSequenceSet(stage, problem.m), SolveInfo(millis=max(millis), iterations=iterations)


def solve_centralized(problem, xbar0):
    """Joint solve over all agents with the product-of-balls terminal set,
    `_settle` with all agents in one part: (InputSequenceSet, SolveInfo)."""
    return _settle(problem, xbar0, joint=True)


def solve_local_noiter(problem, i, x_i0):
    """Agent-i solve using only its own block data; no coupling terms.

    Returns (u_i of shape (m_i, N), SolveInfo).  The result depends only
    on agent i's state and data, never on the other agents.
    """
    stage, iterations, millis = _solve_part(problem, (i,), x_i0, "local solve of agent %d" % i)
    return stage.T, SolveInfo(millis=millis, iterations=iterations)


def solve_noiter_all(problem, xbar0):
    """All local solves, each from the agent's own state alone, time
    accounted as the slowest agent: `_settle` with each agent alone."""
    return _settle(problem, xbar0, joint=False)


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
    agent.  Every agent of an iteration is solved before a failure is raised.

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
        failures = []
        for i, (qp, cols) in enumerate(zip(qps, columns)):
            t0 = time.perf_counter()
            qp.g = g[:, cols].reshape(-1)
            try:
                sol = _solved(qp, problem.solver, "cooperative solve of agent %d" % i)
            except SolverFailure as exc:
                failures.append(exc)
                continue
            per_agent[i] += 1e3 * (time.perf_counter() - t0)
            iters += sol.iterations
            candidates[:, cols] = sol.u_stack.reshape(problem.N, m[i])
        if failures:
            raise min(failures, key=_decisiveness)
        # A new array each iteration, so the history needs no copies.
        iterate = InputSequenceSet(
            column_weights * candidates + (1.0 - column_weights) * iterate.stage, m
        )
        if keep_history:
            history.append(iterate)
    info = SolveInfo(millis=float(np.max(per_agent)), iterations=iters)
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
