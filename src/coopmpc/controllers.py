"""Solver strategies: centralized, local no-iteration, and cooperative.

The regrouped dynamics are decoupled across agents, so the centralized
problem couples agents only through the cost.  The no-iteration strategy
drops the coupling weights and solves M independent local problems.  The
cooperative strategy iterates: each agent minimizes the full cooperative
cost over its own sequence with the others frozen, and the new iterate is
the convex combination of the agents' candidate points, which keeps the
cooperative cost nonincreasing and every iterate feasible.

In condensed form the cooperative cost is the centralized QP.  Agent i's
subproblem keeps the quadratic term of its own problem and takes its
linear term from agent i's rows of the centralized g and H applied to the
current iterate (see `AgentOperators`), so no trajectory is simulated
between iterations.
"""

import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SolverFailure

# build_condensed is not called here (the strategies condense through the
# operators cached on Problem) but stays bound next to solve_qp, so tools
# that wrap this module's QP entry points by name find both.
from .qp import INFEASIBLE, SOLVED, build_condensed, solve_qp  # noqa: F401


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
        if self.kind == "coop" and self.iters < 1:
            raise DimensionMismatch("cooperative strategy needs iters >= 1")
        if self.weights is not None:
            w = tuple(float(v) for v in self.weights)
            if any(v < 0 for v in w) or abs(sum(w) - 1.0) > 1e-12:
                raise DimensionMismatch("averaging weights must be a convex combination")
            self.weights = w

    def label(self):
        if self.kind == "coop":
            return "coop_%d" % self.iters
        return self.kind


@dataclass(eq=False)
class InputSequenceSet:
    """Per-agent input sequences over the horizon, each of shape (m_i, N)."""

    u: tuple

    def __post_init__(self):
        self.u = tuple(np.asarray(ui, dtype=float) for ui in self.u)

    @property
    def N(self):
        return self.u[0].shape[1]

    def copy(self):
        return InputSequenceSet(u=tuple(ui.copy() for ui in self.u))

    def stacked(self):
        """Stage-major stacked vector [u(0); u(1); ...]."""
        return np.concatenate([np.concatenate([ui[:, k] for ui in self.u]) for k in range(self.N)])

    @classmethod
    def from_stacked(cls, vec, m, N):
        vec = np.asarray(vec, dtype=float).reshape(N, int(np.sum(m)))
        seqs = []
        off = 0
        for mi in m:
            seqs.append(vec[:, off : off + mi].T.copy())
            off += mi
        return cls(u=tuple(seqs))


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


def _solved(qp, warm, options, context):
    sol = solve_qp(qp, warm_start=warm, options=options)
    if sol.status != SOLVED:
        margin = "n/a" if sol.margin is None else "%.4g" % sol.margin
        raise SolverFailure(
            "%s finished with status %s (terminal-ball margin %s)" % (context, sol.status, margin),
            status=sol.status,
            solution=sol,
        )
    return sol


def solve_centralized(problem, xbar0, warm=None):
    """Joint solve over all agents with the product-of-balls terminal set.

    Returns (InputSequenceSet, SolveInfo).
    """
    xbar0 = np.asarray(xbar0, dtype=float).reshape(-1)
    if xbar0.shape[0] != problem.n:
        raise DimensionMismatch("state must have length %d" % problem.n)
    t0 = time.perf_counter()
    qp = problem.centralized_operators().condense(xbar0)
    warm_vec = warm.stacked() if isinstance(warm, InputSequenceSet) else warm
    sol = _solved(qp, warm_vec, problem.solver, "centralized solve")
    millis = 1e3 * (time.perf_counter() - t0)
    seqs = InputSequenceSet.from_stacked(sol.u_stack, problem.m, problem.N)
    return seqs, SolveInfo(millis=millis, iterations=sol.iterations, label="centralized")


def solve_local_noiter(problem, i, x_i0, warm=None):
    """Agent-i solve using only its own block data; no coupling terms.

    Returns (u_i of shape (m_i, N), SolveInfo).  The result depends only
    on agent i's state and data, never on the other agents.
    """
    x_i0 = np.asarray(x_i0, dtype=float).reshape(-1)
    t0 = time.perf_counter()
    qp = problem.agent_operators(i).ops.condense(x_i0)
    warm_vec = warm.reshape(-1, order="F") if isinstance(warm, np.ndarray) else warm
    sol = _solved(qp, warm_vec, problem.solver, "local solve of agent %d" % i)
    millis = 1e3 * (time.perf_counter() - t0)
    u_i = sol.u_stack.reshape(problem.N, problem.m[i]).T.copy()
    return u_i, SolveInfo(millis=millis, iterations=sol.iterations, label="noiter")


def _decisiveness(failure):
    # An infeasible agent before a capped one, then the least margin.
    margin = failure.solution.margin
    return (failure.status != INFEASIBLE, np.inf if margin is None else margin)


def solve_noiter_all(problem, xbar0, warm=None):
    """All local solves; time accounted as the slowest agent.

    Every agent is solved even when one fails, so the verdict does not
    depend on agent order: the SolverFailure raised is the most decisive
    one, an infeasible agent before a capped one, then the least
    terminal-ball margin.
    """
    xbar0 = np.asarray(xbar0, dtype=float).reshape(-1)
    slices = problem.group_slices()
    seqs = []
    per_agent = []
    iters = 0
    failures = []
    for i in range(problem.M):
        w_i = warm.u[i] if isinstance(warm, InputSequenceSet) else None
        try:
            u_i, info = solve_local_noiter(problem, i, xbar0[slices[i]], warm=w_i)
        except SolverFailure as exc:
            failures.append(exc)
            continue
        seqs.append(u_i)
        per_agent.append(info.millis)
        iters += info.iterations
    if failures:
        raise min(failures, key=_decisiveness)
    return (
        InputSequenceSet(u=tuple(seqs)),
        SolveInfo(millis=max(per_agent), iterations=iters, label="noiter"),
    )


def solve_cooperative(problem, xbar0, cfg, previous=None, keep_history=False):
    """Fixed-budget cooperative iteration from a feasible starting point.

    Each iteration solves every agent's subproblem against the others'
    previous sequences and averages the candidate points with the
    configured weights.  Agent i's subproblem is its own condensed QP with
    g replaced by Gx xbar0 + Hc u, u the stacked current iterate, so its
    objective equals the cooperative cost as a function of agent i's
    sequence, up to a constant.  `previous` supplies the starting iterate
    (for example the shifted sequences of the last sampling instant); when
    absent the no-iteration plan is used.  Time is accounted as the
    maximum over agents of their summed per-iteration solve times.

    Returns (InputSequenceSet, SolveInfo) or, with keep_history, the
    history of iterates as a third element.
    """
    xbar0 = np.asarray(xbar0, dtype=float).reshape(-1)
    M = problem.M
    weights = cfg.weights or tuple(1.0 / M for _ in range(M))
    if len(weights) != M:
        raise DimensionMismatch("need one averaging weight per agent")
    slices = problem.group_slices()
    per_agent = np.zeros(M)
    iters = 0
    if previous is None:
        iterate, info0 = solve_noiter_all(problem, xbar0)
        per_agent[:] = info0.millis
        iters = info0.iterations
    else:
        iterate = previous.copy()
    history = []
    agent_warm = [iterate.u[i].T.reshape(-1).copy() for i in range(M)]
    for _ in range(cfg.iters):
        u = iterate.stacked()
        candidates = []
        for i in range(M):
            t0 = time.perf_counter()
            agent = problem.agent_operators(i)
            qp = agent.ops.condense(xbar0[slices[i]])
            qp.g = agent.Gx @ xbar0 + agent.Hc @ u
            sol = _solved(
                qp, agent_warm[i], problem.solver, "cooperative solve of agent %d" % i
            )
            per_agent[i] += 1e3 * (time.perf_counter() - t0)
            iters += sol.iterations
            agent_warm[i] = sol
            candidates.append(sol.u_stack.reshape(problem.N, problem.m[i]).T)
        iterate = InputSequenceSet(
            u=tuple(
                weights[i] * candidates[i] + (1.0 - weights[i]) * iterate.u[i]
                for i in range(M)
            )
        )
        if keep_history:
            history.append(iterate.copy())
    info = SolveInfo(millis=float(np.max(per_agent)), iterations=iters, label=cfg.label())
    if keep_history:
        return iterate, info, history
    return iterate, info


def solve_strategy(problem, xbar0, cfg, previous=None):
    """Dispatch one sampling-instant solve for a StrategyConfig."""
    if cfg.kind == "centralized":
        return solve_centralized(problem, xbar0, warm=previous)
    if cfg.kind == "noiter":
        return solve_noiter_all(problem, xbar0, warm=previous)
    return solve_cooperative(problem, xbar0, cfg, previous=previous)


def shift_sequences(problem, xbar0, seqs):
    """Warm start for the next instant: drop the first move, append the
    terminal controller action at the predicted terminal state."""
    traj = problem.simulate(xbar0, seqs)
    slices = problem.group_slices()
    shifted = []
    for i in range(problem.M):
        tail = problem.ingredients.K[i] @ traj[problem.N, slices[i]]
        shifted.append(np.column_stack([seqs.u[i][:, 1:], tail.reshape(-1)]))
    return InputSequenceSet(u=tuple(shifted))
