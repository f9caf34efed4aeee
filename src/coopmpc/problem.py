"""Assembled problem bundle shared by the controllers and the harness."""

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.linalg import block_diag, cho_solve

from .errors import DimensionMismatch
from .qp import HorizonOperators, SolverOptions, state_cost_blocks


@dataclass(eq=False)
class Problem:
    """Plant, transformed data, cost, ingredients and solve settings.

    u_max[i] is the symmetric per-channel input bound of agent i; the box
    is [-u_max, u_max].  All controller entry points take this bundle plus
    a regrouped initial state.

    The regrouped dynamics are decoupled, so agent i's local problem is
    the centralized one restricted to group i; one construction builds the
    horizon operators of either.  Those operators, the coupled-cost blocks
    (whose 2A is also the cooperative coupling) and the no-iteration law
    depend only on these fields, so each is built on first use and kept; a
    copy made with `dataclasses.replace` or `separable` starts without
    them.  The fields are not meant to change after construction.
    """

    pmap: object
    tplant: object
    cost: object
    tcost: object
    ingredients: object
    u_max: tuple
    N: int
    solver: SolverOptions
    _operators: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if len(self.u_max) != self.M:
            raise DimensionMismatch("need one input bound per agent")
        bounds = [np.asarray(b, dtype=float).reshape(-1) for b in self.u_max]
        if any(b.shape[0] not in (1, mi) for b, mi in zip(bounds, self.m)):
            raise DimensionMismatch("an agent's input bound needs 1 or m_i entries")
        self.u_max = tuple(np.broadcast_to(b, (mi,)).copy() for b, mi in zip(bounds, self.m))

    @property
    def M(self):
        return len(self.tplant.Abar)

    @cached_property
    def m(self):
        """Input count of each agent; one tuple, shared by the sequence sets."""
        return tuple(Bt.shape[1] for Bt in self.tplant.Btilde)

    @property
    def n(self):
        return int(sum(self.pmap.bar_dims))

    def group_slices(self):
        return self.pmap.group_slices()

    def state(self, xbar):
        """xbar as a float vector; DimensionMismatch unless it has n
        entries, all finite."""
        xbar = np.asarray(xbar, dtype=float).reshape(-1)
        if xbar.shape[0] != self.n or not np.isfinite(xbar).all():
            raise DimensionMismatch("state must have %d finite entries" % self.n)
        return xbar

    def agent_operators(self, i):
        """HorizonOperators of agent i's local problem (built once)."""
        return self._horizon((i,))

    def centralized_operators(self):
        """HorizonOperators of the joint problem with the product of balls (built once)."""
        return self._horizon(tuple(range(self.M)))

    def _horizon(self, agents):
        """HorizonOperators of the joint problem restricted to `agents`' groups.

        The regrouped dynamics are decoupled, so the restriction keeps those
        agents' dynamics, input weights, boxes and balls, and the rows and
        columns of Qbar and Pbar on their groups.
        """
        if agents not in self._operators:
            tp, tc = self.tplant, self.tcost
            slices = self.group_slices()
            rows = np.r_[tuple(slices[i] for i in agents)]
            ends = np.cumsum([self.pmap.bar_dims[i] for i in agents])
            self._operators[agents] = HorizonOperators(
                block_diag(*(tp.Abar[i] for i in agents)),
                block_diag(*(tp.Btilde[i] for i in agents)),
                tc.Qbar[np.ix_(rows, rows)],
                tc.Pbar[np.ix_(rows, rows)],
                block_diag(*(tc.Rlocal[i] for i in agents)),
                self.N,
                np.concatenate([-self.u_max[i] for i in agents]),
                np.concatenate([self.u_max[i] for i in agents]),
                terminal_balls=[
                    (slice(end - self.pmap.bar_dims[i], end), self.ingredients.ball_radius[i])
                    for i, end in zip(agents, ends)
                ],
            )
        return self._operators[agents]

    def noiter_law(self):
        """(L, K), every agent's unconstrained local plan as one linear map
        of the state (built once).

        Where no constraint is active agent i's local optimum is
        -H_i^-1 g_x,i x_i0, from `agent_operators(i)`, so L xbar0 is the
        stacked stage-major plan of all agents: L is (N*sum(m), n), with
        agent i's block on its rows k*sum(m) + off_i + j and its group's
        columns.  K xbar0 is every group's terminal state x_i(N) under that
        plan, the residual of agent i's ball, with K block-diagonal.  Both
        are exactly 0 off each agent's group: agent i's plan reads its own
        state alone.  Built from the agents' operators only; read-only.
        """
        if "noiter_law" not in self._operators:
            N, m, n = self.N, self.m, self.n
            L = np.zeros((N, sum(m), n))
            K = np.zeros((n, n))
            ends = np.cumsum(m)
            for i, s in enumerate(self.group_slices()):
                ops = self.agent_operators(i)
                L_i = -cho_solve((ops.H_chol, True), ops.g_x)
                L[:, ends[i] - m[i] : ends[i], s] = L_i.reshape(N, m[i], -1)
                # The agent's ball is its whole group at x(N).
                K[s, s] = ops.tvec_x + ops.ball_map @ L_i
            L = L.reshape(N * sum(m), n)
            for b in (L, K):
                b.setflags(write=False)
            self._operators["noiter_law"] = (L, K)
        return self._operators["noiter_law"]

    def coupled_cost_blocks(self):
        """(A, B, C) of the coupled cost CC as a quadratic form (built once).

        CC, the coupling residuals' share of the state cost, Qtilde over
        x(0..N-1) plus Ptilde at x(N), is u'Au + 2 u'B xbar0 + xbar0'C xbar0
        for the stacked plan u (`qp.state_cost_blocks` on the centralized
        Phi and Gamma).  A is symmetric and 0 on each agent's own inputs,
        so 2A is the centralized H off those blocks, the cooperative
        coupling.  Read-only; all zero on a `separable` copy.
        """
        if "coupled_cost" not in self._operators:
            cent = self.centralized_operators()
            tc = self.tcost
            A, B, C = state_cost_blocks(cent.Phi, cent.Gamma, tc.Qtilde, tc.Ptilde)
            blocks = (0.5 * (A + A.T), B, C)
            for b in blocks:
                b.setflags(write=False)
            self._operators["coupled_cost"] = blocks
        return self._operators["coupled_cost"]

    def step(self, xbar, u0):
        """One plant step; u0 is the list of per-agent inputs, m_i finite
        entries each."""
        xbar = self.state(xbar)
        u0 = [np.asarray(ui, dtype=float).reshape(-1) for ui in u0]
        if tuple(map(len, u0)) != self.m or not np.isfinite(np.concatenate(u0)).all():
            raise DimensionMismatch("need one finite input per agent, of lengths %r" % (self.m,))
        out = np.empty_like(xbar)
        for i, (s, ui) in enumerate(zip(self.group_slices(), u0)):
            out[s] = self.tplant.Abar[i] @ xbar[s] + self.tplant.Btilde[i] @ ui
        return out

    def plan(self, seqs):
        """seqs, an InputSequenceSet; DimensionMismatch unless it holds N
        stages of this problem's inputs, all finite."""
        if (
            tuple(seqs.m) != self.m
            or np.shape(seqs.stage) != (self.N, sum(self.m))
            or not np.isfinite(seqs.stage).all()
        ):
            raise DimensionMismatch(
                "a plan needs finite entries, stage shape %r and inputs %r"
                % ((self.N, sum(self.m)), self.m)
            )
        return seqs

    def simulate(self, xbar0, seqs):
        """Full-state trajectory (N+1 rows) under an InputSequenceSet."""
        xbar0 = self.state(xbar0)
        seqs = self.plan(seqs)
        traj = np.empty((self.N + 1, self.n))
        traj[0] = xbar0
        for i, (s, u_i) in enumerate(zip(self.group_slices(), seqs.u)):
            u_i = np.asarray(u_i, dtype=float)
            for k in range(self.N):
                traj[k + 1, s] = self.tplant.Abar[i] @ traj[k, s] + self.tplant.Btilde[i] @ u_i[:, k]
        return traj

    def separable(self):
        """Copy of the problem with the coupling residuals removed.

        The stage and terminal weights keep only their group-diagonal
        blocks, so the centralized problem splits exactly into the local
        ones.
        """
        tc = self.tcost
        sep = replace(
            tc,
            Qbar=tc.Qa.copy(),
            Pbar=tc.Pa.copy(),
            Qtilde=np.zeros_like(tc.Qbar),
            Ptilde=np.zeros_like(tc.Pbar),
        )
        return replace(self, tcost=sep)
