"""Horizon operators cached on Problem: agreement with a fresh condensation."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import block_diag

from coopmpc import (
    StrategyConfig,
    TerminalBall,
    build_condensed,
    build_problem,
    config_from_dict,
    controllers,
    initial_state,
    solve_cooperative,
    solve_noiter_all,
    solve_qp,
)
from coopmpc.qp import INFEASIBLE, ball_margins

from support import X0_EXP2, ring_network_description

RTOL = 1e-12


def close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= RTOL * np.max(np.abs(want), initial=0.0)


def by_formula(qp, Q, P, x0, x_linear, balls):
    """`qp` with g, const and every tvec recomputed from its operators' Phi and Gamma.

    The stage sum written out: x = Phi x0 + Gamma u, weighted by Q at the
    stages 1..N-1 and by P at stage N.
    """
    n, N = qp.ops.n, qp.ops.N
    Qbig = block_diag(*([Q] * (N - 1) + [P]))
    px = qp.ops.Phi @ x0
    g = 2.0 * (qp.ops.Gamma.T @ (Qbig @ px))
    const = float(x0 @ Q @ x0 + px @ Qbig @ px)
    if x_linear is not None:
        c = x_linear[1:].reshape(-1)
        g = g + 2.0 * (qp.ops.Gamma.T @ c)
        const += float(2.0 * x_linear[0] @ x0 + 2.0 * c @ px)
    terminal = [
        TerminalBall(Tmap=ball.Tmap, tvec=px[(N - 1) * n :][idx], radius=ball.radius)
        for ball, (idx, _) in zip(qp.terminal, balls)
    ]
    return replace(qp, g=g, const=const, terminal=terminal)


def local_qp(problem, i, x_i0):
    return problem.agent_operators(i).condense(x_i0)


def agent_rows(problem, i):
    """Stage-major positions of agent i's inputs in the centralized u."""
    off, total = sum(problem.m[:i]), sum(problem.m)
    return [k * total + off + j for k in range(problem.N) for j in range(problem.m[i])]


def fresh_local(problem, i, x_i0, fixed_traj=None):
    """Agent i's QP condensed anew.  Given a full-state trajectory, the
    coupling terms along it are added to g and const block by block."""
    tc = problem.tcost
    slices = problem.group_slices()
    s_i = slices[i]
    ni = problem.pmap.bar_dims[i]
    x_linear = None
    if fixed_traj is not None:
        x_linear = np.zeros((problem.N + 1, ni))
        for j, s_j in enumerate(slices):
            if j != i:
                for k in range(problem.N):
                    x_linear[k] += tc.Qbar[s_i, s_j] @ fixed_traj[k, s_j]
                x_linear[problem.N] += tc.Pbar[s_i, s_j] @ fixed_traj[problem.N, s_j]
    Q, P = tc.Qbar[s_i, s_i], tc.Pbar[s_i, s_i]
    balls = [(slice(0, ni), problem.ingredients.ball_radius[i])]
    qp = build_condensed(
        problem.tplant.Abar[i],
        problem.tplant.Btilde[i],
        Q,
        P,
        tc.Rlocal[i],
        problem.N,
        x_i0,
        -problem.u_max[i],
        problem.u_max[i],
        terminal_balls=balls,
    )
    return by_formula(qp, Q, P, x_i0, x_linear, balls)


def fresh_centralized(problem, xbar0):
    tc = problem.tcost
    balls = [(s, problem.ingredients.ball_radius[i]) for i, s in enumerate(problem.group_slices())]
    qp = build_condensed(
        block_diag(*problem.tplant.Abar),
        block_diag(*problem.tplant.Btilde),
        tc.Qbar,
        tc.Pbar,
        tc.Rglobal,
        problem.N,
        xbar0,
        np.concatenate([-b for b in problem.u_max]),
        np.concatenate(list(problem.u_max)),
        terminal_balls=balls,
    )
    return by_formula(qp, tc.Qbar, tc.Pbar, xbar0, None, balls)


def assert_same_qp(got, want):
    """H bitwise; g, const, Tmap and tvec to RTOL relative."""
    assert np.array_equal(got.H, want.H)
    close(got.g, want.g)
    assert abs(got.const - want.const) <= RTOL * abs(want.const)
    assert np.array_equal(got.box_lo, want.box_lo) and np.array_equal(got.box_hi, want.box_hi)
    assert len(got.terminal) == len(want.terminal)
    for a, b in zip(got.terminal, want.terminal):
        close(a.Tmap, b.Tmap)
        close(a.tvec, b.tvec)
        assert a.radius == b.radius


@pytest.fixture(scope="module")
def states(flagship, flagship_cfg):
    return [
        initial_state(flagship_cfg, flagship),
        flagship.pmap.to_regrouped(np.asarray(X0_EXP2, dtype=float)),
    ]


class TestCachedCondensation:
    def test_local_matches_fresh_build(self, flagship, states):
        for xbar0 in states:
            plan, _ = solve_noiter_all(flagship, xbar0)
            fixed = flagship.simulate(xbar0, plan)
            # The cooperative linear term from the coupled-cost block A
            # against the state-space stage sum along the simulated plan.
            A = flagship.coupled_cost_blocks()[0]
            g = flagship.centralized_operators().g_x @ xbar0 + 2.0 * (A @ plan.stacked())
            for i, s in enumerate(flagship.group_slices()):
                assert_same_qp(local_qp(flagship, i, xbar0[s]), fresh_local(flagship, i, xbar0[s]))
                close(g[agent_rows(flagship, i)], fresh_local(flagship, i, xbar0[s], fixed).g)

    def test_cooperative_subproblems_take_the_coupled_linear_term(self, flagship, states, monkeypatch):
        # The g each agent's coop subproblem is solved with, against the
        # stage sum along the other agents' starting plan.
        seen = []

        def recorded(qp, *args, **kwargs):
            seen.append(qp.g.copy())
            return solve_qp(qp, *args, **kwargs)

        monkeypatch.setattr(controllers, "solve_qp", recorded)
        for xbar0 in states:
            plan, _ = solve_noiter_all(flagship, xbar0)
            fixed = flagship.simulate(xbar0, plan)
            seen.clear()
            solve_cooperative(flagship, xbar0, StrategyConfig(kind="coop", iters=1), previous=plan)
            assert len(seen) == flagship.M
            for i, s in enumerate(flagship.group_slices()):
                close(seen[i], fresh_local(flagship, i, xbar0[s], fixed).g)

    def test_centralized_matches_fresh_build(self, flagship, states):
        for xbar0 in states:
            got = flagship.centralized_operators().condense(xbar0)
            assert_same_qp(got, fresh_centralized(flagship, xbar0))

    def test_operators_built_once(self, flagship):
        assert flagship.agent_operators(1) is flagship.agent_operators(1)
        assert flagship.centralized_operators() is flagship.centralized_operators()
        assert flagship.coupled_cost_blocks() is flagship.coupled_cost_blocks()

    def test_coupling_rows_skip_own_block(self, flagship):
        # 2A, the coupling the cooperative iteration reads, is the
        # centralized H off the agents' own blocks, where A is 0.
        ring = build_problem(config_from_dict(ring_network_description(4)))
        for problem in (flagship, ring):
            H = problem.centralized_operators().H
            A = problem.coupled_cost_blocks()[0]
            assert np.array_equal(A, A.T)
            own = np.zeros(H.shape, dtype=bool)
            for i in range(problem.M):
                rows = agent_rows(problem, i)
                own[np.ix_(rows, rows)] = True
                # The own block that the coupling leaves out is agent i's local H.
                close(H[np.ix_(rows, rows)], problem.agent_operators(i).H)
            assert np.all(A[own] == 0.0)
            assert np.max(np.abs(2.0 * A[~own] - H[~own])) <= 1e-14 * np.max(np.abs(H))

    def test_local_solves_leave_centralized_unbuilt(self, flagship, states):
        fresh = replace(flagship)
        solve_noiter_all(fresh, states[0])
        centralized = tuple(range(fresh.M))
        assert centralized not in fresh._operators
        assert "coupled_cost" not in fresh._operators


class TestCacheIsolation:
    def test_separable_builds_its_own(self, flagship, states):
        flagship.agent_operators(0)
        flagship.coupled_cost_blocks()
        sep = flagship.separable()
        for i in range(sep.M):
            assert sep.agent_operators(i) is not flagship.agent_operators(i)
        assert sep.coupled_cost_blocks() is not flagship.coupled_cost_blocks()
        assert not np.any(sep.coupled_cost_blocks()[0])
        assert sep.centralized_operators() is not flagship.centralized_operators()
        xbar0 = states[1]
        assert_same_qp(sep.centralized_operators().condense(xbar0), fresh_centralized(sep, xbar0))

    def test_replace_builds_its_own(self, flagship, states):
        flagship.centralized_operators()
        heavy = replace(
            flagship,
            tcost=replace(flagship.tcost, Pbar=2.0 * flagship.tcost.Pbar),
        )
        ops = heavy.centralized_operators()
        assert ops is not flagship.centralized_operators()
        assert not np.array_equal(ops.H, flagship.centralized_operators().H)
        xbar0 = states[0]
        assert_same_qp(ops.condense(xbar0), fresh_centralized(heavy, xbar0))
        s = heavy.group_slices()[2]
        assert_same_qp(local_qp(heavy, 2, xbar0[s]), fresh_local(heavy, 2, xbar0[s]))


def fresh_coupled_blocks(problem):
    """(A, B, C) of the coupled cost from Phi and Gamma built anew by powers of the joint dynamics."""
    A, B = block_diag(*problem.tplant.Abar), block_diag(*problem.tplant.Btilde)
    tc, N = problem.tcost, problem.N
    powers = [np.linalg.matrix_power(A, k) for k in range(N + 1)]
    Phi = np.vstack(powers[1:])
    Gamma = np.block(
        [[powers[k - 1 - j] @ B if j < k else np.zeros_like(B) for j in range(N)] for k in range(1, N + 1)]
    )
    Qbig = block_diag(*([tc.Qtilde] * (N - 1) + [tc.Ptilde]))
    return Gamma.T @ Qbig @ Gamma, Gamma.T @ Qbig @ Phi, tc.Qtilde + Phi.T @ Qbig @ Phi


class TestCoupledCostBlocks:
    def test_match_fresh_products(self, flagship):
        for got, want in zip(flagship.coupled_cost_blocks(), fresh_coupled_blocks(flagship)):
            close(got, want)

    def test_built_once_and_read_only(self, flagship):
        blocks = flagship.coupled_cost_blocks()
        assert flagship.coupled_cost_blocks() is blocks
        for block in blocks:
            with pytest.raises(ValueError):
                block[0, 0] = 0.0

    def test_copies_start_empty(self, flagship):
        flagship.coupled_cost_blocks()
        sep = flagship.separable()
        heavy = replace(flagship, tcost=replace(flagship.tcost, Ptilde=2.0 * flagship.tcost.Ptilde))
        assert not sep._operators and not heavy._operators
        assert not any(np.any(block) for block in sep.coupled_cost_blocks())
        for got, want in zip(heavy.coupled_cost_blocks(), fresh_coupled_blocks(heavy)):
            close(got, want)
        assert not np.array_equal(heavy.coupled_cost_blocks()[0], flagship.coupled_cost_blocks()[0])


class TestReadOnly:
    def test_shared_arrays_reject_writes(self, flagship, states):
        qp = flagship.centralized_operators().condense(states[0])
        local = local_qp(flagship, 0, states[0][flagship.group_slices()[0]])
        for target in (qp, local):
            with pytest.raises(ValueError):
                target.H[0, 0] = 0.0
            with pytest.raises(ValueError):
                target.box_lo[0] = 0.0
            with pytest.raises(ValueError):
                target.box_hi[:] = 1.0
            with pytest.raises(ValueError):
                target.terminal[0].Tmap[0, 0] = 0.0
            with pytest.raises(ValueError):
                target.ops.Gamma[0, 0] = 0.0
        with pytest.raises(ValueError):
            flagship.coupled_cost_blocks()[0][0, -1] = 0.0

    def test_search_ball_data_is_built_once(self, flagship, states):
        # the multiplier search reads the balls' stacked maps, T^T T and
        # row-to-ball matrix from the operators, not from each QP
        ops = flagship.centralized_operators()
        qp = ops.condense(states[0])
        assert np.array_equal(ops.ball_map, np.vstack([b.Tmap for b in qp.terminal]))
        for k, ball in enumerate(qp.terminal):
            assert np.array_equal(ops.ball_gram[k], ball.Tmap.T @ ball.Tmap)
        sizes = [len(b.tvec) for b in qp.terminal]
        assert np.array_equal(ops.ball_indicator, np.repeat(np.eye(len(sizes)), sizes, axis=0))
        # one copy of the maps: each ball's Tmap is its block of ball_map
        assert all(np.shares_memory(b.Tmap, ops.ball_map) for b in qp.terminal)
        assert not ops.ball_zero.any() and ops.ball_zero.shape == (len(sizes),)
        for array in (ops.ball_map, ops.ball_gram, ops.ball_indicator, ops.ball_scale, ops.ball_zero):
            with pytest.raises(ValueError):
                array.flat[0] = 0.0

    def test_per_solve_vectors_are_private(self, flagship, states):
        ops = flagship.centralized_operators()
        a = ops.condense(states[0])
        b = ops.condense(states[0])
        a.g[:] = 0.0
        a.terminal[0].tvec[:] = 0.0
        assert np.any(b.g) and np.any(b.terminal[0].tvec)
        assert np.array_equal(ops.condense(states[0]).g, b.g)


class TestFeasibilityStructure:
    def test_centralized_margins_are_the_agents_margins(self, flagship, rng_factory):
        """The centralized QP is feasible exactly when every local one is:
        the regrouped dynamics are decoupled and the terminal set is a
        product of balls, so each centralized ball has its agent's margin."""
        cen = flagship.centralized_operators()
        slices = flagship.group_slices()
        X0 = rng_factory(97).uniform(-8.0, 8.0, size=(150, flagship.n))
        unreachable = 0
        for x in X0:
            xbar = flagship.pmap.to_regrouped(x)
            central = [margin for margin, _ in ball_margins(cen.condense(xbar))]
            local = [
                ball_margins(flagship.agent_operators(i).condense(xbar[s]))[0][0]
                for i, s in enumerate(slices)
            ]
            assert np.max(np.abs(np.subtract(central, local))) <= 1e-12
            if min(local) < 0.0:
                unreachable += 1
                sol = solve_qp(cen.condense(xbar))
                assert (sol.status, sol.margin) == (INFEASIBLE, min(central))
        assert unreachable > 0
