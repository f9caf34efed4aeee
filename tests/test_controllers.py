"""The three solve strategies and their agreement structure."""

from dataclasses import replace

import numpy as np
import pytest

from coopmpc import (
    DimensionMismatch,
    InputSequenceSet,
    SolverFailure,
    SolverOptions,
    StrategyConfig,
    evaluate_cost,
    shift_sequences,
    solve_centralized,
    solve_cooperative,
    solve_local_noiter,
    solve_noiter_all,
    solve_strategy,
)

from coopmpc.qp import INFEASIBLE

from support import X0_EXP2, random_certified_problem

TIGHT = SolverOptions(eps_abs=1e-11, eps_rel=1e-9)

# frozen single-solve reference at the second benchmark state
BENCH2_GC = 1.398630604307689e4
BENCH2_CC = 2.006219939653632e3


def tight(problem):
    return replace(problem, solver=TIGHT)


class TestStrategyConfig:
    def test_labels(self):
        assert StrategyConfig(kind="centralized").label() == "centralized"
        assert StrategyConfig(kind="noiter").label() == "noiter"
        assert StrategyConfig(kind="coop", iters=4).label() == "coop_4"

    def test_rejects_unknown_kind(self):
        with pytest.raises(DimensionMismatch):
            StrategyConfig(kind="magic")

    def test_rejects_empty_iteration_budget(self):
        with pytest.raises(DimensionMismatch):
            StrategyConfig(kind="coop", iters=0)

    def test_rejects_non_simplex_weights(self):
        with pytest.raises(DimensionMismatch):
            StrategyConfig(kind="coop", iters=1, weights=(0.5, 0.2))
        with pytest.raises(DimensionMismatch):
            StrategyConfig(kind="coop", iters=1, weights=(1.5, -0.5))


class TestSequences:
    def test_stacking_round_trip(self, rng_factory):
        rng = rng_factory(71)
        m = (2, 1, 3)
        seqs = InputSequenceSet(u=tuple(rng.normal(size=(mi, 4)) for mi in m))
        back = InputSequenceSet.from_stacked(seqs.stacked(), m, 4)
        for a, b in zip(seqs.u, back.u):
            assert np.array_equal(a, b)

    def test_stacked_is_stage_major(self):
        seqs = InputSequenceSet(u=(np.array([[1.0, 3.0]]), np.array([[2.0, 4.0]])))
        assert np.array_equal(seqs.stacked(), [1.0, 2.0, 3.0, 4.0])


class TestCentralized:
    def test_origin_is_fixed_point(self, flagship):
        seqs, info = solve_centralized(flagship, np.zeros(18))
        assert max(np.max(np.abs(ui)) for ui in seqs.u) <= 1e-8
        gc, cc = evaluate_cost(flagship, np.zeros(18), seqs)
        assert abs(gc) <= 1e-8 and abs(cc) <= 1e-8
        assert info.label == "centralized"

    def test_benchmark_state_regression(self, flagship):
        xbar = flagship.pmap.to_regrouped(X0_EXP2)
        seqs, _ = solve_centralized(flagship, xbar)
        gc, cc = evaluate_cost(flagship, xbar, seqs)
        assert abs(gc - BENCH2_GC) <= 1e-6 * BENCH2_GC
        assert abs(cc - BENCH2_CC) <= 1e-4 * BENCH2_CC

    def test_wrong_state_length(self, flagship):
        with pytest.raises(DimensionMismatch):
            solve_centralized(flagship, np.zeros(17))


class TestNoIteration:
    def test_respects_input_box(self, flagship, rng_factory):
        rng = rng_factory(72)
        xbar = rng.uniform(-8.0, 8.0, size=18)
        seqs, _ = solve_noiter_all(flagship, xbar)
        for i, ui in enumerate(seqs.u):
            assert np.max(np.abs(ui)) <= flagship.u_max[i][0] + 1e-12

    def test_flagship_third_agent_feasible(self, flagship):
        xbar = flagship.pmap.to_regrouped(
            np.array([-10.0, -4, 9, 7, 8, 5, -8, -5, 7, 3, 3, 6, -5, -6, 8, -9, 8, 3])
        )
        u3, info = solve_local_noiter(flagship, 2, xbar[flagship.group_slices()[2]])
        assert np.max(np.abs(u3)) <= 4.0
        assert info.label == "noiter"

    def test_failure_names_status_and_margin(self, flagship):
        xbar = flagship.pmap.to_regrouped(2.0 * np.asarray(X0_EXP2, dtype=float))
        x_0 = xbar[flagship.group_slices()[0]]
        with pytest.raises(SolverFailure) as info:
            solve_local_noiter(flagship, 0, x_0)
        sol = info.value.solution
        assert (info.value.status, sol.iterations) == (INFEASIBLE, 2)
        assert sol.margin < 0.0
        assert str(info.value) == (
            "local solve of agent 0 finished with status infeasible "
            "(terminal-ball margin %.4g)" % sol.margin
        )
        starved = replace(flagship, solver=SolverOptions(max_iters=1))
        with pytest.raises(SolverFailure, match="status max_iters .terminal-ball margin n/a.$"):
            solve_local_noiter(starved, 0, x_0)

    def test_failure_of_several_agents_reports_the_least_margin(self, flagship):
        xbar = flagship.pmap.to_regrouped(4.0 * np.asarray(X0_EXP2, dtype=float))
        margins = []
        for i, s in enumerate(flagship.group_slices()):
            with pytest.raises(SolverFailure) as info:
                solve_local_noiter(flagship, i, xbar[s])
            assert info.value.status == INFEASIBLE
            margins.append(info.value.solution.margin)
        assert len(set(margins)) == 3
        with pytest.raises(SolverFailure) as info:
            solve_noiter_all(flagship, xbar)
        assert info.value.status == INFEASIBLE
        assert info.value.solution.margin == min(margins)

    def test_independent_of_other_agents(self, flagship, rng_factory):
        rng = rng_factory(73)
        xa = rng.uniform(-5.0, 5.0, size=18)
        xb = xa.copy()
        xb[6:] = rng.uniform(-5.0, 5.0, size=12)
        ua, _ = solve_noiter_all(flagship, xa)
        ub, _ = solve_noiter_all(flagship, xb)
        assert np.array_equal(ua.u[0], ub.u[0])

    def test_zero_state_zero_sequences(self, flagship):
        seqs, _ = solve_noiter_all(flagship, np.zeros(18))
        assert max(np.max(np.abs(ui)) for ui in seqs.u) <= 1e-8

    def test_matches_separable_monolith(self, flagship, rng_factory):
        # with the coupling residuals removed the joint problem falls
        # apart into the local ones
        rng = rng_factory(74)
        prob = tight(flagship).separable()
        xbar = rng.uniform(-4.0, 4.0, size=18)
        local, _ = solve_noiter_all(prob, xbar)
        joint, _ = solve_centralized(prob, xbar)
        for a, b in zip(local.u, joint.u):
            assert np.max(np.abs(a - b)) <= 1e-6


class TestCooperative:
    def test_cost_nonincreasing(self, flagship):
        xbar = flagship.pmap.to_regrouped(X0_EXP2)
        start, _ = solve_noiter_all(flagship, xbar)
        cfg = StrategyConfig(kind="coop", iters=6)
        _, _, history = solve_cooperative(flagship, xbar, cfg, previous=start, keep_history=True)
        costs = [evaluate_cost(flagship, xbar, start)[0]]
        costs += [evaluate_cost(flagship, xbar, it)[0] for it in history]
        for a, b in zip(costs, costs[1:]):
            assert b <= a + 1e-9 * (1.0 + abs(a))
        for it in history:
            for i, ui in enumerate(it.u):
                assert np.max(np.abs(ui)) <= flagship.u_max[i][0] + 1e-12

    def test_monotone_under_uneven_weights(self, flagship):
        xbar = flagship.pmap.to_regrouped(X0_EXP2)
        cfg = StrategyConfig(kind="coop", iters=4, weights=(0.6, 0.3, 0.1))
        start, _ = solve_noiter_all(flagship, xbar)
        _, _, history = solve_cooperative(flagship, xbar, cfg, previous=start, keep_history=True)
        costs = [evaluate_cost(flagship, xbar, s)[0] for s in [start] + history]
        for a, b in zip(costs, costs[1:]):
            assert b <= a + 1e-9 * (1.0 + abs(a))

    def test_separable_iteration_changes_nothing(self, flagship, rng_factory):
        rng = rng_factory(75)
        prob = tight(flagship).separable()
        xbar = rng.uniform(-4.0, 4.0, size=18)
        start, _ = solve_noiter_all(prob, xbar)
        gc0, _ = evaluate_cost(prob, xbar, start)
        out, _ = solve_cooperative(prob, xbar, StrategyConfig(kind="coop", iters=1), previous=start)
        gc1, _ = evaluate_cost(prob, xbar, out)
        assert gc1 <= gc0 + 1e-9 * (1.0 + gc0)
        assert abs(gc1 - gc0) <= 1e-6 * (1.0 + gc0)

    def test_long_run_reaches_joint_optimum(self, rng_factory):
        rng = rng_factory(76)
        prob = random_certified_problem(rng, N=4, solver=TIGHT)
        xbar = rng.uniform(-2.0, 2.0, size=prob.n)
        cen, _ = solve_centralized(prob, xbar)
        gc_cen, _ = evaluate_cost(prob, xbar, cen)
        out, _ = solve_cooperative(prob, xbar, StrategyConfig(kind="coop", iters=500))
        gc, _ = evaluate_cost(prob, xbar, out)
        assert abs(gc - gc_cen) <= 1e-5 * (1.0 + abs(gc_cen))

    def test_zero_state_stays_zero(self, flagship):
        out, _ = solve_cooperative(
            flagship, np.zeros(18), StrategyConfig(kind="coop", iters=2)
        )
        assert max(np.max(np.abs(ui)) for ui in out.u) <= 1e-8

    def test_needs_matching_weight_count(self, flagship):
        cfg = StrategyConfig(kind="coop", iters=1, weights=(0.5, 0.5))
        with pytest.raises(DimensionMismatch):
            solve_cooperative(flagship, np.zeros(18), cfg)


class TestDispatchAndShift:
    def test_dispatch_labels(self, flagship):
        xbar = 0.1 * np.ones(18)
        for kind, label in (("centralized", "centralized"), ("noiter", "noiter"), ("coop", "coop_2")):
            cfg = StrategyConfig(kind=kind, iters=2)
            seqs, info = solve_strategy(flagship, xbar, cfg)
            assert info.label == label
            assert seqs.N == flagship.N
            assert info.millis >= 0.0 and info.iterations >= 1

    def test_shift_appends_terminal_move(self, flagship, rng_factory):
        rng = rng_factory(77)
        xbar = rng.uniform(-3.0, 3.0, size=18)
        seqs, _ = solve_noiter_all(flagship, xbar)
        shifted = shift_sequences(flagship, xbar, seqs)
        traj = flagship.simulate(xbar, seqs)
        for i, s in enumerate(flagship.group_slices()):
            assert np.array_equal(shifted.u[i][:, :-1], seqs.u[i][:, 1:])
            tail = flagship.ingredients.K[i] @ traj[flagship.N, s]
            assert np.max(np.abs(shifted.u[i][:, -1] - tail)) <= 1e-12
