"""The three solve strategies and their agreement structure."""

from dataclasses import replace

import numpy as np
import pytest

from coopmpc import (
    DimensionMismatch,
    HorizonOperators,
    InputSequenceSet,
    SolverFailure,
    SolverOptions,
    StrategyConfig,
    build_problem,
    config_from_dict,
    evaluate_cost,
    global_cost,
    run_closed_loop,
    shift_sequences,
    solve_centralized,
    solve_cooperative,
    solve_local_noiter,
    solve_noiter_all,
    solve_strategy,
)

from coopmpc import controllers
from coopmpc.qp import INFEASIBLE, SOLVED, solve_qp

from support import (
    X0_EXP1,
    X0_EXP2,
    least_margin,
    noiter_verdicts,
    random_certified_problem,
    ring_network_description,
    search_calls,
)

TIGHT = SolverOptions(eps_abs=1e-11)

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
        # a budget must be a whole count: no fraction, string or bool
        for iters in (0, 2.5, "3", True):
            with pytest.raises(DimensionMismatch):
                StrategyConfig(kind="coop", iters=iters)
        assert StrategyConfig(kind="coop", iters=np.int64(3)).label() == "coop_3"

    def test_rejects_non_simplex_weights(self):
        for weights in ((0.5, 0.2), (1.5, -0.5), (np.nan, 0.5, 0.5), (np.inf, 0.5, 0.5)):
            with pytest.raises(DimensionMismatch):
                StrategyConfig(kind="coop", iters=1, weights=weights)


class TestSequences:
    def test_stacking_round_trip(self, rng_factory):
        rng = rng_factory(71)
        m = (2, 1, 3)
        vec = rng.normal(size=4 * sum(m))
        seqs = InputSequenceSet.from_stacked(vec, m, 4)
        assert [ui.shape for ui in seqs.u] == [(mi, 4) for mi in m]
        back = InputSequenceSet.from_stacked(seqs.stacked(), m, 4)
        assert np.array_equal(back.stacked(), vec)
        for a, b in zip(seqs.u, back.u):
            assert np.array_equal(a, b)

    def test_stacked_is_stage_major(self):
        seqs = InputSequenceSet(np.array([[1.0, 2.0], [3.0, 4.0]]), (1, 1))
        assert np.array_equal(seqs.u[0], [[1.0, 3.0]]) and np.array_equal(seqs.u[1], [[2.0, 4.0]])
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


def agent_by_agent(problem, xbar):
    """(stage, iterations, failures) of `solve_local_noiter` run for each
    agent in turn, the no-iteration solve with no shared law."""
    stage = np.empty((problem.N, sum(problem.m)))
    iters, failures, end = 0, [], 0
    for i, s in enumerate(problem.group_slices()):
        end += problem.m[i]
        try:
            u_i, info = solve_local_noiter(problem, i, xbar[s])
        except SolverFailure as exc:
            failures.append(exc)
            continue
        stage[:, end - problem.m[i] : end] = u_i.T
        iters += info.iterations
    return stage, iters, failures


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
        qp = flagship.agent_operators(0).condense(x_0)
        # the exact check, the search's box QPs, then the certificate
        assert (info.value.status, sol.iterations) == (INFEASIBLE, 1 + search_calls(qp) + 1)
        assert sol.margin == least_margin(qp)
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
        assert margins == [margin for _, _, margin in noiter_verdicts(flagship, xbar)]
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

    def test_wrong_state_length(self, flagship):
        with pytest.raises(DimensionMismatch):
            solve_noiter_all(flagship, np.zeros(20))

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

    @pytest.fixture(scope="class")
    def problems(self, flagship):
        ring = build_problem(config_from_dict(ring_network_description(8)))
        return [flagship, ring] + [random_certified_problem(np.random.default_rng(seed)) for seed in range(3)]

    def test_zero_off_each_group(self, problems):
        # the partial-information pattern: agent i's plan and terminal
        # state read group i's state alone
        for problem in problems:
            L, K = problem.noiter_law()
            N, M, total = problem.N, problem.M, sum(problem.m)
            assert L.shape == (N * total, problem.n) and K.shape == (problem.n, problem.n)
            rows = np.repeat(np.arange(M), problem.m)
            states = np.repeat(np.arange(M), problem.pmap.bar_dims)
            assert not np.any(L.reshape(N, total, -1)[:, rows[:, None] != states[None, :]])
            assert not np.any(K[states[:, None] != states[None, :]])

    def test_matches_agent_by_agent(self, problems):
        # scales from every agent exact to none, through some
        for problem in problems:
            rng = np.random.default_rng(91)
            exact_counts = set()
            for direction in rng.uniform(-1.0, 1.0, size=(2, problem.n)):
                for scale in 0.1 * np.sqrt(2.0) ** np.arange(24):
                    xbar = scale * direction
                    stage, iters, failures = agent_by_agent(problem, xbar)
                    exact_counts.add(sum(sol.iterations == 1 for sol, _, _ in noiter_verdicts(problem, xbar)))
                    if failures:
                        with pytest.raises(SolverFailure) as info:
                            solve_noiter_all(problem, xbar)
                        want = min(failures, key=controllers._decisiveness)
                        got = info.value
                        assert (got.status, got.solution.margin, str(got)) == (
                            want.status, want.solution.margin, str(want)
                        )
                        continue
                    seqs, info = solve_noiter_all(problem, xbar)
                    assert info.iterations == iters
                    assert np.max(np.abs(seqs.stage - stage)) <= 1e-12 * np.max(np.abs(stage))
            assert {0, problem.M} <= exact_counts
            assert any(0 < c < problem.M for c in exact_counts)

    def test_agent_outside_its_ball_falls_back(self, flagship, monkeypatch):
        # with a box that never binds, agent 0's unconstrained plan leaves
        # its ball at a large enough state while the others stay at the origin
        wide = replace(flagship, u_max=tuple(np.full_like(b, 1e6) for b in flagship.u_max))
        s0 = wide.group_slices()[0]
        xbar = np.zeros(wide.n)
        xbar[s0] = 1.0
        ops = wide.agent_operators(0)
        for _ in range(60):
            u = -np.linalg.solve(ops.H, ops.g_x @ xbar[s0])
            if np.linalg.norm(ops.tvec_x @ xbar[s0] + ops.ball_map @ u) > wide.ingredients.ball_radius[0]:
                break
            xbar[s0] *= 2.0
        else:
            pytest.fail("agent 0's unconstrained plan never left its ball")
        fallback = []

        def recorded(problem, i, x_i0):
            fallback.append(i)
            return solve_local_noiter(problem, i, x_i0)

        monkeypatch.setattr(controllers, "solve_local_noiter", recorded)
        seqs, info = solve_noiter_all(wide, xbar)
        assert fallback == [0]
        stage, iters, _ = agent_by_agent(wide, xbar)
        assert info.iterations == iters > wide.M
        assert np.array_equal(seqs.stage[:, 1:], np.zeros((wide.N, wide.M - 1)))
        assert np.max(np.abs(seqs.stage - stage)) <= 1e-12 * np.max(np.abs(stage))
        u0 = seqs.u[0].T.reshape(-1)
        assert np.linalg.norm(ops.tvec_x @ xbar[s0] + ops.ball_map @ u0) <= wide.ingredients.ball_radius[0]

    def test_law_read_only_and_per_copy(self, flagship):
        law = flagship.noiter_law()
        assert flagship.noiter_law() is law
        for a in law:
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
        for copy in (flagship.separable(), replace(flagship)):
            assert copy.noiter_law() is not law
        # the law is local, so dropping the coupling leaves it as it was
        for a, b in zip(flagship.separable().noiter_law(), law):
            assert np.array_equal(a, b)
        heavy = replace(flagship, tcost=replace(flagship.tcost, Pbar=2.0 * flagship.tcost.Pbar))
        assert not np.array_equal(heavy.noiter_law()[0], law[0])


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

    def test_wrong_state_length(self, flagship):
        with pytest.raises(DimensionMismatch):
            solve_cooperative(flagship, np.zeros(20), StrategyConfig(kind="coop", iters=1))

    def test_condenses_each_agent_once(self, flagship, monkeypatch):
        # from a given start only the coop subproblems condense; a cold
        # start adds the no-iteration solve's fallback agents, those the
        # law does not settle
        calls = []
        condense = HorizonOperators.condense

        def counted(ops, x0):
            calls.append(ops)
            return condense(ops, x0)

        monkeypatch.setattr(HorizonOperators, "condense", counted)
        xbar = flagship.pmap.to_regrouped(X0_EXP2)
        start, _ = solve_noiter_all(flagship, xbar)
        fallback = [i for i, (sol, _, _) in enumerate(noiter_verdicts(flagship, xbar)) if sol.iterations > 1]
        assert fallback and len(fallback) < flagship.M
        agents = [flagship.agent_operators(i) for i in range(flagship.M)]
        for previous, first in ((start, []), (None, [agents[i] for i in fallback])):
            calls.clear()
            solve_cooperative(flagship, xbar, StrategyConfig(kind="coop", iters=4), previous=previous)
            assert calls == first + agents

    def test_previous_of_wrong_stage_shape(self, flagship):
        cfg = StrategyConfig(kind="coop", iters=1)
        N, m = flagship.N, flagship.m
        for shape in ((N - 1, sum(m)), (N, sum(m) + 1)):
            previous = InputSequenceSet(np.zeros(shape), m)
            with pytest.raises(DimensionMismatch):
                solve_cooperative(flagship, np.zeros(18), cfg, previous=previous)


# (stage count, input counts) of a plan of the wrong layout, from (N, m)
MALFORMED = {
    "all_but_last_agent": lambda N, m: (N, m[:-1]),
    "three_stages_more": lambda N, m: (N + 3, m),
    "three_stages_fewer": lambda N, m: (N - 3, m),
    "first_two_agents_merged": lambda N, m: (N, (m[0] + m[1],) + m[2:]),
}


NON_FINITE = [np.nan, np.inf, -np.inf]


def malformed_plan(problem, which):
    stages, agents = MALFORMED[which](problem.N, problem.m)
    return InputSequenceSet(np.ones((stages, sum(agents))), agents)


class TestProblemInputs:
    def test_simulate_rejects_wrong_state_length(self, flagship):
        # a 1-entry state must not be broadcast over every state
        seqs = InputSequenceSet(np.zeros((flagship.N, sum(flagship.m))), flagship.m)
        with pytest.raises(DimensionMismatch):
            flagship.simulate(np.ones(1), seqs)

    @pytest.mark.parametrize("which", list(MALFORMED))
    def test_simulate_rejects_malformed_plan(self, flagship, which):
        with pytest.raises(DimensionMismatch):
            flagship.simulate(np.ones(flagship.n), malformed_plan(flagship, which))

    @pytest.mark.parametrize("which", list(MALFORMED))
    def test_shift_rejects_malformed_plan(self, flagship, which):
        with pytest.raises(DimensionMismatch):
            shift_sequences(flagship, np.ones(flagship.n), malformed_plan(flagship, which))

    @pytest.mark.parametrize("which", list(MALFORMED))
    def test_cost_rejects_malformed_plan(self, flagship, which):
        seqs = malformed_plan(flagship, which)
        with pytest.raises(DimensionMismatch):
            global_cost(flagship, np.ones(flagship.n), seqs)
        with pytest.raises(DimensionMismatch):
            evaluate_cost(flagship, np.ones(flagship.n), seqs)

    def test_cooperative_rejects_previous_of_other_agents(self, flagship):
        # the right stage shape, split among the wrong agents
        previous = malformed_plan(flagship, "first_two_agents_merged")
        with pytest.raises(DimensionMismatch):
            solve_cooperative(flagship, np.ones(flagship.n), StrategyConfig(kind="coop", iters=1), previous=previous)

    def test_step_rejects_wrong_state_length(self, flagship):
        u0 = [np.zeros(mi) for mi in flagship.m]
        with pytest.raises(DimensionMismatch):
            flagship.step(np.zeros(20), u0)

    def test_one_input_bound_per_agent(self, flagship):
        # one bound per agent, each with 1 or m_i entries
        wide = flagship.u_max[:1] + (np.full(flagship.m[1] + 1, 4.0),) + flagship.u_max[2:]
        for bounds in (flagship.u_max + (flagship.u_max[0],), wide):
            with pytest.raises(DimensionMismatch):
                replace(flagship, u_max=bounds)

    def test_step_needs_one_input_per_agent(self, flagship):
        # M - 1 inputs, M + 1 inputs, or an input with m_i + 1 entries
        u0 = [np.zeros(mi) for mi in flagship.m]
        long_last = u0[:-1] + [np.zeros(flagship.m[-1] + 1)]
        for bad in (u0[:-1], u0 + [np.zeros(1)], long_last):
            with pytest.raises(DimensionMismatch):
                flagship.step(np.ones(flagship.n), bad)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("kind", ["centralized", "noiter", "coop"])
    def test_solves_reject_non_finite_state(self, flagship, kind, value):
        # entry 7 lies in agent 1's group; a cold coop solve starts from noiter
        xbar = np.ones(flagship.n)
        xbar[7] = value
        cfg = StrategyConfig(kind=kind, iters=1)
        with pytest.raises(DimensionMismatch):
            solve_strategy(flagship, xbar, cfg)
        with pytest.raises(DimensionMismatch):
            run_closed_loop(flagship, xbar, cfg, steps=3)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_cost_and_step_reject_non_finite_state(self, flagship, value):
        xbar = np.ones(flagship.n)
        xbar[7] = value
        seqs = InputSequenceSet(np.zeros((flagship.N, sum(flagship.m))), flagship.m)
        for cost in (global_cost, evaluate_cost):
            with pytest.raises(DimensionMismatch):
                cost(flagship, xbar, seqs)
        with pytest.raises(DimensionMismatch):
            flagship.step(xbar, [np.zeros(mi) for mi in flagship.m])

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_plan_or_input_rejected(self, flagship, value):
        stage = np.zeros((flagship.N, sum(flagship.m)))
        stage[2, 1] = value
        plan = InputSequenceSet(stage, flagship.m)
        xbar = np.ones(flagship.n)
        with pytest.raises(DimensionMismatch):
            solve_cooperative(flagship, xbar, StrategyConfig(kind="coop", iters=1), previous=plan)
        for use in (global_cost, evaluate_cost, shift_sequences):
            with pytest.raises(DimensionMismatch):
                use(flagship, xbar, plan)
        with pytest.raises(DimensionMismatch):
            flagship.step(xbar, [ui[:, 2] for ui in plan.u])


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


class TestExactness:
    def test_every_loop_solve_is_exact(self, flagship, monkeypatch):
        # every QP of the flagship loops, later steps and coop rounds included
        solves = []

        def recorded(qp, *args, **kwargs):
            sol = solve_qp(qp, *args, **kwargs)
            solves.append((qp, sol))
            return sol

        monkeypatch.setattr(controllers, "solve_qp", recorded)
        for x0 in (X0_EXP1, X0_EXP2):
            xbar0 = flagship.pmap.to_regrouped(x0)
            for kind in ("centralized", "noiter", "coop"):
                trace = run_closed_loop(flagship, xbar0, StrategyConfig(kind=kind, iters=5), 10)
                assert len(trace.steps) == 10
        assert any(sol.iterations >= 2 for _, sol in solves)
        for qp, sol in solves:
            assert sol.status == SOLVED
            # 1: the unconstrained minimizer; 1 + box QPs: the search, which
            # never leaves the reported margin to the certificate
            assert sol.iterations == 1 or sol.iterations == 1 + search_calls(qp, flagship.solver)
            assert sol.margin is None
            u = sol.u_stack
            assert np.all(qp.box_lo <= u) and np.all(u <= qp.box_hi)
            assert all(np.linalg.norm(b.Tmap @ u + b.tvec) <= b.radius for b in qp.terminal)
