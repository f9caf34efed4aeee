"""Closed-loop simulation, cost accounting, reports."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import block_diag

from coopmpc import (
    ClosedLoopTrace,
    CostSpec,
    DimensionMismatch,
    InputSequenceSet,
    SolverOptions,
    StrategyConfig,
    SubsystemBlocks,
    build_problem,
    compare_strategies,
    comparison_to_csv,
    config_digest,
    evaluate_cost,
    global_cost,
    monte_carlo,
    replay_states,
    run_closed_loop,
    shift_sequences,
    solve_centralized,
    solve_noiter_all,
    solve_strategy,
    timing_summary,
    timing_summary_csv,
    trace_to_csv,
)

from coopmpc.qp import INFEASIBLE, MAX_ITERS

from oracles import horizon_cost, stage_sum_cc
from support import X0_EXP1, X0_EXP2, assemble, noiter_verdicts, random_certified_problem

FLAGSHIP_HEADER = (
    "t,"
    + ",".join("xbar_%d" % k for k in range(18))
    + ",u_agent1,u_agent2,u_agent3,GC,CC,iters,millis"
)


def two_channel_problem():
    """Two subsystems, first agent with a two-channel input."""
    dims = np.array([[1, 1], [1, 1]])
    A = [[np.array([[0.3]]), np.array([[0.2]])], [np.array([[0.1]]), np.array([[0.4]])]]
    B = [
        [np.array([[1.0, 0.5]]), np.array([[1.0]])],
        [np.array([[0.4, 1.0]]), np.array([[0.8]])],
    ]
    blocks = SubsystemBlocks(dims=dims, A=A, B=B, m=(2, 1))
    cost = CostSpec(Q=[np.eye(2), np.eye(2)], R=[np.eye(2), [[1.0]]], rho=(1.0, 1.0), N=3)
    lqr_Q = [np.eye(2), np.eye(2)]
    lqr_R = [50.0 * np.eye(2), [[50.0]]]
    return assemble(
        blocks,
        cost,
        lqr_Q,
        lqr_R,
        radii=[1.0, 1.0],
        u_max=[np.array([4.0, 4.0]), np.array([4.0])],
    )


def stage_sum_gc(problem, xbar0, seqs):
    """GC by simulating the joint dynamics and summing the stage costs."""
    tc = problem.tcost
    A, B = block_diag(*problem.tplant.Abar), block_diag(*problem.tplant.Btilde)
    return horizon_cost(A, B, tc.Qbar, tc.Pbar, tc.Rglobal, xbar0, seqs.stage.T)


class TestCostAccounting:
    @pytest.mark.parametrize("which", ["flagship", "separable", "random"])
    def test_global_cost_matches_stage_sum(self, flagship, rng_factory, which):
        rng = rng_factory(87)
        prob = {"flagship": flagship, "separable": flagship.separable()}.get(which) or random_certified_problem(rng)
        u_max = np.concatenate(prob.u_max)
        # plans inside the input box, then up to three times outside it
        for scale in (1.0, 3.0):
            for _ in range(10):
                xbar = rng.uniform(-8.0, 8.0, size=prob.n)
                seqs = InputSequenceSet(scale * u_max * rng.uniform(-1.0, 1.0, size=(prob.N, len(u_max))), prob.m)
                want = stage_sum_gc(prob, xbar, seqs)
                assert abs(global_cost(prob, xbar, seqs) - want) <= 1e-12 * abs(want)
                assert evaluate_cost(prob, xbar, seqs)[0] == global_cost(prob, xbar, seqs)

    @pytest.mark.parametrize("which", ["flagship", "separable", "random"])
    def test_coupled_cost_matches_stage_sum(self, flagship, rng_factory, which):
        rng = rng_factory(88)
        prob = {"flagship": flagship, "separable": flagship.separable()}.get(which) or random_certified_problem(rng)
        tc = prob.tcost
        A, B = block_diag(*prob.tplant.Abar), block_diag(*prob.tplant.Btilde)
        u_max = np.concatenate(prob.u_max)
        # plans inside the input box, then up to three times outside it
        for scale in (1.0, 3.0):
            for _ in range(10):
                xbar = rng.uniform(-8.0, 8.0, size=prob.n)
                seqs = InputSequenceSet(scale * u_max * rng.uniform(-1.0, 1.0, size=(prob.N, len(u_max))), prob.m)
                want = stage_sum_cc(A, B, tc.Qtilde, tc.Ptilde, xbar, seqs.stage.T)
                got = evaluate_cost(prob, xbar, seqs)[1]
                assert abs(got - want) <= 1e-12 * abs(want)
                if which == "separable":
                    assert got == 0.0

    def test_coupling_share_vanishes_on_separable(self, flagship, rng_factory):
        rng = rng_factory(81)
        xbar = rng.uniform(-5.0, 5.0, size=18)
        seqs, _ = solve_noiter_all(flagship, xbar)
        gc_full, cc_full = evaluate_cost(flagship, xbar, seqs)
        sep = flagship.separable()
        gc_sep, cc_sep = evaluate_cost(sep, xbar, seqs)
        assert abs(cc_sep) <= 1e-12
        assert abs(gc_full - (gc_sep + cc_full)) <= 1e-9 * (1.0 + abs(gc_full))


class TestClosedLoop:
    def test_basic_run(self, flagship):
        xbar0 = flagship.pmap.to_regrouped(X0_EXP1)
        trace = run_closed_loop(flagship, xbar0, StrategyConfig(kind="noiter"), steps=10)
        assert len(trace.steps) == 10
        assert [rec.t for rec in trace.steps] == list(range(10))
        assert all(rec.strategy == "noiter" for rec in trace.steps)
        assert all(np.all(np.isfinite(rec.xbar)) for rec in trace.steps)
        assert trace.norms()[-1] < trace.norms()[0]
        assert trace.meta["strategy"] == "noiter"
        assert "aborted" not in trace.meta

    def test_replay_matches_logged_states(self, flagship):
        xbar0 = flagship.pmap.to_regrouped(X0_EXP1)
        trace = run_closed_loop(flagship, xbar0, StrategyConfig(kind="noiter"), steps=8)
        path = replay_states(flagship, trace, xbar0)
        logged = trace.states()
        assert np.max(np.abs(path[:-1] - logged)) <= 1e-10

    def test_zero_start_is_silent(self, flagship):
        trace = run_closed_loop(flagship, np.zeros(18), StrategyConfig(kind="noiter"), steps=5)
        for rec in trace.steps:
            assert np.max(np.abs(rec.xbar)) <= 1e-10
            assert max(np.max(np.abs(u)) for u in rec.u0) <= 1e-8
            assert abs(rec.gc) <= 1e-10

    def test_deterministic_rerun(self, flagship_cfg):
        outs = []
        for _ in range(2):
            prob = build_problem(flagship_cfg)
            xbar0 = prob.pmap.to_regrouped(X0_EXP1)
            trace = run_closed_loop(prob, xbar0, StrategyConfig(kind="noiter"), steps=8)
            outs.append(trace_to_csv(trace, include_timing=False))
        assert outs[0] == outs[1]

    def test_strategy_schedule(self, flagship):
        xbar0 = flagship.pmap.to_regrouped(X0_EXP1)
        schedule = [
            (0, StrategyConfig(kind="noiter")),
            (4, StrategyConfig(kind="coop", iters=2)),
        ]
        trace = run_closed_loop(flagship, xbar0, schedule, steps=7)
        labels = [rec.strategy for rec in trace.steps]
        assert labels == ["noiter"] * 4 + ["coop_2"] * 3
        assert trace.meta["strategy"] == "noiter / coop_2"

    def test_reference_strategy_logged(self, flagship):
        xbar0 = flagship.pmap.to_regrouped(X0_EXP1)
        trace = run_closed_loop(
            flagship,
            xbar0,
            StrategyConfig(kind="noiter"),
            steps=5,
            reference=StrategyConfig(kind="centralized"),
        )
        for rec in trace.steps:
            assert rec.gc_ref is not None and rec.cc_ref is not None
            assert rec.gc_ref <= rec.gc + 1e-6 * (1.0 + abs(rec.gc))

    def test_aborts_after_repeated_failures(self, flagship):
        starved = replace(flagship, solver=SolverOptions(max_iters=10))
        xbar0 = 1e3 * np.ones(18)
        trace = run_closed_loop(starved, xbar0, StrategyConfig(kind="noiter"), steps=6)
        assert trace.meta.get("aborted") is True
        assert len(trace.meta["failures"]) == 3
        assert len(trace.steps) < 6
        # Every step fails at xbar0 on the certificate's verdict, after the
        # search, with the least margin of the three agents.
        verdicts = noiter_verdicts(starved, xbar0)
        for sol, calls, margin in verdicts:
            assert (sol.status, sol.iterations, sol.margin) == (INFEASIBLE, 1 + calls + 1, margin)
        worst = min(range(3), key=lambda i: verdicts[i][2])
        message = "local solve of agent %d finished with status infeasible (terminal-ball margin %.4g)" % (
            worst,
            verdicts[worst][2],
        )
        assert [f["error"] for f in trace.meta["failures"]] == [message] * 3
        assert [(f["status"], f["margin"]) for f in trace.meta["failures"]] == [(INFEASIBLE, verdicts[worst][2])] * 3

    @pytest.mark.parametrize("steps", [-1, True, 2.5, "3"])
    def test_steps_must_be_an_integer_from_zero(self, flagship, steps):
        with pytest.raises(DimensionMismatch):
            run_closed_loop(flagship, np.ones(flagship.n), StrategyConfig(kind="noiter"), steps=steps)

    def test_zero_steps_give_an_empty_trace(self, flagship):
        assert run_closed_loop(flagship, np.ones(flagship.n), StrategyConfig(kind="noiter"), steps=0).steps == []

    @pytest.mark.parametrize("starts", [(2, 4), (0.0, 3), (0, -1), (True, 3), ()])
    def test_schedule_must_start_at_step_zero(self, flagship, starts):
        schedule = [(start, StrategyConfig(kind="noiter")) for start in starts]
        with pytest.raises(DimensionMismatch):
            run_closed_loop(flagship, np.ones(flagship.n), schedule, steps=3)

    def test_schedule_in_any_order(self, flagship):
        xbar0 = flagship.pmap.to_regrouped(X0_EXP1)
        schedule = [(2, StrategyConfig(kind="coop", iters=1)), (0, StrategyConfig(kind="noiter"))]
        trace = run_closed_loop(flagship, xbar0, schedule, steps=3)
        assert [rec.strategy for rec in trace.steps] == ["noiter", "noiter", "coop_1"]


class TestCsv:
    def test_flagship_column_layout(self, flagship):
        xbar0 = flagship.pmap.to_regrouped(X0_EXP1)
        trace = run_closed_loop(flagship, xbar0, StrategyConfig(kind="noiter"), steps=3)
        text = trace_to_csv(trace)
        lines = text.strip().split("\n")
        assert lines[0] == FLAGSHIP_HEADER
        assert len(lines) == 4
        assert [ln.split(",")[0] for ln in lines[1:]] == ["0", "1", "2"]
        bare = trace_to_csv(trace, include_timing=False)
        assert bare.split("\n")[0] == FLAGSHIP_HEADER.rsplit(",millis", 1)[0]
        # values round-trip exactly through repr
        first = bare.strip().split("\n")[1].split(",")
        assert float(first[1]) == trace.steps[0].xbar[0]

    def test_multichannel_input_names(self):
        prob = two_channel_problem()
        trace = run_closed_loop(
            prob, 0.5 * np.ones(prob.n), StrategyConfig(kind="noiter"), steps=2
        )
        header = trace_to_csv(trace).split("\n")[0]
        assert "u_agent1_0,u_agent1_1,u_agent2" in header
        assert "u_agent1," not in header

    def test_empty_trace(self):
        assert trace_to_csv(ClosedLoopTrace(steps=[])) == ""

    def test_timing_summary(self, flagship):
        xbar0 = flagship.pmap.to_regrouped(X0_EXP1)
        schedule = [
            (0, StrategyConfig(kind="noiter")),
            (3, StrategyConfig(kind="coop", iters=2)),
        ]
        trace = run_closed_loop(flagship, xbar0, schedule, steps=5)
        rows = timing_summary(trace)
        assert sorted(r["method"] for r in rows) == ["coop_2", "noiter"]
        for row in rows:
            assert row["worst_case_s"] >= row["average_s"] >= 0.0
        text = timing_summary_csv(rows)
        assert text.split("\n")[0] == "method,worst_case_s,average_s"


class TestCompare:
    def test_row_protocol(self, rng_factory):
        rng = rng_factory(82)
        prob = random_certified_problem(rng, N=3)
        xbar0 = 2.0 * np.ones(prob.n)
        rows, xbar = compare_strategies(prob, xbar0, iter_counts=(1, 2, 3), warmup_steps=2)
        assert [r.method for r in rows] == [
            "centralized",
            "coop_3",
            "coop_2",
            "coop_1",
            "noiter",
        ]
        cen = rows[0]
        assert cen.gc_loss == 0.0 and cen.cc_loss == 0.0
        for row in rows[1:]:
            assert row.gc >= cen.gc - 1e-7 * (1.0 + abs(cen.gc))
            assert abs(row.gc_loss - (row.gc - cen.gc) / cen.gc) <= 1e-12
        coop = {r.method: r.gc for r in rows}
        assert coop["coop_3"] <= coop["coop_2"] + 1e-9 * (1.0 + coop["coop_2"])
        assert coop["coop_2"] <= coop["coop_1"] + 1e-9 * (1.0 + coop["coop_1"])
        assert xbar.shape == (prob.n,)

    def test_zero_centralized_cost_gives_zero_losses(self, flagship):
        # at the origin every strategy plans zero inputs and every cost is 0
        rows, xbar = compare_strategies(flagship, np.zeros(flagship.n), iter_counts=(1, 2), warmup_steps=1)
        assert not xbar.any()
        assert [(r.gc, r.gc_loss, r.cc, r.cc_loss) for r in rows] == [(0.0, 0.0, 0.0, 0.0)] * 4

    @pytest.mark.parametrize("iter_counts", [(0, 2), (7, -1), (1.5, 2), (True, 2)])
    def test_iteration_counts_below_one_rejected(self, flagship, iter_counts):
        # a count below 1 has no cooperative iterate, and a float or a bool
        # is not a count; neither may label another iterate's row
        with pytest.raises(DimensionMismatch):
            compare_strategies(flagship, np.ones(flagship.n), iter_counts=iter_counts, warmup_steps=1)

    @pytest.mark.parametrize("warmup_steps", [-1, 2.5, True])
    def test_warmup_steps_must_be_an_integer_from_zero(self, flagship, warmup_steps):
        with pytest.raises(DimensionMismatch):
            compare_strategies(flagship, np.ones(flagship.n), iter_counts=(1,), warmup_steps=warmup_steps)

    def test_csv_header(self, rng_factory):
        rng = rng_factory(83)
        prob = random_certified_problem(rng, N=3)
        rows, _ = compare_strategies(prob, np.ones(prob.n), iter_counts=(1,), warmup_steps=1)
        text = comparison_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "method,GC,GC_loss,CC,CC_loss"
        assert len(lines) == len(rows) + 1


class TestMonteCarlo:
    def test_deterministic_report(self, rng_factory):
        rng = rng_factory(84)
        prob = random_certified_problem(rng, N=3)
        cfg = StrategyConfig(kind="noiter")
        a = monte_carlo(prob, draws=4, bounds=(-2.0, 2.0), strategy=cfg, seed=11)
        b = monte_carlo(prob, draws=4, bounds=(-2.0, 2.0), strategy=cfg, seed=11)
        assert a.to_dict() == b.to_dict()
        assert len(a.per_draw_losses) == 4
        assert a.excluded == sum(1 for v in a.per_draw_losses if v is None)
        kept = [v for v in a.per_draw_losses if v is not None]
        if kept:
            assert a.loss_worst >= a.loss_mean >= -1e-6

    def test_point_mass_draws_agree(self, rng_factory):
        rng = rng_factory(85)
        prob = random_certified_problem(rng, N=3)
        rep = monte_carlo(
            prob, draws=2, bounds=(1.0, 1.0), strategy=StrategyConfig(kind="noiter"), seed=3
        )
        assert rep.excluded == 0
        assert rep.per_draw_losses[0] == pytest.approx(rep.per_draw_losses[1], abs=1e-12)
        assert rep.loss_worst == pytest.approx(rep.loss_mean, abs=1e-12)

    def test_excluded_draws_carry_verdicts(self, flagship):
        # A budget of 2 leaves the search none, so every constrained draw
        # ends at the certificate.
        prob = replace(flagship, solver=SolverOptions(max_iters=2))
        cfg = StrategyConfig(kind="noiter")
        a = monte_carlo(prob, draws=40, bounds=(-8.0, 8.0), strategy=cfg, seed=20)
        b = monte_carlo(prob, draws=40, bounds=(-8.0, 8.0), strategy=cfg, seed=20)
        assert a.to_dict() == b.to_dict()
        nulls = [d for d, v in enumerate(a.per_draw_losses) if v is None]
        assert [rec["index"] for rec in a.excluded_draws] == nulls
        assert {rec["status"] for rec in a.excluded_draws} == {INFEASIBLE, MAX_ITERS}
        for rec in a.excluded_draws:
            if rec["status"] == INFEASIBLE:
                assert rec["margin"] < 0.0
            else:
                assert rec["margin"] >= 0.0
        # agent 1 of draw 35 is capped, but agent 2's ball is out of reach
        (draw35,) = [rec for rec in a.excluded_draws if rec["index"] == 35]
        assert draw35["status"] == INFEASIBLE
        assert draw35["margin"] == pytest.approx(-0.0352, abs=5e-5)

    def test_default_budget_excludes_only_infeasible_draws(self, flagship):
        cfg = StrategyConfig(kind="noiter")
        rep = monte_carlo(flagship, draws=50, bounds=(-8.0, 8.0), strategy=cfg, seed=20)
        assert [rec["index"] for rec in rep.excluded_draws] == [14, 33, 35, 37]
        assert {rec["status"] for rec in rep.excluded_draws} == {INFEASIBLE}
        margins = [rec["margin"] for rec in rep.excluded_draws]
        assert margins == pytest.approx([-0.5535, -0.0404, -0.0352, -0.5497], abs=5e-5)

    def test_losses_match_stage_sum_oracle(self, flagship):
        cfg = StrategyConfig(kind="noiter")
        rep = monte_carlo(flagship, draws=50, bounds=(-8.0, 8.0), strategy=cfg, seed=20)
        X0 = -8.0 + 16.0 * np.random.Generator(np.random.PCG64(20)).random((50, flagship.n))
        kept = 0
        for d, loss in enumerate(rep.per_draw_losses):
            if loss is None:
                continue
            xbar = flagship.pmap.to_regrouped(X0[d])
            gc = stage_sum_gc(flagship, xbar, solve_strategy(flagship, xbar, cfg)[0])
            gc_cen = stage_sum_gc(flagship, xbar, solve_centralized(flagship, xbar)[0])
            assert abs(loss - (gc - gc_cen) / gc_cen) <= 1e-12
            kept += 1
        assert kept == 46

    def test_zero_centralized_cost_gives_zero_losses(self, flagship):
        # every draw is the origin, where every plan and every cost is 0
        cfg = StrategyConfig(kind="noiter")
        rep = monte_carlo(flagship, draws=3, bounds=(0.0, 0.0), strategy=cfg, seed=20)
        assert rep.excluded == 0
        assert rep.per_draw_losses == [0.0, 0.0, 0.0]
        assert (rep.loss_mean, rep.loss_worst) == (0.0, 0.0)

    @pytest.mark.parametrize("draws, seed", [(2.5, 20), (True, 20), (-1, 20), (2, 2.5), (2, -1), (2, None)])
    def test_draws_and_seed_must_be_integers_from_zero(self, flagship, draws, seed):
        with pytest.raises(DimensionMismatch):
            monte_carlo(flagship, draws=draws, bounds=(-8.0, 8.0), strategy=StrategyConfig(kind="noiter"), seed=seed)

    def test_integer_types_accepted(self, flagship):
        cfg = StrategyConfig(kind="noiter")
        rep = monte_carlo(flagship, draws=np.int64(2), bounds=(-1.0, 1.0), strategy=cfg, seed=np.int64(20))
        assert (rep.draws, rep.seed) == (2, 20) and type(rep.draws) is int and type(rep.seed) is int
        assert monte_carlo(flagship, draws=0, bounds=(-1.0, 1.0), strategy=cfg, seed=20).per_draw_losses == []

    def test_seed_changes_sample(self, rng_factory):
        rng = rng_factory(86)
        prob = random_certified_problem(rng, N=3)
        cfg = StrategyConfig(kind="noiter")
        a = monte_carlo(prob, draws=3, bounds=(-2.0, 2.0), strategy=cfg, seed=1)
        b = monte_carlo(prob, draws=3, bounds=(-2.0, 2.0), strategy=cfg, seed=2)
        assert a.per_draw_losses != b.per_draw_losses


class TestDigest:
    def test_key_order_irrelevant(self):
        a = {"b": 1, "a": [1, 2], "c": {"y": 2.0, "x": "s"}}
        b = {"c": {"x": "s", "y": 2.0}, "a": [1, 2], "b": 1}
        assert config_digest(a) == config_digest(b)
        assert len(config_digest(a)) == 16

    def test_value_changes_digest(self):
        assert config_digest({"a": 1}) != config_digest({"a": 2})


class TestDecay:
    def test_benchmark_state_decays_three_decades(self, flagship):
        xbar0 = flagship.pmap.to_regrouped(X0_EXP1)
        trace = run_closed_loop(flagship, xbar0, StrategyConfig(kind="noiter"), steps=60)
        norms = trace.norms()
        assert norms.min() <= 1e-3 * norms[0]


class TestStabilityClaim:
    """The paper's closed-loop stability claim along flagship loops.

    With V(t) the global cost GC of the plan applied at t and
    l(x, u) = x'Qbar x + u'R u its first stage, the shifted plan (tail
    K x(N)) is feasible at x(t+1) and costs at most V(t) - l, and both the
    centralized optimum and the cooperative iteration started from it cost
    no more than that.
    """

    @pytest.mark.parametrize("x0", [X0_EXP1, X0_EXP2], ids=["x0_exp1", "x0_exp2"])
    @pytest.mark.parametrize(
        "strategy", [StrategyConfig(kind="centralized"), StrategyConfig(kind="coop", iters=5)], ids=lambda s: s.label()
    )
    def test_value_decrease_and_shifted_plan_feasible(self, flagship, x0, strategy):
        problem = flagship
        tc = problem.tcost
        balls = list(zip(problem.group_slices(), problem.ingredients.ball_radius))
        u_max = np.concatenate(problem.u_max)
        xbar = problem.pmap.to_regrouped(x0)
        previous = None
        bound = None
        for t in range(40):
            seqs, _ = solve_strategy(problem, xbar, strategy, previous=previous)
            V = global_cost(problem, xbar, seqs)
            if bound is not None:
                assert V <= bound, (t, V, bound)
            u = seqs.stage[0]
            bound = V - (xbar @ tc.Qbar @ xbar + u @ tc.Rglobal @ u) + 1e-9 * (1.0 + abs(V))
            previous = shift_sequences(problem, xbar, seqs)
            xbar = problem.step(xbar, [ui[:, 0] for ui in seqs.u])
            assert np.all(np.abs(previous.stage) <= u_max), t
            x_end = xbar
            for k in range(problem.N):
                x_end = problem.step(x_end, [ui[:, k] for ui in previous.u])
            for s, radius in balls:
                assert np.linalg.norm(x_end[s]) <= radius, (t, s)
