"""Closed-loop simulation, cost accounting, reports."""

from dataclasses import replace

import numpy as np
import pytest

from coopmpc import (
    ClosedLoopTrace,
    CostSpec,
    SolverOptions,
    StrategyConfig,
    SubsystemBlocks,
    build_problem,
    compare_strategies,
    comparison_to_csv,
    config_digest,
    evaluate_cost,
    monte_carlo,
    replay_states,
    run_closed_loop,
    solve_noiter_all,
    timing_summary,
    timing_summary_csv,
    trace_to_csv,
)

from coopmpc.qp import INFEASIBLE, MAX_ITERS

from support import X0_EXP1, assemble, random_certified_problem

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


class TestCostAccounting:
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
        trace = run_closed_loop(
            starved, 1e3 * np.ones(18), StrategyConfig(kind="noiter"), steps=6
        )
        assert trace.meta.get("aborted") is True
        assert len(trace.meta["failures"]) == 3
        assert len(trace.steps) < 6


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
        # A budget that ends at the certificate keeps the constrained draws short.
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
