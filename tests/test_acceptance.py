"""Acceptance gate: the nine end-to-end behaviors the package promises.

Each test exercises one criterion at its stated tolerance and prints a
single PASS line with the measured numbers once its assertions hold.
"""

import json
import time

import numpy as np

from coopmpc import (
    SelectionFailed,
    NotSchur,
    NotStabilized,
    RiccatiDiverged,
    SolverOptions,
    StrategyConfig,
    build_permutation,
    evaluate_cost,
    lqr_gain,
    monte_carlo,
    run_closed_loop,
    solve_centralized,
    solve_cooperative,
    solve_noiter_all,
    solve_qp,
)
from coopmpc.cli import main as cli_main

from oracles import solve_box_qp_active_set
from support import X0_EXP1, X0_EXP2, random_certified_problem, random_dims
from test_qp import random_condensed

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0
BUILD_ERRORS = (SelectionFailed, NotSchur, NotStabilized, RiccatiDiverged)
TIGHT = SolverOptions(eps_abs=1e-10)


def certified_instances(seed, count, N=None, solver=None, max_attempts=2000):
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        assert attempts <= max_attempts, "instance generator certifies too rarely"
        try:
            out.append(random_certified_problem(rng, N=N, solver=solver))
        except BUILD_ERRORS:
            continue
    return out, attempts


def test_criterion_1_permutation_assembly():
    rng = np.random.Generator(np.random.PCG64(1001))
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        dims = random_dims(rng)
        pmap = build_permutation(dims)
        T = pmap.T
        n = T.shape[0]
        assert np.array_equal(T.T @ T, np.eye(n))
        assert np.array_equal(T @ T.T, np.eye(n))
        x = rng.normal(size=n)
        err = np.max(np.abs(pmap.to_original(pmap.to_regrouped(x)) - x))
        worst = max(worst, err)
        assert err <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(
        "ACCEPTANCE 1: PASS — 200 random tables, exact orthogonality, "
        "worst round-trip %.2e, %.2fs" % (worst, elapsed)
    )


def test_criterion_2_lyapunov_solver(flagship):
    ing = flagship.ingredients
    scale = float(np.max(np.abs(ing.Phat)))
    assert ing.lyapunov_residual <= 1e-8 * (1.0 + scale)
    K, P = lqr_gain(np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))
    assert abs(P[0, 0] - GOLDEN) <= 1e-9
    assert abs(K[0, 0] + 1.0 / GOLDEN) <= 1e-8
    print(
        "ACCEPTANCE 2: PASS — flagship fixed-point residual %.2e, "
        "scalar regulator reaches the golden ratio to %.1e"
        % (ing.lyapunov_residual, abs(P[0, 0] - GOLDEN))
    )


def test_criterion_3_certificate_chain():
    problems, attempts = certified_instances(1003, 500)
    dd_count = 0
    worst_ine1 = 0.0
    for prob in problems:
        ing = prob.ingredients
        if ing.dd_holds:
            dd_count += 1
            assert ing.prop1.margin >= -1e-9
        if ing.prop1.margin >= -1e-9:
            for check in ing.prop2:
                assert check.margin >= -1e-9
        for i, s in enumerate(prob.pmap.group_slices()):
            AK = ing.AK[i]
            Phat_ii = ing.Phat[s, s]
            W = prob.tcost.Qbar[s, s] + ing.K[i].T @ prob.tcost.Rlocal[i] @ ing.K[i]
            resid = np.max(np.abs(AK.T @ Phat_ii @ AK + W - Phat_ii))
            worst_ine1 = max(worst_ine1, resid)
            assert resid <= 1e-8 * (1.0 + np.max(np.abs(Phat_ii)))
    print(
        "ACCEPTANCE 3: PASS — 500 certified instances (%d attempts, %d diagonally "
        "dominant), implication chain holds, worst stage-cost identity residual %.2e"
        % (attempts, dd_count, worst_ine1)
    )


def test_criterion_4_noiter_matches_separable_monolith():
    problems, _ = certified_instances(1004, 50, N=3, solver=TIGHT)
    rng = np.random.Generator(np.random.PCG64(2004))
    worst = 0.0
    for prob in problems:
        sep = prob.separable()
        xbar = rng.uniform(-3.0, 3.0, size=sep.n)
        local, _ = solve_noiter_all(sep, xbar)
        joint, _ = solve_centralized(sep, xbar)
        err = max(np.max(np.abs(a - b)) for a, b in zip(local.u, joint.u))
        worst = max(worst, err)
        assert err <= 1e-6
    print(
        "ACCEPTANCE 4: PASS — 50 separable instances, no-iteration and "
        "monolithic solves agree to %.2e" % worst
    )


def test_criterion_5_cooperative_convergence(flagship):
    xbar = flagship.pmap.to_regrouped(X0_EXP1)
    t0 = time.perf_counter()
    start, _ = solve_noiter_all(flagship, xbar)
    cfg = StrategyConfig(kind="coop", iters=200)
    _, _, history = solve_cooperative(flagship, xbar, cfg, previous=start, keep_history=True)
    costs = [evaluate_cost(flagship, xbar, s)[0] for s in [start] + history]
    for a, b in zip(costs, costs[1:]):
        assert b <= a + 1e-9 * (1.0 + abs(a))
    cen, _ = solve_centralized(flagship, xbar)
    gc_cen, _ = evaluate_cost(flagship, xbar, cen)
    rel = abs(costs[-1] - gc_cen) / abs(gc_cen)
    elapsed = time.perf_counter() - t0
    assert rel <= 1e-4
    assert elapsed < 120.0
    print(
        "ACCEPTANCE 5: PASS — 200 cooperative iterations nonincreasing, final "
        "cost within %.2e of centralized, %.1fs" % (rel, elapsed)
    )


def test_criterion_6_comparison_table(tmp_path):
    from coopmpc import example_config_path

    code = cli_main([
        "compare", "--config", str(example_config_path()), "--out-dir", str(tmp_path)
    ])
    assert code == 0
    lines = (tmp_path / "compare.csv").read_text().strip().split("\n")
    rows = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        rows[parts[0]] = (float(parts[1]), float(parts[3]))
    gc = {k: v[0] for k, v in rows.items()}
    cc = {k: v[1] for k, v in rows.items()}
    slack = lambda v: 1e-9 * (1.0 + abs(v))
    assert gc["centralized"] <= gc["coop_5"] + slack(gc["coop_5"])
    for hi, lo in (("coop_5", "coop_4"), ("coop_4", "coop_3"), ("coop_3", "coop_2"), ("coop_2", "coop_1")):
        assert gc[hi] <= gc[lo] + slack(gc[lo])
    assert gc["noiter"] < gc["coop_1"]
    iterated_cc = max(cc[k] for k in ("coop_1", "coop_2", "coop_3", "coop_4", "coop_5"))
    assert cc["noiter"] >= iterated_cc - slack(iterated_cc)
    print(
        "ACCEPTANCE 6: PASS — comparison table reproduces the cost orderings "
        "(GC centralized %.4e, noiter %.4e)" % (gc["centralized"], gc["noiter"])
    )


def test_criterion_7_closed_loop_decay(flagship):
    assert flagship.ingredients.prop1.holds
    strategies = [
        StrategyConfig(kind="centralized"),
        StrategyConfig(kind="noiter"),
        StrategyConfig(kind="coop", iters=5),
    ]
    worst = 0.0
    for x0 in (X0_EXP1, X0_EXP2):
        xbar0 = flagship.pmap.to_regrouped(np.asarray(x0, dtype=float))
        n0 = float(np.linalg.norm(xbar0))
        for cfg in strategies:
            trace = run_closed_loop(flagship, xbar0, cfg, steps=60)
            ratio = trace.norms().min() / n0
            worst = max(worst, ratio)
            assert ratio < 1e-2
    schedule = [
        (0, StrategyConfig(kind="noiter")),
        (10, StrategyConfig(kind="coop", iters=5)),
    ]
    xbar0 = flagship.pmap.to_regrouped(X0_EXP1)
    trace = run_closed_loop(flagship, xbar0, schedule, steps=60)
    switched = trace.norms().min() / float(np.linalg.norm(xbar0))
    assert switched < 1e-2
    print(
        "ACCEPTANCE 7: PASS — both benchmark states decay under every strategy "
        "and across a mid-run switch (worst norm ratio %.2e)" % max(worst, switched)
    )


def test_criterion_8_monte_carlo(flagship):
    t0 = time.perf_counter()
    cfg = StrategyConfig(kind="noiter")
    a = monte_carlo(flagship, draws=200, bounds=(-8.0, 8.0), strategy=cfg, seed=20)
    b = monte_carlo(flagship, draws=200, bounds=(-8.0, 8.0), strategy=cfg, seed=20)
    elapsed = time.perf_counter() - t0
    assert a.to_dict() == b.to_dict()
    assert len(a.per_draw_losses) == 200
    assert a.excluded == sum(1 for v in a.per_draw_losses if v is None)
    assert a.loss_mean <= 0.02
    assert a.loss_worst >= a.loss_mean
    assert elapsed < 600.0
    print(
        "ACCEPTANCE 8: PASS — 200 draws reproduce bit for bit, mean loss "
        "%.4f%%, worst %.4f%%, %d excluded, %.0fs"
        % (100 * a.loss_mean, 100 * a.loss_worst, a.excluded, elapsed)
    )


def test_criterion_9_splitting_solver_agrees_with_enumeration():
    rng = np.random.Generator(np.random.PCG64(1009))
    shapes = [(2, 1, 6), (3, 2, 3), (2, 2, 5), (3, 1, 8), (4, 3, 4), (2, 2, 2), (3, 3, 4)]
    worst = 0.0
    for k in range(50):
        n, m, N = shapes[k % len(shapes)]
        qp, _ = random_condensed(rng, n=n, m=m, N=N, x0_scale=1.0, lo=-2.0, hi=2.0)
        sol = solve_qp(qp, options=TIGHT)
        assert sol.status == "solved"
        ref = solve_box_qp_active_set(qp.H, qp.g, np.full(m * N, -2.0), np.full(m * N, 2.0))
        err = np.max(np.abs(sol.u_stack - ref))
        worst = max(worst, err)
        assert err <= 1e-5
    print(
        "ACCEPTANCE 9: PASS — 50 box-constrained programs match active-set "
        "enumeration to %.2e" % worst
    )
