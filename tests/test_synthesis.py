"""Terminal controllers, the Lyapunov weight, and the decrease certificates."""

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import block_diag, solve_discrete_are, solve_discrete_lyapunov as sp_lyap

from coopmpc import (
    CostSpec,
    NotSchur,
    NotStabilized,
    RiccatiDiverged,
    SelectionFailed,
    SubsystemBlocks,
    build_composite,
    build_problem,
    build_permutation,
    check_corollary_dd,
    check_prop1,
    check_prop2_blocks,
    config_from_dict,
    lqr_gain,
    lqr_gains,
    select_terminal_weights,
    solve_discrete_lyapunov,
    synthesize,
    transform_cost,
    transform_plant,
    verify_ball_terminal,
)
from coopmpc import synthesis
from coopmpc.synthesis import candidate_alphas

from oracles import (
    dense_regroup,
    dense_transform_cost,
    lyapunov_fixed_point,
    prop1_check,
    sweep_terminal_weights,
)
from support import assemble, random_certified_problem, random_spd, ring_network_description, scaled_block

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def decoupled_problem(rng):
    """Two agents, each driving only its own subsystem."""
    dims = np.array([[2, 0], [0, 1]])
    A = [[0.7 * np.eye(2), np.zeros((0, 0))], [np.zeros((0, 0)), [[0.5]]]]
    B = [
        [rng.uniform(0.5, 1.0, size=(2, 1)), np.zeros((0, 1))],
        [np.zeros((0, 1)), [[1.0]]],
    ]
    blocks = SubsystemBlocks(dims=dims, A=A, B=B, m=(1, 1))
    rho = (1.4, 0.8)
    Q = [random_spd(rng, 2), random_spd(rng, 1)]
    R = [[[1.0]], [[0.7]]]
    cost = CostSpec(Q=Q, R=R, rho=rho, N=3)
    return assemble(
        blocks,
        cost,
        lqr_Q=[rho[0] * Q[0], rho[1] * Q[1]],
        lqr_R=[rho[0] * np.asarray(R[0]), rho[1] * np.asarray(R[1])],
        radii=[1.0, 1.0],
        u_max=[np.array([10.0]), np.array([10.0])],
    )


class TestLyapunov:
    def test_scalar_contraction(self):
        P = solve_discrete_lyapunov(np.array([[0.5]]), np.array([[0.75]]))
        assert abs(P[0, 0] - 1.0) <= 1e-12

    def test_nilpotent_returns_weight(self, rng_factory):
        W = random_spd(rng_factory(1), 3, eps=0.2)
        P = solve_discrete_lyapunov(np.zeros((3, 3)), W)
        assert np.max(np.abs(P - W)) <= 1e-12

    def test_upper_triangular_case_matches_series(self):
        F = np.array([[0.5, 0.1], [0.0, 0.4]])
        P = solve_discrete_lyapunov(F, np.eye(2))
        assert np.max(np.abs(P - lyapunov_fixed_point(F, np.eye(2)))) <= 1e-10
        assert np.max(np.abs(P - sp_lyap(F.T, np.eye(2)))) <= 1e-10

    def test_residual_bound_on_random_stable(self, rng_factory):
        rng = rng_factory(2)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            F = rng.normal(size=(n, n))
            rho = np.max(np.abs(np.linalg.eigvals(F)))
            F *= rng.uniform(0.1, 0.95) / max(rho, 1e-12)
            W = random_spd(rng, n, eps=0.2)
            P = solve_discrete_lyapunov(F, W)
            resid = np.max(np.abs(F.T @ P @ F + W - P))
            assert resid <= 1e-8 * (1.0 + np.max(np.abs(P)))
            assert np.max(np.abs(P - P.T)) == 0.0

    def test_unit_radius_rejected(self):
        with pytest.raises(NotSchur):
            solve_discrete_lyapunov(np.eye(2), np.eye(2))
        with pytest.raises(NotSchur):
            solve_discrete_lyapunov(np.array([[1.2]]), np.array([[1.0]]))


class TestLqr:
    def test_scalar_golden_ratio(self):
        K, P = lqr_gain([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        assert abs(P[0, 0] - GOLDEN) <= 1e-9
        assert abs(K[0, 0] + 1.0 / GOLDEN) <= 1e-9

    def test_dead_plant_needs_no_gain(self):
        K, P = lqr_gain([[0.0]], [[1.0]], [[3.0]], [[2.0]])
        assert abs(K[0, 0]) <= 1e-12
        assert abs(P[0, 0] - 3.0) <= 1e-12

    def test_matches_dense_riccati_solver(self, rng_factory):
        rng = rng_factory(3)
        systems = []
        singles = []
        for _ in range(20):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, 4))
            A = rng.normal(size=(n, n))
            A *= 0.9 / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-12)
            B = rng.normal(size=(n, m))
            Q = random_spd(rng, n, eps=0.2)
            R = random_spd(rng, m, eps=0.1)
            K, P = lqr_gain(A, B, Q, R)
            P_ref = solve_discrete_are(A, B, Q, R)
            scale = 1.0 + np.max(np.abs(P_ref))
            assert np.max(np.abs(P - P_ref)) <= 1e-7 * scale
            assert np.max(np.abs(np.linalg.eigvals(A + B @ K))) < 1.0 - 1e-8
            systems.append((A, B, Q, R))
            singles.append((K, P, P_ref))
        # one padded batch over all the mixed sizes gives each system's own answer
        batch = lqr_gains(systems)
        assert len(batch) == len(systems)
        for (K, P), (K1, P1, P_ref) in zip(batch, singles):
            assert K.shape == K1.shape and P.shape == P1.shape
            assert np.max(np.abs(P - P_ref)) <= 1e-7 * (1.0 + np.max(np.abs(P_ref)))
            assert np.max(np.abs(P - P1)) <= 1e-12 * np.max(np.abs(P1))
            assert np.max(np.abs(K - K1)) <= 1e-12 * np.max(np.abs(K1))

    def test_flagship_groups_stabilized(self, flagship):
        for AK in flagship.ingredients.AK:
            assert np.max(np.abs(np.linalg.eigvals(AK))) < 1.0 - 1e-8

    def test_no_stabilizing_solution(self):
        # An unstable mode with no input: no stabilizing Riccati solution.
        with pytest.raises(RiccatiDiverged):
            lqr_gain([[2.0]], [[0.0]], [[1.0]], [[1.0]])

    def test_undetectable_unstable_mode_is_not_stabilized(self):
        # Q = 0 leaves the doubling iteration at P = 0, whose gain K = 0
        # does not close the unstable mode; that gain is never returned.
        with pytest.raises(NotStabilized):
            lqr_gain([[2.0]], [[1.0]], [[0.0]], [[1.0]])

    def test_empty_batch(self):
        assert lqr_gains([]) == []

    def test_builds_design_every_gain_in_one_batch(self, monkeypatch, flagship_cfg):
        calls = {"lqr_gains": 0, "solve_discrete_are": 0}
        batched = synthesis.lqr_gains

        def counted_gains(systems):
            calls["lqr_gains"] += 1
            return batched(systems)

        def forbidden(*args, **kwargs):
            calls["solve_discrete_are"] += 1
            raise AssertionError("solve_discrete_are called during a build")

        monkeypatch.setattr(synthesis, "lqr_gains", counted_gains)
        monkeypatch.setattr(scipy.linalg, "solve_discrete_are", forbidden)
        monkeypatch.setattr(synthesis, "solve_discrete_are", forbidden, raising=False)
        for cfg in (flagship_cfg, config_from_dict(ring_network_description(8))):
            calls.update(lqr_gains=0, solve_discrete_are=0)
            problem = build_problem(cfg)
            assert calls == {"lqr_gains": 1, "solve_discrete_are": 0}
            assert all(np.max(np.abs(np.linalg.eigvals(AK))) < 1.0 for AK in problem.ingredients.AK)


class TestBallCertificate:
    def test_contractive_loop_with_slack(self):
        K = np.array([[1.0, 0.0]])
        cert = verify_ball_terminal(0.5 * np.eye(2), K, 1.0, [4.0])
        assert cert.ball_invariant and cert.input_admissible
        assert abs(cert.sigma_max - 0.5) <= 1e-12
        assert abs(cert.input_margin - 3.0) <= 1e-12

    def test_expansive_loop_flagged(self):
        cert = verify_ball_terminal(np.diag([1.2, 0.5]), np.zeros((1, 2)), 1.0, [4.0])
        assert not cert.ball_invariant
        assert abs(cert.sigma_max - 1.2) <= 1e-12

    def test_input_bound_boundary(self):
        K = np.array([[0.6, 0.8]])
        cert = verify_ball_terminal(0.1 * np.eye(2), K, 1.0, [1.0])
        assert cert.input_admissible and abs(cert.input_margin) <= 1e-12
        tight = verify_ball_terminal(0.1 * np.eye(2), K, 1.0, [0.9])
        assert not tight.input_admissible

    def test_flagship_reports_honest_flags(self, flagship):
        certs = flagship.ingredients.ball_certs
        assert all(c.input_admissible for c in certs)
        # group 2 inherits two open-loop singular values above one, and a
        # rank-one input correction cannot pull the closed-loop spectral
        # norm under the second of them
        assert not certs[1].ball_invariant
        assert certs[1].sigma_max > 1.0
        assert flagship.ingredients.certified()


class TestDecreaseCertificates:
    def test_equal_weights_zero_margin(self):
        P = np.diag([2.0, 3.0])
        cert = check_prop1(P, P, 0.5 * np.eye(2))
        assert cert.holds and abs(cert.margin) <= 1e-12

    def test_zero_loop_reduces_to_ordering(self):
        Phat = np.diag([1.0, 1.0])
        assert check_prop1(Phat + 0.1 * np.eye(2), Phat, np.zeros((2, 2))).holds
        assert not check_prop1(Phat - 0.1 * np.eye(2), Phat, np.zeros((2, 2))).holds

    def test_identity_gap_contractive_loop(self):
        AK = np.array([[0.3, 0.2], [0.0, 0.4]])
        assert np.linalg.norm(AK, 2) < 1.0
        cert = check_prop1(np.eye(2) + np.eye(2), np.eye(2), AK)
        want = np.linalg.eigvalsh(np.eye(2) - AK.T @ AK)[0]
        assert cert.holds
        assert abs(cert.margin - want) <= 1e-12

    def test_expansive_loop_fails(self):
        cert = check_prop1(np.eye(1) * 2.0, np.eye(1), np.array([[1.5]]))
        assert not cert.holds
        assert cert.margin < 0

    def test_block_margins_match_manual(self, rng_factory):
        rng = rng_factory(4)
        bar_dims = (2, 3)
        Pbar = random_spd(rng, 5, eps=0.3)
        Phat = random_spd(rng, 5, eps=0.3)
        AK = [0.6 * rng.normal(size=(2, 2)), 0.6 * rng.normal(size=(3, 3))]
        out = check_prop2_blocks(Pbar, Phat, AK, bar_dims)
        Delta = 0.5 * (Pbar + Pbar.T) - 0.5 * (Phat + Phat.T)
        for i, s in enumerate((slice(0, 2), slice(2, 5))):
            Dii = Delta[s, s]
            Si = Dii - AK[i].T @ Dii @ AK[i]
            want = np.linalg.eigvalsh(0.5 * (Si + Si.T))[0]
            assert abs(out[i].margin - want) <= 1e-10

    def test_global_pass_implies_block_pass(self, rng_factory):
        rng = rng_factory(5)
        bar_dims = (2, 2)
        seen_hold = seen_block_fail = False
        for trial in range(60):
            if trial % 2:
                Delta = random_spd(rng, 4, eps=0.3)
                scale = 0.7
            else:
                Delta = rng.normal(size=(4, 4))
                Delta = 0.5 * (Delta + Delta.T)
                scale = 1.2
            AK = [scale * rng.normal(size=(2, 2)) for _ in range(2)]
            Phat = random_spd(rng, 4, eps=0.2)
            Pbar = Phat + Delta
            top = check_prop1(Pbar, Phat, block_diag(*AK))
            blocks = check_prop2_blocks(Pbar, Phat, AK, bar_dims)
            if top.holds:
                seen_hold = True
                assert all(b.margin >= -1e-9 * (1.0 + np.linalg.norm(Delta, 2)) for b in blocks)
            if any(not b.holds for b in blocks):
                seen_block_fail = True
                assert not top.holds
        assert seen_hold and seen_block_fail

    def test_dominance_examples(self):
        # loop-free checks: S equals the weight gap itself
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        holds, slack = check_corollary_dd(bad, np.zeros((2, 2)), np.zeros((2, 2)))
        assert not holds and abs(slack + 1.0) <= 1e-12
        good = np.array([[2.0, 0.5], [0.5, 2.0]])
        holds, slack = check_corollary_dd(good, np.zeros((2, 2)), np.zeros((2, 2)))
        assert holds and abs(slack - 1.5) <= 1e-12
        assert check_prop1(good, np.zeros((2, 2)), np.zeros((2, 2))).holds

    def test_dominance_implies_global(self, rng_factory):
        rng = rng_factory(6)
        hits = 0
        for _ in range(80):
            n = int(rng.integers(2, 5))
            Delta = np.diag(rng.uniform(1.0, 2.0, size=n)) + 0.1 * random_spd(rng, n, eps=1.0)
            AK = 0.4 * rng.normal(size=(n, n))
            Phat = random_spd(rng, n, eps=0.2)
            holds, _ = check_corollary_dd(Phat + Delta, Phat, AK)
            if holds:
                hits += 1
                assert check_prop1(Phat + Delta, Phat, AK).margin >= -1e-9
        assert hits >= 10


class TestSelection:
    def test_sweep_grid_shape(self):
        grid = candidate_alphas()
        assert grid[:7] == [1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 15.0]
        assert grid[-1] == 1e6
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_sweep_grid_ends_at_its_limit(self):
        assert candidate_alphas(1.0) == [1.0]
        assert candidate_alphas(4.0) == [1.0, 1.5, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("alpha_max", [0.5, float("nan"), float("inf")])
    def test_invalid_sweep_limit_rejected(self, flagship, alpha_max):
        with pytest.raises(SelectionFailed, match="alpha_max must be a finite number >= 1, got %r" % alpha_max):
            candidate_alphas(alpha_max)
        ing = flagship.ingredients
        with pytest.raises(SelectionFailed, match="got %r" % alpha_max):
            select_terminal_weights(
                flagship.cost, flagship.tplant, ing.Phat, block_diag(*ing.AK), alpha_max=alpha_max
            )

    def test_decoupled_instance_needs_no_scaling(self, rng_factory):
        # with no cross-subsystem state blocks the regrouping is the
        # identity and the ideal weight is already block diagonal
        prob = decoupled_problem(rng_factory(7))
        ing = prob.ingredients
        assert ing.alpha == 1.0
        gap = prob.tcost.Pbar - ing.Phat
        assert np.max(np.abs(gap)) <= 1e-7 * (1.0 + np.max(np.abs(ing.Phat)))

    def test_flagship_scaling_and_margin(self, flagship):
        ing = flagship.ingredients
        assert ing.alpha == 3.0
        assert abs(ing.prop1.margin - 0.7814471387567821) <= 1e-6
        assert ing.prop1.holds
        assert all(c.holds for c in ing.prop2)

    def test_aggressive_design_weights_fail(self, flagship):
        base = flagship.cost
        cost = CostSpec(Q=base.Q, R=base.R, rho=base.rho, N=base.N)
        lqr_Q = [10.0 * np.eye(6), 5.0 * np.eye(6), 0.2 * np.eye(6)]
        lqr_R = [[[0.1]], [[0.1]], [[0.01]]]
        with pytest.raises(SelectionFailed):
            synthesize(
                flagship.tplant,
                cost,
                lqr_Q,
                lqr_R,
                radii=[1.0, 1.0, 1.0],
                u_max=[np.array([4.0])] * 3,
            )


class TestSynthesize:
    def test_flagship_lyapunov_weight(self, flagship):
        ing = flagship.ingredients
        assert np.linalg.eigvalsh(ing.Phat)[0] > 0
        assert ing.lyapunov_residual <= 1e-8 * (1.0 + np.max(np.abs(ing.Phat)))

    def test_flagship_block_identity(self, flagship):
        # diagonal blocks of the closed-loop weight equation close on
        # their own: AK_i' Phat_ii AK_i + Qbar_ii + K_i' rho_i R_i K_i = Phat_ii
        ing = flagship.ingredients
        tc = flagship.tcost
        for i, s in enumerate(flagship.group_slices()):
            lhs = (
                ing.AK[i].T @ ing.Phat[s, s] @ ing.AK[i]
                + tc.Qbar[s, s]
                + ing.K[i].T @ tc.Rlocal[i] @ ing.K[i]
            )
            assert np.max(np.abs(lhs - ing.Phat[s, s])) <= 1e-8

    def test_automatic_selection_transforms_the_cost_once(self, flagship_cfg, flagship, monkeypatch):
        # after selection only the terminal weight is regrouped; the stage
        # weights come from the one transform made before it
        calls = []

        def counted(cost, pmap):
            calls.append(cost.P)
            return transform_cost(cost, pmap)

        monkeypatch.setattr(synthesis, "transform_cost", counted)
        problem = build_problem(flagship_cfg)
        assert calls == [None]
        for name in ("Qbar", "Pbar", "Qa", "Pa", "Qtilde", "Ptilde", "Rglobal"):
            assert same_bytes(getattr(problem.tcost, name), getattr(flagship.tcost, name)), name

    def test_flagship_terminal_decrease_per_block(self, flagship):
        # selected weights make the terminal cost a local Lyapunov
        # function on each group
        ing = flagship.ingredients
        tc = flagship.tcost
        for i, s in enumerate(flagship.group_slices()):
            Pii = tc.Pbar[s, s]
            drop = (
                Pii
                - ing.AK[i].T @ Pii @ ing.AK[i]
                - tc.Qbar[s, s]
                - ing.K[i].T @ tc.Rlocal[i] @ ing.K[i]
            )
            lam = np.linalg.eigvalsh(0.5 * (drop + drop.T))[0]
            assert lam >= -1e-8 * (1.0 + np.linalg.norm(Pii, 2))

    def test_explicit_zero_gains_rejected(self, flagship):
        base = flagship.cost
        cost = CostSpec(Q=base.Q, R=base.R, rho=base.rho, N=base.N)
        with pytest.raises(NotSchur):
            synthesize(
                flagship.tplant,
                cost,
                lqr_Q=[np.eye(6)] * 3,
                lqr_R=[[[300.0]]] * 3,
                radii=[1.0] * 3,
                u_max=[np.array([4.0])] * 3,
                gains=[np.zeros((1, 6))] * 3,
            )

    def test_explicit_terminal_weights_kept(self, flagship):
        ing2, cost2, _ = synthesize(
            flagship.tplant,
            flagship.cost,
            lqr_Q=[np.eye(6)] * 3,
            lqr_R=[[[300.0]]] * 3,
            radii=[1.0] * 3,
            u_max=[np.array([4.0])] * 3,
        )
        assert ing2.alpha is None
        assert ing2.prop1.holds
        for Pa, Pb in zip(cost2.P, flagship.cost.P):
            assert np.max(np.abs(Pa - Pb)) == 0.0

    def test_flagship_dominance_report(self, flagship):
        ing = flagship.ingredients
        if ing.dd_holds:
            assert ing.prop1.margin >= -1e-9
        assert np.isfinite(ing.dd_slack)


def same_bytes(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_matches_sweep_oracle(pmap, cost, tcost, ing):
    """The weights and certificates `synthesize` returned with automatic
    selection equal the per-candidate dense sweep's, byte for byte."""
    AK = block_diag(*ing.AK)
    ref = sweep_terminal_weights(pmap.T, pmap.dims, cost.rho, ing.Phat, AK, candidate_alphas())
    assert ref is not None
    P_list, alpha, margin = ref
    assert ing.alpha == alpha
    assert all(same_bytes(got, want) for got, want in zip(cost.P, P_list))
    want = dense_transform_cost(pmap.T, pmap.bar_dims, cost.Q, cost.R, cost.rho, P_list)
    for name, arr in want.items():
        got = getattr(tcost, name)
        if name == "Rlocal":
            assert all(same_bytes(g, w) for g, w in zip(got, arr)), name
        else:
            assert same_bytes(got, arr), name
    Pbar = want["Pbar"]
    assert (ing.prop1.holds, ing.prop1.margin) == prop1_check(Pbar, ing.Phat, AK) == (True, margin)
    ref2 = check_prop2_blocks(Pbar, ing.Phat, ing.AK, pmap.bar_dims)
    assert [(c.holds, c.margin) for c in ing.prop2] == [(c.holds, c.margin) for c in ref2]
    assert (ing.dd_holds, ing.dd_slack) == check_corollary_dd(Pbar, ing.Phat, AK)


def random_network_case(rng):
    """(tplant, cost without P, lqr_Q, lqr_R) of a random M = 2..4 network.

    One input per agent, zero blocks off the diagonal of the dims table,
    dynamics blocks up to spectral norm 1.2, priorities 0.3..3 and LQR
    input weights 1..80, so the selected scaling ranges from 1 to hundreds
    and some instances admit none.
    """
    M = int(rng.integers(2, 5))
    dims = rng.integers(0, 3, size=(M, M))
    np.fill_diagonal(dims, rng.integers(1, 3, size=M))
    A = [[scaled_block(rng, int(dims[i, j]), rng.uniform(0.3, 1.2)) for j in range(M)] for i in range(M)]
    B = [[rng.uniform(-1.0, 1.0, size=(int(dims[i, j]), 1)) for j in range(M)] for i in range(M)]
    blocks = SubsystemBlocks(dims=dims, A=A, B=B, m=(1,) * M)
    cost = CostSpec(
        Q=[random_spd(rng, int(r)) for r in dims.sum(axis=1)],
        R=[[[rng.uniform(0.5, 1.5)]] for _ in range(M)],
        rho=rng.uniform(0.3, 3.0, size=M),
        N=3,
    )
    pmap = build_permutation(dims)
    tplant = transform_plant(build_composite(blocks), pmap)
    lqr_Q = [rng.uniform(0.1, 10.0) * np.eye(d) for d in pmap.bar_dims]
    lqr_R = [[[rng.uniform(1.0, 80.0)]] for _ in range(M)]
    return tplant, cost, lqr_Q, lqr_R


class TestLinearSweep:
    def test_flagship_matches_oracle(self, flagship):
        assert flagship.ingredients.alpha == 3.0
        assert_matches_sweep_oracle(flagship.pmap, flagship.cost, flagship.tcost, flagship.ingredients)

    def test_decoupled_instance_matches_oracle(self, rng_factory):
        prob = decoupled_problem(rng_factory(7))
        assert_matches_sweep_oracle(prob.pmap, prob.cost, prob.tcost, prob.ingredients)

    def test_random_certified_problems_match_oracle(self, rng_factory):
        for seed in range(100):
            prob = random_certified_problem(rng_factory(1000 + seed))
            assert_matches_sweep_oracle(prob.pmap, prob.cost, prob.tcost, prob.ingredients)

    def test_random_networks_match_oracle(self, rng_factory):
        rng = rng_factory(16)
        alphas = []
        for _ in range(80):
            tplant, cost, lqr_Q, lqr_R = random_network_case(rng)
            M = tplant.M
            args = (lqr_Q, lqr_R, [1.0] * M, [np.array([10.0])] * M)
            # explicit weights skip the selection, giving Phat and AK alone
            eye = [np.eye(int(r)) for r in tplant.map.dims.sum(axis=1)]
            ing, _, _ = synthesize(tplant, CostSpec(Q=cost.Q, R=cost.R, rho=cost.rho, N=cost.N, P=eye), *args)
            AK = block_diag(*ing.AK)
            ref = sweep_terminal_weights(tplant.map.T, tplant.map.dims, cost.rho, ing.Phat, AK, candidate_alphas())
            if ref is None:
                with pytest.raises(SelectionFailed):
                    select_terminal_weights(cost, tplant, ing.Phat, AK)
                with pytest.raises(SelectionFailed):
                    synthesize(tplant, cost, *args)
                alphas.append(None)
                continue
            P_list, alpha, cert = select_terminal_weights(cost, tplant, ing.Phat, AK)
            assert alpha == ref[1] and cert.holds
            assert all(same_bytes(got, want) for got, want in zip(P_list, ref[0]))
            Pbar, _ = dense_regroup(tplant.map.T, tplant.map.bar_dims, P_list, cost.rho)
            assert abs(cert.margin - ref[2]) <= 1e-9 * (1.0 + np.linalg.norm(Pbar, 2))
            ing2, final, tcost = synthesize(tplant, cost, *args)
            assert_matches_sweep_oracle(tplant.map, final, tcost, ing2)
            alphas.append(alpha)
        # the family reaches both outcomes and scalings well past the first few
        assert None in alphas and max(a for a in alphas if a is not None) >= 10.0
