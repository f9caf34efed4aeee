"""Condensed horizon problem construction and the exact solver."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular
from scipy.linalg.lapack import dpotrs

from coopmpc import DimensionMismatch, NotPD, SolverOptions, build_condensed, solve_noiter_all, solve_qp
from coopmpc import qp as qp_module
from coopmpc.qp import BALL_FEAS_TOL, INFEASIBLE, MAX_ITERS, SOLVED, ball_margins
from coopmpc.qp import _box_qp, _bvls, _free_set_model, _margin_bound, _multiplier_search, _residual_response

from oracles import horizon_cost, solve_box_qp_active_set, solve_one_ball_qp_bisection
from support import least_margin, search_calls


def random_condensed(rng, n=2, m=1, N=3, x0_scale=1.0, lo=-4.0, hi=4.0, balls=None):
    A = rng.normal(size=(n, n))
    A *= 0.8 / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-12)
    B = rng.normal(size=(n, m))
    G = rng.normal(size=(n, n))
    Q = G.T @ G + 0.1 * np.eye(n)
    P = Q + np.eye(n)
    R = np.eye(m) * rng.uniform(0.5, 2.0)
    x0 = x0_scale * rng.normal(size=n)
    qp = build_condensed(A, B, Q, P, R, N, x0, lo, hi, terminal_balls=balls)
    return qp, (A, B, Q, P, R, x0)


def dead_input_qp():
    """An integrator whose input is dead: it can never reenter the ball."""
    return build_condensed(
        np.eye(2),
        np.zeros((2, 1)),
        np.eye(2),
        np.eye(2),
        np.eye(1),
        3,
        [5.0, 5.0],
        [-1.0],
        [1.0],
        terminal_balls=[(slice(0, 2), 0.5)],
    )


class TestBuild:
    def test_single_stage_scalar(self):
        qp = build_condensed([[0.0]], [[1.0]], [[0.0]], [[1.0]], [[1.0]], 1, [0.0], [-4.0], [4.0])
        assert np.array_equal(qp.H, [[4.0]])
        assert np.array_equal(qp.g, [0.0])
        for u in (0.0, 1.0, -2.5):
            assert abs(qp.objective([u]) - 2.0 * u * u) <= 1e-12

    def test_objective_matches_simulation(self, rng_factory):
        rng = rng_factory(51)
        for _ in range(20):
            qp, (A, B, Q, P, R, x0) = random_condensed(rng)
            u = rng.uniform(-4.0, 4.0, size=(1, 3))
            want = horizon_cost(A, B, Q, P, R, x0, u)
            got = qp.objective(u.T.reshape(-1))
            assert abs(got - want) <= 1e-9 * (1.0 + abs(want))

    def test_prediction_operators(self, rng_factory):
        rng = rng_factory(53)
        qp, (A, B, _, _, _, x0) = random_condensed(rng)
        u = rng.normal(size=(1, 3))
        stacked = qp.ops.Phi @ x0 + qp.ops.Gamma @ u.T.reshape(-1)
        x = x0.copy()
        for k in range(3):
            x = A @ x + B @ u[:, k]
            assert np.max(np.abs(stacked[2 * k : 2 * k + 2] - x)) <= 1e-12

    def test_hessian_positive_definite(self, rng_factory):
        rng = rng_factory(54)
        qp, _ = random_condensed(rng)
        assert np.max(np.abs(qp.H - qp.H.T)) == 0.0
        assert np.linalg.eigvalsh(qp.H)[0] > 0

    def test_terminal_ball_map(self, rng_factory):
        rng = rng_factory(55)
        qp, (A, B, _, _, _, x0) = random_condensed(rng, balls=[(slice(0, 2), 1.5)])
        ball = qp.terminal[0]
        u = rng.normal(size=3)
        x = x0.copy()
        for k in range(3):
            x = A @ x + B @ np.array([u[k]])
        assert np.max(np.abs(ball.Tmap @ u + ball.tvec - x)) <= 1e-12
        assert ball.radius == 1.5

    def test_bad_shapes_rejected(self):
        with pytest.raises(DimensionMismatch):
            build_condensed(np.eye(2), np.ones((3, 1)), np.eye(2), np.eye(2), [[1.0]], 2, [0.0, 0.0], [-1.0], [1.0])
        with pytest.raises(DimensionMismatch):
            build_condensed(np.eye(2), np.ones((2, 1)), np.eye(2), np.eye(2), [[1.0]], 0, [0.0, 0.0], [-1.0], [1.0])

    @pytest.mark.parametrize("lo, hi", [([1.0], [-1.0]), ([np.nan], [1.0]), ([-1.0], [np.nan])])
    def test_empty_or_nan_box_rejected(self, lo, hi):
        with pytest.raises(DimensionMismatch, match="u_lo <= u_hi"):
            build_condensed(np.eye(2), np.ones((2, 1)), np.eye(2), np.eye(2), [[1.0]], 2, [0.0, 0.0], lo, hi)


class TestSolverOptions:
    @pytest.mark.parametrize(
        "setting",
        [
            {"eps_abs": -1.0},
            {"eps_abs": float("nan")},
            {"eps_abs": float("inf")},
            {"eps_abs": 0.0},
            {"max_iters": 2.5},
            {"max_iters": True},
            {"max_iters": 0},
        ],
    )
    def test_rejects_a_setting_that_could_not_give_a_right_verdict(self, setting):
        with pytest.raises(DimensionMismatch, match=next(iter(setting))):
            SolverOptions(**setting)

    def test_accepts_the_least_settings(self):
        opts = SolverOptions(eps_abs=1e-300, max_iters=np.int64(1))
        assert (opts.eps_abs, opts.max_iters) == (1e-300, 1)


class TestSolve:
    def test_shifted_parabola_interior(self):
        # min (u - 1)^2 over [-4, 4]
        qp = build_condensed([[1.0]], [[1.0]], [[0.0]], [[1.0]], [[0.0]], 1, [-1.0], [-4.0], [4.0])
        sol = solve_qp(qp)
        assert sol.status == SOLVED
        assert abs(sol.u_stack[0] - 1.0) <= 1e-6

    def test_shifted_parabola_clipped(self):
        qp = build_condensed([[1.0]], [[1.0]], [[0.0]], [[1.0]], [[0.0]], 1, [-1.0], [-4.0], [0.5])
        sol = solve_qp(qp)
        assert sol.status == SOLVED
        assert abs(sol.u_stack[0] - 0.5) <= 1e-8

    def test_zero_state_stays_home(self, rng_factory):
        rng = rng_factory(61)
        qp, _ = random_condensed(rng, x0_scale=0.0)
        sol = solve_qp(qp)
        assert sol.status == SOLVED
        assert np.max(np.abs(sol.u_stack)) <= 1e-8

    def test_feasible_point_dominance(self, rng_factory):
        rng = rng_factory(63)
        qp, _ = random_condensed(rng, x0_scale=2.0)
        sol = solve_qp(qp)
        assert sol.status == SOLVED
        best = qp.objective(sol.u_stack)
        for _ in range(100):
            u = rng.uniform(qp.box_lo, qp.box_hi)
            assert best <= qp.objective(u) + 1e-8 * (1.0 + abs(best))

    def test_active_set_agreement_small(self, rng_factory):
        rng = rng_factory(64)
        for _ in range(10):
            qp, _ = random_condensed(rng, n=2, m=2, N=2, x0_scale=3.0, lo=-1.0, hi=1.0)
            sol = solve_qp(qp)
            assert sol.status == SOLVED
            ref = solve_box_qp_active_set(qp.H, qp.g, qp.box_lo, qp.box_hi)
            assert np.max(np.abs(sol.u_stack - ref)) <= 1e-5

    def test_terminal_ball_respected(self, rng_factory):
        rng = rng_factory(65)
        qp, _ = random_condensed(rng, x0_scale=1.5, balls=[(slice(0, 2), 0.8)])
        sol = solve_qp(qp)
        assert sol.status == SOLVED
        ball = qp.terminal[0]
        reach = ball.Tmap @ sol.u_stack + ball.tvec
        assert np.linalg.norm(reach) <= ball.radius + 1e-6
        assert np.all(sol.u_stack >= qp.box_lo) and np.all(sol.u_stack <= qp.box_hi)

    def test_unreachable_ball_reported(self):
        qp, opts = dead_input_qp(), SolverOptions(max_iters=20000)
        sol = solve_qp(qp, options=opts)
        # the first box QP's residual proves the ball out of reach, and the
        # certificate that follows gives the verdict
        assert search_calls(qp, opts) == 1
        assert (sol.status, sol.iterations) == (INFEASIBLE, 1 + 1 + 1)
        assert sol.margin == least_margin(qp)

    def test_iteration_budget_status(self, rng_factory):
        rng = rng_factory(66)
        qp, _ = random_condensed(rng, x0_scale=3.0, lo=-0.5, hi=0.5)
        u_free = np.linalg.solve(qp.H, -qp.g)
        assert np.any(u_free < qp.box_lo) or np.any(u_free > qp.box_hi)
        sol = solve_qp(qp, options=SolverOptions(max_iters=1))
        assert sol.status == MAX_ITERS
        assert sol.iterations == 1


class TestExactPath:
    """Step zero: the unconstrained minimizer, accepted only when feasible."""

    def test_feasible_minimizer_is_exact_within_one_iteration(self, rng_factory):
        qp, _ = random_condensed(rng_factory(66), x0_scale=3.0)
        sol = solve_qp(qp, options=SolverOptions(max_iters=1))
        assert sol.status == SOLVED
        assert sol.iterations == 1
        assert np.max(np.abs(sol.u_stack - np.linalg.solve(qp.H, -qp.g))) <= 1e-12
        assert not sol.lam.any()

    def test_factor_is_cached_and_read_only(self, rng_factory):
        qp, _ = random_condensed(rng_factory(66))
        L = qp.ops.H_chol
        assert np.max(np.abs(L @ L.T - qp.H)) <= 1e-12 * np.max(np.abs(qp.H))
        with pytest.raises(ValueError):
            L[0, 0] = 1.0

    def test_minimizer_just_outside_ball_runs_admm(self, rng_factory):
        ball = [(slice(0, 2), 1.0)]
        qp, _ = random_condensed(rng_factory(67), x0_scale=3.0, balls=ball)
        u_free = np.linalg.solve(qp.H, -qp.g)
        term = qp.terminal[0]
        reach = float(np.linalg.norm(term.Tmap @ u_free + term.tvec))
        assert np.all(u_free >= qp.box_lo) and np.all(u_free <= qp.box_hi)
        radius = reach * (1.0 - 1e-9)
        qp, _ = random_condensed(rng_factory(67), x0_scale=3.0, balls=[(slice(0, 2), radius)])
        sol = solve_qp(qp)
        assert sol.status == SOLVED
        assert sol.iterations > 1
        term = qp.terminal[0]
        assert np.linalg.norm(term.Tmap @ sol.u_stack + term.tvec) <= radius + BALL_FEAS_TOL

    def test_exact_and_constrained_states_share_operators(self, rng_factory):
        ball = [(slice(0, 2), 0.8)]
        qp, (_, _, _, _, _, x0) = random_condensed(rng_factory(65), x0_scale=0.1, balls=ball)
        exact = solve_qp(qp)
        assert (exact.status, exact.iterations) == (SOLVED, 1)
        tight = qp.ops.condense(15.0 * x0)
        u_free = np.linalg.solve(tight.H, -tight.g)
        term = tight.terminal[0]
        assert np.linalg.norm(term.Tmap @ u_free + term.tvec) > term.radius
        sol = solve_qp(tight)
        assert (sol.status, sol.iterations) == (SOLVED, 1 + search_calls(tight))
        assert sol.iterations > 2
        assert in_box_and_balls(tight, sol.u_stack)
        ref = solve_one_ball_qp_bisection(tight.H, tight.g, tight.box_lo, tight.box_hi, term.Tmap, term.tvec, 0.8)
        assert np.max(np.abs(sol.u_stack - ref)) <= 1e-7

    def test_exact_check_counts_against_budget(self, rng_factory):
        qp, _ = random_condensed(rng_factory(66), x0_scale=3.0, lo=-0.5, hi=0.5)
        full = solve_qp(qp)
        # the exact check, then the box QPs of the search, which finishes it
        assert (full.status, full.iterations) == (SOLVED, 1 + search_calls(qp))
        assert full.iterations > 1
        # the search leaves the last iteration of a budget to the certificate
        budget = full.iterations + 1
        exact_budget = solve_qp(qp, options=SolverOptions(max_iters=budget))
        assert (exact_budget.status, exact_budget.iterations) == (SOLVED, full.iterations)
        short = solve_qp(qp, options=SolverOptions(max_iters=budget - 1))
        assert (short.status, short.iterations) == (MAX_ITERS, budget - 1)

    def test_semidefinite_hessian_is_rejected(self):
        # a dead input with no input weight: H = 0 has no Cholesky factor
        with pytest.raises(NotPD):
            build_condensed(np.eye(2), np.zeros((2, 1)), np.eye(2), np.eye(2), [[0.0]], 2, [1.0, 0.0], [-1.0], [1.0])


def seed65_qp(rng_factory, radius):
    """Seed 65 on a +-1 box, whose least reachable terminal norm is about 2.14."""
    qp, _ = random_condensed(
        rng_factory(65), n=2, m=1, N=4, x0_scale=3.0, lo=-1.0, hi=1.0, balls=[(slice(0, 2), radius)]
    )
    return qp


class TestInfeasibilityCertificate:
    """The BVLS certificate: one iteration after a search that ends
    without a point, the only solves that run it."""

    def test_dead_input_certified_at_checkpoint(self):
        qp = dead_input_qp()
        sol = solve_qp(qp)
        # the exact check, one box QP whose residual proves the ball out of
        # reach, the certificate
        assert search_calls(qp) == 1
        assert (sol.status, sol.iterations) == (INFEASIBLE, 3)
        # ||(5, 5)|| can only be reached, so the margin is 0.5 - 5 sqrt(2)
        assert sol.margin == pytest.approx(0.5 - 5.0 * np.sqrt(2.0), abs=1e-12)

    def test_bound_is_sound(self, rng_factory):
        qp = seed65_qp(rng_factory, 1.0)
        ((margin, bound),) = ball_margins(qp)
        assert bound < 0.0
        assert abs(margin - bound) <= 1e-9
        ball = qp.terminal[0]
        rng = rng_factory(651)
        U = rng.uniform(qp.box_lo, qp.box_hi, size=(1000, qp.box_lo.size))
        norms = np.linalg.norm(U @ ball.Tmap.T + ball.tvec, axis=1)
        assert np.all(norms >= ball.radius - margin)
        assert np.all(norms >= ball.radius - bound)

    def test_fixed_input_is_certified(self):
        # a live input pinned to zero by a degenerate box
        qp = build_condensed(
            np.eye(2), np.ones((2, 1)), np.eye(2), np.eye(2), np.eye(1), 3, [5.0, 5.0], [0.0], [0.0],
            terminal_balls=[(slice(0, 2), 0.5)],
        )
        sol = solve_qp(qp)
        assert search_calls(qp) == 1
        assert (sol.status, sol.iterations) == (INFEASIBLE, 3)
        assert sol.margin == pytest.approx(0.5 - 5.0 * np.sqrt(2.0), abs=1e-12)

    def test_short_budget_reports_no_margin(self):
        sol = solve_qp(dead_input_qp(), options=SolverOptions(max_iters=1))
        assert (sol.status, sol.iterations) == (MAX_ITERS, 1)
        assert sol.margin is None
        # a budget of 2 leaves the search none and ends at the certificate
        sol = solve_qp(dead_input_qp(), options=SolverOptions(max_iters=2))
        assert (sol.status, sol.iterations) == (INFEASIBLE, 2)

    def test_tight_feasible_ball_is_never_infeasible(self, rng_factory):
        ((margin, _),) = ball_margins(seed65_qp(rng_factory, 1.0))
        reach = 1.0 - margin
        qp = seed65_qp(rng_factory, 1.01 * reach)
        sol = solve_qp(qp)
        assert (sol.status, sol.iterations) == (SOLVED, 1 + search_calls(qp))
        assert sol.iterations > 2
        # the search finished the solve, so the certificate never ran
        assert sol.margin is None
        assert least_margin(qp) == pytest.approx(0.01 * reach, rel=1e-9)
        qp = seed65_qp(rng_factory, 0.99 * reach)
        short = solve_qp(qp)
        assert (short.status, short.iterations) == (INFEASIBLE, 1 + search_calls(qp) + 1)
        assert short.margin == least_margin(qp)
        assert short.margin == pytest.approx(-0.01 * reach, rel=1e-9)

    def test_converged_solve_skips_certificate(self, rng_factory):
        # the unconstrained minimizer lies in the box and the ball: step zero finishes
        qp, _ = random_condensed(rng_factory(65), x0_scale=0.1, balls=[(slice(0, 2), 0.8)])
        sol = solve_qp(qp)
        assert (sol.status, sol.iterations) == (SOLVED, 1)
        assert sol.margin is None


def seed20_draw_qps(flagship, draws=50):
    """The centralized and local QPs of the first seed-20 Monte Carlo draws."""
    rng = np.random.Generator(np.random.PCG64(20))
    X0 = -8.0 + 16.0 * rng.random((draws, flagship.n))
    for x in X0:
        xbar = flagship.pmap.to_regrouped(x)
        yield flagship.centralized_operators().condense(xbar)
        for i, s in enumerate(flagship.group_slices()):
            yield flagship.agent_operators(i).condense(xbar[s])


def in_box_and_balls(qp, u):
    """The point lies in the box and in every ball, with no tolerance."""
    return bool(
        np.all(qp.box_lo <= u)
        and np.all(u <= qp.box_hi)
        and all(np.linalg.norm(b.Tmap @ u + b.tvec) <= b.radius for b in qp.terminal)
    )


class TestExactFinish:
    """Constrained solves end with the multiplier search, which starts at
    iteration 2, right after the exact check."""

    def test_one_ball_matches_bisection_oracle(self, rng_factory):
        rng = rng_factory(13)
        for n, m, N in [(2, 1, 5), (3, 1, 4), (2, 2, 2), (3, 1, 6), (2, 2, 3), (2, 1, 3)]:
            qp, (A, B, Q, P, R, x0) = random_condensed(
                rng, n=n, m=m, N=N, x0_scale=5.0, lo=-1.0, hi=1.0, balls=[(slice(0, n), 1.0)]
            )
            # a radius between the least reachable norm and the box optimum's
            ((margin, _),) = ball_margins(qp)
            term = qp.terminal[0]
            u_box = solve_box_qp_active_set(qp.H, qp.g, qp.box_lo, qp.box_hi)
            reach = 1.0 - margin
            radius = reach + 0.1 * (np.linalg.norm(term.Tmap @ u_box + term.tvec) - reach)
            qp = build_condensed(A, B, Q, P, R, N, x0, -1.0, 1.0, terminal_balls=[(slice(0, n), radius)])
            sol = solve_qp(qp)
            assert (sol.status, sol.iterations) == (SOLVED, 1 + search_calls(qp))
            assert sol.iterations > 1
            assert in_box_and_balls(qp, sol.u_stack)
            ref = solve_one_ball_qp_bisection(qp.H, qp.g, qp.box_lo, qp.box_hi, term.Tmap, term.tvec, radius)
            assert np.max(np.abs(sol.u_stack - ref)) <= 1e-7

    def test_tight_one_ball_instances_match_bisection_oracle(self, rng_factory):
        # Large states and balls just past the least reachable norm: the
        # box optimum saturates inputs, so the free set changes between box
        # QPs and the search may take the linearised Newton step or halve a
        # step that lowers the dual function.  The point is the exact
        # optimum for its own terminal norm, which lies within eps_abs
        # inside the radius.
        rng = rng_factory(5)
        tol = SolverOptions().eps_abs
        searched = 0
        for _ in range(60):
            m = int(rng.integers(1, 3))
            N = int(rng.integers(2, 4)) if m == 1 else 2
            qp, (A, B, Q, P, R, x0) = random_condensed(
                rng, m=m, N=N, x0_scale=8.0, lo=-1.0, hi=1.0, balls=[(slice(0, 2), 1.0)]
            )
            ((margin, _),) = ball_margins(qp)
            term = qp.terminal[0]
            u_box = solve_box_qp_active_set(qp.H, qp.g, qp.box_lo, qp.box_hi)
            reach = 1.0 - margin
            spread = np.linalg.norm(term.Tmap @ u_box + term.tvec) - reach
            if spread < 1e-3:
                continue
            radius = reach + 0.05 * spread
            qp = build_condensed(A, B, Q, P, R, N, x0, -1.0, 1.0, terminal_balls=[(slice(0, 2), radius)])
            sol = solve_qp(qp)
            assert sol.status == SOLVED
            if sol.iterations > 1:
                assert sol.iterations == 1 + search_calls(qp)
                searched += 1
                assert in_box_and_balls(qp, sol.u_stack)
                reached = np.linalg.norm(term.Tmap @ sol.u_stack + term.tvec)
                assert radius - reached <= tol
                ref = solve_one_ball_qp_bisection(qp.H, qp.g, qp.box_lo, qp.box_hi, term.Tmap, term.tvec, reached)
                assert np.max(np.abs(sol.u_stack - ref)) <= 1e-7
        assert searched >= 10

    def test_tight_ball_has_no_slack(self, rng_factory):
        ((margin, _),) = ball_margins(seed65_qp(rng_factory, 1.0))
        qp = seed65_qp(rng_factory, 1.01 * (1.0 - margin))
        sol = solve_qp(qp)
        assert (sol.status, sol.iterations) == (SOLVED, 1 + search_calls(qp))
        assert sol.iterations > 1
        assert in_box_and_balls(qp, sol.u_stack)
        term = qp.terminal[0]
        norm = np.linalg.norm(term.Tmap @ sol.u_stack + term.tvec)
        assert term.radius - norm <= SolverOptions().eps_abs

    def test_fixed_input_feasible(self):
        # the second channel is pinned to 0.3 at every stage
        A = np.array([[0.9, 0.2], [0.0, 0.8]])
        B = np.array([[1.0, 0.5], [0.3, 1.0]])
        args = (A, B, np.eye(2), 2.0 * np.eye(2), np.eye(2), 3, [4.0, -6.0], [-1.0, 0.3], [1.0, 0.3])
        ((margin, _),) = ball_margins(build_condensed(*args, terminal_balls=[(slice(0, 2), 1.0)]))
        radius = 1.01 * (1.0 - margin)
        qp = build_condensed(*args, terminal_balls=[(slice(0, 2), radius)])
        sol = solve_qp(qp)
        assert (sol.status, sol.iterations) == (SOLVED, 1 + search_calls(qp))
        assert sol.iterations > 1
        assert in_box_and_balls(qp, sol.u_stack)
        assert np.all(sol.u_stack[1::2] == 0.3)
        term = qp.terminal[0]
        ref = solve_one_ball_qp_bisection(qp.H, qp.g, qp.box_lo, qp.box_hi, term.Tmap, term.tvec, radius)
        assert np.max(np.abs(sol.u_stack - ref)) <= 1e-7

    def test_each_bvls_call_counts_against_budget(self, rng_factory):
        ((margin, _),) = ball_margins(seed65_qp(rng_factory, 1.0))
        qp = seed65_qp(rng_factory, 1.01 * (1.0 - margin))
        full = solve_qp(qp)
        calls = full.iterations - 1
        assert full.status == SOLVED and calls == search_calls(qp) and calls >= 2
        # the search leaves the last iteration of a budget to the certificate
        exact = solve_qp(qp, options=SolverOptions(max_iters=full.iterations + 1))
        assert (exact.status, exact.iterations) == (SOLVED, full.iterations)
        assert np.array_equal(exact.u_stack, full.u_stack)
        for budget in (2, full.iterations):
            short = solve_qp(qp, options=SolverOptions(max_iters=budget))
            assert (short.status, short.iterations) == (MAX_ITERS, budget)
            assert short.margin == least_margin(qp)

    def test_flagship_draws_finish_in_few_bvls_calls(self, flagship):
        # every centralized and local QP of the first 50 seed-20 Monte
        # Carlo draws that the search solves
        calls = []
        for qp in seed20_draw_qps(flagship):
            sol = solve_qp(qp)
            if sol.status == SOLVED and sol.iterations > 1:
                assert in_box_and_balls(qp, sol.u_stack)
                calls.append(sol.iterations - 1)
        assert len(calls) >= 40
        assert np.median(calls) <= 2 and max(calls) <= 6

    def test_flagship_searches_make_few_box_qps(self, flagship):
        # every search on the QPs of the first 50 seed-20 draws, solved or
        # not: 666 box QPs in all with one linearised Newton step per box QP
        box_qps = 0
        for qp in seed20_draw_qps(flagship):
            sol = solve_qp(qp)
            box_qps += sol.iterations - 1 - (sol.status != SOLVED)
        assert box_qps <= 300

    def test_capped_flagship_draw_is_solved_centralized(self, flagship):
        # seed-20 Monte Carlo draw 30, whose noiter solve used to hit the cap
        rng = np.random.Generator(np.random.PCG64(20))
        X0 = -8.0 + 16.0 * rng.random((31, flagship.n))
        xbar = flagship.pmap.to_regrouped(X0[30])
        qp = flagship.centralized_operators().condense(xbar)
        sol = solve_qp(qp)
        assert (sol.status, sol.iterations) == (SOLVED, 1 + search_calls(qp))
        assert sol.iterations > 1
        assert in_box_and_balls(qp, sol.u_stack)
        noiter, _ = solve_noiter_all(flagship, xbar)
        assert qp.objective(sol.u_stack) <= qp.objective(noiter.stacked())

    def test_shared_input_balls_meet_kkt_conditions(self, rng_factory):
        # Balls on overlapping state rows share every input, so the search
        # takes coupled Newton steps; on some of these instances plain
        # Newton steps cycle and only the safeguard finishes.
        rng = rng_factory(4)
        tol = SolverOptions().eps_abs
        for _ in range(40):
            n, N = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            qp, (A, B, Q, P, R, x0) = random_condensed(rng, n=n, N=N, x0_scale=rng.uniform(1.0, 8.0), lo=-1.0, hi=1.0)
            rows = [np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)) for _ in range(3)]
            probe = build_condensed(A, B, Q, P, R, N, x0, -1.0, 1.0, terminal_balls=[(idx, 1.0) for idx in rows])
            # radii around a random box point keep the balls' intersection reachable
            u_in = rng.uniform(-1.0, 1.0, size=N)
            radii = [1.05 * np.linalg.norm(b.Tmap @ u_in + b.tvec) for b in probe.terminal]
            qp = build_condensed(A, B, Q, P, R, N, x0, -1.0, 1.0, terminal_balls=list(zip(rows, radii)))
            u, lam, calls = _multiplier_search(qp, 100, tol)
            assert u is not None and calls <= 100
            assert in_box_and_balls(qp, u) and np.all(lam >= 0.0)
            for b, lb in zip(qp.terminal, lam):
                assert lb == 0.0 or np.linalg.norm(b.Tmap @ u + b.tvec) >= b.radius - tol
            # u minimizes the Lagrangian at lam over the box
            Hl = qp.H + sum(2.0 * lb * b.Tmap.T @ b.Tmap for b, lb in zip(qp.terminal, lam))
            gl = qp.g + sum(2.0 * lb * b.Tmap.T @ b.tvec for b, lb in zip(qp.terminal, lam))
            assert np.max(np.abs(u - solve_box_qp_active_set(Hl, gl, qp.box_lo, qp.box_hi))) <= 1e-7

    def test_stalled_search_returns_max_iters(self, rng_factory, monkeypatch):
        ((margin, _),) = ball_margins(seed65_qp(rng_factory, 1.0))
        qp = seed65_qp(rng_factory, 1.01 * (1.0 - margin))
        # a search that stalls after 3 box QPs, with budget left
        monkeypatch.setattr("coopmpc.qp._multiplier_search", lambda qp, budget, tol, u_free=None: (None, np.zeros(1), 3))
        sol = solve_qp(qp)
        # the exact check, the 3 box QPs and the certificate
        assert (sol.status, sol.iterations) == (MAX_ITERS, 1 + 3 + 1)
        assert sol.margin == least_margin(qp)
        assert sol.margin == pytest.approx(0.01 * (1.0 - margin), rel=1e-9)
        assert np.all(qp.box_lo <= sol.u_stack) and np.all(sol.u_stack <= qp.box_hi)

    def test_balls_with_no_common_point_end_without_error(self, rng_factory):
        # Three balls on shared state rows, each reachable on its own with
        # little room, often have no common point; the certificate checks
        # each alone, so the search drives lam up until H is lost in
        # rounding.  It must stop there, not overflow lam or the factor.
        rng = rng_factory(7)
        statuses = set()
        for _ in range(20):
            n, N = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            qp, (A, B, Q, P, R, x0) = random_condensed(rng, n=n, N=N, x0_scale=rng.uniform(1.0, 8.0), lo=-1.0, hi=1.0)
            rows = [np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)) for _ in range(3)]
            probe = build_condensed(A, B, Q, P, R, N, x0, -1.0, 1.0, terminal_balls=[(idx, 1.0) for idx in rows])
            radii = [1.0 - margin + rng.uniform(0.0, 0.2) for margin, _ in ball_margins(probe)]
            qp = build_condensed(A, B, Q, P, R, N, x0, -1.0, 1.0, terminal_balls=list(zip(rows, radii)))
            sol = solve_qp(qp, options=SolverOptions(max_iters=2000))
            statuses.add(sol.status)
            if sol.status == SOLVED:
                assert in_box_and_balls(qp, sol.u_stack)
        assert statuses == {SOLVED, MAX_ITERS}


def lagrangian_box_qp(qp, lam):
    """`_box_qp` on the Lagrangian at multipliers lam, with the factor of
    its free block (factored here after a BVLS fallback)."""
    ops = qp.ops
    Hl = qp.H + 2.0 * np.tensordot(lam, ops.ball_gram, axes=1)
    Ttt = np.array([b.Tmap.T @ b.tvec for b in qp.terminal])
    L = np.asfortranarray(cholesky(Hl, lower=True))
    u, free, K = _box_qp(Hl, qp.g + 2.0 * lam @ Ttt, qp.box_lo, qp.box_hi, L)
    if K is None and free.any():
        K = np.asfortranarray(cholesky(Hl[np.ix_(free, free)], lower=True))
    return u, free, K


class TestFreeSetModel:
    """The residuals the search predicts on a point's free set are the
    residuals of the box QP at the new multipliers, as long as that box QP
    keeps the free set and the held values."""

    def check_model(self, qp, rng, pairs):
        ops = qp.ops
        T, E = ops.ball_map, ops.ball_indicator
        t = np.concatenate([b.tvec for b in qp.terminal])
        held_seen = matched = 0
        for _ in range(pairs):
            lam = rng.uniform(0.0, 2.0, len(qp.terminal)) * ops.ball_scale * (rng.random(len(qp.terminal)) < 0.8)
            mu = lam * rng.uniform(0.7, 1.3, lam.shape) + rng.uniform(0.0, 0.3) * ops.ball_scale
            u, free, K = lagrangian_box_qp(qp, lam)
            u2, free2, _ = lagrangian_box_qp(qp, mu)
            if not np.array_equal(free, free2) or not np.array_equal(u[~free], u2[~free]):
                continue
            model = _free_set_model(_residual_response(T, free, K), E, T @ u + t)
            s_mu, n, J = model(mu - lam)
            want = T @ u2 + t
            assert np.linalg.norm(s_mu - want) <= 1e-10 * np.linalg.norm(want)
            assert np.max(np.abs(n - np.sqrt((want * want) @ E))) <= 1e-10 * np.max(n)
            # J is the derivative of 1/n in each multiplier
            for b, h in enumerate(1e-6 * ops.ball_scale):
                up, down = (model(mu - lam + sign * h * np.eye(len(mu))[b])[1] for sign in (1.0, -1.0))
                assert np.max(np.abs((1.0 / up - 1.0 / down) / (2.0 * h) - J[:, b])) <= 1e-5 * np.max(np.abs(J))
            matched += 1
            held_seen += not free.all()
        return matched, held_seen

    def test_one_ball(self, rng_factory):
        rng = rng_factory(41)
        matched = held_seen = 0
        for _ in range(20):
            qp, _ = random_condensed(rng, n=3, N=4, x0_scale=5.0, lo=-1.0, hi=1.0, balls=[(slice(0, 3), 0.5)])
            counts = self.check_model(qp, rng, 10)
            matched, held_seen = matched + counts[0], held_seen + counts[1]
        assert matched >= 100 and held_seen >= 50

    def test_three_balls(self, rng_factory):
        # overlapping state rows, so every ball moves every other one
        rng = rng_factory(42)
        matched = held_seen = 0
        for _ in range(20):
            n = int(rng.integers(2, 5))
            rows = [np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)) for _ in range(3)]
            qp, _ = random_condensed(rng, n=n, N=4, x0_scale=5.0, lo=-1.0, hi=1.0, balls=[(idx, 0.5) for idx in rows])
            counts = self.check_model(qp, rng, 10)
            matched, held_seen = matched + counts[0], held_seen + counts[1]
        assert matched >= 100 and held_seen >= 50

    def test_singular_model_is_reported(self):
        # a multiplier step of -1/(2 g) makes I + 2 G D singular, for one
        # ball and for two
        model = _free_set_model(np.array([[2.0]]), np.ones((1, 1)), np.array([1.0]))
        assert model(np.array([-0.25])) is None
        # here 1/n = 1 + 4 step
        s, n, J = model(np.array([0.25]))
        assert s[0] == pytest.approx(0.5) and n[0] == pytest.approx(0.5) and J[0, 0] == pytest.approx(4.0)
        model = _free_set_model(2.0 * np.eye(2), np.eye(2), np.array([1.0, 1.0]))
        assert model(np.array([-0.25, 0.5])) is None
        # a vanishing residual has no secular residual
        assert _free_set_model(np.zeros((1, 1)), np.ones((1, 1)), np.zeros(1))(np.zeros(1)) is None
        # with no free input (G = 0) the residuals stay where they are
        G, E = np.zeros((3, 3)), np.repeat(np.eye(2), [2, 1], axis=0)
        s, n, J = _free_set_model(G, E, np.array([1.0, -2.0, 3.0]))(np.array([5.0, 0.0]))
        assert np.array_equal(s, [1.0, -2.0, 3.0]) and np.array_equal(n, [np.sqrt(5.0), 3.0]) and not J.any()


class TestMultipliers:
    def test_multipliers_are_radius_sensitivities(self, flagship):
        # dJ*/dr_b = -2 r_b lam_b, against a central difference of the
        # optimal objective in each radius of an active ball
        active = 0
        for qp in seed20_draw_qps(flagship):
            sol = solve_qp(qp)
            if sol.status != SOLVED:
                assert sol.lam is None
                continue
            assert sol.lam.shape == (len(qp.terminal),) and np.all(sol.lam >= 0.0)
            if sol.iterations == 1:
                assert not sol.lam.any()
            for b in np.flatnonzero(sol.lam):
                r = qp.terminal[b].radius
                h = 1e-4 * r
                objective = []
                for radius in (r + h, r - h):
                    terminal = list(qp.terminal)
                    terminal[b] = replace(terminal[b], radius=radius)
                    moved = solve_qp(replace(qp, terminal=terminal))
                    assert moved.status == SOLVED
                    objective.append(qp.objective(moved.u_stack))
                want = -2.0 * r * sol.lam[b]
                assert abs((objective[0] - objective[1]) / (2.0 * h) - want) <= 1e-3 * abs(want)
                active += 1
        assert active >= 130


class TestReplacedRadius:
    @pytest.mark.parametrize("scale", [0.5, 0.8])
    def test_replaced_radius_solves_as_built(self, flagship, scale):
        # a QP whose radii are replaced after condensing solves exactly as
        # the same QP condensed with those radii, verdict and point alike
        radii = tuple(scale * r for r in flagship.ingredients.ball_radius)
        built = replace(flagship, ingredients=replace(flagship.ingredients, ball_radius=radii))
        for qp, fresh in zip(seed20_draw_qps(flagship), seed20_draw_qps(built)):
            moved = replace(qp, terminal=[replace(b, radius=f.radius) for b, f in zip(qp.terminal, fresh.terminal)])
            got, want = solve_qp(moved), solve_qp(fresh)
            assert (got.status, got.iterations, got.margin) == (want.status, want.iterations, want.margin)
            assert got.u_stack.tobytes() == want.u_stack.tobytes()


class TestSearchBeforeCertificate:
    """The certificate runs only after a search that ends without a point,
    and the search stops as soon as the residual of a point it computes
    proves a ball out of reach."""

    def test_searched_solve_never_runs_certificate(self, flagship, rng_factory, monkeypatch):
        ((margin, _),) = ball_margins(seed65_qp(rng_factory, 1.0))
        qps = [seed65_qp(rng_factory, f * (1.0 - margin)) for f in (0.99, 1.01)]
        qps += list(seed20_draw_qps(flagship))
        certified = []

        def spy(qp):
            certified.append(qp)
            return ball_margins(qp)

        monkeypatch.setattr("coopmpc.qp.ball_margins", spy)
        searched = failed = 0
        for qp in qps:
            certified.clear()
            sol = solve_qp(qp)
            if sol.status == SOLVED:
                assert certified == [] and sol.margin is None
                searched += sol.iterations > 1
            else:
                assert certified == [qp] and sol.margin is not None
                failed += 1
        assert searched >= 41 and failed == 1 + 8

    def test_iterate_bound_is_confirmed_by_certificate(self, flagship, rng_factory, monkeypatch):
        ((margin, _),) = ball_margins(seed65_qp(rng_factory, 1.0))
        qps = [seed65_qp(rng_factory, 0.99 * (1.0 - margin))] + list(seed20_draw_qps(flagship))
        proofs = []

        def spy(ball, s, lo, hi):
            bound = _margin_bound(ball, s, lo, hi)
            proofs.append(bound < -BALL_FEAS_TOL)
            return bound

        monkeypatch.setattr("coopmpc.qp._margin_bound", spy)
        stopped = 0
        for qp in qps:
            proofs.clear()
            u, _, calls = _multiplier_search(qp, 1000, SolverOptions().eps_abs)
            if any(proofs):
                # the first proof ends the search, long before its budget
                assert u is None and proofs.index(True) == len(proofs) - 1 and calls <= 6
                assert min(bound for _, bound in ball_margins(qp)) < -BALL_FEAS_TOL
                stopped += 1
        assert stopped == 1 + 8

    def test_infeasible_exactly_when_certificate_proves(self, flagship):
        # the 4 draws 14, 33, 35 and 37 each have an unreachable agent ball,
        # which the centralized QP shares
        infeasible = 0
        for qp in seed20_draw_qps(flagship):
            proven = min(bound for _, bound in ball_margins(qp)) < -BALL_FEAS_TOL
            assert solve_qp(qp).status == (INFEASIBLE if proven else SOLVED)
            infeasible += proven
        assert infeasible == 4 * 2


def random_box_qp(rng, n, fixed=0.0):
    """A dense strictly convex box QP whose box cuts off its free minimizer,
    with a share `fixed` of the inputs pinned (lo == hi)."""
    G = rng.normal(size=(n, n))
    H = G @ G.T + 0.1 * np.eye(n)
    c = 5.0 * rng.normal(size=n)
    lo, hi = -rng.uniform(0.1, 1.0, n), rng.uniform(0.1, 1.0, n)
    pin = rng.random(n) < fixed
    lo[pin] = hi[pin] = rng.uniform(-1.0, 1.0, pin.sum())
    return H, c, lo, hi, np.asfortranarray(cholesky(H, lower=True))


class TestBoxQp:
    """The primal active set the multiplier search solves its box QPs with."""

    def test_matches_enumeration_oracle(self, rng_factory):
        rng = rng_factory(31)
        for _ in range(40):
            H, c, lo, hi, L = random_box_qp(rng, int(rng.integers(1, 9)))
            u, _, _ = _box_qp(H, c, lo, hi, L)
            assert np.max(np.abs(u - solve_box_qp_active_set(H, c, lo, hi))) <= 1e-9

    def test_no_worse_than_bvls_and_kkt(self, rng_factory):
        rng = rng_factory(32)
        for _ in range(40):
            H, c, lo, hi, L = random_box_qp(rng, int(rng.integers(8, 25)), fixed=0.2)
            u, free, _ = _box_qp(H, c, lo, hi, L)
            ref, _ = _bvls(L.T, solve_triangular(L, -c, lower=True), lo, hi)
            f, f_ref = (0.5 * x @ H @ x + c @ x for x in (u, ref))
            assert f <= f_ref + 1e-12 * abs(f_ref)
            assert np.all(lo <= u) and np.all(u <= hi)
            pinned = lo == hi
            assert np.array_equal(u[pinned], lo[pinned]) and not np.any(free[pinned])
            grad = H @ u + c
            tol = 1e-9 * (np.abs(H) @ np.abs(u) + np.abs(c))
            assert np.all(np.abs(grad[free]) <= tol[free])
            clamped = ~free & ~pinned
            assert np.all(np.isin(u[clamped], (lo[clamped], hi[clamped]))) and clamped.any()
            at_lo = clamped & (u == lo)
            assert np.all(grad[at_lo] >= -tol[at_lo]) and np.all(grad[clamped & ~at_lo] <= tol[clamped & ~at_lo])

    @pytest.mark.parametrize(
        "fake",
        [
            # a step solve that always aims out of the box, so the active set cycles
            lambda a, b, lower: (None, np.full(len(b), 1e9), 0),
            # a step solve whose factor fails, with a target that is no minimizer
            lambda a, b, lower: (None, np.zeros(len(b)), 1),
        ],
        ids=["cycle", "failed-factor"],
    )
    def test_guard_falls_back_to_bvls(self, rng_factory, monkeypatch, fake):
        H, c, lo, hi, L = random_box_qp(rng_factory(33), 6)
        calls = []

        def bvls(*args):
            calls.append(args)
            return _bvls(*args)

        monkeypatch.setattr("coopmpc.qp.dposv", fake)
        monkeypatch.setattr("coopmpc.qp._bvls", bvls)
        u, _, _ = _box_qp(H, c, lo, hi, L)
        assert len(calls) == 1
        assert np.max(np.abs(u - solve_box_qp_active_set(H, c, lo, hi))) <= 1e-9

    def test_returns_factor_of_free_block(self, rng_factory):
        rng = rng_factory(34)
        held_seen = 0
        for _ in range(40):
            H, c, lo, hi, L = random_box_qp(rng, int(rng.integers(1, 13)), fixed=0.2)
            u0 = dpotrs(L, -c, lower=True)[0]
            clipped = np.clip(u0, lo, hi)
            u, free, K = _box_qp(H, c, lo, hi, L)
            if not np.any((clipped == lo) | (clipped == hi)):
                assert K is L
            elif free.any():
                K = np.tril(K)
                block = H[np.ix_(free, free)]
                assert np.max(np.abs(K @ K.T - block)) <= 1e-12 * np.max(np.abs(block))
                held_seen += 1
            else:
                assert K is None
            # a box around the unconstrained minimizer holds no bound
            u, free, K = _box_qp(H, c, u0 - 1.0, u0 + 1.0, L)
            assert free.all() and K is L and np.array_equal(u, u0)
        assert held_seen >= 20

    def test_each_box_qp_factors_once(self, flagship, monkeypatch):
        # On the QPs of the first 200 seed-20 draws, dpotrf runs once per
        # box QP with lam > 0, on its Lagrangian Hessian (lam = 0 reads the
        # cached factor of H), and never for the Newton Jacobian, which
        # reuses the factor the box QP returns.  A box QP whose clipped
        # minimizer holds no bound runs no dposv.
        events = []

        def counted(name):
            fn = getattr(qp_module, name)

            def wrapper(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)

            monkeypatch.setattr(qp_module, name, wrapper)

        counted("dpotrf")
        counted("dposv")
        box_qp = qp_module._box_qp
        solving = None

        def box(H, c, lo, hi, L, start=None):
            u0 = np.clip(dpotrs(L, -c, lower=True)[0], lo, hi)
            holds = bool(np.any((u0 == lo) | (u0 == hi)))
            events.append(("box", L is not solving.ops.H_chol, holds))
            out = box_qp(H, c, lo, hi, L, start)
            events.append("end")
            return out

        monkeypatch.setattr(qp_module, "_box_qp", box)
        positive = unheld = 0
        for solving in seed20_draw_qps(flagship, draws=200):
            events.clear()
            solve_qp(solving)
            pending, inside = 0, None
            for event in events:
                if event == "dpotrf":
                    assert inside is None
                    pending += 1
                elif event == "dposv":
                    assert inside is not None
                    inside += 1
                elif event == "end":
                    assert holds or inside == 0
                    inside = None
                else:
                    _, lam_positive, holds = event
                    assert pending == int(lam_positive)
                    positive += lam_positive
                    unheld += not holds
                    pending, inside = 0, 0
            assert pending == 0
        assert positive >= 500 and unheld >= 400
