"""Condensed finite-horizon QP, solved exactly.

The horizon problem is condensed into the stacked input vector: states are
eliminated through the prediction operators, leaving

    min  0.5 u^T H u + g^T u + const
    s.t. box_lo <= u <= box_hi
         || Tmap_b u + tvec_b ||_2 <= radius_b     for each terminal ball

H is positive definite whenever the input weight is, so the problem is
strictly convex.

Only g, const and tvec depend on the initial state; H, the prediction
operators, the ball maps and the box do not (the parametric view of the
horizon problem).  `HorizonOperators` builds that state-independent part
once, with the Cholesky factor of H, and its `condense(x0)` returns a
CondensedQp in a few mat-vecs.  The operator arrays are read-only and
shared by every CondensedQp condensed from them.  `build_condensed` is the
one-shot form.

Every solve takes the same path.  It first tries the unconstrained
minimizer u = -H^-1 g from the cached factor.  If u lies in the box and in
every ball, with no tolerance, it is the optimum: the problem is strictly
convex and u satisfies the KKT conditions with every multiplier zero.  In
the explicit-MPC picture (Bemporad, Morari, Dua & Pistikopoulos,
Automatica 2002) these are the states of the critical region whose active
set is empty; near the origin of a regulated loop they are the common case.

A solve whose unconstrained minimizer is infeasible next finishes exactly
with a search over the ball multipliers (`_multiplier_search`).  For fixed
multipliers the Lagrangian over the box is a strictly convex box QP, which
a primal active set on its Cholesky factor solves exactly (`_box_qp`).
The multipliers solve the secular equation of each ball (Moré & Sorensen,
SIAM J. Sci. Stat. Comput. 1983).  After each box QP the search solves
those equations exactly on that point's free set: with the held inputs
fixed, the ball residuals at other multipliers follow in closed form
(`_free_set_model`), so Newton's method runs to convergence there without
a box QP, and the next box QP confirms the multipliers or changes the
free set.  Where that step is not finite, is zero or does not raise the
dual function, the linearised Newton step is taken instead.  A searched
solve takes a median of 2 box QPs, at most 5, on the flagship's 200
Monte Carlo draws.  Each box QP factors the Lagrangian Hessian once; its
active-set steps factor their free blocks only when the clipped
unconstrained minimizer holds a bound, and the free-set model reuses the
factor of the final free block.  The point it returns lies in the box
and in every ball with no slack, and its multipliers are reported with
it.

`HorizonOperators` rejects a NaN bound and any u_lo > u_hi, so the box
is never empty and only the balls can make the problem infeasible.  The
residual of any u in the box gives a direction d, and the least value of
d.(Tmap v + tvec) over the box, a supporting hyperplane of the reachable
set, bounds ||Tmap v + tvec|| from below for every v in the
box (`_margin_bound`).  The search stops as soon as that bound, along the
residual of a point it computes, exceeds a ball's radius by more than
BALL_FEAS_TOL.  Only a search that ends without a point is followed by the
certificate (`ball_margins`): BVLS (Stark & Parker, Computational
Statistics 1995) gives the least terminal norm reachable over the box, and
the same bound along the residual there decides whether the solve is
INFEASIBLE or ran out of budget.  Up to the tolerance the certificate is
exact for every QP the strategies build: each of their balls acts on a
different agent's inputs, so the QP is feasible exactly when every ball is
reachable on its own.  With balls that share inputs it is still a proof
when it fires, but an infeasible QP then ends as MAX_ITERS.
"""

from dataclasses import dataclass, field
from functools import cached_property
from math import isfinite, sqrt
from numbers import Integral, Real

import numpy as np
from scipy.linalg import LinAlgError, cho_solve, cholesky, solve_triangular
from scipy.linalg.lapack import dgesv, dposv, dpotrf, dpotrs, dtrtrs

from .errors import DimensionMismatch, NotPD

SOLVED = "solved"
MAX_ITERS = "max_iters"
INFEASIBLE = "infeasible"

BALL_FEAS_TOL = 1e-8
# Newton steps of one free-set secular solve; it converges quadratically.
_SECULAR_STEPS = 30


@dataclass(eq=False)
class TerminalBall:
    """Euclidean ball constraint ||Tmap u + tvec|| <= radius."""

    Tmap: np.ndarray
    tvec: np.ndarray
    radius: float


@dataclass(eq=False)
class CondensedQp:
    """Input-space condensed horizon problem.

    `objective` evaluates the full horizon cost including the constant
    term, so it matches the stage sum of the problem it was built from.
    H, the box and every Tmap belong to `ops`, the HorizonOperators the
    problem was condensed from, and are read-only; `ops` also holds the
    prediction operators Phi and Gamma over x(1..N), x_stack = Phi x0 +
    Gamma u_stack, and the dimensions n, m and N.
    """

    H: np.ndarray
    g: np.ndarray
    const: float
    box_lo: np.ndarray
    box_hi: np.ndarray
    terminal: list
    ops: "HorizonOperators" = field(repr=False)

    def objective(self, u):
        u = np.asarray(u, dtype=float).reshape(-1)
        return float(0.5 * u @ self.H @ u + self.g @ u + self.const)


def _frozen(a):
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


def state_cost_blocks(Phi, Gamma, Q, P):
    """The state part of a horizon cost as a quadratic form in (u, x0).

    With x(1..N) = Phi x0 + Gamma u and Qbig = blkdiag(Q, ..., Q, P) over
    x(1..N), the sum of x(k)'Q x(k) over k = 0..N-1 plus x(N)'P x(N) is
    u'Au + 2 u'B x0 + x0'C x0 for the returned (A, B, C) =
    (Gamma'Qbig Gamma, Gamma'Qbig Phi, Q + Phi'Qbig Phi), formed stage by stage.
    """
    n = Q.shape[0]
    N = Phi.shape[0] // n
    stages = [(slice(k * n, (k + 1) * n), Q if k < N - 1 else P) for k in range(N)]
    QG = np.vstack([W @ Gamma[rows] for rows, W in stages])
    PhiQ = np.hstack([Phi[rows].T @ W for rows, W in stages])
    return Gamma.T @ QG, QG.T @ Phi, Q + PhiQ @ Phi


class HorizonOperators:
    """The state-independent part of a condensed horizon problem.

    Built once from (A, B, Q, P, R, N, u_lo, u_hi, terminal_balls), with
    the meaning given in `build_condensed`.  Holds H, Phi, Gamma, the box,
    g_x with g = g_x x0, c_x with const = x0'c_x x0, and for each
    terminal ball its Tmap and its rows of x(N), so tvec = Phi_N[rows] x0;
    ball_map and tvec_x stack every ball's Tmap and Phi_N[rows].
    H_chol is the lower Cholesky factor of H (Fortran order, for dpotrs).
    `unconstrained_law` is built on first use.  Every array is read-only.
    Raises NotPD when H has no Cholesky factor, which a positive definite R
    rules out, and DimensionMismatch when a bound is NaN or u_lo > u_hi.
    """

    def __init__(self, A, B, Q, P, R, N, u_lo, u_hi, terminal_balls=None):
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        if B.ndim == 1:
            B = B.reshape(-1, 1)
        n, m = B.shape
        if A.shape != (n, n):
            raise DimensionMismatch("A must be %dx%d" % (n, n))
        N = int(N)
        if N < 1:
            raise DimensionMismatch("horizon N must be >= 1")
        Q = np.asarray(Q, dtype=float)
        P = np.asarray(P, dtype=float)
        R = np.atleast_2d(np.asarray(R, dtype=float))
        if Q.shape != (n, n) or P.shape != (n, n) or R.shape != (m, m):
            raise DimensionMismatch("weight shapes do not match the dynamics")
        u_lo = np.broadcast_to(np.asarray(u_lo, dtype=float).reshape(-1), (m,))
        u_hi = np.broadcast_to(np.asarray(u_hi, dtype=float).reshape(-1), (m,))
        if not np.all(u_lo <= u_hi):
            raise DimensionMismatch("input bounds must satisfy u_lo <= u_hi, with no NaN")
        self.n, self.m, self.N = n, m, N

        # Prediction operators over x(1..N).
        powers = [np.eye(n)]
        for _ in range(N):
            powers.append(A @ powers[-1])
        Phi = np.vstack([powers[k] for k in range(1, N + 1)])
        Gamma = np.zeros((N * n, N * m))
        for k in range(1, N + 1):
            for j in range(k):
                Gamma[(k - 1) * n : k * n, j * m : (j + 1) * m] = powers[k - 1 - j] @ B

        GQG, GQP, c_x = state_cost_blocks(Phi, Gamma, Q, P)
        H = 2.0 * (GQG + np.kron(np.eye(N), R))
        self.H = _frozen(0.5 * (H + H.T))
        try:
            self.H_chol = np.asfortranarray(cholesky(self.H, lower=True))
        except LinAlgError as exc:
            raise NotPD("the condensed Hessian H has no Cholesky factor") from exc
        self.H_chol.setflags(write=False)
        self.Phi = _frozen(Phi)
        self.Gamma = _frozen(Gamma)
        self.box_lo = _frozen(np.tile(u_lo, N))
        self.box_hi = _frozen(np.tile(u_hi, N))
        # g = g_x x0 and const = x0^T c_x x0.
        self.g_x = _frozen(2.0 * GQP)
        self.c_x = _frozen(0.5 * (c_x + c_x.T))

        # The balls' rows of x(N), stacked: ball_map holds their rows of
        # Gamma, and each ball's Tmap is its block of ball_map.
        # self.balls: (Tmap, radius, the block of tvec_x x0 that is its tvec)
        rows, parts, radii = [], [], []
        for idx, radius in terminal_balls or ():
            idx = np.arange(n)[idx] if isinstance(idx, slice) else np.asarray(idx, dtype=int)
            start = len(rows)
            rows.extend((N - 1) * n + idx)
            parts.append(slice(start, len(rows)))
            radii.append(float(radius))
        rows = np.array(rows, dtype=int)
        self.ball_map = _frozen(Gamma[rows, :])
        self.tvec_x = _frozen(Phi[rows, :])
        self.balls = [(self.ball_map[part], radius, part) for part, radius in zip(parts, radii)]
        # What else the multiplier search needs of the balls: the 0/1
        # matrix E with E[i, b] = 1 where stacked row i belongs to ball b,
        # each T^T T, and the multipliers at which 2 lam T^T T weighs as
        # much as H (for doubling; the floor keeps it finite for a ball no
        # input moves).  ball_zero is the multiplier vector of an exact
        # solve.
        self.ball_indicator = _frozen(np.repeat(np.eye(len(parts)), [p.stop - p.start for p in parts], axis=0))
        self.ball_gram = _frozen(np.array([T.T @ T for T, _, _ in self.balls]).reshape(len(parts), N * m, N * m))
        trace_H = np.trace(self.H)
        self.ball_scale = _frozen(
            trace_H / (2.0 * np.maximum([np.trace(A) for A in self.ball_gram], np.finfo(float).eps * trace_H))
        )
        self.ball_zero = _frozen(np.zeros(len(parts)))

    @cached_property
    def unconstrained_law(self):
        """(L, K): the unconstrained minimizer L x0 = -H^-1 g_x x0 and its
        stacked ball residuals K x0 = tvec_x x0 + ball_map L x0, both linear
        in the initial state (built on first use; read-only).

        Where L x0 lies in the box and every ball lies within its radius,
        it is the optimum, as in the exact check of `solve_qp`: the empty
        active set of the explicit-MPC picture.
        """
        L = -cho_solve((self.H_chol, True), self.g_x)
        return _frozen(L), _frozen(self.tvec_x + self.ball_map @ L)

    def condense(self, x0):
        """The CondensedQp at initial state x0."""
        x0 = np.asarray(x0, dtype=float).reshape(-1)
        if x0.shape[0] != self.n:
            raise DimensionMismatch("x0 must have length %d" % self.n)
        g = self.g_x @ x0
        const = float(x0 @ self.c_x @ x0)
        tvec = self.tvec_x @ x0
        terminal = [TerminalBall(Tmap=Tmap, tvec=tvec[part], radius=r) for Tmap, r, part in self.balls]
        return CondensedQp(
            H=self.H, g=g, const=const, box_lo=self.box_lo, box_hi=self.box_hi, terminal=terminal, ops=self
        )


def build_condensed(A, B, Q, P, R, N, x0, u_lo, u_hi, terminal_balls=None):
    """Condense a finite-horizon problem into the stacked input vector.

    Parameters
    ----------
    A, B : arrays
        Dynamics x(k+1) = A x(k) + B u(k).
    Q, P, R : arrays
        Stage state weight, terminal state weight, stage input weight.
    N : int
        Horizon length, at least 1.
    x0 : array
        Initial state.
    u_lo, u_hi : arrays, shape (m,)
        Per-channel input bounds, repeated at every stage.
    terminal_balls : list of (indices, radius), optional
        Euclidean ball constraints on sub-vectors of x(N).

    The stacked input is stage-major: u = [u(0); u(1); ...; u(N-1)].
    Repeated solves of one problem should build HorizonOperators once and
    call its `condense` instead.
    """
    return HorizonOperators(A, B, Q, P, R, N, u_lo, u_hi, terminal_balls).condense(x0)


@dataclass
class SolverOptions:
    """eps_abs bounds how far inside its radius the multiplier search may
    leave a binding ball; max_iters caps the iterations of one solve.

    Raises DimensionMismatch unless max_iters is an integer (not a bool) of
    at least 1 and eps_abs a finite number above 0.
    """

    eps_abs: float = 1e-8
    max_iters: int = 50_000

    def __post_init__(self):
        if type(self.max_iters) is bool or not isinstance(self.max_iters, Integral) or self.max_iters < 1:
            raise DimensionMismatch("max_iters: must be an integer >= 1, got %r" % (self.max_iters,))
        if not (isinstance(self.eps_abs, Real) and isfinite(self.eps_abs) and self.eps_abs > 0):
            raise DimensionMismatch("eps_abs: must be a finite number > 0, got %r" % (self.eps_abs,))


@dataclass(eq=False)
class QpSolution:
    """Result of a solve.

    A SOLVED point lies in the box and in every ball with no slack; an
    INFEASIBLE or MAX_ITERS result carries the unconstrained minimizer
    clipped onto the box.  The objective of any u_stack is
    `CondensedQp.objective(u_stack)`.
    """

    u_stack: np.ndarray
    iterations: int
    status: str
    # Least ball margin of `ball_margins`, set by every failed solve that
    # reached the certificate.  None on a SOLVED result, which never runs
    # it, and when the solve stopped at the exact check or has no ball.
    margin: float = None
    # Multiplier of each ball at a SOLVED point, so the optimal objective
    # changes with radius r_b at the rate -2 r_b lam_b: the search's
    # multipliers, or after the exact check the read-only zeros of
    # `HorizonOperators.ball_zero`, which every such solution shares.
    # None on a failed solve.
    lam: np.ndarray = None


def _bvls(A, b, lo, hi):
    """BVLS minimizer of ||A x - b|| over the box [lo, hi], and its free mask.

    lsq_linear needs lo < hi, so a fixed input gets one ulp of room; the
    point is clipped back onto the true box, where that input is not free.
    """
    # Imported here: scipy.optimize adds about 0.3 s to `import coopmpc`.
    from scipy.optimize import lsq_linear

    hi_fit = np.where(hi > lo, hi, np.nextafter(lo, np.inf))
    fit = lsq_linear(A, b, bounds=(lo, hi_fit), method="bvls")
    return np.clip(fit.x, lo, hi), (fit.active_mask == 0) & (hi > lo)


def _box_qp(H, c, lo, hi, L, start=None):
    """Minimizer of 0.5 u'Hu + c'u over the box [lo, hi], its free mask,
    and the lower Cholesky factor K of H[free, free].

    H is positive definite and L its lower Cholesky factor.  A primal
    active set (Nocedal & Wright, Numerical Optimization, 2006, 16.5)
    starts from the unconstrained minimizer -H^-1 c (`start` when the
    caller has it, else solved from L) clipped onto the box, holding
    every input that lies on a bound there.  When that holds none, the
    minimizer is the answer and K is L itself.  Otherwise each step
    minimizes over the free inputs with the held ones fixed and moves
    towards that point until a free input meets a bound, which is then
    held.  At the minimizer of a step, the held input whose gradient
    points into the box by the most beyond its rounding error is released;
    when there is none the point satisfies the KKT conditions, and K is
    the factor the last step solved with: only its lower triangle is the
    factor.  Inputs with lo == hi are never released, so they sit exactly
    at their value.  A guard of 4 n steps ends a cycle that rounding could
    cause; BVLS on ||L^T u + L^-1 c|| then finishes the solve, as it does
    when the factor of a step fails.  K is None then, and when every input
    is held.
    """
    u = np.clip(dpotrs(L, -c, lower=True)[0] if start is None else start, lo, hi)
    held = (u == lo) | (u == hi)
    if not held.any():
        return u, ~held, L
    movable = lo < hi
    rounding = len(c) * np.finfo(float).eps
    for _ in range(4 * len(c)):
        free = np.flatnonzero(~held)
        K = None
        if free.size:
            fixed = np.flatnonzero(held)
            uf = u[free]
            rhs = -(c[free] + H[free[:, None], fixed] @ u[fixed])
            K, target, info = dposv(H[free[:, None], free], rhs, lower=1)
            if info:
                break
            out = (target < lo[free]) | (target > hi[free])
            if out.any():
                # Step to the first bound a free input meets, and hold it.
                edge = np.where(target < lo[free], lo[free], hi[free])[out]
                frac = (edge - uf[out]) / (target[out] - uf[out])
                j = np.argmin(frac)
                u[free] = np.clip(uf + frac[j] * (target - uf), lo[free], hi[free])
                k = free[out][j]
                u[k] = edge[j]
                held[k] = True
                continue
            u[free] = target
        grad = H @ u + c
        pull = np.where(u == lo, -grad, grad) - rounding * (np.abs(H) @ np.abs(u) + np.abs(c))
        pull[~(held & movable)] = 0.0
        k = np.argmax(pull)
        if pull[k] <= 0.0:
            return u, ~held, K
        held[k] = False
    return (*_bvls(L.T, solve_triangular(L, -c, lower=True), lo, hi), None)


def _margin_bound(ball, s, lo, hi):
    """Upper bound on a ball's margin over the box [lo, hi], from the
    residual s = Tmap u + tvec of any u.

    The value is radius - (d.tvec + sum_j min(lo_j c_j, hi_j c_j)) with
    d = s / ||s|| and c = Tmap^T d, and radius when s = 0.  Every v in the
    box has ||Tmap v + tvec|| >= d.(Tmap v + tvec) >= that sum, the
    supporting hyperplane along d, so a negative value proves the ball out
    of reach whatever u was.
    """
    dist = sqrt(s @ s)
    if dist == 0.0:
        return ball.radius
    d = s / dist
    c = ball.Tmap.T @ d
    return ball.radius - float(d @ ball.tvec + np.minimum(lo * c, hi * c).sum())


def ball_margins(qp):
    """Reachability of each terminal ball over the box, as (margin, bound).

    margin is radius - ||Tmap u* + tvec|| with u* the box-constrained
    least-squares point from BVLS, and bound is `_margin_bound` along the
    residual at u*.  So bound is an upper bound on the true margin even
    when BVLS stops early, and a negative bound proves the ball out of
    reach.  At the BVLS optimum the two agree.
    """
    lo, hi = qp.box_lo, qp.box_hi
    out = []
    for ball in qp.terminal:
        u, _ = _bvls(ball.Tmap, -ball.tvec, lo, hi)
        r = ball.Tmap @ u + ball.tvec
        out.append((ball.radius - sqrt(r @ r), _margin_bound(ball, r, lo, hi)))
    return out


def _residual_response(T, free, K):
    """G = Y^T Y with Y = K^-1 T_F^T: how the stacked ball residuals
    T u + t answer a change of the multipliers when only the inputs in
    `free` move.  K is the lower Cholesky factor of the free block of the
    Lagrangian Hessian; G is zero when no input is free."""
    if not free.any():
        return np.zeros((len(T), len(T)))
    Y = dtrtrs(K, T[:, free].T, lower=1)[0]
    return Y.T @ Y


def _secular_terms(E, s, P):
    """The ball norms n of the stacked residuals s (E is the 0/1 matrix of
    the ball of each row) and the Jacobian J_cb = d(1/n_c)/d mu_b =
    2 s_c.P_cb s_b / n_c^3 of their secular residuals, where P is the
    response of the residuals to the multipliers; a ball whose residual
    vanishes gets a zero row."""
    n = np.sqrt((s * s) @ E)
    S = E * s[:, None]
    return n, 2.0 * (S.T @ P @ S) / np.where(n > 0.0, n, np.inf)[:, None] ** 3


def _free_set_model(G, E, s):
    """The secular terms at multipliers moved from a point, with its held
    inputs fixed and its free set kept.

    s holds the point's stacked ball residuals, G their response
    (`_residual_response`) and E the 0/1 matrix of the ball of each row.
    The returned function of a multiplier step (one entry per ball) gives
    (s(mu), n, J): the residuals s(mu) = (I + 2 G D)^-1 s, with D = diag(E
    step) repeating each ball's step over its rows, and their
    `_secular_terms` with P = (I + 2 G D)^-1 G, both from one dgesv on the
    Sum n_b system.  It gives None where I + 2 G D is singular, the result
    is not finite or a residual vanishes.
    """
    eye, rhs = np.eye(len(s)), np.column_stack([s, G])

    def moved(step):
        _, _, X, info = dgesv(eye + 2.0 * G * (E @ step), rhs)
        if info or not np.isfinite(X).all():
            return None
        s_mu = X[:, 0]
        n, J = _secular_terms(E, s_mu, X[:, 1:])
        if not (n > 0.0).all():
            return None
        return s_mu, n, J

    return moved


def _multiplier_search(qp, budget, tol, u_free=None):
    """Exact finish by a search over the ball multipliers.

    For multipliers lam >= 0 on ||T_b u + t_b||^2 <= r_b^2 the Lagrangian
    minimizer over the box is the strictly convex box QP with Hessian
    H + 2 sum_b lam_b T_b^T T_b and linear term g + 2 sum_b lam_b T_b^T t_b,
    which `_box_qp` solves exactly, in the box, from its Cholesky factor;
    at lam = 0 it starts from `u_free`, the unconstrained minimizer, when
    the caller has it.  The search drives the secular residuals
    1/||T_b u + t_b|| - 1/rho_b (Moré & Sorensen, SIAM J. Sci. Stat.
    Comput. 1983) to zero, with rho_b = r_b - tol/2 the middle of the band
    [r_b - tol, r_b] the search stops in, so rounding cannot leave it just
    outside a ball.

    After each box QP it solves the secular equations exactly on that
    point's free set.  With the held inputs fixed and the free set F
    kept, the stacked residuals s = T u + t at multipliers mu are
    s(mu) = (I + 2 G D(mu - lam))^-1 s(lam), where G = Y^T Y with
    Y = K^-1 T_F^T, K the Cholesky factor of the free block of the
    Hessian that `_box_qp` returns, and D repeats each ball's entry over
    its rows (`_residual_response`, `_free_set_model`).  Newton's method
    on that model, with Jacobian 2 S^T P S / n^3 (S holds each ball's
    residual in its own column) and P = (I + 2 G D)^-1 G, runs to
    convergence at no box QP, one dgesv on the Sum n_b system per step.
    Its first step, at D = 0, is the linearised Newton step.  The next
    box QP confirms the multipliers it finds or changes the free set.
    The linearised step is taken instead whenever the model's step is not
    finite, is zero or is no ascent direction of the dual function.

    One loop serves every ball count: projected steps on lam >= 0, halved
    until the dual function provably does not fall, along the Jacobi-scaled
    dual gradient when neither Newton step is an ascent direction.

    Returns (u, lam, calls): u lies in the box and in every ball with no
    slack, and every ball with a positive multiplier is met within tol.
    u is None when `budget` box QPs did not reach such a point, when the
    search stalled, or when a point it computed proved a ball out of reach.
    """
    ops = qp.ops
    H, g, lo, hi = qp.H, qp.g, qp.box_lo, qp.box_hi
    T, E, scale = ops.ball_map, ops.ball_indicator, ops.ball_scale
    # Past these multipliers H is lost in rounding.
    lost = scale / np.finfo(float).eps
    t = np.concatenate([np.zeros(0)] + [ball.tvec for ball in qp.terminal])
    r = np.array([ball.radius for ball in qp.terminal])
    rho = r - 0.5 * tol
    Ttt = E.T @ (T * t[:, None])
    calls = 0

    def point(lam):
        """(u, s, n, G, J): the Lagrangian minimizer, its stacked ball
        residuals and their norms, the free-set response G of the residuals
        and the Jacobian of the secular residuals there.  The Hessian is
        factored once, for the box QP, which hands back K; only after its
        BVLS fallback, which has no factor, is the free block factored
        here.  None once some lam_b is past lost_b, where H is lost in
        rounding, or a factor fails: balls that share inputs but no point
        drive lam there.  None too when the point's residual proves a ball
        out of reach (`_margin_bound`), as it soon does on an infeasible
        QP, where lam grows towards the least-norm point."""
        nonlocal calls
        if np.any(lam > lost):
            return None
        calls += 1
        if lam.any():
            Hl = H + 2.0 * sum(lb * A for lb, A in zip(lam, ops.ball_gram))
            L, info = dpotrf(Hl, lower=1)
            if info:
                return None
            u, free, K = _box_qp(Hl, g + 2.0 * lam @ Ttt, lo, hi, L)
        else:
            Hl = H
            u, free, K = _box_qp(H, g, lo, hi, ops.H_chol, u_free)
        s = T @ u + t
        for (_, _, part), ball in zip(ops.balls, qp.terminal):
            sb = s[part]
            if sb @ sb > ball.radius**2 and _margin_bound(ball, sb, lo, hi) < -BALL_FEAS_TOL:
                return None
        if free.any() and K is None:
            K, info = dpotrf(Hl[np.ix_(free, free)], lower=1)
            if info:
                return None
        G = _residual_response(T, free, K)
        n, J = _secular_terms(E, s, G)
        return u, s, n, G, J

    def secular(lam, s, n, G, J, live):
        """Multipliers at which the free-set model around the point at lam
        (`_free_set_model`) puts each ball in `live` (indices) within tol/4
        of rho, by Newton's method from lam; None when it does not get
        there.  A multiplier that a step sends below zero is held at zero,
        no longer live.  A singular system, a vanishing residual or a
        multiplier past lost ends the solve."""
        model, mu = _free_set_model(G, E, s), lam.copy()
        for _ in range(_SECULAR_STEPS):
            _, _, step, info = dgesv(J[live[:, None], live], 1.0 / rho[live] - 1.0 / n[live])
            if info:
                return None
            mu[live] += step
            # also false for a step that is not finite
            if not (mu <= lost).all():
                return None
            live = live[mu[live] > 0.0]
            mu = np.maximum(mu, 0.0)
            moved = model(mu - lam)
            if moved is None:
                return None
            _, n, J = moved
            if np.abs(n[live] - rho[live]).max(initial=0.0) <= 0.25 * tol:
                return mu
        return None

    def done(lam, n):
        return np.all(n <= r) and np.all((lam == 0.0) | (n >= r - tol))

    def rises(lam, n, step):
        """The projected step is an ascent direction of the dual function."""
        return (n**2 - rho**2) @ (np.maximum(lam + step, 0.0) - lam) > 0.0

    def dual(u, lam, n):
        return 0.5 * u @ H @ u + g @ u + lam @ (n**2 - rho**2)

    lam = np.zeros(len(r))
    if budget < 1:
        return None, lam, calls
    found = point(lam)
    if found is None:
        return None, lam, calls
    u, s, n, G, J = found
    while not done(lam, n):
        live = ((lam > 0.0) | (n > r)) & (np.diag(J) > 0.0)
        # A ball no free input moves: double lam (or start it), halve it, or hold.
        step = np.where(n > r, np.maximum(lam, scale), np.where(n < r - tol, -0.5 * lam, 0.0))
        mu = secular(lam, s, n, G, J, np.flatnonzero(live)) if live.any() else None
        exact = None if mu is None else np.where(live, mu - lam, step)
        if exact is not None and rises(lam, n, exact):
            step = exact
        else:
            step[live] = np.linalg.lstsq(J[np.ix_(live, live)], 1.0 / rho[live] - 1.0 / n[live], rcond=None)[0]
            if not rises(lam, n, step):
                step[live] = (n[live] ** 2 - rho[live] ** 2) / (2.0 * n[live] ** 3 * np.diag(J)[live])
        base = dual(u, lam, n)
        while True:
            trial = np.maximum(lam + step, 0.0)
            if calls >= budget or np.array_equal(trial, lam):
                return None, lam, calls
            found = point(trial)
            if found is None:
                return None, lam, calls
            # Either dual test proves d(trial) >= d(lam); the second is
            # free of the rounding in the dual values.
            u2, s2, n2, G2, J2 = found
            if done(trial, n2) or dual(u2, trial, n2) >= base or (trial - lam) @ (n2**2 - rho**2) >= 0.0:
                break
            step *= 0.5
        lam, u, s, n, G, J = trial, u2, s2, n2, G2, J2
    return u, lam, calls


def solve_qp(qp, options=None):
    """Solve a condensed QP exactly.

    `qp` comes from `HorizonOperators.condense` or `build_condensed`; the
    factor of H is read from `qp.ops`.  Every solve takes the same path:

    1. The unconstrained minimizer u = -H^-1 g from the cached factor.  If
       it satisfies the box and every ball exactly, it is returned as
       SOLVED with zero multipliers.
    2. The multiplier search, from that minimizer, one iteration per box
       QP, with a budget of `options.max_iters` - 2.  It returns SOLVED at
       a point that lies in the box and in every ball exactly, with each
       binding ball met within `options.eps_abs` of its radius, its
       multipliers as `lam`, and no margin.  It ends without a
       point once the residual of a point it computes proves a ball out of
       reach, when its budget runs out, or when it stalls (which only balls
       that share inputs have been seen to make it do).
    3. `ball_margins`, one more iteration, only after a search without a
       point: the least margin is reported as `margin`, and the solve
       returns INFEASIBLE when some ball is proven out of reach by more than
       BALL_FEAS_TOL, MAX_ITERS otherwise, with u clipped onto the box and
       no multipliers.  The
       proof does not depend on BVLS converging, and it is exact when the
       balls act on disjoint inputs, as in every QP the strategies build.

    So an exact solve reports 1 iteration, a searched one 1 plus its box
    QPs and a failed one 1 plus its box QPs plus 1.  A solve takes at most
    `options.max_iters` (at least 1) of them; with 1 it returns MAX_ITERS
    and no margin after the exact check.
    """
    opts = options or SolverOptions()
    box_lo, box_hi = qp.box_lo, qp.box_hi
    u = dpotrs(qp.ops.H_chol, -qp.g, lower=True)[0]
    reach = [ball.Tmap @ u + ball.tvec for ball in qp.terminal]
    if (
        np.all(box_lo <= u)
        and np.all(u <= box_hi)
        and all(sqrt(s @ s) <= ball.radius for s, ball in zip(reach, qp.terminal))
    ):
        return QpSolution(u, iterations=1, status=SOLVED, lam=qp.ops.ball_zero)

    iterations, margin, status = 1, None, MAX_ITERS
    if opts.max_iters > 1:
        # The search leaves one iteration of the budget for the certificate.
        found, lam, calls = _multiplier_search(qp, opts.max_iters - 2, opts.eps_abs, u)
        iterations += calls
        if found is not None:
            return QpSolution(found, iterations=iterations, status=SOLVED, lam=lam)
        iterations += 1
        margins = ball_margins(qp)
        margin = min((m for m, _ in margins), default=None)
        if margins and min(bound for _, bound in margins) < -BALL_FEAS_TOL:
            status = INFEASIBLE
    return QpSolution(np.clip(u, box_lo, box_hi), iterations=iterations, status=status, margin=margin)
