"""Condensed finite-horizon QP, solved exactly where it can be and by ADMM otherwise.

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
once, and its `condense(x0)` returns a CondensedQp in a few mat-vecs.
The operator arrays are read-only and shared by every CondensedQp
condensed from them.  `build_condensed` is the one-shot form.

The solver first tries the unconstrained minimizer u = -H^-1 g, from the
Cholesky factor of H that the operators keep.  If u lies in the box and in
every ball, with no tolerance (not even the 1e-8 ball slack ADMM allows),
it is the optimum: the problem is strictly convex and u satisfies the KKT
conditions with every multiplier zero.  That certificate is exact, so such
a solve returns u with zero residuals and runs no splitting iteration.  In
the explicit-MPC picture (Bemporad, Morari, Dua & Pistikopoulos,
Automatica 2002) these are the states of the critical region whose active
set is empty; near the origin of a regulated loop they are the common case.

The box (lo <= hi) is never empty, so only the balls can make the
problem infeasible.  A cold solve (no warm start) whose unconstrained
minimizer is infeasible next checks each ball once (`ball_margins`): BVLS
(Stark & Parker, Computational Statistics 1995) gives the least terminal
norm ||Tmap u + tvec|| reachable over the box, and the hyperplane through
that point gives a lower bound on the norm that holds whatever BVLS
returned.  When the bound exceeds a ball's radius by more than
BALL_FEAS_TOL, no input in the box reaches the ball and the solve stops as
INFEASIBLE.  Up to that tolerance the check is exact for every QP the
strategies build: each of their balls acts on a different agent's inputs,
so the QP is feasible exactly when every ball is reachable on its own.
With balls that share inputs it is still a proof when it fires, but an
infeasible QP may then run to the iteration cap.

When every ball is reached with room to spare (or there is no ball), the
cold solve finishes exactly with a search over the ball multipliers
(`_multiplier_search`).  For fixed multipliers the Lagrangian over the box
is a strictly convex box QP, which a primal active set on its Cholesky
factor solves exactly (`_box_qp`), and Newton's method on the secular
equation of each ball (Moré & Sorensen, SIAM J. Sci. Stat. Comput. 1983)
finds the multipliers: a median of 5 box QPs, at most 11, on the
flagship's Monte Carlo draws.  The point it returns lies in the box and in
every ball with no slack.

Every other solve runs a scaled ADMM with one splitting variable per
constraint set (the box over the stacked input and one Euclidean ball per
terminal set), stacked as v = M u + c with M = [I; Tmap_1; Tmap_2; ...]
taken from the operators: warm restarts, which ADMM usually finishes
within a few dozen of its cheap iterations, solves whose H is only
semidefinite, cold solves whose least margin is not positive without a
proof of infeasibility, and cold solves whose search stalls.  The penalty
is initialized from the diagonal of H, residual balancing runs every
BALANCE_EVERY iterations, and the iterate is over-relaxed by OVER_RELAX.
An ADMM solve that has not converged after CERTIFY_AT iterations and has
not yet checked its balls checks them then, with the same verdict.
"""

from dataclasses import dataclass, field
from math import sqrt

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cholesky, solve_triangular
from scipy.linalg.lapack import dposv, dpotrf, dpotrs, dtrtrs

from .errors import DimensionMismatch

SOLVED = "solved"
MAX_ITERS = "max_iters"
INFEASIBLE = "infeasible"

BALL_FEAS_TOL = 1e-8
OVER_RELAX = 1.6
# Every BALANCE_EVERY iterations the penalty is scaled by BALANCE_FACTOR
# when one residual exceeds the other by more than BALANCE_RATIO.
BALANCE_EVERY = 50
BALANCE_RATIO = 10.0
BALANCE_FACTOR = 2.0
# ADMM iteration at which an unconverged solve that has not checked its
# balls yet (a warm or semidefinite one) certifies them.
CERTIFY_AT = 4 * BALANCE_EVERY


@dataclass(eq=False)
class TerminalBall:
    """Euclidean ball constraint ||Tmap u + tvec|| <= radius."""

    Tmap: np.ndarray
    tvec: np.ndarray
    radius: float


@dataclass(eq=False)
class CondensedQp:
    """Input-space condensed horizon problem.

    Phi and Gamma are the prediction operators over x(1..N):
    x_stack = Phi x0 + Gamma u_stack.  `objective` evaluates the full
    horizon cost including the constant term, so it matches the stage sum
    of the problem it was built from.  H, Phi, Gamma, the box and every
    Tmap belong to `ops`, the HorizonOperators the problem was condensed
    from, and are read-only.
    """

    H: np.ndarray
    g: np.ndarray
    const: float
    Phi: np.ndarray
    Gamma: np.ndarray
    box_lo: np.ndarray
    box_hi: np.ndarray
    terminal: list
    n: int
    m: int
    N: int
    ops: "HorizonOperators" = field(repr=False)

    def objective(self, u):
        u = np.asarray(u, dtype=float).reshape(-1)
        return float(0.5 * u @ self.H @ u + self.g @ u + self.const)


def _frozen(a):
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


class HorizonOperators:
    """The state-independent part of a condensed horizon problem.

    Built once from (A, B, Q, P, R, N, u_lo, u_hi, terminal_balls), with
    the meaning given in `build_condensed`.  Holds H, Phi, Gamma, the box,
    g_x with g = g_x x0, the map that gives const from x0, and for each
    terminal ball its Tmap and its rows of x(N), so tvec = Phi_N[rows] x0.
    M stacks the identity over every Tmap; Mt is its transpose and
    MtM = M^T M.  `segments` lists the (start, stop) rows of each ball in
    M.  H_chol is the lower Cholesky factor of H (Fortran order, for
    dpotrs), or None when H is only semidefinite.  Every array is
    read-only.
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

        Qbig = np.zeros((N * n, N * n))
        for k in range(N - 1):
            Qbig[k * n : (k + 1) * n, k * n : (k + 1) * n] = Q
        Qbig[(N - 1) * n :, (N - 1) * n :] = P
        Rbig = np.kron(np.eye(N), R)

        QG = Qbig @ Gamma
        H = 2.0 * (Gamma.T @ QG + Rbig)
        self.H = _frozen(0.5 * (H + H.T))
        try:
            self.H_chol = np.asfortranarray(cholesky(self.H, lower=True))
            self.H_chol.setflags(write=False)
        except LinAlgError:
            self.H_chol = None
        self.Phi = _frozen(Phi)
        self.Gamma = _frozen(Gamma)
        self.box_lo = _frozen(np.tile(u_lo, N))
        self.box_hi = _frozen(np.tile(u_hi, N))
        # g = g_x x0 and const = x0^T c_x x0.
        self.g_x = _frozen(2.0 * (QG.T @ Phi))
        c_x = Q + Phi.T @ Qbig @ Phi
        self._c_x = _frozen(0.5 * (c_x + c_x.T))

        self.nu = nu = N * m
        self.balls = []
        rows = []
        self.segments = []
        start = nu
        for idx, radius in terminal_balls or ():
            idx = np.arange(n)[idx] if isinstance(idx, slice) else np.asarray(idx, dtype=int)
            rows.append((N - 1) * n + idx)
            self.balls.append((_frozen(Gamma[rows[-1], :]), float(radius)))
            self.segments.append((start, start + len(idx)))
            start += len(idx)
        self._tvec_x = _frozen(Phi[np.concatenate(rows), :] if rows else np.zeros((0, n)))
        Tmaps = [Tmap for Tmap, _ in self.balls]
        MtM = np.eye(nu)
        for Tmap in Tmaps:
            MtM += Tmap.T @ Tmap
        self.M = _frozen(np.vstack([np.eye(nu)] + Tmaps))
        self.Mt = _frozen(self.M.T)
        self.MtM = _frozen(MtM)

    def condense(self, x0):
        """The CondensedQp at initial state x0."""
        n = self.n
        x0 = np.asarray(x0, dtype=float).reshape(-1)
        if x0.shape[0] != n:
            raise DimensionMismatch("x0 must have length %d" % n)
        g = self.g_x @ x0
        const = float(x0 @ self._c_x @ x0)
        tvec = self._tvec_x @ x0
        nu = self.nu
        terminal = [
            TerminalBall(Tmap=Tmap, tvec=tvec[a - nu : b - nu], radius=r)
            for (Tmap, r), (a, b) in zip(self.balls, self.segments)
        ]
        return CondensedQp(
            H=self.H,
            g=g,
            const=const,
            Phi=self.Phi,
            Gamma=self.Gamma,
            box_lo=self.box_lo,
            box_hi=self.box_hi,
            terminal=terminal,
            n=n,
            m=self.m,
            N=self.N,
            ops=self,
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
    eps_abs: float = 1e-8
    eps_rel: float = 1e-6
    max_iters: int = 50_000


@dataclass(eq=False)
class QpSolution:
    """Result of a solve; also usable as a warm start for a related solve."""

    u_stack: np.ndarray
    objective: float
    iterations: int
    primal_res: float
    dual_res: float
    status: str
    w: np.ndarray = field(default=None, repr=False)
    y: np.ndarray = field(default=None, repr=False)
    rho: float = field(default=None, repr=False)
    # Least ball margin of `ball_margins`, set by every solve that checked
    # its balls: a cold solve past step zero (also when the multiplier
    # search then solved it), or an ADMM solve at CERTIFY_AT.  None when
    # the solve stopped before the check or has no ball.
    margin: float = None


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


def _box_qp(H, c, lo, hi, L):
    """Minimizer of 0.5 u'Hu + c'u over the box [lo, hi], and its free mask.

    H is positive definite and L its lower Cholesky factor.  A primal
    active set (Nocedal & Wright, Numerical Optimization, 2006, 16.5)
    starts from the unconstrained minimizer clipped onto the box, holding
    every input that lies on a bound there.  Each step minimizes over the
    free inputs with the held ones fixed and moves towards that point
    until a free input meets a bound, which is then held.  At the
    minimizer of a step, the held input whose gradient points into the box
    by the most beyond its rounding error is released; when there is none
    the point satisfies the KKT conditions.  Inputs with lo == hi are never
    released, so they sit exactly at their value.  A guard of 4 n steps
    ends a cycle that rounding could cause; BVLS on ||L^T u + L^-1 c|| then
    finishes the solve, as it does when the factor of a step fails.
    """
    u = np.clip(dpotrs(L, -c, lower=True)[0], lo, hi)
    held = (u == lo) | (u == hi)
    movable = lo < hi
    rounding = len(c) * np.finfo(float).eps
    for _ in range(4 * len(c)):
        free = np.flatnonzero(~held)
        if free.size:
            fixed = np.flatnonzero(held)
            uf = u[free]
            rhs = -(c[free] + H[free[:, None], fixed] @ u[fixed])
            target, info = dposv(H[free[:, None], free], rhs, lower=1)[1:]
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
            return u, ~held
        held[k] = False
    return _bvls(L.T, solve_triangular(L, -c, lower=True), lo, hi)


def ball_margins(qp):
    """Reachability of each terminal ball over the box, as (margin, bound).

    margin is radius - ||Tmap u* + tvec|| with u* the box-constrained
    least-squares point from BVLS.  bound is radius minus the supporting
    hyperplane value d.tvec + sum_j min(lo_j c_j, hi_j c_j), where d is the
    unit residual at u* and c = Tmap^T d (the value is 0 when u* reaches
    the origin).  Every u in the box has ||Tmap u + tvec|| >=
    d.(Tmap u + tvec) >= that value, so bound is an upper bound on the
    true margin even when BVLS stops early, and a negative bound proves
    the ball out of reach.  At the BVLS optimum the two agree.
    """
    lo, hi = qp.box_lo, qp.box_hi
    out = []
    for ball in qp.terminal:
        u, _ = _bvls(ball.Tmap, -ball.tvec, lo, hi)
        r = ball.Tmap @ u + ball.tvec
        dist = float(np.linalg.norm(r))
        bound = 0.0
        if dist > 0.0:
            d = r / dist
            c = ball.Tmap.T @ d
            bound = float(d @ ball.tvec + np.minimum(lo * c, hi * c).sum())
        out.append((ball.radius - dist, ball.radius - bound))
    return out


def _multiplier_search(qp, budget, tol):
    """Exact finish by a search over the ball multipliers.

    For multipliers lam >= 0 on ||T_b u + t_b||^2 <= r_b^2 the Lagrangian
    minimizer over the box is the strictly convex box QP with Hessian
    H + 2 sum_b lam_b T_b^T T_b and linear term g + 2 sum_b lam_b T_b^T t_b,
    which `_box_qp` solves exactly, in the box, from its Cholesky factor.
    Newton's method drives the secular residuals 1/||T_b u + t_b|| - 1/rho_b
    (Moré & Sorensen, SIAM J. Sci. Stat. Comput. 1983) to zero, with
    rho_b = r_b - tol/2 the middle of the band [r_b - tol, r_b] the
    search stops in, so rounding cannot leave it just outside a ball.
    The Jacobian comes from the Cholesky factor of the free-set block of
    the Lagrangian Hessian.  One ball keeps a bracket on lam and bisects
    (or doubles lam, above any point found inside) when a Newton step
    leaves it.  Several balls take projected Newton steps on lam >= 0,
    halved until the dual function provably does not fall, along the
    Jacobi-scaled dual gradient when the Newton step is no ascent
    direction.

    Returns (u, lam, calls): u lies in the box and in every ball with no
    slack, and every ball with a positive multiplier is met within tol.
    u is None when `budget` box QPs did not reach such a point or the
    search stalled.
    """
    H, g, lo, hi = qp.H, qp.g, qp.box_lo, qp.box_hi
    T = [ball.Tmap for ball in qp.terminal]
    t = [ball.tvec for ball in qp.terminal]
    r = np.array([ball.radius for ball in qp.terminal])
    rho = r - 0.5 * tol
    TtT = [Tb.T @ Tb for Tb in T]
    Ttt = np.array([Tb.T @ tb for Tb, tb in zip(T, t)])
    # Multiplier at which 2 lam T^T T weighs as much as H, for doubling.
    scale = np.trace(H) / (2.0 * np.maximum([np.trace(A) for A in TtT], np.finfo(float).tiny))
    lost = scale / np.finfo(float).eps
    calls = 0

    def point(lam):
        """(u, n, J): the Lagrangian minimizer, its ball norms and the
        Jacobian J_cb = d(1/n_c)/d lam_b = 2 z_c.z_b / n_c^3 with
        z_b = K^-1 (T_b^T s_b)_F, K K^T the free block of the Hessian.
        None once some lam_b is past scale_b / eps, where H is lost in
        rounding, or a factor fails: balls that share inputs but no point
        drive lam there."""
        nonlocal calls
        if np.any(lam > lost):
            return None
        calls += 1
        Hl = H + 2.0 * sum(lb * A for lb, A in zip(lam, TtT))
        L, info = dpotrf(Hl, lower=1) if lam.any() else (qp.ops.H_chol, 0)
        if info:
            return None
        u, free = _box_qp(Hl, g + 2.0 * lam @ Ttt, lo, hi, L)
        s = [Tb @ u + tb for Tb, tb in zip(T, t)]
        n = np.array([sqrt(sb @ sb) for sb in s])
        # One column per ball; the reshape keeps the shape when there is none.
        Z = np.array([Tb.T @ sb for Tb, sb in zip(T, s)]).reshape(len(s), len(u)).T[free]
        if free.any():
            K, info = dpotrf(Hl[np.ix_(free, free)], lower=1)
            if info:
                return None
            Z = dtrtrs(K, Z, lower=1)[0]
        return u, n, 2.0 * (Z.T @ Z) / n[:, None] ** 3

    def done(lam, n):
        return np.all(n <= r) and np.all((lam == 0.0) | (n >= r - tol))

    lam = np.zeros(len(r))
    if budget < 1:
        return None, lam, calls
    u, n, J = point(lam)
    if len(r) == 1:
        below, above, inside = 0.0, np.inf, None
        while not done(lam, n):
            if n[0] <= r[0]:
                above, inside = lam[0], u
            else:
                below = lam[0]
            slope = J[0, 0]
            new = lam[0] - (1.0 / n[0] - 1.0 / rho[0]) / slope if slope > 0.0 else np.nan
            if not below < new < above:
                new = 0.5 * (below + above) if above < np.inf else max(2.0 * lam[0], scale[0])
            if not below < new < above:
                return inside, np.array([above]), calls
            if calls >= budget:
                return None, lam, calls
            lam = np.array([new])
            found = point(lam)
            if found is None:
                return None, lam, calls
            u, n, J = found
        return u, lam, calls

    def dual(u, lam, n):
        return 0.5 * u @ H @ u + g @ u + lam @ (n**2 - rho**2)

    while not done(lam, n):
        grad = n**2 - rho**2
        live = ((lam > 0.0) | (n > r)) & (np.diag(J) > 0.0)
        # A ball no free input moves: double lam (or start it), halve it, or hold.
        step = np.where(n > r, np.maximum(lam, scale), np.where(n < r - tol, -0.5 * lam, 0.0))
        step[live] = np.linalg.lstsq(J[np.ix_(live, live)], 1.0 / rho[live] - 1.0 / n[live], rcond=None)[0]
        if grad @ (np.maximum(lam + step, 0.0) - lam) <= 0.0:
            step[live] = grad[live] / (2.0 * n[live] ** 3 * np.diag(J)[live])
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
            u2, n2, J2 = found
            if done(trial, n2) or dual(u2, trial, n2) >= base or (trial - lam) @ (n2**2 - rho**2) >= 0.0:
                break
            step *= 0.5
        lam, u, n, J = trial, u2, n2, J2
    return u, lam, calls


def _ball_violation(qp, u):
    worst = 0.0
    for ball in qp.terminal:
        worst = max(worst, float(np.linalg.norm(ball.Tmap @ u + ball.tvec)) - ball.radius)
    return worst


def _finished(qp, u, lam, rho, iterations, margin):
    """SOLVED at a point of the multiplier search, with the ADMM restart
    state its multipliers give: w = M u + c and rho y the multipliers of
    the box rows (minus the Lagrangian gradient) and of each ball row."""
    ops = qp.ops
    w = ops.M @ u
    y = np.empty_like(w)
    grad = qp.H @ u + qp.g
    for lb, (a, b), ball in zip(lam, ops.segments, qp.terminal):
        w[a:b] += ball.tvec
        y[a:b] = 2.0 * lb * w[a:b] / rho
        grad += 2.0 * lb * (ball.Tmap.T @ w[a:b])
    y[: ops.nu] = -grad / rho
    inner = (qp.box_lo < u) & (u < qp.box_hi)
    return QpSolution(
        u_stack=u,
        objective=qp.objective(u),
        iterations=iterations,
        primal_res=0.0,
        dual_res=float(np.abs(grad[inner]).max(initial=0.0)),
        status=SOLVED,
        w=w,
        y=y,
        rho=rho,
        margin=margin,
    )


def solve_qp(qp, warm_start=None, options=None):
    """Solve a condensed QP: exactly when no constraint binds or the solve
    is cold, else by ADMM.

    `qp` comes from `HorizonOperators.condense` or `build_condensed`; the
    stacked constraint matrix, its products and the factor of H are read
    from `qp.ops`.  `warm_start` may be a previous QpSolution (full restart
    state) or a plain stacked input guess.

    Step zero solves H u = -g with the cached factor.  If u satisfies the
    box and every ball exactly, it is returned as SOLVED with zero
    residuals, w = M u + c, y = 0 and the penalty ADMM would have started
    from, whatever the warm start.

    Otherwise a cold solve (`warm_start` None, H positive definite) runs
    `ball_margins` at once; the least margin is reported as `margin`, and
    when some ball is proven out of reach by more than BALL_FEAS_TOL the
    solve returns INFEASIBLE with u clipped onto the box.  The proof does
    not depend on BVLS converging, and it is exact when the balls act on
    disjoint inputs, as in every QP the strategies build.  When the least
    margin is positive, or there is no ball, the multiplier search finishes
    the solve: it returns SOLVED at a point that lies in the box and in
    every ball exactly, with each ball that binds met within
    `options.eps_abs` of its radius, primal_res 0, dual_res the largest
    Lagrangian gradient over the inputs strictly inside the box,
    w = M u + c and the y its multipliers give.

    ADMM runs from the warm start (a cold one from u = 0) in every other
    case: a warm start, an H that is only semidefinite, a least margin that
    is not positive without a proof, or a search that stalls with budget
    left (which only balls that share inputs have been seen to make it do).
    Its termination requires the primal and dual residuals below their
    tolerances and, after clipping the iterate onto the box, every terminal
    ball satisfied to 1e-8.  If ADMM has not converged after CERTIFY_AT
    iterations and the balls have not been checked yet, `ball_margins`
    runs then, with the same verdict.

    Iterations count solves with a factor: step zero is iteration 1 (also
    when it is skipped because H is only semidefinite), the certificate of
    a cold solve is iteration 2 (also when there is no ball to check), each
    box QP of the search one more, and ADMM iterations follow whatever came
    before them; a warm solve certifies at iteration CERTIFY_AT + 1.  A
    solve takes at most `options.max_iters` (at least 1) of them, an exact
    solve reports 1 and a cold infeasible one 2.  A solve that runs out of
    budget returns MAX_ITERS with the margin of its certificate, if it got
    that far.
    """
    opts = options or SolverOptions()
    ops = qp.ops
    H = qp.H
    g = qp.g
    M, Mt, MtM = ops.M, ops.Mt, ops.MtM
    nu = H.shape[0]
    box_lo, box_hi = qp.box_lo, qp.box_hi
    balls = [(a, b, ball.radius) for (a, b), ball in zip(ops.segments, qp.terminal)]
    cvec = np.zeros(M.shape[0])
    for (a, b), ball in zip(ops.segments, qp.terminal):
        cvec[a:b] = ball.tvec

    restart = isinstance(warm_start, QpSolution) and warm_start.w is not None
    if restart and warm_start.rho:
        rho = float(warm_start.rho)
    else:
        rho = max(1e-3, 0.1 * float(np.mean(np.diag(H))))

    # Iterations spent before ADMM: step zero, the certificate and the box QPs.
    start = 1
    margin = None
    if ops.H_chol is not None:
        u = dpotrs(ops.H_chol, -g, lower=True)[0]
        v = M @ u + cvec
        if (
            np.all(box_lo <= u)
            and np.all(u <= box_hi)
            and all(sqrt(v[a:b] @ v[a:b]) <= radius for a, b, radius in balls)
        ):
            return QpSolution(
                u_stack=u,
                objective=qp.objective(u),
                iterations=1,
                primal_res=0.0,
                dual_res=0.0,
                status=SOLVED,
                w=v,
                y=np.zeros(M.shape[0]),
                rho=rho,
            )
        if warm_start is None and opts.max_iters > 1:
            start = 2
            margins = ball_margins(qp)
            margin = min((m for m, _ in margins), default=None)
            if margins and min(bound for _, bound in margins) < -BALL_FEAS_TOL:
                u = np.clip(u, box_lo, box_hi)
                return QpSolution(
                    u_stack=u,
                    objective=qp.objective(u),
                    iterations=start,
                    primal_res=np.inf,
                    dual_res=np.inf,
                    status=INFEASIBLE,
                    w=M @ u + cvec,
                    y=np.zeros(M.shape[0]),
                    rho=rho,
                    margin=margin,
                )
            if margin is None or margin > 0.0:
                found, lam, calls = _multiplier_search(qp, opts.max_iters - start, opts.eps_abs)
                start += calls
                if found is not None:
                    return _finished(qp, found, lam, rho, start, margin)

    Mtc = Mt @ cvec
    # The box as bounds on all of v, unbounded on the ball rows.
    lo = np.full(M.shape[0], -np.inf)
    hi = np.full(M.shape[0], np.inf)
    lo[:nu] = box_lo
    hi[:nu] = box_hi

    def project(v):
        out = np.minimum(np.maximum(v, lo), hi)
        for a, b, radius in balls:
            seg = out[a:b]
            nrm = sqrt(seg @ seg)
            if nrm > radius:
                seg *= radius / nrm
        return out

    if restart:
        u = warm_start.u_stack.astype(float).copy()
        w = warm_start.w.copy()
        y = warm_start.y.copy()
    else:
        if warm_start is not None:
            u = np.asarray(warm_start, dtype=float).reshape(-1).copy()
        else:
            u = np.zeros(nu)
        w = project(M @ u + cvec)
        y = np.zeros(M.shape[0])

    eps_abs, eps_rel = opts.eps_abs, opts.eps_rel
    g_max = float(np.abs(g).max()) if g.size else 0.0
    chol, lower = cho_factor(H + rho * MtM)
    # M^T w and M^T y are carried across iterations: the right-hand side
    # and both residual tests reuse them.
    Mtw = Mt @ w
    Mty = Mt @ y
    status = MAX_ITERS
    r_norm = d_norm = np.inf
    iterations = opts.max_iters
    for it in range(1, opts.max_iters - start + 1):
        u = dpotrs(chol, rho * (Mtw - Mtc - Mty) - g, lower=lower)[0]
        v = M @ u + cvec
        v_rel = OVER_RELAX * v + (1.0 - OVER_RELAX) * w
        w = project(v_rel + y)
        y = y + v_rel - w
        Mtw_prev = Mtw
        Mtw = Mt @ w
        Mty = Mt @ y

        r_norm = float(np.abs(v - w).max())
        d_norm = rho * float(np.abs(Mtw_prev - Mtw).max())
        eps_pri = eps_abs + eps_rel * max(float(np.abs(v).max()), float(np.abs(w).max()))
        if r_norm <= eps_pri:
            eps_dua = eps_abs + eps_rel * max(
                float(np.abs(H @ u).max()), g_max, rho * float(np.abs(Mty).max())
            )
            if d_norm <= eps_dua:
                clipped = np.clip(u, box_lo, box_hi)
                if _ball_violation(qp, clipped) <= BALL_FEAS_TOL:
                    status = SOLVED
                    iterations = start + it
                    break

        if it == CERTIFY_AT and qp.terminal and margin is None:
            margins = ball_margins(qp)
            margin = min(m for m, _ in margins)
            if min(bound for _, bound in margins) < -BALL_FEAS_TOL:
                status = INFEASIBLE
                iterations = start + it
                break

        if it % BALANCE_EVERY == 0:
            # Residual balancing; the scaled dual is rescaled so the
            # underlying multiplier rho * y stays fixed.
            scale = None
            if r_norm > BALANCE_RATIO * d_norm:
                scale = BALANCE_FACTOR
            elif d_norm > BALANCE_RATIO * r_norm:
                scale = 1.0 / BALANCE_FACTOR
            if scale is not None:
                rho *= scale
                y /= scale
                Mty = Mt @ y
                chol, lower = cho_factor(H + rho * MtM)

    u_out = np.clip(u, box_lo, box_hi)
    return QpSolution(
        u_stack=u_out,
        objective=qp.objective(u_out),
        iterations=iterations,
        primal_res=r_norm,
        dual_res=d_norm,
        status=status,
        w=w,
        y=y,
        rho=rho,
        margin=margin,
    )
