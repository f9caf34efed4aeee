"""Condensed finite-horizon QP and a projection-based operator splitting solver.

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

Otherwise the solver is a scaled ADMM with one splitting variable per
constraint set (the box over the stacked input and one Euclidean ball per
terminal set), stacked as v = M u + c with M = [I; Tmap_1; Tmap_2; ...]
taken from the operators.  The penalty is initialized from the diagonal of
H, residual balancing runs every BALANCE_EVERY iterations, and the
iterate is over-relaxed by OVER_RELAX.

The box (lo <= hi) is never empty, so only the balls can make the
problem infeasible.  A solve that has not converged after CERTIFY_AT ADMM
iterations checks each ball once (`ball_margins`): BVLS (Stark & Parker,
Computational Statistics 1995) gives the least terminal norm
||Tmap u + tvec|| reachable over the box, and the hyperplane through that
point gives a lower bound on the norm that holds whatever BVLS returned.
When the bound exceeds a ball's radius by more than BALL_FEAS_TOL, no
input in the box reaches the ball and the solve stops as INFEASIBLE.
Up to that tolerance the check is exact for every QP the strategies
build: each of their balls acts on a different agent's inputs, so the QP
is feasible exactly when every ball is reachable on its own.  With balls
that share inputs it is still a proof when it fires, but an infeasible QP
may then run to the iteration cap.  Solves that converge by CERTIFY_AT
never pay for it.
"""

from dataclasses import dataclass, field
from math import sqrt

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cholesky
from scipy.linalg.lapack import dpotrs

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
# ADMM iteration at which an unconverged solve certifies its balls.
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
    # Least ball margin of `ball_margins`; None when the solve stopped
    # before CERTIFY_AT or the QP has no ball.
    margin: float = None


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
    # Imported here: scipy.optimize adds about 0.3 s to `import coopmpc`.
    from scipy.optimize import lsq_linear

    lo, hi = qp.box_lo, qp.box_hi
    # BVLS needs lo < hi: a fixed input gets one ulp of room, which the
    # bound, taken over the true box, does not rely on.
    hi_fit = np.where(hi > lo, hi, np.nextafter(lo, np.inf))
    out = []
    for ball in qp.terminal:
        fit = lsq_linear(ball.Tmap, -ball.tvec, bounds=(lo, hi_fit), method="bvls")
        r = ball.Tmap @ fit.x + ball.tvec
        dist = float(np.linalg.norm(r))
        bound = 0.0
        if dist > 0.0:
            d = r / dist
            c = ball.Tmap.T @ d
            bound = float(d @ ball.tvec + np.minimum(lo * c, hi * c).sum())
        out.append((ball.radius - dist, ball.radius - bound))
    return out


def _ball_violation(qp, u):
    worst = 0.0
    for ball in qp.terminal:
        worst = max(worst, float(np.linalg.norm(ball.Tmap @ u + ball.tvec)) - ball.radius)
    return worst


def solve_qp(qp, warm_start=None, options=None):
    """Solve a condensed QP: exact when no constraint binds, else by ADMM.

    `qp` comes from `HorizonOperators.condense` or `build_condensed`; the
    stacked constraint matrix, its products and the factor of H are read
    from `qp.ops`.  `warm_start` may be a previous QpSolution (full restart
    state) or a plain stacked input guess.

    Step zero solves H u = -g with the cached factor.  If u satisfies the
    box and every ball exactly, it is returned as SOLVED with zero
    residuals, w = M u + c, y = 0 and the penalty ADMM would have started
    from, whatever the warm start.  Otherwise ADMM runs from the warm
    start.  Its termination requires the primal and dual residuals below
    their tolerances and, after clipping the iterate onto the box, every
    terminal ball satisfied to 1e-8.  If ADMM has not converged after
    CERTIFY_AT iterations, `ball_margins` runs once; the least margin is
    reported as `margin`, and when some ball is proven out of reach by more
    than BALL_FEAS_TOL the solve returns INFEASIBLE at iteration
    CERTIFY_AT + 1.  The proof does not depend on BVLS converging, and it
    is exact when the balls act on disjoint inputs, as in every QP the
    strategies build.  Otherwise ADMM runs on with unchanged iterates.

    Iterations count solves with a factor: step zero is iteration 1 (also
    when it is skipped because H is only semidefinite) and ADMM iteration
    k is iteration k + 1, so a solve takes at most `options.max_iters` (at
    least 1) of them and an exact solve reports 1.
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
    margin = None
    iterations = opts.max_iters
    for it in range(1, opts.max_iters):
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
                    iterations = it + 1
                    break

        if it == CERTIFY_AT and qp.terminal:
            margins = ball_margins(qp)
            margin = min(m for m, _ in margins)
            if min(bound for _, bound in margins) < -BALL_FEAS_TOL:
                status = INFEASIBLE
                iterations = it + 1
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
