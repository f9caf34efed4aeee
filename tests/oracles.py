"""Independent reference solvers used to check the production code.

Everything here is deliberately naive: enumeration and dense linear solves
only, no shared code with the package beyond numpy.
"""

import itertools

import numpy as np


def solve_box_qp_active_set(H, g, lo, hi, tol=1e-9):
    """Global minimizer of 0.5 u'Hu + g'u over the box [lo, hi].

    Enumerates candidate active sets in order of increasing size.  For
    each subset of clamped coordinates (each clamped to one side) the free
    coordinates solve the reduced normal equations; the candidate is the
    optimum iff the free part stays inside the box and the gradient on the
    clamped part points outward.  H must be positive definite, so the
    first KKT-consistent candidate is the unique solution.
    """
    H = np.asarray(H, dtype=float)
    g = np.asarray(g, dtype=float).reshape(-1)
    n = g.shape[0]
    lo = np.broadcast_to(np.asarray(lo, dtype=float).reshape(-1), (n,))
    hi = np.broadcast_to(np.asarray(hi, dtype=float).reshape(-1), (n,))
    idx = np.arange(n)
    for k in range(n + 1):
        for clamped in itertools.combinations(range(n), k):
            clamped = np.asarray(clamped, dtype=int)
            free = np.setdiff1d(idx, clamped)
            for sides in itertools.product((0, 1), repeat=k):
                u = np.empty(n)
                u[clamped] = np.where(np.asarray(sides, dtype=bool), hi[clamped], lo[clamped])
                if free.size:
                    rhs = -(g[free] + H[np.ix_(free, clamped)] @ u[clamped])
                    u[free] = np.linalg.solve(H[np.ix_(free, free)], rhs)
                    if np.any(u[free] < lo[free] - tol) or np.any(u[free] > hi[free] + tol):
                        continue
                grad = H @ u + g
                ok = True
                for c, side in zip(clamped, sides):
                    if side == 0 and grad[c] < -tol:
                        ok = False
                        break
                    if side == 1 and grad[c] > tol:
                        ok = False
                        break
                if ok:
                    return np.clip(u, lo, hi)
    raise AssertionError("active-set enumeration found no KKT point")


def horizon_cost(A, B, Q, P, R, x0, u_seq):
    """Direct simulation evaluation of the finite-horizon cost.

    u_seq has shape (m, N).  Matches the condensed objective including its
    constant term (the k = 0 state cost is part of the sum).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    Q = np.asarray(Q, dtype=float)
    P = np.asarray(P, dtype=float)
    R = np.atleast_2d(np.asarray(R, dtype=float))
    x = np.asarray(x0, dtype=float).reshape(-1)
    u_seq = np.asarray(u_seq, dtype=float)
    N = u_seq.shape[1]
    total = 0.0
    for k in range(N):
        u = u_seq[:, k]
        total += float(x @ Q @ x + u @ R @ u)
        x = A @ x + B @ u
    total += float(x @ P @ x)
    return total


def stage_sum_cc(A, B, Qtilde, Ptilde, x0, u_seq):
    """Coupled cost by simulation: Qtilde summed over x(0..N-1), Ptilde at
    x(N), no input term; u_seq has shape (m, N)."""
    m = np.asarray(u_seq).shape[0]
    return horizon_cost(A, B, Qtilde, Ptilde, np.zeros((m, m)), x0, u_seq)


def lyapunov_fixed_point(F, W, iters=20000):
    """Solve F'PF + W = P by plain summation of the convergent series."""
    F = np.asarray(F, dtype=float)
    P = np.asarray(W, dtype=float).copy()
    term = np.asarray(W, dtype=float).copy()
    for _ in range(iters):
        term = F.T @ term @ F
        P += term
        if np.max(np.abs(term)) < 1e-16:
            break
    return P


def solve_one_ball_qp_bisection(H, g, lo, hi, Tmap, tvec, radius, iters=60):
    """Minimizer of 0.5 u'Hu + g'u over the box [lo, hi] and one ball
    ||Tmap u + tvec|| <= radius, by bisection on the ball's multiplier.

    For a multiplier lam >= 0 the Lagrangian minimizer over the box is the
    box QP with H + 2 lam Tmap'Tmap and g + 2 lam Tmap'tvec, solved by
    active-set enumeration; its terminal norm falls as lam grows.  The
    multiplier is bracketed by doubling and bisected `iters` times; the
    point of the upper end, which lies in the ball, is returned.  The ball
    must be reachable with room to spare.
    """
    H = np.asarray(H, dtype=float)
    g = np.asarray(g, dtype=float).reshape(-1)
    T = np.asarray(Tmap, dtype=float)
    t = np.asarray(tvec, dtype=float).reshape(-1)

    def point(lam):
        return solve_box_qp_active_set(H + 2.0 * lam * T.T @ T, g + 2.0 * lam * T.T @ t, lo, hi)

    def inside(u):
        return np.linalg.norm(T @ u + t) <= radius

    if inside(point(0.0)):
        return point(0.0)
    below, above = 0.0, 1.0
    while not inside(point(above)):
        below, above = above, 2.0 * above
        if above > 1e12:
            raise AssertionError("ball not reached by bisection")
    for _ in range(iters):
        mid = 0.5 * (below + above)
        if inside(point(mid)):
            above = mid
        else:
            below = mid
    return point(above)


def _sym(X):
    return 0.5 * (X + X.T)


def _block_diag(blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    k = 0
    for b in blocks:
        out[k : k + b.shape[0], k : k + b.shape[0]] = b
        k += b.shape[0]
    return out


def dense_regroup(T, bar_dims, W, rho):
    """(full, group-diagonal part) of the regrouped weight of the
    per-subsystem weights W: each W_i is symmetrized as a cost spec ingests
    it, stacked as diag(rho_i W_i), moved by the dense product T^T W T and
    symmetrized again."""
    full = _sym(T.T @ _block_diag([r * _sym(np.asarray(Wi, dtype=float)) for r, Wi in zip(rho, W)]) @ T)
    diag = np.zeros_like(full)
    k = 0
    for d in bar_dims:
        diag[k : k + d, k : k + d] = full[k : k + d, k : k + d]
        k += d
    return full, diag


def dense_transform_cost(T, bar_dims, Q, R, rho, P=None):
    """The arrays of `TransformedCost`, by dense products with T, as a dict."""
    Qbar, Qa = dense_regroup(T, bar_dims, Q, rho)
    out = {"Qbar": Qbar, "Qa": Qa, "Qtilde": Qbar - Qa}
    if P is not None:
        Pbar, Pa = dense_regroup(T, bar_dims, P, rho)
        out.update(Pbar=Pbar, Pa=Pa, Ptilde=Pbar - Pa)
    Rlocal = [r * _sym(np.atleast_2d(np.asarray(Ri, dtype=float))) for r, Ri in zip(rho, R)]
    out.update(Rlocal=Rlocal, Rglobal=_block_diag(Rlocal))
    return out


def prop1_check(Pbar, Phat, AK, tol=1e-9):
    """(holds, margin) of the global decrease certificate: with Delta =
    Pbar - Phat, the least eigenvalue of Delta - AK' Delta AK against
    -tol * (1 + ||Delta||_2)."""
    Delta = _sym(Pbar - Phat)
    S = _sym(Delta - AK.T @ Delta @ AK)
    margin = float(np.linalg.eigvalsh(_sym(S))[0])
    return bool(margin >= -tol * (1.0 + float(np.linalg.norm(Delta, 2)))), margin


def sweep_terminal_weights(T, dims, rho, Phat, AK, alphas, tol=1e-9):
    """Terminal-weight selection by rebuilding the cost for every candidate.

    Phat is moved to the original ordering, cut into its per-subsystem
    diagonal blocks and divided by the priorities; for each alpha in turn
    the regrouped weight of alpha times those blocks is formed with dense
    products and checked with `prop1_check`.  Returns (P list, alpha,
    margin) of the first candidate that passes, or None.
    """
    dims = np.asarray(dims)
    rows = np.concatenate(([0], np.cumsum(dims.sum(axis=1))))
    P_orig = _sym(T @ Phat @ T.T)
    base = [_sym(P_orig[rows[i] : rows[i + 1], rows[i] : rows[i + 1]] / rho[i]) for i in range(len(rho))]
    bar_dims = dims.sum(axis=0)
    for alpha in alphas:
        P_list = [alpha * Pi for Pi in base]
        Pbar, _ = dense_regroup(T, bar_dims, P_list, rho)
        holds, margin = prop1_check(Pbar, Phat, AK, tol)
        if holds:
            return P_list, alpha, margin
    return None
