"""Terminal ingredient synthesis and stability certification.

Designs per-group terminal controllers, solves the closed-loop Lyapunov
equation for the ideal centralized terminal weight, certifies the decrease
condition that the block-diagonal terminal weights must satisfy, and scales
candidate weights until the certificate holds.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import LinAlgError, block_diag
from scipy.linalg import solve_discrete_lyapunov as scipy_lyapunov

from .errors import (
    DimensionMismatch,
    NotSchur,
    NotStabilized,
    RiccatiDiverged,
    SelectionFailed,
    SingularSystem,
)
from .linalg import (
    block_slices,
    check_pd,
    min_eigenvalue,
    require_square,
    spectral_norm,
    spectral_radius,
    symmetrize,
)
from .plant import CostSpec, regroup_weight, transform_cost

# Residual bound of the Lyapunov and Riccati solutions, relative to 1 + max|P|.
RESIDUAL_TOL = 1e-8
# Doubling steps of the Riccati solve: stop once H moves by at most
# RICCATI_STEP_TOL relative; no convergence in RICCATI_MAX_STEPS diverges.
RICCATI_STEP_TOL = 1e-14
RICCATI_MAX_STEPS = 64
CERT_TOL = 1e-9
# Scaling sweep for the terminal weight selection: 1, 1.5, 2, 3, 5, 10, ...
ALPHA_MANTISSAS = (1.0, 1.5, 2.0, 3.0, 5.0)
ALPHA_MAX = 1e6


def solve_discrete_lyapunov(F, W):
    """Solve F^T P F + W = P for symmetric P.

    F must be Schur stable.  The equation is solved by
    scipy.linalg.solve_discrete_lyapunov (a direct solve for n < 10, the
    bilinear transformation to a continuous Lyapunov equation above); the
    residual is checked against 1e-8 * (1 + max-norm of P).
    """
    F = require_square(F, "F")
    W = symmetrize(require_square(W, "W"))
    if W.shape != F.shape:
        raise DimensionMismatch("F and W must have the same shape")
    if spectral_radius(F) >= 1.0 - 1e-10:
        raise NotSchur("spectral radius %.6f is not below one" % spectral_radius(F))
    try:
        P = symmetrize(scipy_lyapunov(F.T, W))
    except LinAlgError as exc:
        raise SingularSystem("Lyapunov equation is singular") from exc
    resid = np.max(np.abs(F.T @ P @ F + W - P))
    bound = RESIDUAL_TOL * (1.0 + np.max(np.abs(P)))
    if resid > bound:
        raise SingularSystem(
            "Lyapunov residual %.3e exceeds %.3e; system too ill conditioned" % (resid, bound)
        )
    return P


def _lqr_system(A, B, Q, R):
    """(A, B, Q, R) as float arrays of matching shapes, or DimensionMismatch."""
    A = require_square(A, "A")
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    if B.shape[0] != A.shape[0]:
        raise DimensionMismatch("A and B row counts differ")
    Q = symmetrize(Q)
    R = symmetrize(np.atleast_2d(R))
    if Q.shape != A.shape or R.shape != (B.shape[1], B.shape[1]):
        raise DimensionMismatch("weight shapes do not match the system")
    return A, B, Q, R


def lqr_gains(systems):
    """Infinite-horizon LQR gains of several systems from one batched Riccati solve.

    `systems` is a sequence of (A, B, Q, R).  Returns one (K, P) per
    system, with u = K x and K = -(R + B^T P B)^-1 B^T P A, where P is the
    stabilizing solution of the discrete algebraic Riccati equation.

    All equations are solved at once by the structure-preserving doubling
    algorithm, which converges to the stabilizing solution for stabilizable
    and detectable pairs (Lin & Xu, SIAM J. Matrix Anal. Appl. 28, 2006).
    From A_0 = A, G_0 = B R^-1 B^T and H_0 = Q, with
    W_k = I + G_k H_k,

        A_k+1 = A_k W_k^-1 A_k
        G_k+1 = G_k + A_k W_k^-1 G_k A_k^T
        H_k+1 = H_k + A_k^T H_k W_k^-1 A_k

    and H_k converges quadratically to P.  The stacks are padded to the
    largest state and input counts: a padded state has A = 0, B = 0 and
    Q = I, a padded input R = I, so padding decouples exactly and each
    doubling step is a few batched solves and products whatever the number
    of systems.  The iteration stops once no system's H moves by more than
    RICCATI_STEP_TOL relative.

    Non-finite iterates, a singular solve or no convergence within
    RICCATI_MAX_STEPS steps raise RiccatiDiverged, as does a Riccati
    residual above RESIDUAL_TOL * (1 + max-norm of P) for any system; a
    closed loop A + B K with spectral radius not below one raises
    NotStabilized.  Q and R should be positive definite: from H_0 = 0 the
    iteration stays at P = 0.
    """
    systems = [_lqr_system(*system) for system in systems]
    if not systems:
        return []
    L = len(systems)
    n = max(A.shape[0] for A, _, _, _ in systems)
    m = max(B.shape[1] for _, B, _, _ in systems)
    A = np.zeros((L, n, n))
    B = np.zeros((L, n, m))
    Q = np.tile(np.eye(n), (L, 1, 1))
    R = np.tile(np.eye(m), (L, 1, 1))
    for k, (Ak, Bk, Qk, Rk) in enumerate(systems):
        nk, mk = Bk.shape
        A[k, :nk, :nk] = Ak
        B[k, :nk, :mk] = Bk
        Q[k, :nk, :nk] = Qk
        R[k, :mk, :mk] = Rk
    Bt = B.transpose(0, 2, 1)
    converged = np.zeros(L, dtype=bool)
    try:
        with np.errstate(over="raise", invalid="raise"):
            Ak, G, H = A, B @ np.linalg.solve(R, Bt), Q
            for _ in range(RICCATI_MAX_STEPS):
                X = np.linalg.solve(np.eye(n) + G @ H, np.concatenate((Ak, G), axis=2))
                WA, WG = X[..., :n], X[..., n:]
                AkT = Ak.transpose(0, 2, 1)
                dH = AkT @ H @ WA
                G = G + Ak @ WG @ AkT
                H = H + dH
                Ak = Ak @ WA
                G = 0.5 * (G + G.transpose(0, 2, 1))
                H = 0.5 * (H + H.transpose(0, 2, 1))
                converged = np.max(np.abs(dH), axis=(1, 2)) <= RICCATI_STEP_TOL * np.max(np.abs(H), axis=(1, 2))
                if converged.all():
                    break
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise RiccatiDiverged(
            "Riccati doubling broke down (%s) before systems %s converged" % (exc, _unset(converged))
        ) from exc
    if not converged.all():
        raise RiccatiDiverged(
            "Riccati doubling: systems %s did not converge in %d steps" % (_unset(converged), RICCATI_MAX_STEPS)
        )
    P = H
    BtP = Bt @ P
    K = -np.linalg.solve(R + BtP @ B, BtP @ A)
    AK = A + B @ K
    resid = np.max(np.abs(A.transpose(0, 2, 1) @ P @ AK + Q - P), axis=(1, 2))
    bound = RESIDUAL_TOL * (1.0 + np.max(np.abs(P), axis=(1, 2)))
    radius = np.max(np.abs(np.linalg.eigvals(AK)), axis=1)
    out = []
    for k, (_, Bk, _, _) in enumerate(systems):
        if not resid[k] <= bound[k]:
            raise RiccatiDiverged(
                "system %d: Riccati residual %.3e exceeds %.3e; no stabilizing solution" % (k, resid[k], bound[k])
            )
        if not radius[k] < 1.0:
            raise NotStabilized("system %d: closed loop spectral radius %.6f" % (k, radius[k]))
        nk, mk = Bk.shape
        out.append((K[k, :mk, :nk].copy(), P[k, :nk, :nk].copy()))
    return out


def _unset(flags):
    return [int(k) for k in np.flatnonzero(~flags)]


def lqr_gain(A, B, Q, R):
    """Infinite-horizon LQR gain of one system: `lqr_gains` on [(A, B, Q, R)].

    Returns (K, P) with u = K x and K = -(R + B^T P B)^-1 B^T P A, where P
    is the stabilizing solution of the discrete algebraic Riccati equation.
    """
    return lqr_gains([(A, B, Q, R)])[0]


@dataclass
class BallCertificate:
    """Invariance and input admissibility of a ball terminal set."""

    radius: float
    sigma_max: float
    ball_invariant: bool
    input_margin: float
    input_admissible: bool


def verify_ball_terminal(AK, K, radius, u_max, tol=1e-10):
    """Certify a Euclidean ball of given radius as a terminal set.

    The ball is invariant under xbar+ = AK xbar iff the largest singular
    value of AK is at most one.  The terminal controller is admissible if
    every gain row satisfies ||row||_2 * radius <= u_max for its channel.
    """
    AK = np.asarray(AK, dtype=float)
    K = np.atleast_2d(np.asarray(K, dtype=float))
    u_max = np.broadcast_to(np.asarray(u_max, dtype=float).reshape(-1), (K.shape[0],))
    sigma = float(np.linalg.norm(AK, 2))
    row_norms = np.linalg.norm(K, axis=1)
    margins = u_max - row_norms * float(radius)
    return BallCertificate(
        radius=float(radius),
        sigma_max=sigma,
        ball_invariant=bool(sigma <= 1.0 + tol),
        input_margin=float(np.min(margins)),
        input_admissible=bool(np.all(margins >= -tol)),
    )


@dataclass
class CertCheck:
    holds: bool
    margin: float


def check_prop1(Pbar, Phat, AK_global, tol=CERT_TOL):
    """Global decrease certificate for the block terminal weight.

    With Delta = Pbar - Phat, requires Delta - AK^T Delta AK to be
    positive semidefinite up to tol * (1 + ||Delta||_2).
    """
    Pbar = require_square(Pbar, "Pbar")
    Phat = require_square(Phat, "Phat")
    AK_global = require_square(AK_global, "AK_global")
    if Pbar.shape != Phat.shape or Pbar.shape != AK_global.shape:
        raise DimensionMismatch("Pbar, Phat and AK_global must share one shape")
    Delta = symmetrize(Pbar - Phat)
    S = symmetrize(Delta - AK_global.T @ Delta @ AK_global)
    margin = min_eigenvalue(S)
    holds = margin >= -tol * (1.0 + spectral_norm(Delta))
    return CertCheck(holds=bool(holds), margin=margin)


def check_prop2_blocks(Pbar, Phat, AK_list, bar_dims, tol=CERT_TOL):
    """Per-group decrease certificates on the diagonal blocks of Delta."""
    Delta = symmetrize(np.asarray(Pbar, dtype=float) - np.asarray(Phat, dtype=float))
    out = []
    for AKi, s in zip(AK_list, block_slices(bar_dims)):
        Dii = Delta[s, s]
        Si = symmetrize(Dii - AKi.T @ Dii @ AKi)
        margin = min_eigenvalue(Si)
        holds = margin >= -tol * (1.0 + spectral_norm(Dii))
        out.append(CertCheck(holds=bool(holds), margin=margin))
    return out


def check_corollary_dd(Pbar, Phat, AK_global):
    """Entrywise diagonal dominance test on S = Delta - AK^T Delta AK.

    A nonnegative diagonal with each diagonal entry dominating the sum of
    absolute off-diagonal entries in its row is sufficient for the global
    decrease certificate.
    """
    Delta = symmetrize(np.asarray(Pbar, dtype=float) - np.asarray(Phat, dtype=float))
    AK = np.asarray(AK_global, dtype=float)
    S = symmetrize(Delta - AK.T @ Delta @ AK)
    diag = np.diag(S)
    off = np.sum(np.abs(S), axis=1) - np.abs(diag)
    slack = diag - off
    holds = bool(np.all(diag >= 0.0) and np.all(slack >= 0.0))
    return holds, float(np.min(slack))


@dataclass(eq=False)
class TerminalIngredients:
    """Everything the controllers need about the terminal sets.

    K[i] and AK[i] are the per-group terminal gain and closed loop,
    Phat the centralized Lyapunov weight, prop1 / prop2 / dd_holds the
    certificates for the selected terminal weights, and alpha the scaling
    applied during automatic selection (None for user-provided weights).
    """

    K: tuple
    AK: tuple
    Phat: np.ndarray
    ball_radius: tuple
    prop1: CertCheck
    prop2: tuple
    dd_holds: bool
    dd_slack: float
    ball_certs: tuple
    alpha: float
    lyapunov_residual: float

    def certified(self):
        """True when the global decrease certificate holds.

        Ball invariance and input admissibility are reported in
        `ball_certs` but deliberately kept out of this gate: a rank-one
        feedback correction cannot push the closed-loop spectral norm
        below the plant's second singular value, so a group whose
        open-loop block has two singular values above one can never pass
        the ball check, no matter the gain.  The decrease certificate is
        the load-bearing stability condition.
        """
        return bool(self.prop1.holds)


def candidate_alphas(alpha_max=ALPHA_MAX):
    """The scaling sweep 1, 1.5, 2, 3, 5, 10, 15, ... up to alpha_max.

    alpha_max must be finite and at least 1; anything else raises
    SelectionFailed.
    """
    limit = float(alpha_max)
    if not (math.isfinite(limit) and limit >= 1.0):
        raise SelectionFailed("alpha_max must be a finite number >= 1, got %r" % (alpha_max,))
    out = []
    scale = 1.0
    while scale <= limit:
        for m in ALPHA_MANTISSAS:
            a = m * scale
            if a <= limit:
                out.append(a)
        scale *= 10.0
    if out[-1] < limit:
        out.append(limit)
    return out


def select_terminal_weights(cost, tplant, Phat, AK_global, alpha_max=ALPHA_MAX):
    """Pick block terminal weights that satisfy the decrease certificate.

    The centralized weight Phat is mapped back to the original ordering,
    truncated to its per-subsystem diagonal blocks, and divided by the
    priorities to give base weights P_i^0.  The candidates alpha * P_i^0
    are swept over an increasing grid until the global decrease check
    passes.

    The certificate is linear in alpha: with Pbar1 the regrouped weight of
    the base weights, S1 = Pbar1 - AK^T Pbar1 AK and Shat = Phat - AK^T
    Phat AK, candidate alpha passes when alpha S1 - Shat is positive
    semidefinite up to CERT_TOL * (1 + ||alpha Pbar1 - Phat||_2), the
    tolerance of check_prop1.  S1 and Shat are formed once, so no
    candidate rebuilds the cost.  Returns (P list, alpha, certificate);
    the certificate is this linear form's, and `synthesize` recomputes
    check_prop1 on the selected weights.
    """
    alphas = candidate_alphas(alpha_max)
    pmap = tplant.map
    base = []
    for i, rho in enumerate(cost.rho):
        base.append(symmetrize(symmetrize(pmap.subsystem_block(Phat, i)) / rho))
        check_pd(base[i], "P[%d]" % i)
    AK = require_square(AK_global, "AK_global")
    Pbar1 = symmetrize(pmap.regroup_blocks([r * Pi for r, Pi in zip(cost.rho, base)]))
    S1 = Pbar1 - AK.T @ Pbar1 @ AK
    Shat = Phat - AK.T @ Phat @ AK
    for alpha in alphas:
        margin = min_eigenvalue(alpha * S1 - Shat)
        if margin >= -CERT_TOL * (1.0 + spectral_norm(alpha * Pbar1 - Phat)):
            P_list = tuple(alpha * Pi for Pi in base)
            return P_list, alpha, CertCheck(holds=True, margin=margin)
    raise SelectionFailed("no scaling up to %.1e satisfied the decrease certificate" % alpha_max)


def synthesize(tplant, cost, lqr_Q, lqr_R, radii, u_max, gains=None):
    """Design terminal controllers and certified terminal weights.

    Parameters
    ----------
    tplant : TransformedPlant
    cost : CostSpec
        Terminal weights may be absent; they are then selected
        automatically and the returned cost carries them.
    lqr_Q, lqr_R : sequences of arrays
        Per-group LQR design weights.
    radii : sequence of float
        Terminal ball radius per group.
    u_max : sequence of arrays
        Symmetric per-channel input bound of each agent.
    gains : sequence of arrays, optional
        Explicit terminal gains; None entries (or no sequence) are designed
        together in one `lqr_gains` call.

    Returns
    -------
    (TerminalIngredients, CostSpec, TransformedCost)
    """
    pmap = tplant.map
    M = tplant.M
    if len(radii) != M or len(u_max) != M:
        raise DimensionMismatch("need one radius and one input bound per agent")
    K = list(gains) if gains is not None else [None] * M
    design = [i for i in range(M) if K[i] is None]
    for i, (Ki, _) in zip(design, lqr_gains([(tplant.Abar[i], tplant.Btilde[i], lqr_Q[i], lqr_R[i]) for i in design])):
        K[i] = Ki
    K = [np.atleast_2d(np.asarray(Ki, dtype=float)) for Ki in K]
    AK = [Abar + Bt @ Ki for Abar, Bt, Ki in zip(tplant.Abar, tplant.Btilde, K)]
    AKg = block_diag(*AK)
    Kg = block_diag(*K)
    tc0 = transform_cost(cost, pmap)
    W = symmetrize(tc0.Qbar + Kg.T @ tc0.Rglobal @ Kg)
    Phat = solve_discrete_lyapunov(AKg, W)
    resid = float(np.max(np.abs(AKg.T @ Phat @ AKg + W - Phat)))
    if cost.P is None:
        P_list, alpha, _ = select_terminal_weights(cost, tplant, Phat, AKg)
        final = CostSpec(Q=cost.Q, R=cost.R, rho=cost.rho, N=cost.N, P=P_list)
        Pbar, Pa, Ptilde = regroup_weight(final.P, final.rho, pmap, "P")
        tcost = replace(tc0, Pbar=Pbar, Pa=Pa, Ptilde=Ptilde)
    else:
        final = cost
        alpha = None
        tcost = tc0
    prop1 = check_prop1(tcost.Pbar, Phat, AKg)
    prop2 = tuple(check_prop2_blocks(tcost.Pbar, Phat, AK, pmap.bar_dims))
    dd_holds, dd_slack = check_corollary_dd(tcost.Pbar, Phat, AKg)
    certs = tuple(
        verify_ball_terminal(AK[i], K[i], radii[i], u_max[i]) for i in range(M)
    )
    ingredients = TerminalIngredients(
        K=tuple(K),
        AK=tuple(AK),
        Phat=Phat,
        ball_radius=tuple(float(r) for r in radii),
        prop1=prop1,
        prop2=prop2,
        dd_holds=dd_holds,
        dd_slack=dd_slack,
        ball_certs=certs,
        alpha=alpha,
        lyapunov_residual=resid,
    )
    return ingredients, final, tcost
