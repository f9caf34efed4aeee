"""Shared builders for the test suite: random instances and the benchmark state pair."""

import numpy as np

from coopmpc import (
    CostSpec,
    Problem,
    SolverOptions,
    SubsystemBlocks,
    build_composite,
    build_permutation,
    solve_qp,
    synthesize,
    transform_plant,
)
from coopmpc.qp import _multiplier_search, ball_margins

# The two benchmark initial states shipped with the example configuration
# (original subsystem-major ordering, 18 entries each).
X0_EXP1 = np.array(
    [-10.0, -4, 9, 7, 8, 5, -8, -5, 7, 3, 3, 6, -5, -6, 8, -9, 8, 3]
)
X0_EXP2 = np.array(
    [10.0, 10, 8, 6, -6, 6, 10, 2, 3, 5, 3, 6, 6, -4, 4, 2, 2, 3]
)


def random_dims(rng, M_max=5, n_max=3, nonempty_rows=False):
    """Random block-size table with every column group driven."""
    M = int(rng.integers(1, M_max + 1))
    dims = rng.integers(0, n_max + 1, size=(M, M))
    for j in range(M):
        if dims[:, j].sum() == 0:
            dims[int(rng.integers(0, M)), j] = int(rng.integers(1, n_max + 1))
    if nonempty_rows:
        for i in range(M):
            if dims[i, :].sum() == 0:
                dims[i, int(rng.integers(0, M))] = int(rng.integers(1, n_max + 1))
    return dims


def random_spd(rng, n, base=(0.8, 1.6), eps=0.05):
    """SPD matrix: dominant random diagonal plus off-diagonal mass eps."""
    D = np.diag(rng.uniform(base[0], base[1], size=n))
    C = rng.normal(size=(n, n))
    X = D + eps * 0.5 * (C + C.T)
    lam = np.linalg.eigvalsh(X)[0]
    if lam < 0.05:
        X += (0.05 - lam) * np.eye(n)
    return X


def scaled_block(rng, n, norm):
    """Random n x n block rescaled to the given spectral norm."""
    if n == 0:
        return np.zeros((0, 0))
    X = rng.normal(size=(n, n))
    s = np.linalg.norm(X, 2)
    return X * (norm / s) if s > 0 else X


def assemble(blocks, cost, lqr_Q, lqr_R, radii, u_max, solver=None):
    """Build, transform and synthesize a Problem from raw pieces."""
    plant = build_composite(blocks)
    pmap = build_permutation(blocks.dims)
    tplant = transform_plant(plant, pmap)
    ingredients, final_cost, tcost = synthesize(
        tplant, cost, lqr_Q, lqr_R, radii, u_max
    )
    return Problem(
        pmap=pmap,
        tplant=tplant,
        cost=final_cost,
        tcost=tcost,
        ingredients=ingredients,
        u_max=u_max,
        N=cost.N,
        solver=solver or SolverOptions(),
    )


def random_certified_problem(rng, N=None, solver=None):
    """Small two-agent instance whose terminal-weight selection succeeds.

    Mild scales on purpose: contractive dynamics blocks, near-balanced
    priorities and gentle terminal-controller design weights keep the
    scaling sweep inside its certificate region.
    """
    M = 2
    dims = rng.integers(1, 3, size=(M, M))
    row_sizes = [int(dims[i, :].sum()) for i in range(M)]
    A = [
        [scaled_block(rng, int(dims[i, j]), 0.45) for j in range(M)]
        for i in range(M)
    ]
    B = [
        [rng.uniform(-1.0, 1.0, size=(int(dims[i, j]), 1)) for j in range(M)]
        for i in range(M)
    ]
    blocks = SubsystemBlocks(dims=dims, A=A, B=B, m=(1, 1))
    cost = CostSpec(
        Q=[random_spd(rng, row_sizes[i]) for i in range(M)],
        R=[[[float(rng.uniform(0.5, 1.5))]] for _ in range(M)],
        rho=rng.uniform(0.8, 1.25, size=M),
        N=int(N if N is not None else rng.integers(3, 6)),
    )
    pmap = build_permutation(dims)
    lqr_Q = [np.eye(pmap.bar_dims[i]) for i in range(M)]
    lqr_R = [[[50.0]] for _ in range(M)]
    return assemble(
        blocks,
        cost,
        lqr_Q,
        lqr_R,
        radii=[1.0, 1.0],
        u_max=[np.array([10.0]), np.array([10.0])],
        solver=solver,
    )


def ring_network_description(M, seed=8):
    """Description dict of an M-agent ring, the size class of the network8 benchmark.

    Subsystem i owns a 3-state block driven by agent i and a 1-state block
    driven by agent i + 1 (mod M), so every regrouped group spans two
    subsystems.  Contractive blocks keep the automatic terminal weights
    certifiable.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    dims = np.zeros((M, M), dtype=int)
    A = [[[] for _ in range(M)] for _ in range(M)]
    B = [[[] for _ in range(M)] for _ in range(M)]
    for i in range(M):
        for j, n, norm in ((i, 3, 0.9), ((i + 1) % M, 1, 0.3)):
            dims[i, j] = n
            A[i][j] = scaled_block(rng, n, norm).tolist()
            B[i][j] = rng.uniform(-1.0, 1.0, size=(n, 1)).tolist()
    return {
        "subsystems": {"dims": dims.tolist(), "A": A, "B": B},
        "cost": {"Q": [random_spd(rng, 4).tolist() for _ in range(M)], "R": [1.0] * M, "rho": [1.0] * M},
        "horizon": 8,
        "input_box": [2.0] * M,
        "lqr": {"Q": [1.0] * M, "R": [50.0] * M},
    }


def single_agent_problem(a=0.5, b=1.0, q=1.0, r=1.0, N=4):
    """Minimal one-agent instance; the regrouping is the identity."""
    blocks = SubsystemBlocks(
        dims=[[1]], A=[[[[a]]]], B=[[[[b]]]], m=(1,)
    )
    cost = CostSpec(Q=[[[q]]], R=[[[r]]], rho=[1.0], N=N)
    return assemble(
        blocks,
        cost,
        lqr_Q=[[[1.0]]],
        lqr_R=[[[1.0]]],
        radii=[1.0],
        u_max=[np.array([5.0])],
    )


def search_calls(qp, options=None):
    """Box QPs the multiplier search of `solve_qp(qp, options)` runs: a
    direct search with the solve's budget, which leaves one iteration of
    `max_iters` to the exact check and one to the certificate."""
    options = options or SolverOptions()
    return _multiplier_search(qp, options.max_iters - 2, options.eps_abs)[2]


def least_margin(qp):
    """The least ball margin of `ball_margins`, which a failed solve reports."""
    return min(margin for margin, _ in ball_margins(qp))


def noiter_verdicts(problem, xbar):
    """(solution, search calls, least margin) of every agent's local QP at
    xbar, solved with the problem's options."""
    out = []
    for i, s in enumerate(problem.group_slices()):
        qp = problem.agent_operators(i).condense(xbar[s])
        out.append((solve_qp(qp, options=problem.solver), search_calls(qp, problem.solver), least_margin(qp)))
    return out
