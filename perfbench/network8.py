"""Seeded generator of the `network8` problem description.

The network has M agents with one input each.  Every subsystem i owns a
state block x_ii driven by its own agent and, for a few neighbours j, a
block x_ij driven by agent j, so each agent's regrouped group spans
several subsystems and the cost couples the groups.  Diagonal dynamics
blocks are scaled to spectral norm 0.9 and off-diagonal ones to 0.3, which
keeps every group stable enough that the automatic terminal-weight
selection certifies.

The generator returns a plain description dict, the same shape as a
`.cfg` file, so the workload goes through `config_from_dict` and
`build_problem` like the shipped configuration.
"""

import numpy as np

M = 8
NETWORK_SEED = 2
OWN_DIM = 3
NEIGHBOURS = 3
HORIZON = 8
U_MAX = 2.0
LQR_R = 50.0


def _scaled(rng, n, norm):
    X = rng.normal(size=(n, n))
    return X * (norm / np.linalg.norm(X, 2))


def _spd(rng, n):
    """Diagonal-dominant SPD weight with mild off-diagonal coupling."""
    C = rng.normal(size=(n, n))
    X = np.diag(rng.uniform(0.8, 1.6, size=n)) + 0.05 * (C + C.T)
    lam = np.linalg.eigvalsh(X)[0]
    if lam < 0.05:
        X += (0.05 - lam) * np.eye(n)
    return X


def _tolist(X):
    return [[float(v) for v in row] for row in X]


def network_dims(seed=NETWORK_SEED):
    """M x M block-size table: OWN_DIM on the diagonal, 1 for neighbours."""
    rng = np.random.Generator(np.random.PCG64(seed))
    dims = np.zeros((M, M), dtype=int)
    for i in range(M):
        dims[i, i] = OWN_DIM
        others = [j for j in range(M) if j != i]
        for j in rng.choice(others, size=NEIGHBOURS, replace=False):
            dims[i, j] = 1
    return dims


def network_description(seed=NETWORK_SEED):
    """Problem-description dict of the generated network."""
    rng = np.random.Generator(np.random.PCG64(seed))
    dims = network_dims(seed)
    A = []
    B = []
    for i in range(M):
        A_row = []
        B_row = []
        for j in range(M):
            nij = int(dims[i, j])
            if nij == 0:
                A_row.append([])
                B_row.append([])
                continue
            A_row.append(_tolist(_scaled(rng, nij, 0.9 if i == j else 0.3)))
            B_row.append(_tolist(rng.uniform(-1.0, 1.0, size=(nij, 1))))
        A.append(A_row)
        B.append(B_row)
    row_sizes = dims.sum(axis=1)
    return {
        "subsystems": {"dims": dims.tolist(), "A": A, "B": B},
        "cost": {
            "Q": [_tolist(_spd(rng, int(r))) for r in row_sizes],
            "R": [1.0] * M,
            "rho": [float(v) for v in rng.uniform(0.8, 1.25, size=M)],
            "P": "auto",
        },
        "horizon": HORIZON,
        "input_box": [U_MAX] * M,
        "terminal_radius": [1.0] * M,
        "lqr": {"Q": [1.0] * M, "R": [LQR_R] * M},
    }


def network_x0(n, seed, bound):
    """Initial state in the original ordering, uniform in [-bound, bound]."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return -bound + 2.0 * bound * rng.random(n)
