"""Block-structured plant assembly and the orthogonal regrouping transform.

Data layout
-----------
A network of M agents is described by per-pair blocks.  State block x_ij
(dimension n_ij) belongs to subsystem i and is driven only by the input of
agent j:

    x_ij(t+1) = A_ij x_ij(t) + B_ij u_j(t)

Two orderings of the global state are used:

original
    x = [x_11, x_12, ..., x_1M, x_21, ..., x_MM], subsystem-major.  The
    composite A is block diagonal in this ordering and each global input
    matrix B_i is scattered across the subsystems.

regrouped
    xbar = [x_11, x_21, ..., x_M1, x_12, ...], input-major.  All blocks
    driven by agent i are contiguous; group i has dynamics

        xbar_i(t+1) = Abar_i xbar_i(t) + Btilde_i u_i(t)

    with Abar_i = diag(A_1i, ..., A_Mi) and Btilde_i = [B_1i; ...; B_Mi].

The orderings are linked by the permutation x = T xbar.  T is orthogonal
(T^T T = I), so the inverse transform is the transpose.  T is 0/1, so both
transforms are applied as index permutations (xbar = x[perm]), which give
the dense products exactly.  Zero-dimensional blocks (n_ij = 0) are
permitted and simply skipped.

Cost weights follow the same conventions: per-subsystem weights Q_i / P_i
(over [x_i1, ..., x_iM]) with scalar priorities rho_i combine into global
matrices that the same permutation maps into the regrouped ordering.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag

from .errors import DimensionMismatch, StructureViolation
from .linalg import block_slices, check_pd, check_psd, symmetrize


def _as_dims(dims):
    dims = np.asarray(dims, dtype=int)
    if dims.ndim != 2 or dims.shape[0] != dims.shape[1]:
        raise DimensionMismatch("dims table must be square, got shape %r" % (dims.shape,))
    if np.any(dims < 0):
        raise DimensionMismatch("dims entries must be nonnegative")
    return dims


@dataclass(eq=False)
class SubsystemBlocks:
    """Pairwise block description of the networked plant.

    Parameters
    ----------
    dims : (M, M) int array
        dims[i, j] = n_ij, the dimension of state block x_ij.
    A : nested list of arrays
        A[i][j] is the (n_ij, n_ij) block dynamic matrix.
    B : nested list of arrays
        B[i][j] is the (n_ij, m_j) input matrix of agent j on block x_ij.
    m : sequence of int
        Input dimension of each agent.
    """

    dims: np.ndarray
    A: list
    B: list
    m: tuple

    def __post_init__(self):
        self.dims = _as_dims(self.dims)
        M = self.dims.shape[0]
        self.m = tuple(int(v) for v in self.m)
        if len(self.m) != M or any(v < 1 for v in self.m):
            raise DimensionMismatch("need one positive input dimension per agent")
        if len(self.A) != M or len(self.B) != M:
            raise DimensionMismatch("A and B must have one row of blocks per subsystem")
        A = []
        B = []
        for i in range(M):
            if len(self.A[i]) != M or len(self.B[i]) != M:
                raise DimensionMismatch("block row %d must have %d entries" % (i, M))
            Ai = []
            Bi = []
            for j in range(M):
                nij = int(self.dims[i, j])
                Aij = np.asarray(self.A[i][j], dtype=float).reshape(nij, nij) if nij else np.zeros((0, 0))
                Bij = np.asarray(self.B[i][j], dtype=float)
                if nij:
                    if Bij.ndim == 1:
                        Bij = Bij.reshape(nij, -1)
                    if Bij.shape != (nij, self.m[j]):
                        raise DimensionMismatch(
                            "B[%d][%d] must have shape (%d, %d), got %r"
                            % (i, j, nij, self.m[j], Bij.shape)
                        )
                else:
                    Bij = np.zeros((0, self.m[j]))
                Ai.append(Aij)
                Bi.append(Bij)
            A.append(Ai)
            B.append(Bi)
        self.A = A
        self.B = B

    @property
    def M(self):
        return self.dims.shape[0]

    @property
    def n(self):
        return int(self.dims.sum())


@dataclass(eq=False)
class CompositePlant:
    """Assembled plant in the original subsystem-major ordering."""

    A: np.ndarray
    B: list
    dims: np.ndarray
    m: tuple

    @property
    def n(self):
        return self.A.shape[0]


@dataclass(eq=False)
class PermutationMap:
    """Orthogonal permutation x = T xbar between the two orderings.

    perm is the index form of T (T[perm[k], k] = 1, so T^T x = x[perm]).
    T, the group sizes bar_dims (the column sums of the dims table), the
    group slices and the regrouped positions of each subsystem's states
    are derived from it once, on construction.
    """

    perm: np.ndarray
    dims: np.ndarray
    T: np.ndarray = field(init=False, repr=False)
    bar_dims: tuple = field(init=False)
    _slices: tuple = field(init=False, repr=False)
    _subsystem_index: tuple = field(init=False, repr=False)

    def __post_init__(self):
        n = self.perm.size
        self.T = np.eye(n)[:, self.perm]
        self.bar_dims = tuple(int(v) for v in self.dims.sum(axis=0))
        self._slices = tuple(block_slices(self.bar_dims))
        # where[p] = regrouped position of original state p
        where = np.empty(n, dtype=int)
        where[self.perm] = np.arange(n)
        self._subsystem_index = tuple(where[s] for s in block_slices(self.dims.sum(axis=1)))

    @property
    def n(self):
        return self.T.shape[0]

    def group_slices(self):
        return self._slices

    def to_regrouped(self, x):
        """Map a vector (or the rows of a matrix) from the original to the
        regrouped ordering: T^T x."""
        return self._rows(x)[self.perm]

    def to_original(self, xbar):
        """Map a vector (or the rows of a matrix) back: T xbar."""
        xbar = self._rows(xbar)
        out = np.empty_like(xbar)
        out[self.perm] = xbar
        return out

    def to_regrouped_matrix(self, X):
        """Congruence T^T X T of an n x n matrix in the original ordering."""
        return self._rows(X, square=True)[np.ix_(self.perm, self.perm)]

    def regroup_blocks(self, blocks, name="block"):
        """T^T blkdiag(blocks) T, with blocks[i] the weight of subsystem i
        over [x_i1, ..., x_iM], scattered to its regrouped positions."""
        if len(blocks) != len(self._subsystem_index):
            raise DimensionMismatch("need one %s per subsystem" % name)
        out = np.zeros((self.n, self.n))
        for i, (idx, X) in enumerate(zip(self._subsystem_index, blocks)):
            if np.shape(X) != (idx.size, idx.size):
                raise DimensionMismatch(
                    "%s[%d] must be %dx%d for this dims table" % (name, i, idx.size, idx.size)
                )
            out[np.ix_(idx, idx)] = X
        return out

    def subsystem_block(self, Xbar, i):
        """Block i of T Xbar T^T: the rows and columns of subsystem i's
        states, in the original order, of an n x n regrouped matrix."""
        idx = self._subsystem_index[i]
        return self._rows(Xbar, square=True)[np.ix_(idx, idx)]

    def _rows(self, X, square=False):
        X = np.asarray(X, dtype=float)
        n = self.n
        if X.ndim == 0 or X.shape[0] != n or (square and X.shape != (n, n)):
            raise DimensionMismatch(
                "expected %s with %d rows, got shape %r"
                % ("a square matrix" if square else "an array", n, X.shape)
            )
        return X


@dataclass(eq=False)
class TransformedPlant:
    """Per-group dynamics in the regrouped ordering."""

    Abar: tuple
    Btilde: tuple
    map: PermutationMap

    @property
    def M(self):
        return len(self.Abar)


@dataclass(eq=False)
class CostSpec:
    """Stage and terminal weights of the cooperative objective.

    Q[i] is the per-subsystem state weight over [x_i1, ..., x_iM]
    (positive semidefinite), R[i] the input weight of agent i (positive
    definite), P[i] the optional terminal weight (positive definite),
    rho[i] > 0 the relative priority, and N >= 1 the horizon.  Matrices
    are symmetrized on ingestion.
    """

    Q: tuple
    R: tuple
    rho: tuple
    N: int
    P: tuple = None

    def __post_init__(self):
        self.Q = tuple(symmetrize(Qi) for Qi in self.Q)
        self.R = tuple(symmetrize(np.atleast_2d(Ri)) for Ri in self.R)
        self.rho = tuple(float(r) for r in self.rho)
        if self.P is not None:
            self.P = tuple(symmetrize(Pi) for Pi in self.P)
        M = len(self.Q)
        if len(self.R) != M or len(self.rho) != M or (self.P is not None and len(self.P) != M):
            raise DimensionMismatch("Q, R, rho (and P if given) must all have length M")
        self.N = int(self.N)
        if self.N < 1:
            raise DimensionMismatch("horizon N must be >= 1")
        if any(r <= 0 for r in self.rho):
            raise DimensionMismatch("priorities rho must be positive")
        for i, Qi in enumerate(self.Q):
            check_psd(Qi, "Q[%d]" % i)
        for i, Ri in enumerate(self.R):
            check_pd(Ri, "R[%d]" % i)
        if self.P is not None:
            for i, Pi in enumerate(self.P):
                check_pd(Pi, "P[%d]" % i)

    @property
    def M(self):
        return len(self.Q)


@dataclass(eq=False)
class TransformedCost:
    """Global weights in the regrouped ordering plus their split.

    Qbar / Pbar are the full weights, Qa / Pa keep only the group-diagonal
    blocks, and Qtilde / Ptilde = full minus diagonal are the coupling
    residuals (zero group-diagonal blocks, in general indefinite).
    Rglobal stacks the scaled input weights rho_i R_i; Rlocal keeps them
    per agent.
    """

    Qbar: np.ndarray
    Pbar: np.ndarray
    Rglobal: np.ndarray
    Qa: np.ndarray
    Pa: np.ndarray
    Qtilde: np.ndarray
    Ptilde: np.ndarray
    Rlocal: tuple


def build_permutation(dims):
    """Construct the regrouping permutation for a dims table.

    Every column group must be nonempty: each agent has to drive at least
    one state block.  perm visits the pair blocks agent-major and lists
    each block's original positions.
    """
    dims = _as_dims(dims)
    M = dims.shape[0]
    if np.any(dims.sum(axis=0) < 1):
        raise DimensionMismatch("every column group needs at least one positive n_ij")
    start = _original_offsets(dims)
    perm = np.concatenate(
        [np.arange(start[i, j], start[i, j] + dims[i, j]) for j in range(M) for i in range(M)]
    )
    return PermutationMap(perm=perm, dims=dims)


def _original_offsets(dims):
    """offset[i, j] = start of x_ij in the subsystem-major ordering."""
    flat = dims.ravel()
    return (np.cumsum(flat) - flat).reshape(dims.shape)


def build_composite(blocks):
    """Assemble the global (A, B_1..B_M) in the original ordering."""
    dims = blocks.dims
    M = blocks.M
    n = blocks.n
    off = _original_offsets(dims)
    A = np.zeros((n, n))
    B = [np.zeros((n, mi)) for mi in blocks.m]
    for i in range(M):
        for j in range(M):
            nij = int(dims[i, j])
            if nij == 0:
                continue
            r = off[i, j]
            A[r : r + nij, r : r + nij] = blocks.A[i][j]
            B[j][r : r + nij, :] = blocks.B[i][j]
    return CompositePlant(A=A, B=B, dims=dims, m=blocks.m)


def transform_plant(plant, pmap):
    """Map the composite plant into the regrouped ordering.

    Returns the per-group pairs (Abar_i, Btilde_i).  The permutation only
    reorders entries, so the block-diagonal structure of the result is
    checked exactly, not up to a tolerance.
    """
    if not np.array_equal(plant.dims, pmap.dims):
        raise DimensionMismatch("plant and permutation were built from different dims tables")
    Ab = pmap.to_regrouped_matrix(plant.A)
    slices = pmap.group_slices()
    M = len(slices)
    off_mask = np.ones_like(Ab, dtype=bool)
    for s in slices:
        off_mask[s, s] = False
    if np.any(Ab[off_mask] != 0.0):
        raise StructureViolation("regrouped A has coupling outside the group diagonal")
    Abar = tuple(Ab[s, s].copy() for s in slices)
    Btilde = []
    for i in range(M):
        Bi = pmap.to_regrouped(plant.B[i])
        outside = np.ones(Bi.shape[0], dtype=bool)
        outside[slices[i]] = False
        if np.any(Bi[outside, :] != 0.0):
            raise StructureViolation("input %d reaches states outside its group" % i)
        Btilde.append(Bi[slices[i], :].copy())
    return TransformedPlant(Abar=Abar, Btilde=tuple(Btilde), map=pmap)


def transform_cost(cost, pmap):
    """Map the per-subsystem weights into the regrouped ordering.

    The global stage weight diag(rho_i Q_i) is congruence-transformed by
    the permutation, then split into the group-diagonal part Qa and the
    coupling residual Qtilde = Qbar - Qa (same for the terminal weight
    when present).
    """
    Qbar, Qa, Qtilde = regroup_weight(cost.Q, cost.rho, pmap, "Q")
    if cost.P is not None:
        Pbar, Pa, Ptilde = regroup_weight(cost.P, cost.rho, pmap, "P")
    else:
        Pbar = Pa = Ptilde = None
    Rlocal = tuple(r * Ri for r, Ri in zip(cost.rho, cost.R))
    Rglobal = block_diag(*Rlocal)
    return TransformedCost(
        Qbar=Qbar,
        Pbar=Pbar,
        Rglobal=Rglobal,
        Qa=Qa,
        Pa=Pa,
        Qtilde=Qtilde,
        Ptilde=Ptilde,
        Rlocal=Rlocal,
    )


def regroup_weight(weights, rho, pmap, name):
    """(Xbar, Xa, Xtilde) of per-subsystem weights scaled by rho.

    Xbar = sym(T^T diag(rho_i W_i) T), Xa its group-diagonal blocks and
    Xtilde = Xbar - Xa the coupling residual.
    """
    Xbar = symmetrize(pmap.regroup_blocks([r * W for r, W in zip(rho, weights)], name))
    Xa = np.zeros_like(Xbar)
    for s in pmap.group_slices():
        Xa[s, s] = Xbar[s, s]
    return Xbar, Xa, Xbar - Xa


def subsystem_partition(matrix, sizes, j, l):
    """Block (j, l) of a per-subsystem matrix partitioned by `sizes`."""
    sl = block_slices(sizes)
    return np.asarray(matrix)[sl[j], sl[l]]
