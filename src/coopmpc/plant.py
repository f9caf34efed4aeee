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

    bar_dims[j] is the dimension of group j in the regrouped ordering,
    the column sums of the dims table.  perm is the index form of T
    (T[perm[k], k] = 1, so T^T x = x[perm]); it and the group slices are
    derived once, on construction.
    """

    T: np.ndarray
    dims: np.ndarray
    bar_dims: tuple
    perm: np.ndarray = field(init=False, repr=False)
    _slices: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.perm = np.argmax(self.T, axis=0)
        self._slices = tuple(block_slices(self.bar_dims))

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

    def to_original_matrix(self, Xbar):
        """Congruence T Xbar T^T of an n x n matrix in the regrouped ordering."""
        Xbar = self._rows(Xbar, square=True)
        out = np.empty_like(Xbar)
        out[np.ix_(self.perm, self.perm)] = Xbar
        return out

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
    bar_dims: tuple


def build_permutation(dims):
    """Construct the regrouping permutation for a dims table.

    Every column group must be nonempty: each agent has to drive at least
    one state block.
    """
    dims = _as_dims(dims)
    M = dims.shape[0]
    if np.any(dims.sum(axis=0) < 1):
        raise DimensionMismatch("every column group needs at least one positive n_ij")
    n = int(dims.sum())
    row_off = _original_offsets(dims)
    col_off = _regrouped_offsets(dims)
    T = np.zeros((n, n))
    for i in range(M):
        for j in range(M):
            nij = int(dims[i, j])
            if nij == 0:
                continue
            r = row_off[i][j]
            c = col_off[i][j]
            T[r : r + nij, c : c + nij] = np.eye(nij)
    bar_dims = tuple(int(v) for v in dims.sum(axis=0))
    return PermutationMap(T=T, dims=dims, bar_dims=bar_dims)


def _original_offsets(dims):
    """offset[i][j] = start of x_ij in the subsystem-major ordering."""
    M = dims.shape[0]
    out = []
    start = 0
    for i in range(M):
        row = []
        off = start
        for j in range(M):
            row.append(off)
            off += int(dims[i, j])
        out.append(row)
        start = off
    return out


def _regrouped_offsets(dims):
    """offset[i][j] = start of x_ij in the input-major ordering."""
    M = dims.shape[0]
    col_start = np.concatenate(([0], np.cumsum(dims.sum(axis=0))))
    out = [[0] * M for _ in range(M)]
    for j in range(M):
        off = int(col_start[j])
        for i in range(M):
            out[i][j] = off
            off += int(dims[i, j])
    return out


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
            r = off[i][j]
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
    dims = pmap.dims
    M = dims.shape[0]
    if cost.M != M:
        raise DimensionMismatch("cost has %d subsystems, dims table has %d" % (cost.M, M))
    row_sizes = [int(dims[i, :].sum()) for i in range(M)]
    for i in range(M):
        if cost.Q[i].shape != (row_sizes[i], row_sizes[i]):
            raise DimensionMismatch(
                "Q[%d] must be %dx%d for this dims table" % (i, row_sizes[i], row_sizes[i])
            )
        if cost.P is not None and cost.P[i].shape != (row_sizes[i], row_sizes[i]):
            raise DimensionMismatch(
                "P[%d] must be %dx%d for this dims table" % (i, row_sizes[i], row_sizes[i])
            )
    Qglob = block_diag(*[cost.rho[i] * cost.Q[i] for i in range(M)])
    Qbar = symmetrize(pmap.to_regrouped_matrix(Qglob))
    Qa = _group_diagonal(Qbar, pmap)
    if cost.P is not None:
        Pglob = block_diag(*[cost.rho[i] * cost.P[i] for i in range(M)])
        Pbar = symmetrize(pmap.to_regrouped_matrix(Pglob))
        Pa = _group_diagonal(Pbar, pmap)
        Ptilde = Pbar - Pa
    else:
        Pbar = Pa = Ptilde = None
    Rlocal = tuple(cost.rho[i] * cost.R[i] for i in range(M))
    Rglobal = block_diag(*Rlocal)
    return TransformedCost(
        Qbar=Qbar,
        Pbar=Pbar,
        Rglobal=Rglobal,
        Qa=Qa,
        Pa=Pa,
        Qtilde=Qbar - Qa,
        Ptilde=Ptilde,
        Rlocal=Rlocal,
        bar_dims=pmap.bar_dims,
    )


def _group_diagonal(X, pmap):
    out = np.zeros_like(X)
    for s in pmap.group_slices():
        out[s, s] = X[s, s]
    return out


def subsystem_partition(matrix, sizes, j, l):
    """Block (j, l) of a per-subsystem matrix partitioned by `sizes`."""
    sl = block_slices(sizes)
    return np.asarray(matrix)[sl[j], sl[l]]
