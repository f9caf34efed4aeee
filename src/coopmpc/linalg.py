"""Small dense linear algebra helpers used throughout the toolkit.

All eigenvalue-based checks symmetrize their argument first, so callers may
pass matrices that are symmetric only up to rounding.
"""

import numpy as np

from .errors import DimensionMismatch, NotPD, NotPSD

# Default tolerances for the definiteness checks.
PSD_TOL = 1e-9
PD_TRACE_TOL = 1e-12


def symmetrize(X):
    """Return (X + X^T) / 2 as a new array."""
    X = np.asarray(X, dtype=float)
    return 0.5 * (X + X.T)


def require_square(X, name="matrix"):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise DimensionMismatch("%s must be square, got shape %r" % (name, X.shape))
    return X


def min_eigenvalue(X):
    """Smallest eigenvalue of the symmetric part of X."""
    return float(np.linalg.eigvalsh(symmetrize(X))[0])


def spectral_radius(X):
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(X, dtype=float)))))


def spectral_norm(X):
    return float(np.linalg.norm(np.asarray(X, dtype=float), 2))


def check_psd(X, name="matrix", tol=PSD_TOL):
    """Raise NotPSD unless min eig of the symmetric part is >= -tol."""
    lam = min_eigenvalue(X)
    if lam < -tol:
        raise NotPSD("%s has eigenvalue %.3e below -%.1e" % (name, lam, tol))


def check_pd(X, name="matrix", trace_tol=PD_TRACE_TOL):
    """Raise NotPD unless min eig >= trace_tol * trace (and trace > 0)."""
    X = require_square(X, name)
    lam = min_eigenvalue(X)
    tr = float(np.trace(X))
    if tr <= 0.0 or lam < trace_tol * tr:
        raise NotPD("%s is not positive definite (min eig %.3e, trace %.3e)" % (name, lam, tr))


def block_slices(sizes):
    """Slices selecting each block of a vector partitioned by `sizes`."""
    starts = np.concatenate(([0], np.cumsum(np.asarray(sizes, dtype=int))))
    return [slice(int(starts[k]), int(starts[k + 1])) for k in range(len(sizes))]
