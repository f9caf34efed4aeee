"""Exception types shared across the toolkit."""


class CoopMpcError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(CoopMpcError):
    """Matrix or vector dimensions are inconsistent with the block layout."""


class StructureViolation(CoopMpcError):
    """A matrix does not have the block structure the operation requires."""


class NotPSD(CoopMpcError):
    """A weight that must be positive semidefinite is not."""


class NotPD(CoopMpcError):
    """A weight that must be positive definite is not."""


class NotSchur(CoopMpcError):
    """A matrix that must have spectral radius below one does not."""


class SingularSystem(CoopMpcError):
    """A linear system that must be uniquely solvable is singular."""


class RiccatiDiverged(CoopMpcError):
    """The discrete algebraic Riccati equation has no stabilizing solution."""


class NotStabilized(CoopMpcError):
    """A designed feedback gain failed to stabilize its subsystem."""


class SelectionFailed(CoopMpcError):
    """No terminal weight scaling satisfied the decrease certificate."""


class SolverFailure(CoopMpcError):
    """A QP solve finished without reaching optimality."""

    def __init__(self, message, status=None, solution=None):
        super().__init__(message)
        self.status = status
        self.solution = solution


class ConfigError(CoopMpcError):
    """A problem description file could not be parsed or validated."""
