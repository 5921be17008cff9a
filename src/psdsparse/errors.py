"""Exception taxonomy for psdsparse.

Every failure mode raised by the package is a subclass of PsdSparseError,
so callers (and the CLI) can report a stable machine-readable kind name.
"""


class PsdSparseError(Exception):
    """Base class for all psdsparse errors."""


# --- symmetric-matrix core ---------------------------------------------------

class NonFinite(PsdSparseError):
    """Input or result contains NaN or Inf."""


class NoConvergence(PsdSparseError):
    """The eigenvalue iteration failed or its certificate did not hold."""


class DimensionMismatch(PsdSparseError):
    """Operands or payload fields disagree on matrix dimensions."""


# --- scalar domains ----------------------------------------------------------

class DomainError(PsdSparseError):
    """Argument outside the documented domain of an operation."""


class Overflow(PsdSparseError):
    """Requested evaluation would overflow double precision."""


# --- decomposition instances -------------------------------------------------

class InstanceError(PsdSparseError):
    """Base class for violations of the decomposition-instance contract."""


class FormatError(InstanceError):
    """Malformed payload: missing keys, wrong types, empty family."""


class NotSymmetric(InstanceError):
    """A matrix exceeds the asymmetry tolerance.

    index is a family member's index, or a label that names a single matrix.
    """

    def __init__(self, index, asymmetry):
        from .symmat import ASYMMETRY_TOL  # symmat imports this module

        self.index = index
        self.asymmetry = asymmetry
        name = f"matrix {index}" if isinstance(index, int) else index
        super().__init__(
            f"{name} is not symmetric (max |A - A^T| = {asymmetry:.3e}, tolerance {ASYMMETRY_TOL:g})"
        )


class NotPSD(InstanceError):
    """A family matrix has a significantly negative eigenvalue."""

    def __init__(self, index, min_eigenvalue):
        self.index = index
        self.min_eigenvalue = min_eigenvalue
        super().__init__(
            f"matrix {index} is not positive semidefinite (min eigenvalue {min_eigenvalue:.3e})"
        )


class WeightsNotSimplex(InstanceError):
    """Weights are negative or do not sum to one."""


class NotIsotropic(InstanceError):
    """The weighted sum of the family deviates from the identity."""

    def __init__(self, residual):
        from .instance import ISOTROPY_TOL  # instance imports this module

        self.residual = residual
        super().__init__(
            f"weighted sum deviates from identity (operator-norm residual {residual:.3e}, "
            f"tolerance {ISOTROPY_TOL:g})"
        )


class NormBoundTooSmall(InstanceError):
    """A stored norm-bound field is below the recomputed maximum norm."""


class CenteringCertificateFailed(InstanceError):
    """A centered-family certificate failed; signals numerical inconsistency."""

    def __init__(self, which, detail=""):
        self.which = which
        super().__init__(f"centering certificate '{which}' failed {detail}".rstrip())


class IsotropicTransformFailed(InstanceError):
    """The random-PSD generator could not reach the condition cap within retries."""


class Disconnected(InstanceError):
    """The input graph is not connected (Laplacian rank below n-1)."""


# --- greedy runs -------------------------------------------------------------

class EmptyFamily(PsdSparseError):
    """Selection requested over an empty candidate family."""


class BoundViolation(PsdSparseError):
    """A recorded prefix error exceeded its guaranteed bound.

    This is unconditional for valid instances, so raising it signals an
    implementation bug rather than bad input.
    """

    def __init__(self, k, message):
        self.k = k
        super().__init__(f"step {k}: {message}")


class PotentialGrowthViolation(BoundViolation):
    """The per-step potential inequality failed during a run (also a bug)."""


class PruningCertificateFailed(PsdSparseError):
    """A greedy step's candidate bounds did not hold, so skipping candidates was unsafe (a bug)."""


class AuditFailed(PsdSparseError):
    """The incremental running sum drifted from its recomputation."""
