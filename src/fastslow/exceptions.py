"""Exception hierarchy.

Everything numerical raises a subclass of FastSlowError so the CLI can map
failures to a single exit code; configuration problems are kept separate.
"""


class FastSlowError(Exception):
    """Base class for numerical / model failures."""


class SystemValidationError(FastSlowError):
    """Supplied map data is inconsistent (derivative mismatch, bad bounds)."""


class OrbitLengthError(FastSlowError):
    """Requested orbit exceeds the configured maximum number of steps."""


class ShadowSolveError(FastSlowError):
    """Backward branch-tracked inversion failed to converge."""


class BranchInversionError(FastSlowError):
    """Monotone branch inversion failed on a grid cell."""


class SRBConvergenceError(FastSlowError):
    """Power iteration did not reach the target residual."""

    def __init__(self, residual: float, iterations: int, second_eig: float):
        self.residual = residual
        self.iterations = iterations
        self.second_eig = second_eig
        super().__init__(
            f"invariant density iteration stalled: residual {residual:.3e} "
            f"after {iterations} iterations (second eigenvalue ~ {second_eig:.4f})"
        )


class TruncationTailError(FastSlowError):
    """Autocovariance tail did not pass the decay check at the chosen cutoff."""


class TableResolutionError(FastSlowError):
    """A drift/diffusion table kept refining up to its node ceiling."""


class NegativeEigenvalueError(FastSlowError):
    """Assembled diffusion matrix has a materially negative eigenvalue."""


class PairInvariantError(FastSlowError):
    """A standard pair or family violates its defining bounds."""


class CovarianceCrossCheckError(FastSlowError):
    """Direct and conjugated covariance routes disagree beyond tolerance."""


class GridMismatchError(FastSlowError):
    """A time, or a grid, that the ensemble's output grid does not have."""


class ConfigError(Exception):
    """Configuration file / schema problem (maps to CLI exit code 2)."""
