"""Exception types shared across the package."""


class PeriflowError(Exception):
    """Base class for all library errors."""


class DegenerateSurfaceError(PeriflowError):
    """Chart fails the immersion condition (|X_theta| below threshold)."""


class GridMismatchError(PeriflowError):
    """Field and grid sizes disagree."""


class DegenerateMetricError(PeriflowError):
    """Assembled metric is numerically singular."""


class StepError(PeriflowError):
    """Implicit time step failed; carries the offending time level."""

    def __init__(self, message: str, level: int):
        super().__init__(f"{message} (time level {level})")
        self.level = level


class NonuniquenessError(PeriflowError):
    """Mean-adjusted monodromy system is numerically singular, or its Krylov
    solve did not converge; carries the system's spectral gap."""

    def __init__(self, message: str, spectral_gap: float):
        super().__init__(message)
        self.spectral_gap = spectral_gap


class ProjectionError(PeriflowError):
    """Closest-point Newton iteration failed; carries the (2,) point as `location`."""

    def __init__(self, message: str, location):
        super().__init__(message)
        self.location = location


class BandError(PeriflowError):
    """Narrow-band construction or stencil constraint violated."""


class ExtractionError(PeriflowError):
    """Band-average extraction sampled outside the valid band."""


class ConfigError(PeriflowError):
    """Configuration file is malformed or violates a precondition."""
