"""Exception types shared across the library."""


class GmmAdaptError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(GmmAdaptError, ValueError):
    """Operands have incompatible shapes."""


class NonFiniteInput(GmmAdaptError, ValueError):
    """An input array contains NaN or infinity."""


class NotPositiveDefinite(GmmAdaptError, ValueError):
    """A covariance factor is unusable: Cholesky factorization failed even
    after jitter escalation, or a factor has a zero pivot."""


class NoInitializedMode(GmmAdaptError, RuntimeError):
    """Likelihoods requested before any mixture mode received mass."""


class AlreadyFrozen(GmmAdaptError, RuntimeError):
    """Threshold calibration attempted after the calibration window closed."""


class BatchTooSmall(GmmAdaptError, ValueError):
    """Calibration batch has too few samples for the quantile rule."""


class Uncalibrated(GmmAdaptError, RuntimeError):
    """Thresholds used before any calibration batch was processed."""


class NonFiniteGradient(GmmAdaptError, ValueError):
    """Optimizer received a gradient containing NaN or infinity."""


class InvalidSplit(GmmAdaptError, ValueError):
    """Category-shift class counts are inconsistent with the shift kind."""


class LengthMismatch(GmmAdaptError, ValueError):
    """Aligned sequences have different lengths."""


class MalformedFile(GmmAdaptError, ValueError):
    """A run file cannot be read back: not the format, truncated, or keys missing or extra."""


class ConfigError(GmmAdaptError, ValueError):
    """Run configuration failed validation."""


class NumericalFailure(GmmAdaptError, RuntimeError):
    """An adaptation run aborted on a numerical error; carries the batch index."""

    def __init__(self, batch_index: int, cause: Exception):
        super().__init__(f"batch {batch_index}: {cause}")
        self.batch_index = batch_index
        self.cause = cause
