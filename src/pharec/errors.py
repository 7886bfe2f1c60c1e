"""Exception hierarchy shared across the toolkit."""


class PharecError(Exception):
    """Base class for all toolkit errors."""


class InvalidStep(PharecError):
    """Integration step is non-positive, larger than the duration, or no finite step count."""


class NonFiniteState(PharecError):
    """A state component became NaN or infinite during integration."""


class UnknownKind(PharecError):
    """Model kind string not recognized."""


class NonPositiveRadius(PharecError):
    """Polar-kind model evaluated at r <= 0."""


class NoAnalyticForm(PharecError):
    """Requested analytic ground truth for a model that has none."""


class NoConvergence(PharecError):
    """Iteration failed to converge within the allowed budget."""


class ComplexMultiplier(PharecError):
    """Nontrivial Floquet multiplier is negative or complex."""


class ShapeMismatch(PharecError):
    """Design/target dimensions are inconsistent."""


class ZeroDof(PharecError):
    """Effective degrees of freedom vanish; GCV undefined."""


class ArityMismatch(PharecError):
    """Evaluation point arity does not match the basis spec."""


class TooShort(PharecError):
    """Time series too short for the requested computation."""


class BasinEscape(PharecError):
    """Trajectory left the basin sandbox around the limit cycle."""


class InsufficientSamples(PharecError):
    """Not enough samples to fit the requested series."""


class NonUniformSampling(PharecError):
    """Trial time base is not uniformly sampled."""


class InsufficientCoverage(PharecError):
    """Pooled trial samples do not surround the limit cycle."""


class EmptyRadiusData(PharecError):
    """No radius statistics available to build an evaluation grid."""


class UnknownPair(PharecError):
    """Requested an oscillator pair that was not fitted."""


class ZeroVariance(PharecError):
    """Constant signal; no phase/amplitude to extract."""


class InvalidConfig(PharecError):
    """Pipeline configuration value is invalid."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


class IoError(PharecError):
    """File input/output failure."""
