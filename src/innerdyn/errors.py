"""Exception types shared across the package."""


class InnerdynError(Exception):
    """Base class for all package-specific errors."""


class PoleProximity(InnerdynError):
    """Evaluation point is too close to a pole 1/conj(a) of a Blaschke factor."""


class RootEscape(InnerdynError):
    """A polynomial root left the closed unit disk beyond tolerance."""


class LogSingularity(InnerdynError):
    """A disk preimage sits at the origin, making log(1/|root|) infinite."""


class BudgetExceeded(InnerdynError):
    """A requested enumeration would exceed the node budget."""


class NotFixed(InnerdynError):
    """The supplied base point is not a boundary fixed point within tolerance."""


class ExceptionalPoint(InnerdynError):
    """The orbit hits a partition endpoint, so the coding is ambiguous."""


class NoConvergence(InnerdynError):
    """An eigenvalue or root iteration failed to converge."""


class GapLost(InnerdynError):
    """The subleading ratio came too close to 1 for a perturbed operator."""


class DivergentSeries(InnerdynError):
    """The operator series for the Poincare function does not converge."""


class BisectionFail(InnerdynError):
    """A monotone bisection could not bracket its target."""


class NotDoublyParabolic(InnerdynError):
    """The supplied map has a translation term at infinity."""


class TailBoundExceeded(InnerdynError):
    """The estimated stratum tail exceeds the allowed fraction of the target."""


class DegenerateVariance(InnerdynError):
    """The supplied asymptotic variance is numerically zero."""


class NotPrimitive(InnerdynError):
    """A subshift's incidence matrix has no strictly positive power."""


class NonDecaying(InnerdynError):
    """Correlation terms failed to decay geometrically."""


class ConfigError(InnerdynError):
    """An experiment configuration failed validation."""
