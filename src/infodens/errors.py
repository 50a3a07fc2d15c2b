"""Semantic exception hierarchy shared across the package."""


class InfodensError(Exception):
    """Base class for all package-specific errors."""


class EmptySupport(InfodensError):
    """A distribution was given with no outcomes."""


class ZeroOrNegativeWeight(InfodensError):
    """A prior weight violates the full-support requirement."""


class StochasticityError(InfodensError):
    """A kernel row does not sum to one within tolerance."""


class DimensionMismatch(InfodensError):
    """Two objects that must share an alphabet do not."""


class UndefinedOutcome(InfodensError):
    """A non-index or zero-probability outcome (or secret) was conditioned on."""


class InvalidPmin(InfodensError):
    """The smallest prior mass must lie in (0, 1]."""


class OutsideHighPrivacy(InfodensError):
    """A construction requires the level to stay below log(1/(1 - p_min))."""


class InvalidAlphabet(InfodensError):
    """Alphabet size unsuitable for the requested mechanism."""


class AllInfinitePrior(InfodensError):
    """Every guess has infinite prior expected cost."""


class NormalizationDegenerate(InfodensError):
    """A cost table cannot be normalized because it is identically zero."""


class CgfUnavailable(InfodensError):
    """A cumulant generating function is required but was not supplied."""


class QuadratureFailure(InfodensError):
    """Numerical integration did not reach the requested accuracy."""


class BudgetExceeded(InfodensError):
    """An exhaustive search would exceed the configured enumeration budget."""


class ParseError(InfodensError):
    """An input document is malformed."""
