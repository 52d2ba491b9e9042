"""Semantic exception hierarchy.

Public functions raise these instead of bare ValueError/RuntimeError so
callers (and the CLI exit-code mapping) can tell configuration mistakes
apart from numerical failures.
"""


class RetxError(Exception):
    """Base error for this package."""


class InvalidParameter(RetxError, ValueError):
    """Inputs violate a contract: domain, type, or range."""


class GammaOverflowError(InvalidParameter):
    """Gamma-function argument above the overflow guard (alpha > 170)."""


class NonConvergence(RetxError):
    """An iterative solver exceeded its iteration cap."""


class QuadratureFailure(RetxError):
    """The oracle's quadrature missed its error target: the rule's two
    levels differ by more than oracle.REL_TOL, or the integral is not
    positive."""


class DegenerateTruncation(RetxError):
    """The document bound leaves (numerically) no probability mass below it."""


class NotMonotone(RetxError):
    """A derived survival function fails its monotonicity grid check."""


class NoRoot(RetxError):
    """The transition-point equation has no root on the requested branch."""


class NotInteger(RetxError):
    """Operation requires an integer power-law index alpha."""


class EllNotOne(RetxError):
    """Operation requires the trivial slowly varying function (ell == 1)."""


class ConfigInvalid(RetxError):
    """Experiment configuration violates its schema."""


class UnknownPreset(ConfigInvalid):
    """No preset registered under the requested name."""


class CouplingInvalid(RetxError):
    """Model fails the hazard-proportionality residual tolerance."""


class IoFailure(RetxError):
    """Wraps an OSError raised while emitting result files."""
