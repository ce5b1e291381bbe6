"""Exception hierarchy.

Two families matter to the command-line layer: ``InputError`` covers anything
traceable to user-supplied data or options (exit code 1), ``NumericalError``
covers internal numerical failures (exit code 2).
"""


class FactorDistError(Exception):
    """Base class for all package errors."""


class InputError(FactorDistError):
    """Problem with user-supplied data, models, or options."""


class NumericalError(FactorDistError):
    """Internal numerical failure."""


# -- linear algebra ----------------------------------------------------------

class NotSymmetricError(NumericalError):
    """Matrix asymmetry beyond the accepted tolerance."""


class NotPSDError(NumericalError):
    """Symmetric matrix with an eigenvalue below the clamping band."""


class NotPDError(NumericalError):
    """Cholesky pivot at or below the positive-definiteness threshold."""


class InvalidDoFError(InputError):
    """F-distribution degrees of freedom below one."""


class NoConvergenceError(NumericalError):
    """Iteration cap reached before the requested tolerance."""


# -- data ingestion ----------------------------------------------------------

class ParseError(InputError):
    """Malformed input file; message carries the path and line number."""


class DuplicateDateError(InputError):
    """The same month appears twice in one panel."""


class EmptyPanelError(InputError):
    """No usable rows survive ingestion."""


class NoOverlapError(InputError):
    """Panels share no common dates."""


class NonFiniteError(InputError):
    """Returns so large that excess returns or regression moments overflow."""


class MissingRiskfreeError(InputError):
    """Named risk-free column absent from the factor panel."""


class DuplicateModelNameError(InputError):
    """Two model definitions share a name."""


class UnknownFactorError(InputError):
    """Model references a factor not present in the factor panel."""


# -- regression --------------------------------------------------------------

class RankDeficientError(InputError):
    """Design matrix (intercept plus factors) is numerically rank deficient."""


class InsufficientSampleError(InputError):
    """Too few observations for the requested regression."""


class SingularFactorCovError(NumericalError):
    """Factor covariance matrix is not positive definite."""


class SingularResidualCovError(InputError):
    """Residual covariance matrix is singular (typically too many assets)."""


class DegenerateDoFError(InputError):
    """Joint test degrees of freedom T - n - k below one."""


# -- transport ---------------------------------------------------------------

class DimMismatchError(InputError):
    """Distributions with incompatible dimensions."""


class SingularSourceError(NumericalError):
    """Transport map requested from a distribution with singular covariance."""


# -- solving and configuration -----------------------------------------------

class NotBracketedError(InputError):
    """Equivalence target lies outside the reachable distance range."""


class BadConfigError(InputError):
    """Invalid synthetic-data or sweep configuration."""
