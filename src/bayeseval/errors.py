"""Exception hierarchy shared by all modules.

Every user-facing failure mode has its own class so callers (and the CLI
exit-code mapping) can react without string matching.
"""


class BayesEvalError(Exception):
    """Base class for all errors raised by this package."""


class InputError(BayesEvalError):
    """Invalid input data or arguments (CLI exit code 2)."""


class MethodUndefinedError(BayesEvalError):
    """A metric is not defined at the requested trial count (CLI exit code 3)."""


class InternalInvariantError(BayesEvalError):
    """An internal consistency check failed (CLI exit code 4)."""


# -- matrix / prior / weight validation ------------------------------------

class EmptyMatrixError(InputError):
    """Results grid has no rows."""


class RaggedRowsError(InputError):
    """Rows of a results grid have unequal lengths."""


class CategoryOutOfRangeError(InputError):
    """A cell value falls outside [0, C]."""


class NonIntegerCellError(InputError):
    """A cell is not an integer (a fraction, NaN, inf, text or None)."""


class NotAGridError(InputError):
    """Input is not a two-dimensional grid of rows and cells."""


class PriorShapeMismatchError(InputError):
    """Prior matrix does not share M and C with the results matrix."""


class WeightLengthMismatchError(InputError):
    """Weight vector length differs from the category count C+1."""


class ZeroTrialsError(InputError):
    """Operation requires at least one trial per question (N >= 1)."""


# -- pass@k family ----------------------------------------------------------

class KZeroError(InputError):
    """k must be a positive integer."""


class KExceedsNError(InputError):
    """k exceeds the number of trials for some question."""


class KTooSmallError(InputError):
    """k below the minimum the metric is defined for."""


class TauOutOfRangeError(InputError):
    """Tolerance threshold must satisfy 0 < tau <= 1."""


# -- ranking ----------------------------------------------------------------

class NegativeZError(InputError):
    """z-score argument must be non-negative."""


class NonFiniteScoreError(InputError):
    """A score or its sigma is NaN or infinite, so it has no rank."""


class LengthMismatchError(InputError):
    """Rank vectors to correlate have different lengths."""


class AllTiedError(InputError):
    """Kendall tau-b undefined: one ranking is entirely tied."""


class NotReachableError(BayesEvalError):
    """Target z-score not reached within the configured trial budget."""


# -- rubric -----------------------------------------------------------------

class EmptyInputError(InputError):
    """Signal collection is empty."""


class NoWrongItemsError(InputError):
    """Conditional percentile over wrong items undefined: none present."""


class NoCorrectItemsError(InputError):
    """Conditional percentile over correct items undefined: none present."""


class UncoveredCaseError(InternalInvariantError):
    """A schema failed to assign exactly one category to an attempt."""


class IncompleteGridError(InputError):
    """Signal records do not form a complete questions x trials grid."""


# -- io ---------------------------------------------------------------------

class ParseError(InputError):
    """File could not be parsed; carries source location."""

    def __init__(self, message: str, *, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)


class MissingFieldError(ParseError):
    """A required record field is absent."""


class RangeViolationError(ParseError):
    """A record field value is outside its documented range."""


class DuplicateCellError(ParseError):
    """Two records address the same (question, trial) cell."""
