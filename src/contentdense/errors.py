"""Exception types raised across the package.

Every error that can surface from loading data, building feature spaces,
training, or evaluating derives from :class:`ContentDenseError` so callers
can catch one base type at the boundary.
"""

from __future__ import annotations


class ContentDenseError(Exception):
    """Base class for all errors raised by this package."""


def prefixed(err: ContentDenseError, where: str) -> ContentDenseError:
    """``err``, its message now starting with ``where: ``. It keeps its type
    and attributes (a ParseError's ``offset``), so a caller that knows
    where the error arose can say so: ``raise prefixed(e, where)``."""
    err.args = (f"{where}: {err}",)
    return err


class ParseError(ContentDenseError):
    """A bracketed parse string is malformed.

    Carries ``offset``, the byte offset into the input string at which the
    problem was detected, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class CorpusFormatError(ContentDenseError):
    """A corpus, pair, label or model file is not well-formed."""


class DuplicateIdError(CorpusFormatError):
    """Two corpus records share the same lead id."""


class ValidationError(ContentDenseError):
    """A record or argument fails a structural validity check."""


class EmptySummaryError(ValidationError):
    """A lead's reference summary has no word/POS tuples."""


class EmptyLeadError(ValidationError):
    """A lead has no tokens."""


class MissingParseError(ValidationError):
    """Syntactic features were requested for a sentence without a parse."""


class DegenerateDistributionError(ContentDenseError):
    """Score distribution cannot be split into two non-empty classes."""


class SingleClassError(ContentDenseError):
    """Training data contains only one label."""


class DataLeakError(ContentDenseError):
    """An evaluation fold plan would let test data influence training."""


class NumericError(ContentDenseError):
    """An optimizer or probability computation produced a non-finite value."""
