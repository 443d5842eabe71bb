"""Exception types shared across the package."""


class AnnokitError(Exception):
    """Base class for all errors raised by annokit."""


class DuplicateEntryError(AnnokitError):
    """An (interval, payload) pair or an annotation id was added twice."""


class NotFoundError(AnnokitError):
    """A requested entry, annotation, or row does not exist."""


class BoundsError(AnnokitError):
    """A span lies outside the bounds it must fit in."""


class OverlapError(AnnokitError):
    """Two spans overlap where they must not."""


class OrderError(AnnokitError):
    """Spans were supplied in the wrong order."""


class ImportFormatError(AnnokitError):
    """An annotation import file contains malformed lines.

    ``line_numbers`` lists every offending 1-based line. Nothing is
    imported when this is raised.
    """

    def __init__(self, message, line_numbers=()):
        super().__init__(message)
        self.line_numbers = tuple(line_numbers)


class GuidelineError(AnnokitError):
    """A section guideline failed to parse or validate."""


class LexiconError(AnnokitError):
    """A lexicon file failed to parse."""


class ConversionError(AnnokitError):
    """Inline markup could not be converted; ``offset`` locates the problem."""

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class StoreError(AnnokitError):
    """The persistent store is unreachable or rejected an operation."""


class MigrationRequiredError(StoreError):
    """An existing table has an incompatible column layout."""


class ConflictError(StoreError):
    """A checkpoint hit a row modified or removed by someone else."""


class DanglingReferenceError(StoreError, NotFoundError):
    """A row references an id that does not exist."""


class ValidationError(AnnokitError):
    """Inputs violate a documented invariant."""


class ConfigError(AnnokitError):
    """The pipeline configuration is invalid."""
