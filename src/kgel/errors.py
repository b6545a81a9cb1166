"""Exception hierarchy. Everything data-related derives from KgelError so the
CLI can map it to a single exit code."""


class KgelError(Exception):
    """Base class for data and validation errors."""


class DuplicateEntityError(KgelError):
    pass


class DuplicateRelationError(KgelError):
    pass


class DanglingEntityError(KgelError):
    """A triple, synonym or definition references an entity id that does not exist."""


class DanglingRelationError(KgelError):
    """A triple references a relation id that does not exist."""


class MissingFileError(KgelError):
    pass


class LineError(KgelError):
    """An error tied to a specific line of an input file."""

    def __init__(self, path, line_no, reason):
        self.path = str(path)
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"{self.path}:{line_no}: {reason}")


class MalformedLineError(LineError):
    pass


class SpanOutOfBoundsError(LineError):
    pass


class OverlappingMentionsError(LineError):
    pass


class UnknownSynonymError(KgelError):
    pass


class NoTriplesError(KgelError):
    pass


class SpecialTokenError(KgelError):
    """A reserved template token occurs inside KG text."""


class EmptySurfaceError(KgelError):
    """A surface form normalizes to zero tokens."""


class InvalidPrefixError(KgelError):
    pass


class NoHypothesisError(KgelError):
    """Constrained search produced no completed surface form."""


class NonFiniteScoreError(KgelError):
    """A scorer returned NaN or an infinite log probability."""


class EmptyCorpusError(KgelError):
    pass


class MalformedModelError(LineError):
    pass


class MalformedPredictionsError(LineError):
    pass
