"""Exception hierarchy. Everything data-related derives from KgelError so the
CLI can map it to a single exit code."""


class KgelError(Exception):
    """Base class for data and validation errors."""


class MissingFileError(KgelError):
    pass


class LineError(KgelError):
    """An error tied to a line of an input file, printed as
    ``path:line: reason``. With no location (``path`` and ``line_no`` None),
    as for a graph assembled in memory, the message is the reason alone."""

    def __init__(self, path, line_no, reason):
        self.path = None if path is None else str(path)
        self.line_no = line_no
        self.reason = reason
        super().__init__(reason if path is None else f"{self.path}:{line_no}: {reason}")

    def __reduce__(self):
        # The default rebuilds an exception from its message alone, which
        # __init__ does not accept.
        return type(self), (self.path, self.line_no, self.reason)


class DuplicateEntityError(LineError):
    pass


class DuplicateRelationError(LineError):
    pass


class DanglingEntityError(LineError):
    """A triple, synonym or definition references an entity id that does not exist."""


class DanglingRelationError(LineError):
    """A triple references a relation id that does not exist."""


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
    """A reserved template token occurs inside KG or mention text."""


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
