"""Shared exception types."""


class MlunifError(Exception):
    """Base class for all package errors."""


class ParseError(MlunifError):
    """Concrete-syntax error with a character position."""

    def __init__(self, position, expected, text=None):
        self.position = position
        self.expected = expected
        snippet = ""
        if text is not None:
            snippet = " near %r" % text[position:position + 12]
        super().__init__("parse error at %d%s: expected %s" % (position, snippet, expected))


class LanguageError(MlunifError):
    """Formula violates the symbol discipline of its declared language."""


class LanguageMismatch(MlunifError):
    """Formula language does not match the frame kind or the term signature."""


class UnknownPoint(MlunifError):
    """Point name not present in the frame."""


class UnboundSymbol(MlunifError):
    """Variable or nominal missing from the valuation."""


class DeterminismError(MlunifError):
    """Two machine instructions share a source state."""


class TruncationUnsound(MlunifError):
    """The machine run neither halts nor loops within the bound, so a finite
    frame built from it would not certify anything."""


class ResourceLimit(MlunifError):
    """A work budget (CNF clauses, tableau nodes, run steps, frame points) ran out."""


class InternalCheckFailed(MlunifError):
    """A self-verification step produced an inconsistent result; indicates a bug."""
