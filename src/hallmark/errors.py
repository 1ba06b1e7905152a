"""Exception hierarchy shared across the package."""


class HallmarkError(Exception):
    """Base class for all errors raised by this package."""


class SpanError(HallmarkError, ValueError):
    """A span is malformed: out of range, inverted, or overlapping."""


class JsonlParseError(HallmarkError):
    """A JSONL line is not valid JSON."""

    def __init__(self, path: str, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no


class SchemaError(HallmarkError):
    """A JSONL record is valid JSON but misses required keys or types."""

    def __init__(self, path: str, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no


class MarkerError(HallmarkError):
    """Marker delimiters in an annotated text are unbalanced or nested."""


class AggregationError(HallmarkError):
    """No valid annotation runs are available for an item."""


class KnowledgeError(HallmarkError):
    """A step of the external-knowledge chain failed (non-fatal per item)."""


class ProviderError(HallmarkError):
    """A completion provider failed after exhausting retries."""


class AuthError(ProviderError):
    """Authentication failed or the API key environment variable is unset."""


class MockError(ProviderError):
    """The mock provider received a prompt it has no script for."""


class ConfigError(HallmarkError):
    """Invalid configuration, including malformed prompt templates."""


class EvaluationError(HallmarkError):
    """Prediction and gold files do not describe the same items or answers."""

    def __init__(self, message: str, ids: list[str] | None = None):
        super().__init__(message)
        self.ids = ids or []
