"""Exception hierarchy shared across the package."""


class HallmarkError(Exception):
    """Base class for all errors raised by this package."""


class SpanError(HallmarkError, ValueError):
    """A span is malformed: out of range, inverted, or overlapping."""


class SchemaError(HallmarkError):
    """A JSONL line is not a UTF-8 JSON object, or its object misses required keys or types."""

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


class AuthError(HallmarkError):
    """Authentication failed or the API key environment variable is unset.

    Not a ``ProviderError``: a provider error costs one run or one knowledge
    step, but a rejected key fails every later call too, so it stops the
    batch. Standing apart, it passes every ``except ProviderError`` untouched
    and needs no guard of its own.
    """


class MockError(ProviderError):
    """The mock provider received a prompt it has no script for."""


class ConfigError(HallmarkError):
    """Invalid configuration, including malformed prompt templates."""


class CacheError(HallmarkError):
    """The response cache file cannot be opened, read or written."""


class EvaluationError(HallmarkError):
    """Prediction and gold files disagree on ids, answers or label extents, or an id is unknown."""

    def __init__(self, message: str, ids: list[str] | None = None):
        super().__init__(message)
        self.ids = ids or []
