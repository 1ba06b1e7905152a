"""Exception hierarchy shared across the package."""


class HallmarkError(Exception):
    """Base class for all errors raised by this package."""


class SpanError(HallmarkError, ValueError):
    """A span is malformed: out of range, inverted, or overlapping."""


class SchemaError(HallmarkError):
    """A JSONL line is not a UTF-8 JSON object, or its object misses required keys or types.
    The message begins with the line's ``path:line``."""


class MarkerError(HallmarkError):
    """Marker delimiters in an annotated text are unbalanced or nested."""


class KnowledgeError(HallmarkError):
    """A step of the external-knowledge chain failed (non-fatal per item)."""


class ProviderError(HallmarkError):
    """A completion provider failed after exhausting retries."""


class TruncatedReplyError(ProviderError):
    """The provider cut its reply off at ``max_tokens``."""


class AuthError(HallmarkError):
    """Authentication failed or the API key environment variable is unset.

    Not a ``ProviderError``: a provider error costs one run or one knowledge
    step, but a rejected key fails every later call too, so it stops the
    batch. Standing apart, it passes every ``except ProviderError`` untouched
    and needs no guard of its own.
    """


class ConfigError(HallmarkError):
    """Invalid configuration, including malformed prompt templates."""


class CacheError(HallmarkError):
    """The response cache file cannot be opened, read or written."""


class EvaluationError(HallmarkError):
    """Prediction and gold files disagree on ids, answers or label extents, or an id is unknown."""
