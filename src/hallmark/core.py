"""Domain types and span algebra.

All character offsets in this package count Unicode scalar values (Python
string indices), never bytes or UTF-16 code units, so they are stable
across every script the tool handles. Spans are half-open ``[start, end)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import SpanError


@dataclass(frozen=True)
class QAItem:
    """One dataset record: a question and the answer to annotate."""

    id: str
    lang: str
    question: str
    answer: str


@dataclass(frozen=True)
class SpanLabel:
    """Half-open character span, optionally carrying a probability.

    Hard labels omit ``prob``; soft labels carry the fraction of annotation
    runs that marked the span.
    """

    start: int
    end: int
    prob: float | None = None

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise SpanError(f"invalid span [{self.start}, {self.end})")
        if self.prob is not None and not 0.0 <= self.prob <= 1.0:
            raise SpanError(f"span probability {self.prob} outside [0, 1]")


def validate_spans(spans: Sequence[SpanLabel]) -> None:
    """Check that spans are sorted and pairwise non-overlapping."""
    prev_end = 0
    for span in spans:
        if span.start < prev_end:
            raise SpanError(f"span [{span.start}, {span.end}) overlaps or is out of order")
        prev_end = span.end


def spans_to_charset(spans: Iterable[SpanLabel], length: int) -> set[int]:
    """Expand spans into the set of character indices they cover."""
    covered: set[int] = set()
    for span in spans:
        if span.end > length:
            raise SpanError(f"span [{span.start}, {span.end}) exceeds text length {length}")
        covered.update(range(span.start, span.end))
    return covered


def charset_to_spans(chars: Iterable[int]) -> list[SpanLabel]:
    """Group character indices into the minimal sorted list of maximal runs."""
    indices = sorted(set(chars))
    if indices and indices[0] < 0:
        raise SpanError(f"negative character index {indices[0]}")
    spans: list[SpanLabel] = []
    run_start: int | None = None
    prev = None
    for i in indices:
        if run_start is None:
            run_start = i
        elif i != prev + 1:
            spans.append(SpanLabel(run_start, prev + 1))
            run_start = i
        prev = i
    if run_start is not None:
        spans.append(SpanLabel(run_start, prev + 1))
    return spans


@dataclass(frozen=True)
class PredictionRecord:
    """Aggregated labels for one item, ready for serialization.

    ``answer`` is optional; the label offsets always refer to it (or to
    the gold answer with the same id), and evaluation refuses a record
    whose ``answer`` differs from gold's.
    """

    id: str
    lang: str
    hard_labels: tuple[SpanLabel, ...]
    soft_labels: tuple[SpanLabel, ...]
    runs_used: int
    answer: str | None = None

    def __post_init__(self) -> None:
        validate_spans(self.hard_labels)
        validate_spans(self.soft_labels)
        for span in self.hard_labels:
            if span.prob is not None:
                raise SpanError("hard labels must not carry probabilities")
        for span in self.soft_labels:
            if span.prob is None or span.prob <= 0.0:
                raise SpanError("soft labels require a probability > 0")


@dataclass(frozen=True)
class GoldRecord:
    """Reference annotation for one item, read from a gold JSONL file."""

    id: str
    lang: str
    answer: str
    hard_labels: tuple[SpanLabel, ...] = field(default_factory=tuple)
    soft_labels: tuple[SpanLabel, ...] = field(default_factory=tuple)
