"""Domain types and span algebra.

All character offsets in this package count Unicode scalar values (Python
string indices), never bytes or UTF-16 code units, so they are stable
across every script the tool handles. Spans are half-open ``[start, end)``;
``coverage`` turns a span list into one value per character and ``runs_of``
turns such values back into spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
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
            raise SpanError(f"span [{self.start}, {self.end}) is empty or starts before 0")
        if self.prob is not None and not 0.0 <= self.prob <= 1.0:
            raise SpanError(f"span probability {self.prob} outside [0, 1]")


def validate_spans(spans: Sequence[SpanLabel], length: int | None = None) -> None:
    """Check that spans are sorted, pairwise disjoint and, given ``length``, inside a text that long."""
    prev_end = 0
    for span in spans:
        if span.start < prev_end:
            raise SpanError(f"span [{span.start}, {span.end}) overlaps or is out of order")
        prev_end = span.end
    if length is not None and prev_end > length:
        raise SpanError(f"span [{spans[-1].start}, {spans[-1].end}) exceeds text length {length}")


def coverage(spans: Iterable[SpanLabel], length: int) -> list[float]:
    """One value per character of a text ``length`` long: the ``prob`` of the span covering it
    (1.0 for a hard span), else 0.0. Spans may overlap, the later one winning, but each must lie
    inside the text."""
    values = [0.0] * length
    for span in spans:
        validate_spans((span,), length)
        values[span.start : span.end] = [1.0 if span.prob is None else span.prob] * (span.end - span.start)
    return values


def runs_of(values: Iterable[float]) -> list[SpanLabel]:
    """The maximal runs of equal nonzero values, as spans carrying their value as ``prob``."""
    spans: list[SpanLabel] = []
    start = 0
    for value, run in groupby(values):
        end = start + len(list(run))
        if value:
            spans.append(SpanLabel(start, end, value))
        start = end
    return spans


@dataclass(frozen=True)
class PredictionRecord:
    """Aggregated labels for one item, ready for serialization.

    ``answer`` is optional; the label offsets always refer to it (or to
    the gold answer with the same id), must lie inside it when given, and
    evaluation refuses a record whose ``answer`` differs from gold's.
    """

    id: str
    lang: str
    hard_labels: tuple[SpanLabel, ...]
    soft_labels: tuple[SpanLabel, ...]
    runs_used: int
    answer: str | None = None

    def __post_init__(self) -> None:
        if self.runs_used < 0:
            raise ValueError(f"runs_used {self.runs_used} must be >= 0")
        length = None if self.answer is None else len(self.answer)
        validate_spans(self.hard_labels, length)
        validate_spans(self.soft_labels, length)
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

    def __post_init__(self) -> None:
        validate_spans(self.hard_labels, len(self.answer))
        validate_spans(self.soft_labels, len(self.answer))
