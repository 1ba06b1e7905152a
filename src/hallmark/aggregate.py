"""Aggregation of parallel annotation runs into per-character probabilities.

Each run is one annotator's vote. A character's probability is the
fraction of valid runs whose spans cover it; runs that failed parsing or
the alignment gate drop out of both numerator and denominator, because a
broken rewrite carries no signal about content.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import SpanLabel, charset_to_spans, spans_to_charset
from .errors import AggregationError


@dataclass(frozen=True)
class AnnotationRun:
    """One annotator's output for one item."""

    raw_text: str
    spans: tuple[SpanLabel, ...] = ()
    similarity: float = 0.0
    valid: bool = False
    role: str = ""


def aggregate(runs: Sequence[AnnotationRun], answer_len: int) -> list[float]:
    """Count span coverage over valid runs into per-character fractions.

    Overlapping spans within one run cover a character once. Raises
    AggregationError when no run survived; the caller reports the item as
    unannotated instead of failing the batch.
    """
    valid = [r for r in runs if r.valid]
    if not valid:
        raise AggregationError("no valid annotation runs")
    counts = [0] * answer_len
    for run in valid:
        for idx in spans_to_charset(run.spans, answer_len):
            counts[idx] += 1
    n = len(valid)
    return [c / n for c in counts]


def to_soft_labels(probs: Sequence[float]) -> list[SpanLabel]:
    """Collapse equal-probability runs of characters into labeled spans.

    Zero-probability characters produce no label.
    """
    labels: list[SpanLabel] = []
    run_start: int | None = None
    run_prob = 0.0
    for i, p in enumerate(probs):
        if run_start is not None and p != run_prob:
            labels.append(SpanLabel(run_start, i, run_prob))
            run_start = None
        if run_start is None and p > 0.0:
            run_start = i
            run_prob = p
    if run_start is not None:
        labels.append(SpanLabel(run_start, len(probs), run_prob))
    return labels


def to_hard_labels(probs: Sequence[float], threshold: float = 0.5) -> list[SpanLabel]:
    """Keep characters whose probability reaches ``threshold`` (inclusive)."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold {threshold} outside (0, 1]")
    return charset_to_spans(i for i, p in enumerate(probs) if p >= threshold)
