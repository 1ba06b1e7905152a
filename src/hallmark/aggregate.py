"""Aggregation of parallel annotation runs into per-character probabilities.

Each run is one annotator's vote. A character's probability is the
fraction of valid runs whose spans cover it; runs that failed parsing or
the alignment gate drop out of both numerator and denominator, because a
broken rewrite carries no signal about content.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import le
from typing import Sequence

from .core import SpanLabel, coverage, runs_of
from .errors import AggregationError


@dataclass(frozen=True)
class AnnotationRun:
    """One annotator's output for one item."""

    spans: tuple[SpanLabel, ...] = ()
    similarity: float = 0.0
    valid: bool = False
    role: str = ""


def aggregate(runs: Sequence[AnnotationRun], answer_len: int) -> list[float]:
    """Count span coverage over valid runs into per-character fractions.

    A run covers a character once, however many of its spans do and
    whatever ``prob`` they carry. Raises AggregationError when no run
    survived; the caller reports the item as unannotated instead of
    failing the batch.
    """
    valid = [r for r in runs if r.valid]
    if not valid:
        raise AggregationError("no valid annotation runs")
    covered = [coverage([SpanLabel(s.start, s.end) for s in run.spans], answer_len) for run in valid]
    n = len(valid)
    return [c / n for c in map(sum, zip(*covered))]


def to_soft_labels(probs: Sequence[float]) -> list[SpanLabel]:
    """Collapse equal-probability runs of characters into labeled spans.

    Zero-probability characters produce no label.
    """
    return runs_of(probs)


def to_hard_labels(probs: Sequence[float], threshold: float = 0.5) -> list[SpanLabel]:
    """Keep characters whose probability reaches ``threshold`` (inclusive)."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold {threshold} outside (0, 1]")
    return [SpanLabel(s.start, s.end) for s in runs_of(map(partial(le, threshold), probs))]
