"""Aggregation of parallel annotation runs into per-character probabilities.

Each run is one annotator's vote, and ends in one of the outcomes below. A
character's probability is the fraction of ``OK`` runs whose spans cover
it; every other run drops out of both numerator and denominator, because
a failed or broken rewrite carries no signal about content.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import le
from typing import Sequence

from .core import SpanLabel, coverage, runs_of
from .errors import AggregationError


OK = "ok"  # the run voted
PROVIDER_ERROR = "provider_error"  # the provider failed after retries, or gave no usable text
TRUNCATED = "truncated"  # the reply was cut off at max_tokens
MARKER_ERROR = "marker_error"  # the reply's markers cannot be parsed (``MarkerError``)
BELOW_GATE = "below_gate"  # the rewrite's alignment similarity is below the gate


@dataclass(frozen=True)
class AnnotationRun:
    """One annotator's output for one item: how the run ended, and the spans it votes for."""

    outcome: str
    spans: tuple[SpanLabel, ...] = ()


def aggregate(runs: Sequence[AnnotationRun], answer_len: int) -> list[float]:
    """Count span coverage over ``OK`` runs into per-character fractions.

    A run covers a character once, however many of its spans do and
    whatever ``prob`` they carry. Raises AggregationError when no run
    survived; the caller reports the item as unannotated instead of
    failing the batch.
    """
    voting = [r for r in runs if r.outcome == OK]
    if not voting:
        raise AggregationError("no valid annotation runs")
    covered = [coverage([SpanLabel(s.start, s.end) for s in run.spans], answer_len) for run in voting]
    n = len(voting)
    return [c / n for c in map(sum, zip(*covered))]


def to_soft_labels(probs: Sequence[float]) -> list[SpanLabel]:
    """Collapse equal-probability runs of characters into labeled spans.

    Zero-probability characters produce no label.
    """
    return runs_of(probs)


def to_hard_labels(probs: Sequence[float], threshold: float) -> list[SpanLabel]:
    """Keep characters whose probability reaches ``threshold`` (inclusive)."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold {threshold} outside (0, 1]")
    return [SpanLabel(s.start, s.end) for s in runs_of(map(partial(le, threshold), probs))]
