"""Evaluation metrics: character-level IoU for hard labels and Spearman
rank correlation for soft labels, plus per-language report aggregation.

Conventions for degenerate cases live here and nowhere else, so they can
be swapped in one place: IoU of two empty span sets is 1.0 (predicting
"no hallucination" on a clean item is perfect), Spearman of two constant
vectors is 1.0, and Spearman of exactly one constant vector is 0.0.
Spearman is computed over all characters of the answer, not only the
labeled ones.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from statistics import correlation
from typing import Mapping, Sequence

from .core import GoldRecord, PredictionRecord, SpanLabel, spans_to_charset
from .errors import EvaluationError, SpanError


def iou(pred: Sequence[SpanLabel], gold: Sequence[SpanLabel], length: int) -> float:
    """Intersection-over-union of the covered character sets."""
    pred_chars = spans_to_charset(pred, length)
    gold_chars = spans_to_charset(gold, length)
    union = pred_chars | gold_chars
    if not union:
        return 1.0
    return len(pred_chars & gold_chars) / len(union)


def average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks, each tie group given the mean of its first and last rank."""
    counts = Counter(values)
    rank_of, below = {}, 0
    for value in sorted(counts):
        rank_of[value] = below + (counts[value] + 1) / 2
        below += counts[value]
    return [rank_of[v] for v in values]


def spearman(pred: Sequence[float], gold: Sequence[float]) -> float:
    """Spearman correlation with average ranks for ties.

    Computed as the Pearson correlation of the two rank vectors.
    """
    if len(pred) != len(gold):
        raise ValueError(f"length mismatch: {len(pred)} vs {len(gold)}")
    if len(pred) == 0:
        return 1.0
    a_const = min(pred) == max(pred)
    b_const = min(gold) == max(gold)
    if a_const and b_const:
        return 1.0
    if a_const or b_const:
        return 0.0
    ranks_a = average_ranks(pred)
    ranks_b = average_ranks(gold)
    if ranks_a == ranks_b:
        return 1.0  # monotone-equivalent inputs correlate exactly
    return correlation(ranks_a, ranks_b)


def expand_soft(labels: Sequence[SpanLabel], length: int) -> list[float]:
    """Expand soft labels into one probability per character.

    Uncovered characters get 0. Labels must not overlap.
    """
    probs = [0.0] * length
    prev_end = -1
    for span in sorted(labels, key=lambda s: (s.start, s.end)):
        if span.start < prev_end:
            raise SpanError(f"overlapping soft label at [{span.start}, {span.end})")
        if span.end > length:
            raise SpanError(f"span [{span.start}, {span.end}) exceeds length {length}")
        value = span.prob if span.prob is not None else 1.0
        for i in range(span.start, span.end):
            probs[i] = value
        prev_end = span.end
    return probs


@dataclass(frozen=True)
class ItemScore:
    id: str
    lang: str
    iou: float
    cor: float


@dataclass(frozen=True)
class LangStats:
    mean_iou: float
    mean_cor: float
    n: int


@dataclass(frozen=True)
class EvalReport:
    per_item: tuple[ItemScore, ...]
    per_lang: Mapping[str, LangStats]
    overall: LangStats


def evaluate(preds: Sequence[PredictionRecord], golds: Sequence[GoldRecord]) -> EvalReport:
    """Score predictions against gold annotations.

    Prediction and gold files must cover exactly the same item ids; the
    answer text (and therefore every label offset) is taken from gold. A
    prediction that carries an ``answer`` must carry gold's, since its
    offsets would otherwise be scored against a different text. Each id
    may occur at most once per side.
    """
    for side, records in (("prediction", preds), ("gold", golds)):
        counts = Counter(r.id for r in records)
        duplicated = [i for i, n in counts.items() if n > 1]
        if duplicated:
            raise EvaluationError(f"duplicated {side} ids: {duplicated}", ids=duplicated)
    golds_by_id = {g.id: g for g in golds}
    missing = [p.id for p in preds if p.id not in golds_by_id]
    pred_ids = {p.id for p in preds}
    extra = [g.id for g in golds if g.id not in pred_ids]
    if missing or extra:
        raise EvaluationError(
            "prediction/gold id mismatch"
            + (f"; predictions without gold: {missing}" if missing else "")
            + (f"; gold without prediction: {extra}" if extra else ""),
            ids=missing + extra,
        )

    drifted = [
        p.id for p in preds if p.answer is not None and p.answer != golds_by_id[p.id].answer
    ]
    if drifted:
        raise EvaluationError(
            f"prediction answer differs from gold answer: {drifted}", ids=drifted
        )

    per_item = []
    for pred in preds:
        gold = golds_by_id[pred.id]
        length = len(gold.answer)
        if length == 0:
            item_iou, item_cor = 1.0, 1.0
        else:
            item_iou = iou(pred.hard_labels, gold.hard_labels, length)
            item_cor = spearman(
                expand_soft(pred.soft_labels, length),
                expand_soft(gold.soft_labels, length),
            )
        per_item.append(ItemScore(id=pred.id, lang=gold.lang, iou=item_iou, cor=item_cor))

    def stats(scores: Sequence[ItemScore]) -> LangStats:
        n = len(scores)
        return LangStats(
            mean_iou=sum(s.iou for s in scores) / n,
            mean_cor=sum(s.cor for s in scores) / n,
            n=n,
        )

    langs = sorted({s.lang for s in per_item})
    per_lang = {
        lang: stats([s for s in per_item if s.lang == lang]) for lang in langs
    }
    return EvalReport(
        per_item=tuple(per_item),
        per_lang=per_lang,
        overall=stats(per_item),
    )


def report_to_dict(report: EvalReport) -> dict:
    """JSON-ready view of a report, deterministically ordered."""
    return {
        "overall": {
            "mean_iou": report.overall.mean_iou,
            "mean_cor": report.overall.mean_cor,
        },
        "per_lang": {
            lang: {"mean_iou": s.mean_iou, "mean_cor": s.mean_cor, "n": s.n}
            for lang, s in sorted(report.per_lang.items())
        },
        "per_item": [
            {"id": s.id, "lang": s.lang, "iou": s.iou, "cor": s.cor}
            for s in report.per_item
        ],
    }


def render_table(report: EvalReport) -> str:
    """Aligned plain-text summary table: Lang, IoU, Cor, N."""
    rows = [("Lang", "IoU", "Cor", "N")]
    for lang, s in sorted(report.per_lang.items()):
        rows.append((lang, f"{s.mean_iou:.4f}", f"{s.mean_cor:.4f}", str(s.n)))
    rows.append(("ALL", f"{report.overall.mean_iou:.4f}", f"{report.overall.mean_cor:.4f}", str(report.overall.n)))
    widths = [max(len(row[col]) for row in rows) for col in range(4)]
    return "\n".join(
        "  ".join([row[0].ljust(widths[0])] + [c.rjust(w) for c, w in zip(row[1:], widths[1:])])
        for row in rows
    )
