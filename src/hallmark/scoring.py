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
from statistics import correlation
from typing import Sequence

from .core import GoldRecord, PredictionRecord, SpanLabel, coverage, validate_spans
from .errors import EvaluationError, SpanError


def iou(pred: Sequence[SpanLabel], gold: Sequence[SpanLabel], length: int) -> float:
    """Intersection-over-union of the characters two hard label lists cover."""
    union = sum(coverage([*pred, *gold], length))
    both = sum(coverage(pred, length)) + sum(coverage(gold, length)) - union
    return both / union if union else 1.0


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

    Uncovered characters get 0. Labels must be sorted and must not overlap.
    """
    validate_spans(labels, length)
    return coverage(labels, length)


def check_against_gold(pairs: Sequence[tuple[PredictionRecord, GoldRecord]]) -> None:
    """Raise ``EvaluationError`` naming each prediction that gold cannot score.

    A prediction that carries an ``answer`` must carry gold's, since its
    offsets would otherwise be read against a different text, and every
    prediction label must lie inside gold's answer.
    """
    drifted = [p.id for p, g in pairs if p.answer is not None and p.answer != g.answer]
    if drifted:
        raise EvaluationError(f"prediction answer differs from gold answer: {drifted}")
    past = []
    for pred, gold in pairs:
        try:
            validate_spans(pred.hard_labels, len(gold.answer))
            validate_spans(pred.soft_labels, len(gold.answer))
        except SpanError:
            past.append(pred.id)
    if past:
        raise EvaluationError(f"prediction label past the gold answer: {past}")


def evaluate(preds: Sequence[PredictionRecord], golds: Sequence[GoldRecord]) -> dict:
    """Score predictions against gold annotations.

    Prediction and gold files must cover exactly the same item ids; the
    answer text (and therefore every label offset) is taken from gold, so
    each pair must pass ``check_against_gold``. Each id may occur at most
    once per side, and there must be at least one item to score.

    The report is the JSON that ``hallmark evaluate --report`` writes:
    ``overall`` (``mean_iou``, ``mean_cor``), ``per_lang`` (the same plus
    ``n``, languages sorted) and ``per_item`` (``id``, ``lang``, ``iou``,
    ``cor``, in prediction order).
    """
    for side, records in (("prediction", preds), ("gold", golds)):
        counts = Counter(r.id for r in records)
        duplicated = [i for i, n in counts.items() if n > 1]
        if duplicated:
            raise EvaluationError(f"duplicated {side} ids: {duplicated}")
    golds_by_id = {g.id: g for g in golds}
    missing = [p.id for p in preds if p.id not in golds_by_id]
    pred_ids = {p.id for p in preds}
    extra = [g.id for g in golds if g.id not in pred_ids]
    if missing or extra:
        raise EvaluationError(
            "prediction/gold id mismatch"
            + (f"; predictions without gold: {missing}" if missing else "")
            + (f"; gold without prediction: {extra}" if extra else "")
        )

    if not preds:
        raise EvaluationError("nothing to score: the prediction and gold files hold no items")
    check_against_gold([(p, golds_by_id[p.id]) for p in preds])

    per_item = []
    for pred in preds:
        gold = golds_by_id[pred.id]
        length = len(gold.answer)
        per_item.append({
            "id": pred.id,
            "lang": gold.lang,
            "iou": iou(pred.hard_labels, gold.hard_labels, length),
            "cor": spearman(expand_soft(pred.soft_labels, length), expand_soft(gold.soft_labels, length)),
        })

    def means(scores: list[dict]) -> dict:
        n = len(scores)
        return {"mean_iou": sum(s["iou"] for s in scores) / n, "mean_cor": sum(s["cor"] for s in scores) / n}

    per_lang = {}
    for lang in sorted({s["lang"] for s in per_item}):
        scores = [s for s in per_item if s["lang"] == lang]
        per_lang[lang] = {**means(scores), "n": len(scores)}
    return {"overall": means(per_item), "per_lang": per_lang, "per_item": per_item}


def render_table(report: dict) -> str:
    """Aligned plain-text summary table: Lang, IoU, Cor, N."""
    rows = [("Lang", "IoU", "Cor", "N")]
    for lang, s in report["per_lang"].items():
        rows.append((lang, f"{s['mean_iou']:.4f}", f"{s['mean_cor']:.4f}", str(s["n"])))
    overall = report["overall"]
    rows.append(("ALL", f"{overall['mean_iou']:.4f}", f"{overall['mean_cor']:.4f}", str(len(report["per_item"]))))
    widths = [max(len(row[col]) for row in rows) for col in range(4)]
    return "\n".join(
        "  ".join([row[0].ljust(widths[0])] + [c.rjust(w) for c, w in zip(row[1:], widths[1:])])
        for row in rows
    )
