"""Independent reference implementations used to cross-check the library.

Everything here is deliberately brute force and shares no code with the
package: plain loops, recursion, and explicit formulas. The one exception
is ``reference_align``, the package's earlier full-table alignment, kept
to pin the bit-parallel ``align`` to the same tie-break.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def lcs_length(a: str, b: str) -> int:
    """Classic quadratic longest-common-subsequence table."""
    rows = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                rows[i][j] = rows[i - 1][j - 1] + 1
            else:
                rows[i][j] = max(rows[i - 1][j], rows[i][j - 1])
    return rows[len(a)][len(b)]


def reference_align(clean: str, original: str) -> tuple[tuple[int | None, ...], float]:
    """Full int32 score table, then traceback; returns (mapping, similarity).

    Ties are broken preferring match, then substitution, then deleting a
    character of ``clean``, then skipping a character of ``original``.
    Memory is one int32 per cell.
    """
    m, n = len(clean), len(original)
    if m == 0 and n == 0:
        return (), 1.0
    if m == 0 or n == 0:
        return (None,) * m, 0.0

    a = np.fromiter((ord(c) for c in clean), dtype=np.int64, count=m)
    b = np.fromiter((ord(c) for c in original), dtype=np.int64, count=n)

    score = np.zeros((m + 1, n + 1), dtype=np.int32)
    for i in range(1, m + 1):
        candidates = np.maximum(
            score[i - 1, :-1] + (b == a[i - 1]),
            score[i - 1, 1:],
        )
        np.maximum.accumulate(candidates, out=candidates)
        score[i, 1:] = candidates

    mapping: list[int | None] = [None] * m
    i, j = m, n
    while i > 0 and j > 0:
        cur = score[i, j]
        diag = score[i - 1, j - 1]
        if a[i - 1] == b[j - 1] and cur == diag + 1:
            mapping[i - 1] = j - 1
            i -= 1
            j -= 1
        elif a[i - 1] != b[j - 1] and cur == diag:
            mapping[i - 1] = j - 1
            i -= 1
            j -= 1
        elif cur == score[i - 1, j]:
            i -= 1
        else:
            j -= 1

    similarity = float(score[m, n]) / float(max(m, n))
    return tuple(mapping), similarity


def best_alignment_matches(a: str, b: str) -> int:
    """Maximum matched pairs over every monotone alignment, by enumeration.

    Exponential; only call on tiny strings.
    """

    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i >= len(a) or j >= len(b):
            return 0
        best = rec(i + 1, j)  # leave a[i] unpaired
        for k in range(j, len(b)):
            best = max(best, (1 if a[i] == b[k] else 0) + rec(i + 1, k + 1))
        return best

    result = rec(0, 0)
    rec.cache_clear()
    return result


def average_ranks(values) -> list[float]:
    """Ranks with ties averaged, straight from the definition."""
    ranks = []
    for v in values:
        less = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        ranks.append(less + (equal + 1) / 2)
    return ranks


def pearson(x, y) -> float:
    n = len(x)
    mean_x = sum(x) / n
    mean_y = sum(y) / n
    cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(x, y))
    var_x = sum((a - mean_x) ** 2 for a in x)
    var_y = sum((b - mean_y) ** 2 for b in y)
    return cov / math.sqrt(var_x * var_y)


def spearman_reference(pred, gold) -> float:
    """Average-rank Spearman with the same degenerate-case conventions."""
    assert len(pred) == len(gold)
    pred_const = all(v == pred[0] for v in pred)
    gold_const = all(v == gold[0] for v in gold)
    if pred_const and gold_const:
        return 1.0
    if pred_const or gold_const:
        return 0.0
    return pearson(average_ranks(pred), average_ranks(gold))


def iou_reference(pred_spans, gold_spans, length: int) -> float:
    """Char-set IoU via explicit boolean vectors."""
    pred_mask = [False] * length
    gold_mask = [False] * length
    for start, end in pred_spans:
        for i in range(start, end):
            pred_mask[i] = True
    for start, end in gold_spans:
        for i in range(start, end):
            gold_mask[i] = True
    inter = sum(1 for p, g in zip(pred_mask, gold_mask) if p and g)
    union = sum(1 for p, g in zip(pred_mask, gold_mask) if p or g)
    if union == 0:
        return 1.0
    return inter / union


def recount_probs(valid_run_spans, length: int) -> list[float]:
    """Recount per-character vote fractions from a list of span lists."""
    counts = [0] * length
    for spans in valid_run_spans:
        covered = set()
        for start, end in spans:
            covered.update(range(start, end))
        for i in covered:
            counts[i] += 1
    return [c / len(valid_run_spans) for c in counts]


def runs_to_spans(chars) -> list[tuple[int, int]]:
    """Maximal consecutive runs of a set of indices, by linear scan."""
    spans = []
    current = None
    for i in sorted(chars):
        if current is None:
            current = [i, i + 1]
        elif i == current[1]:
            current[1] = i + 1
        else:
            spans.append(tuple(current))
            current = [i, i + 1]
    if current is not None:
        spans.append(tuple(current))
    return spans
