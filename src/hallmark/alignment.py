"""Global character alignment between an annotator's rewritten answer and
the original answer.

Annotators are instructed to copy the answer verbatim apart from the
inserted markers, but real model output drifts (typo fixes, dropped
punctuation, partial rewrites). A global alignment maps each character of
the cleaned rewrite back to an original offset so marked spans can be
projected onto the original answer, and its score gates whether the run is
trusted at all.

Scoring is unweighted: match +1, mismatch 0, gap 0, so the optimal score
is the length of the longest common subsequence. Adjacent cells of a row
of that score table differ by 0 or 1, so a row is stored as one Python
int with one bit per column: bit ``j`` of row ``i`` is 0 exactly when
``score[i][j+1] == score[i][j] + 1``. Each row follows from the one above
with a handful of whole-row integer operations, the bit-parallel LCS
recurrence of Allison & Dix (1986, "A bit-string longest-common-subsequence
algorithm") in the form given by Hyyrö (2004, "Bit-parallel LCS-length
computation revisited"). The traceback reads any score back as ``j``
minus the count of set bits below ``j``. Every row is kept, so memory is
m·n bits (about 3.6 MB for two 5000-character texts) instead of m·n integers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import SpanLabel
from .marking import ParsedMarking


@dataclass(frozen=True)
class AlignmentResult:
    """Per-character mapping from the cleaned text onto the original.

    ``mapping[i]`` is the original-answer index aligned with character
    ``i`` of the cleaned text, or None where the character has no
    counterpart. Mapped indices are strictly increasing. ``similarity``
    is matched characters divided by the longer length; it is 1.0 exactly
    when the two texts are equal.
    """

    mapping: tuple[int | None, ...]
    similarity: float


def align(clean: str, original: str) -> AlignmentResult:
    """Globally align ``clean`` against ``original``.

    Ties are broken deterministically, preferring match, then
    substitution, then deleting a character of ``clean``, then skipping a
    character of ``original``. Substituted pairs are kept in the mapping;
    only deletions leave gaps.
    """
    m, n = len(clean), len(original)
    if m == 0 and n == 0:
        return AlignmentResult((), 1.0)
    if m == 0 or n == 0:
        return AlignmentResult((None,) * m, 0.0)
    if clean == original:
        # the full traceback takes the diagonal match at every step
        return AlignmentResult(tuple(range(n)), 1.0)

    masks: dict[str, int] = {}
    for j, ch in enumerate(original):
        masks[ch] = masks.get(ch, 0) | (1 << j)

    full = (1 << n) - 1
    rows = [full]  # rows[i] encodes score[i][0..n]; row 0 scores 0, all bits set
    v = full
    for ch in clean:
        u = v & masks.get(ch, 0)
        v = ((v + u) | (v - u)) & full
        rows.append(v)

    def score(i: int, j: int) -> int:
        return j - (rows[i] & ((1 << j) - 1)).bit_count()

    mapping: list[int | None] = [None] * m
    i, j = m, n
    cur = score(m, n)
    total = cur
    while i > 0 and j > 0:
        up = score(i - 1, j)
        diag = up - (1 - ((rows[i - 1] >> (j - 1)) & 1))
        same = clean[i - 1] == original[j - 1]
        if (same and cur == diag + 1) or (not same and cur == diag):
            mapping[i - 1] = j - 1
            i -= 1
            j -= 1
            cur = diag
        elif cur == up:
            i -= 1
        else:
            cur -= 1 - ((rows[i] >> (j - 1)) & 1)
            j -= 1

    return AlignmentResult(tuple(mapping), total / max(m, n))


def project_spans(parsed: ParsedMarking, alignment: AlignmentResult) -> list[SpanLabel]:
    """Map marked spans from the cleaned text onto original-answer offsets.

    Each span becomes the smallest original range covering its aligned
    characters; spans aligned entirely to gaps are dropped. The result is
    sorted and overlap-free.
    """
    projected: list[SpanLabel] = []
    for span in parsed.marked_spans:
        mapped = [
            alignment.mapping[i]
            for i in range(span.start, span.end)
            if alignment.mapping[i] is not None
        ]
        if not mapped:
            continue
        projected.append(SpanLabel(min(mapped), max(mapped) + 1))

    projected.sort(key=lambda s: (s.start, s.end))
    merged: list[SpanLabel] = []
    for span in projected:
        if merged and span.start < merged[-1].end:
            merged[-1] = SpanLabel(merged[-1].start, max(merged[-1].end, span.end))
        else:
            merged.append(span)
    return merged


def validate_run(alignment: AlignmentResult, min_similarity: float = 0.7) -> bool:
    """Accept a run when its rewrite stayed close enough to the original."""
    return alignment.similarity >= min_similarity
