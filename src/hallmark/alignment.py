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
with four whole-row integer operations, the bit-parallel LCS recurrence of
Allison & Dix (1986, "A bit-string longest-common-subsequence algorithm")
in the form given by Hyyrö (2004, "Bit-parallel LCS-length computation
revisited"): ``u = v & M`` and ``v' = (v + u) | (v ^ u)``, where ``M``
marks the columns holding the row's character (``u`` lies inside ``v``, so
``v ^ u`` is ``v`` with those columns cleared). No mask keeps a row to its
``n`` columns: a carry out of the top column only sets bits above them, at
most one more per row, which no read looks at and the forward pass clears
at each checkpoint. The traceback reads any score back as ``j`` minus the
count of set bits below ``j``.

Rows are checkpointed (Grice, Hughey & Speck 1997, "Reduced space sequence
alignment"): the forward pass keeps one row in every ``k = isqrt(m)``, and
the traceback, which only moves up, rebuilds one block of ``k`` rows at a
time from its checkpoint. Carries only run towards higher bits, so the low
``j`` bits of a row depend only on the low ``j`` bits of the row above; a
block is rebuilt only as wide as the column the traceback has reached.
Memory is about 2·sqrt(m)·n bits (about 0.1 MB of rows for two
5000-character texts) instead of m·n. The score of the whole alignment is
known after the forward pass, so a caller's similarity gate is decided,
by ``validate_run``, before any traceback.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from math import isqrt

from .core import SpanLabel, coverage, runs_of
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


def align(clean: str, original: str, min_similarity: float = 0.0) -> AlignmentResult:
    """Globally align ``clean`` against ``original``.

    Ties are broken deterministically, preferring match, then
    substitution, then deleting a character of ``clean``, then skipping a
    character of ``original``. Substituted pairs are kept in the mapping;
    only deletions leave gaps. When the similarity is below
    ``min_similarity`` there is no traceback: the result carries the
    exact similarity and maps every character to None.
    """
    m, n = len(clean), len(original)
    if m == 0 and n == 0:
        return AlignmentResult((), 1.0)
    if m == 0 or n == 0:
        return AlignmentResult((None,) * m, 0.0)
    if clean == original:
        # the full traceback takes the diagonal match at every step
        return AlignmentResult(tuple(range(n)), 1.0)

    # a character of ``clean`` found nowhere in ``original`` has no mask: its
    # row equals the row above
    masks: dict[str, int] = {}
    for j, ch in enumerate(original):
        masks[ch] = masks.get(ch, 0) | (1 << j)

    full = (1 << n) - 1
    k = isqrt(m)
    checkpoints = []  # rows 0, k, 2k, ...; row 0 scores 0, all bits set
    v = full
    for base in range(0, m, k):
        v &= full
        checkpoints.append(v)
        for ch in clean[base : base + k]:
            match = masks.get(ch)
            if match is not None:
                u = v & match
                v = (v + u) | (v ^ u)
    total = n - (v & full).bit_count()
    skipped = AlignmentResult((None,) * m, total / max(m, n))
    if not validate_run(skipped, min_similarity):
        return skipped

    def block(i: int, j: int) -> tuple[int, list[int]]:
        """The first row of ``i``'s block and the low ``j`` bits of its rows up to ``i``."""
        base = (i - 1) // k * k
        v = checkpoints[base // k] & ((1 << j) - 1)
        rows = [v]
        for ch in clean[base:i]:
            match = masks.get(ch)
            if match is not None:
                u = v & match
                v = (v + u) | (v ^ u)
            rows.append(v)
        return base, rows

    mapping: list[int | None] = [None] * m
    i, j = m, n
    base, rows = block(i, j)
    cur = total
    while i > 0 and j > 0:
        if i == base:
            base, rows = block(i, j)
        below, above = rows[i - base], rows[i - 1 - base]
        up = j - (above & ((1 << j) - 1)).bit_count()
        diag = up - (1 - ((above >> (j - 1)) & 1))
        same = clean[i - 1] == original[j - 1]
        if (same and cur == diag + 1) or (not same and cur == diag):
            mapping[i - 1] = j - 1
            i -= 1
            j -= 1
            cur = diag
        elif cur == up:
            i -= 1
        else:
            cur -= 1 - ((below >> (j - 1)) & 1)
            j -= 1

    return AlignmentResult(tuple(mapping), skipped.similarity)


def _splits_mark(answer: str, i: int) -> bool:
    """Whether offset ``i`` falls between a character of ``answer`` and a combining mark (Mn, Mc or Me) after it."""
    return 0 < i < len(answer) and unicodedata.category(answer[i]).startswith("M")


def project_spans(parsed: ParsedMarking, alignment: AlignmentResult, answer: str) -> list[SpanLabel]:
    """Map marked spans from the cleaned text onto offsets of ``answer``, the original.

    Each span becomes the range from its first to its last aligned
    character, widened so that neither end splits a combining mark from
    its base (a Hindi matra or anusvara, an Arabic haraka); spans aligned
    entirely to gaps are dropped. The result is sorted and disjoint;
    touching spans are joined.
    """
    projected: list[SpanLabel] = []
    for span in parsed.marked_spans:
        mapped = [m for m in alignment.mapping[span.start : span.end] if m is not None]
        if mapped:  # mapped indices increase, so these are its smallest and largest
            start, end = mapped[0], mapped[-1] + 1
            while _splits_mark(answer, start):
                start -= 1
            while _splits_mark(answer, end):
                end += 1
            projected.append(SpanLabel(start, end))
    end = max((s.end for s in projected), default=0)
    return [SpanLabel(s.start, s.end) for s in runs_of(coverage(projected, end))]


def validate_run(alignment: AlignmentResult, min_similarity: float) -> bool:
    """Accept a run when its rewrite stayed close enough to the original."""
    return alignment.similarity >= min_similarity
