"""Parsing and rendering of in-place hallucination markers.

Annotators rewrite the answer and wrap every hallucinated term in double
angle brackets. Three delimiter alphabets are accepted because models
substitute typographic variants; the first alphabet that occurs in the
text is used for the whole text, so variants never mix. An alphabet whose
open or close token already occurs in the original answer is never used,
so a verbatim copy of a French title in « » or of C++ ``<<`` stays text;
a reply that adds such tokens and uses no other alphabet is rejected,
since its marks cannot be told from the answer's own text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import SpanLabel, validate_spans
from .errors import MarkerError

# (open, close) pairs, in priority order
DELIMITER_ALPHABETS: tuple[tuple[str, str], ...] = (
    ("⟨⟨", "⟩⟩"),  # mathematical angle brackets, doubled
    ("«", "»"),              # guillemets
    ("<<", ">>"),                      # plain ASCII
)

OPEN_MARKER, CLOSE_MARKER = DELIMITER_ALPHABETS[0]


@dataclass(frozen=True)
class ParsedMarking:
    """Marker-free text plus the spans the markers covered."""

    clean_text: str
    marked_spans: tuple[SpanLabel, ...]


def _pick_alphabet(marked: str, original: str) -> tuple[str, str] | None:
    adds_skipped = False  # the reply holds more of a skipped token than the answer
    for open_tok, close_tok in DELIMITER_ALPHABETS:
        if open_tok in original or close_tok in original:
            adds_skipped |= any(marked.count(t) > original.count(t) for t in (open_tok, close_tok))
            continue
        if open_tok in marked or close_tok in marked:
            return open_tok, close_tok
    if adds_skipped:
        raise MarkerError("reply adds marker tokens that the answer itself contains")
    return None


def parse_marked(marked: str, original: str = "") -> ParsedMarking:
    """Strip marker delimiters from ``marked`` and return the covered spans.

    ``original`` is the answer the annotator rewrote; alphabets whose
    tokens occur in it are treated as text. Spans are expressed over the
    returned clean text. Empty marked regions are dropped. Raises
    MarkerError on unbalanced or nested delimiters, or on added tokens of
    a skipped alphabet; the caller discards the single run, not the item.
    """
    alphabet = _pick_alphabet(marked, original)
    if alphabet is None:
        return ParsedMarking(marked, ())
    open_tok, close_tok = alphabet

    pieces: list[str] = []
    spans: list[SpanLabel] = []
    clean_len = 0
    pos = 0
    open_at: int | None = None  # clean-text offset of the current open marker
    while True:
        next_open = marked.find(open_tok, pos)
        next_close = marked.find(close_tok, pos)
        if next_open == -1 and next_close == -1:
            break
        if next_close == -1 or (next_open != -1 and next_open < next_close):
            if open_at is not None:
                raise MarkerError(f"nested {open_tok} marker at offset {next_open}")
            pieces.append(marked[pos:next_open])
            clean_len += next_open - pos
            open_at = clean_len
            pos = next_open + len(open_tok)
        else:
            if open_at is None:
                raise MarkerError(f"unmatched {close_tok} marker at offset {next_close}")
            pieces.append(marked[pos:next_close])
            clean_len += next_close - pos
            if clean_len > open_at:
                spans.append(SpanLabel(open_at, clean_len))
            open_at = None
            pos = next_close + len(close_tok)
    if open_at is not None:
        raise MarkerError(f"unclosed {open_tok} marker")
    pieces.append(marked[pos:])
    return ParsedMarking("".join(pieces), tuple(spans))


def insert_markers(text: str, spans: Sequence[SpanLabel]) -> str:
    """Render ``text`` with the given spans wrapped in the first marker alphabet.

    The inverse of :func:`parse_marked`. Raises SpanError unless the spans
    are sorted, disjoint and inside ``text``.
    """
    validate_spans(spans, len(text))
    pieces = []
    pos = 0
    for span in spans:
        pieces.append(text[pos : span.start])
        pieces.append(OPEN_MARKER)
        pieces.append(text[span.start : span.end])
        pieces.append(CLOSE_MARKER)
        pos = span.end
    pieces.append(text[pos:])
    return "".join(pieces)
