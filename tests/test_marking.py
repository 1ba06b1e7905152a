from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hallmark import insert_markers, parse_marked
from hallmark.errors import MarkerError

from .conftest import SWIMMER_ANSWER, SWIMMER_HALLUCINATED

MARKER_LIKE_CASES = json.loads(
    (Path(__file__).resolve().parent / "fixtures" / "marker_like_answers.json").read_text(
        encoding="utf-8"
    )
)


def covered_substrings(parsed):
    return [parsed.clean_text[s.start : s.end] for s in parsed.marked_spans]


def test_swimmer_example():
    marked = (
        "Petra van Stoveren won a ⟨⟨silver⟩⟩ medal in the ⟨⟨2008⟩⟩ "
        "Summer Olympics in ⟨⟨Beijing, China⟩⟩."
    )
    parsed = parse_marked(marked)
    assert parsed.clean_text == SWIMMER_ANSWER
    assert tuple(covered_substrings(parsed)) == SWIMMER_HALLUCINATED


def test_no_markers_is_identity():
    parsed = parse_marked("no markers here")
    assert parsed.clean_text == "no markers here"
    assert parsed.marked_spans == ()


def test_dangling_open():
    with pytest.raises(MarkerError):
        parse_marked("⟨⟨dangling")


def test_unmatched_close():
    with pytest.raises(MarkerError):
        parse_marked("text⟩⟩oops")


def test_nested_markers():
    with pytest.raises(MarkerError):
        parse_marked("⟨⟨outer ⟨⟨inner⟩⟩ tail⟩⟩")


def test_empty_region_dropped():
    parsed = parse_marked("a⟨⟨⟩⟩b")
    assert parsed.clean_text == "ab"
    assert parsed.marked_spans == ()


def test_ascii_alphabet():
    parsed = parse_marked("won a <<silver>> medal")
    assert parsed.clean_text == "won a silver medal"
    assert covered_substrings(parsed) == ["silver"]


def test_guillemet_alphabet():
    parsed = parse_marked("won a «silver» medal")
    assert covered_substrings(parsed) == ["silver"]


def test_first_seen_alphabet_wins():
    # both alphabets occur; the primary one is parsed, the other is text
    parsed = parse_marked("«x» and ⟨⟨y⟩⟩")
    assert parsed.clean_text == "«x» and y"
    assert covered_substrings(parsed) == ["y"]


def hallucinated_spans(case) -> list[tuple[int, int]]:
    answer = case["answer"]
    return [(answer.index(h), answer.index(h) + len(h)) for h in case["hallucinated"]]


@pytest.mark.parametrize("case", MARKER_LIKE_CASES, ids=lambda c: c["id"])
def test_marker_like_text_in_answer_stays_text(case):
    # the annotator copies the answer verbatim and marks with ⟨⟨ ⟩⟩
    marked = insert_markers(case["answer"], hallucinated_spans(case))
    parsed = parse_marked(marked, case["answer"])
    assert parsed.clean_text == case["answer"]
    assert covered_substrings(parsed) == case["hallucinated"]


def test_alphabet_absent_from_answer_still_parses():
    answer = "Le roman « Les Misérables » est de Zola."
    parsed = parse_marked("Le roman « Les Misérables » est de <<Zola>>.", answer)
    assert parsed.clean_text == answer
    assert covered_substrings(parsed) == ["Zola"]


@pytest.mark.parametrize(
    "answer, marked",
    [
        (
            "Le roman « Les Misérables » est de Hugo.",
            "Le roman « Les Misérables » est de «Hugo».",
        ),
        (
            "La novela «Cien años de soledad» se publicó en 1982.",
            "La novela «Cien años de soledad» se publicó en «1982».",
        ),
        (
            "In C++, std::cout << x; writes x to standard error.",
            "In C++, std::cout << x; writes x to <<standard error>>.",
        ),
    ],
    ids=["fr", "es", "cpp"],
)
def test_marking_with_the_answers_own_alphabet_is_rejected(answer, marked):
    # the added tokens cannot be told from the answer's own, so the run is
    # rejected rather than read as an unmarked copy
    with pytest.raises(MarkerError):
        parse_marked(marked, answer)


def test_every_alphabet_in_answer_means_no_markers():
    answer = "⟨⟨a⟩⟩ «b» <<c>>"
    parsed = parse_marked(answer, answer)
    assert parsed.clean_text == answer
    assert parsed.marked_spans == ()


def test_adjacent_spans_stay_distinct():
    parsed = parse_marked("⟨⟨a⟩⟩⟨⟨b⟩⟩")
    assert parsed.clean_text == "ab"
    assert [(s.start, s.end) for s in parsed.marked_spans] == [(0, 1), (1, 2)]


def test_insert_markers_renders_spans():
    assert insert_markers("abcdef", [(1, 3)]) == "a⟨⟨bc⟩⟩def"
    assert insert_markers("abcdef", []) == "abcdef"


@st.composite
def text_with_spans(draw):
    text = draw(st.text(alphabet="abc חλ日 ", min_size=1, max_size=30))
    n = len(text)
    bounds = sorted(draw(st.sets(st.integers(0, n), max_size=6)))
    spans = [
        (s, e)
        for s, e in zip(bounds[::2], bounds[1::2])
        if e > s
    ]
    return text, spans


@given(text_with_spans())
def test_insert_then_parse_round_trip(case):
    text, spans = case
    parsed = parse_marked(insert_markers(text, spans))
    assert parsed.clean_text == text
    assert [(s.start, s.end) for s in parsed.marked_spans] == spans
