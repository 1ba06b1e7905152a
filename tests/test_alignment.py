from __future__ import annotations

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallmark import align, parse_marked, project_spans, validate_run
from hallmark.alignment import AlignmentResult
from hallmark.marking import ParsedMarking
from hallmark.core import SpanLabel

from .reference import best_alignment_matches, lcs_length, reference_align


def assert_valid_alignment(clean, original, result):
    """Structural checks plus score agreement with the LCS oracle."""
    assert len(result.mapping) == len(clean)
    mapped = [m for m in result.mapping if m is not None]
    assert all(0 <= m < len(original) for m in mapped)
    assert all(b > a for a, b in zip(mapped, mapped[1:]))  # strictly increasing
    matches = sum(
        1
        for i, m in enumerate(result.mapping)
        if m is not None and clean[i] == original[m]
    )
    expected = lcs_length(clean, original)
    assert matches == expected
    if clean or original:
        assert result.similarity == expected / max(len(clean), len(original))
    else:
        assert result.similarity == 1.0


class TestAlign:
    def test_equal_strings_identity(self):
        result = align("abc", "abc")
        assert result.mapping == (0, 1, 2)
        assert result.similarity == 1.0

    def test_both_empty(self):
        result = align("", "")
        assert result.mapping == ()
        assert result.similarity == 1.0

    def test_colour_color(self):
        # derived via the enumeration oracle: 5 of 6 characters match
        assert best_alignment_matches("colour", "color") == 5
        result = align("colour", "color")
        assert result.mapping == (0, 1, 2, 3, None, 4)
        assert result.similarity == pytest.approx(5 / 6)

    def test_empty_vs_nonempty(self):
        result = align("", "abc")
        assert result.similarity == 0.0
        result = align("abc", "")
        assert result.mapping == (None, None, None)
        assert result.similarity == 0.0

    def test_exhaustive_small_strings(self):
        # every pair over a 3-letter alphabet up to length 3, checked
        # against the brute-force enumeration oracle
        strings = [
            "".join(t)
            for n in range(4)
            for t in itertools.product("abc", repeat=n)
        ]
        for a, b in itertools.product(strings, strings):
            result = align(a, b)
            assert_valid_alignment(a, b, result)
            matches = sum(
                1 for i, m in enumerate(result.mapping) if m is not None and a[i] == b[m]
            )
            assert matches == best_alignment_matches(a, b)

    def test_random_longer_strings(self):
        rng = random.Random(20240301)
        for _ in range(800):
            a = "".join(rng.choice("abc") for _ in range(rng.randint(4, 8)))
            b = "".join(rng.choice("abc") for _ in range(rng.randint(4, 8)))
            assert_valid_alignment(a, b, align(a, b))


@given(st.text(max_size=25), st.text(max_size=25))
@settings(max_examples=150)
def test_similarity_symmetric(a, b):
    assert align(a, b).similarity == align(b, a).similarity


@given(st.text(max_size=25), st.text(max_size=25))
@settings(max_examples=150)
def test_similarity_one_iff_equal(a, b):
    assert (align(a, b).similarity == 1.0) == (a == b)


class TestProjectSpans:
    def test_identity_projection(self):
        parsed = ParsedMarking("abcdef", (SpanLabel(2, 5),))
        result = align("abcdef", "abcdef")
        assert project_spans(parsed, result) == [SpanLabel(2, 5)]

    def test_all_gap_span_dropped(self):
        # the marked region aligns entirely to gaps
        parsed = ParsedMarking("abXYcd", (SpanLabel(2, 4),))
        result = align("abXYcd", "abcd")
        assert result.mapping == (0, 1, None, None, 2, 3)
        assert project_spans(parsed, result) == []

    def test_typo_span_recovers_original_word(self):
        marked = "won a ⟨⟨siver⟩⟩ medal"
        original = "won a silver medal"
        parsed = parse_marked(marked)
        result = align(parsed.clean_text, original)
        projected = project_spans(parsed, result)
        assert len(projected) == 1
        span = projected[0]
        assert original[span.start : span.end] == "silver"

    def test_output_valid_for_original(self):
        rng = random.Random(7)
        for _ in range(200):
            original = "".join(rng.choice("abcd ") for _ in range(rng.randint(1, 20)))
            noisy = "".join(c for c in original if rng.random() > 0.2)
            if not noisy:
                continue
            start = rng.randrange(len(noisy))
            end = rng.randint(start + 1, len(noisy))
            parsed = ParsedMarking(noisy, (SpanLabel(start, end),))
            projected = project_spans(parsed, align(noisy, original))
            prev_end = 0
            for span in projected:
                assert 0 <= span.start < span.end <= len(original)
                assert span.start >= prev_end
                prev_end = span.end


class TestValidateRun:
    def test_accepts_perfect(self):
        assert validate_run(align("abc", "abc"), 0.7) is True

    def test_rejects_below_gate(self):
        result = align("colour", "color")  # similarity 5/6
        assert validate_run(result, 0.9) is False

    def test_gate_is_inclusive(self):
        class Stub:
            similarity = 0.7

        assert validate_run(Stub(), 0.7) is True
        Stub.similarity = 0.69
        assert validate_run(Stub(), 0.7) is False


# Differential oracle: the bit-parallel ``align`` against the full-table DP
# it replaced, which fixes the tie-break as well as the score.

# Non-BMP letters and combining marks are one code point each, like any
# other character.
DRIFT_ALPHABET = "ab \u00e9e\u0301\U0001d518\U0001f600\u05d0"


def drift(rng: random.Random, text: str, rate: float) -> str:
    """Apply random substitutions, insertions and deletions to ``text``."""
    out = []
    for ch in text:
        r = rng.random()
        if r < rate / 3:
            continue
        if r < 2 * rate / 3:
            out.append(rng.choice(DRIFT_ALPHABET))
            continue
        out.append(ch)
        if r < rate:
            out.append(rng.choice(DRIFT_ALPHABET))
    return "".join(out)


def assert_same_as_reference(clean, original):
    assert align(clean, original) == AlignmentResult(*reference_align(clean, original))


def test_matches_reference_exhaustively():
    strings = ["".join(t) for n in range(5) for t in itertools.product("abc", repeat=n)]
    for a, b in itertools.product(strings, strings):
        assert_same_as_reference(a, b)


@st.composite
def drifted_pairs(draw):
    original = draw(st.text(alphabet=DRIFT_ALPHABET, max_size=40))
    chars = list(original)
    edits = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["sub", "ins", "del"]),
                st.integers(0, 40),
                st.sampled_from(DRIFT_ALPHABET),
            ),
            max_size=8,
        )
    )
    for op, pos, ch in edits:
        if op == "ins":
            chars.insert(pos % (len(chars) + 1), ch)
        elif chars and op == "sub":
            chars[pos % len(chars)] = ch
        elif chars:
            del chars[pos % len(chars)]
    return "".join(chars), original


@given(drifted_pairs())
@settings(max_examples=300)
def test_matches_reference_on_drifted_pairs(pair):
    clean, original = pair
    assert_same_as_reference(clean, original)
    assert_same_as_reference(original, clean)


def long_drifted_pair(length: int = 5000) -> tuple[str, str]:
    rng = random.Random(5000)
    original = "".join(rng.choice("abcdefghij klmnop,." + DRIFT_ALPHABET) for _ in range(length))
    return drift(rng, original, 0.05), original


def test_matches_reference_on_long_drifted_pair():
    assert_same_as_reference(*long_drifted_pair())


def test_long_alignment_memory_bound():
    # m*n bits for the score rows: about 3 MB at 5000 x 5000, where one
    # int32 per cell took 100 MB
    clean, original = long_drifted_pair()
    tracemalloc.start()
    try:
        align(clean, original)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 1024 * 1024
