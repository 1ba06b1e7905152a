from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hallmark import PredictionRecord, SpanLabel, coverage, runs_of
from hallmark.errors import SpanError

from .conftest import call_sites
from .reference import runs_to_spans


class TestSpanLabel:
    def test_rejects_inverted_span(self):
        with pytest.raises(SpanError):
            SpanLabel(4, 4)
        with pytest.raises(SpanError):
            SpanLabel(5, 2)

    def test_rejects_negative_start(self):
        with pytest.raises(SpanError):
            SpanLabel(-1, 2)

    def test_rejects_bad_prob(self):
        with pytest.raises(SpanError):
            SpanLabel(0, 1, prob=1.5)
        assert SpanLabel(0, 1, prob=0.5).prob == 0.5


class TestSpansToCharset:
    def test_single_span(self):
        assert coverage([SpanLabel(2, 4)], 6) == [0, 0, 1, 1, 0, 0]

    def test_empty(self):
        assert coverage([], 5) == [0] * 5

    def test_two_spans(self):
        assert coverage([SpanLabel(0, 2), SpanLabel(4, 5)], 5) == [1, 1, 0, 0, 1]

    def test_out_of_range(self):
        with pytest.raises(SpanError):
            coverage([SpanLabel(3, 7)], 5)


def indicator(chars, length):
    return [1.0 if i in chars else 0.0 for i in range(length)]


class TestCharsetToSpans:
    def test_single_run(self):
        assert runs_of(indicator({2, 3}, 6)) == [SpanLabel(2, 4, 1.0)]

    def test_empty(self):
        assert runs_of(indicator(set(), 6)) == []

    def test_two_runs(self):
        assert runs_of(indicator({0, 1, 4}, 6)) == [SpanLabel(0, 2, 1.0), SpanLabel(4, 5, 1.0)]


@given(st.sets(st.integers(min_value=0, max_value=60)))
def test_charset_round_trip(chars):
    spans = runs_of(indicator(chars, 61))
    assert coverage(spans, 61) == indicator(chars, 61)
    # independently recompute the maximal runs
    assert [(s.start, s.end) for s in spans] == runs_to_spans(chars)


@given(st.sets(st.integers(min_value=0, max_value=60)))
def test_charset_to_spans_is_normalized(chars):
    spans = runs_of(indicator(chars, 61))
    prev_end = None
    for span in spans:
        if prev_end is not None:
            assert span.start > prev_end  # maximal runs never touch
        prev_end = span.end


@given(st.lists(st.floats(min_value=0.0, max_value=1.0)))
def test_runs_of_expands_back_exactly(values):
    assert coverage(runs_of(values), len(values)) == values


def test_offsets_count_unicode_scalars():
    answer = "日本語abc"
    assert answer.index("a") == 3
    assert coverage([SpanLabel(3, 6)], len(answer)) == [0, 0, 0, 1, 1, 1]
    assert answer[3:6] == "abc"


class TestPredictionRecord:
    def test_hard_labels_must_not_carry_prob(self):
        with pytest.raises(SpanError):
            PredictionRecord(
                id="a", lang="EN",
                hard_labels=(SpanLabel(0, 1, prob=0.5),),
                soft_labels=(), runs_used=1,
            )

    def test_soft_labels_require_positive_prob(self):
        with pytest.raises(SpanError):
            PredictionRecord(
                id="a", lang="EN",
                hard_labels=(),
                soft_labels=(SpanLabel(0, 1),), runs_used=1,
            )

    def test_overlapping_labels_rejected(self):
        with pytest.raises(SpanError):
            PredictionRecord(
                id="a", lang="EN",
                hard_labels=(SpanLabel(0, 3), SpanLabel(2, 5)),
                soft_labels=(), runs_used=1,
            )

    def test_valid_record(self):
        record = PredictionRecord(
            id="a", lang="EN",
            hard_labels=(SpanLabel(0, 2), SpanLabel(4, 5)),
            soft_labels=(SpanLabel(0, 2, 0.75), SpanLabel(2, 3, 0.25)),
            runs_used=4,
        )
        assert record.soft_labels[1].prob == 0.25


def test_one_span_rule():
    # "sorted, disjoint, inside the text" is written once; every other span check calls it
    assert call_sites(r"overlaps or is out of order|exceeds text length") == {"core.py:validate_spans"}


def test_one_span_form():
    # a span is a SpanLabel everywhere; no (start, end) pair type is left beside it
    assert call_sites(r"tuple\[int, int\]") == set()
