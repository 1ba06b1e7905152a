from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hallmark import PredictionRecord, SpanLabel, charset_to_spans, spans_to_charset
from hallmark.errors import SpanError

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
        assert spans_to_charset([SpanLabel(2, 4)], 6) == {2, 3}

    def test_empty(self):
        assert spans_to_charset([], 5) == set()

    def test_two_spans(self):
        assert spans_to_charset([SpanLabel(0, 2), SpanLabel(4, 5)], 5) == {0, 1, 4}

    def test_out_of_range(self):
        with pytest.raises(SpanError):
            spans_to_charset([SpanLabel(3, 7)], 5)


class TestCharsetToSpans:
    def test_single_run(self):
        assert charset_to_spans({2, 3}) == [SpanLabel(2, 4)]

    def test_empty(self):
        assert charset_to_spans(set()) == []

    def test_two_runs(self):
        assert charset_to_spans({0, 1, 4}) == [SpanLabel(0, 2), SpanLabel(4, 5)]

    def test_negative_index(self):
        with pytest.raises(SpanError):
            charset_to_spans({-1, 0})


@given(st.sets(st.integers(min_value=0, max_value=60)))
def test_charset_round_trip(chars):
    spans = charset_to_spans(chars)
    assert spans_to_charset(spans, 61) == chars
    # independently recompute the maximal runs
    assert [(s.start, s.end) for s in spans] == runs_to_spans(chars)


@given(st.sets(st.integers(min_value=0, max_value=60)))
def test_charset_to_spans_is_normalized(chars):
    spans = charset_to_spans(chars)
    prev_end = None
    for span in spans:
        if prev_end is not None:
            assert span.start > prev_end  # maximal runs never touch
        prev_end = span.end


def test_offsets_count_unicode_scalars():
    answer = "日本語abc"
    assert answer.index("a") == 3
    assert spans_to_charset([SpanLabel(3, 6)], len(answer)) == {3, 4, 5}
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
