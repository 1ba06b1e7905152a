from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallmark import (
    AnnotationRun,
    SpanLabel,
    aggregate,
    coverage,
    expand_soft,
    to_hard_labels,
    to_soft_labels,
)
from hallmark.errors import SpanError
from hallmark.voting import BELOW_GATE, OK

from .reference import recount_probs


def run_with(spans, valid=True):
    # spans on a rejected run are what aggregate must ignore; the pipeline never builds one
    return AnnotationRun(OK if valid else BELOW_GATE, tuple(SpanLabel(s, e) for s, e in spans))


class TestAggregate:
    def test_three_of_twelve(self):
        runs = [run_with([(2, 3)]) for _ in range(3)] + [run_with([]) for _ in range(9)]
        probs = aggregate(runs, 10)
        assert probs[2] == 0.25
        assert probs[3] == 0.0

    def test_unanimous(self):
        runs = [run_with([(4, 7)]) for _ in range(12)]
        probs = aggregate(runs, 10)
        assert all(probs[i] == 1.0 for i in range(4, 7))
        assert all(probs[i] == 0.0 for i in list(range(4)) + list(range(7, 10)))

    def test_invalid_runs_shrink_denominator(self):
        # 10 valid runs of which 5 cover char 1, plus 2 invalid runs that
        # also cover it; the invalid votes must not count anywhere
        runs = (
            [run_with([(1, 2)]) for _ in range(5)]
            + [run_with([]) for _ in range(5)]
            + [run_with([(1, 2)], valid=False) for _ in range(2)]
        )
        probs = aggregate(runs, 10)
        expected = recount_probs([[(1, 2)]] * 5 + [[]] * 5, 10)
        assert list(probs) == expected
        assert probs[1] == 0.5

    def test_zero_valid_runs(self):
        # no run voted: every character is 0.0, so the item gets no labels
        assert aggregate([run_with([(1, 2)], valid=False)], 10) == [0.0] * 10
        assert aggregate([], 0) == []

    def test_overlapping_spans_in_one_run_count_once(self):
        runs = [run_with([(1, 4), (2, 5)]), run_with([])]
        assert aggregate(runs, 10)[1:6] == [0.5, 0.5, 0.5, 0.5, 0.0]

    def test_probabilities_are_python_floats(self):
        probs = aggregate([run_with([(0, 3)]) for _ in range(3)], 10)
        assert all(type(p) is float for p in probs)
        assert all(type(s.prob) is float for s in to_soft_labels(probs))

    def test_span_out_of_range(self):
        with pytest.raises(SpanError):
            aggregate([run_with([(8, 12)])], 10)


class TestToSoftLabels:
    def test_single_run(self):
        labels = to_soft_labels([0, 0, 0.25, 0.25, 0])
        assert labels == [SpanLabel(2, 4, 0.25)]

    def test_all_zero(self):
        assert to_soft_labels([0, 0, 0]) == []

    def test_probability_change_splits_runs(self):
        labels = to_soft_labels([0.5, 0.5, 0.75, 0.5])
        assert labels == [SpanLabel(0, 2, 0.5), SpanLabel(2, 3, 0.75), SpanLabel(3, 4, 0.5)]


class TestToHardLabels:
    def test_direct_thresholding(self):
        labels = to_hard_labels([0, 0, 0.6, 0.7, 0, 1.0], 0.5)
        assert labels == [SpanLabel(2, 4), SpanLabel(5, 6)]

    def test_below_threshold_boundary(self):
        assert to_hard_labels([0.49] * 4, 0.5) == []

    def test_majority_fixture_survives(self):
        # 7 of 12 runs mark chars 3..6, 5 mark nothing
        runs = [run_with([(3, 6)]) for _ in range(7)] + [run_with([]) for _ in range(5)]
        probs = aggregate(runs, 10)
        assert probs[3] == 7 / 12
        assert to_hard_labels(probs, 0.5) == [SpanLabel(3, 6)]
        assert to_hard_labels(probs, 0.6) == []

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            to_hard_labels([0.5], 0.0)


@st.composite
def run_sets(draw, min_valid=1):
    """(runs, answer length) for one item."""
    length = draw(st.integers(min_value=1, max_value=25))
    n_runs = draw(st.integers(min_value=min_valid, max_value=8))
    runs = []
    for idx in range(n_runs):
        bounds = sorted(draw(st.sets(st.integers(0, length), max_size=6)))
        spans = [(s, e) for s, e in zip(bounds[::2], bounds[1::2]) if e > s]
        valid = idx < min_valid or draw(st.booleans())
        runs.append(run_with(spans, valid=valid))
    return runs, length


@given(run_sets(), st.integers(min_value=0, max_value=24))
@settings(max_examples=150)
def test_monotonicity_of_added_runs(rs, char):
    runs, length = rs
    char = char % length
    before = aggregate(runs, length)

    marking = runs + [run_with([(char, char + 1)])]
    assert aggregate(marking, length)[char] >= before[char]

    silent = runs + [run_with([])]
    assert aggregate(silent, length)[char] <= before[char]


@given(run_sets(), st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_run_order_is_irrelevant(rs, rng):
    runs, length = rs
    shuffled = list(runs)
    rng.shuffle(shuffled)
    assert aggregate(shuffled, length) == aggregate(runs, length)
    assert to_soft_labels(aggregate(shuffled, length)) == to_soft_labels(aggregate(runs, length))


@given(run_sets())
@settings(max_examples=150)
def test_soft_labels_expand_back_exactly(rs):
    runs, length = rs
    probs = aggregate(runs, length)
    labels = to_soft_labels(probs)
    assert expand_soft(labels, length) == probs


@given(run_sets(), st.floats(0.05, 1.0), st.floats(0.05, 1.0))
@settings(max_examples=150)
def test_higher_threshold_selects_subset(rs, t1, t2):
    runs, length = rs
    low, high = min(t1, t2), max(t1, t2)
    probs = aggregate(runs, length)
    high_chars = {i for i, v in enumerate(coverage(to_hard_labels(probs, high), length)) if v}
    low_chars = {i for i, v in enumerate(coverage(to_hard_labels(probs, low), length)) if v}
    assert high_chars <= low_chars
