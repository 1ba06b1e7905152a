from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hallmark
from hallmark import (
    GoldRecord,
    PredictionRecord,
    SpanLabel,
    evaluate,
    expand_soft,
    iou,
    spearman,
)
from hallmark.errors import EvaluationError, SpanError
from hallmark.scoring import average_ranks as tied_ranks
from hallmark.scoring import render_table

from .reference import average_ranks, iou_reference, pearson, spearman_reference


class TestIou:
    def test_partial_overlap(self):
        # chars {5..10} vs {8..12}: 3 shared, 8 in the union
        assert iou_reference([(5, 11)], [(8, 13)], 20) == 0.375
        assert iou([SpanLabel(5, 11)], [SpanLabel(8, 13)], 20) == 0.375

    def test_both_empty(self):
        assert iou([], [], 10) == 1.0

    def test_disjoint(self):
        assert iou([SpanLabel(0, 2)], [SpanLabel(5, 7)], 10) == 0.0

    def test_out_of_range(self):
        with pytest.raises(SpanError):
            iou([SpanLabel(8, 12)], [], 10)

    def test_matches_reference_on_random_cases(self):
        rng = random.Random(99)
        for _ in range(300):
            length = rng.randint(1, 50)

            def spans():
                out = []
                pos = 0
                while pos < length and rng.random() < 0.6:
                    start = rng.randint(pos, length - 1)
                    end = rng.randint(start + 1, length)
                    out.append((start, end))
                    pos = end + 1
                return out

            a, b = spans(), spans()
            expected = iou_reference(a, b, length)
            got = iou([SpanLabel(s, e) for s, e in a], [SpanLabel(s, e) for s, e in b], length)
            assert got == expected


class TestSpearman:
    def test_identical_vectors(self):
        assert spearman([0.1, 0.4, 0.2, 0.9], [0.1, 0.4, 0.2, 0.9]) == 1.0

    def test_reversed(self):
        assert spearman([0.1, 0.2, 0.3, 0.4], [0.9, 0.5, 0.3, 0.1]) == pytest.approx(-1.0)

    def test_tied_case_against_rank_oracle(self):
        pred = [0, 0, 0.5, 1]
        gold = [0, 0.25, 0.25, 1]
        assert average_ranks(pred) == [1.5, 1.5, 3, 4]
        assert average_ranks(gold) == [1, 2.5, 2.5, 4]
        expected = pearson([1.5, 1.5, 3, 4], [1, 2.5, 2.5, 4])
        assert expected == pytest.approx(5 / 6)
        assert spearman(pred, gold) == pytest.approx(expected, abs=1e-9)

    def test_both_constant(self):
        assert spearman([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]) == 1.0
        assert spearman([0.3, 0.3], [0.7, 0.7]) == 1.0

    def test_one_constant(self):
        assert spearman([0.0, 0.0, 0.0], [0.1, 0.2, 0.3]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spearman([0.1], [0.1, 0.2])

    def test_single_element(self):
        assert spearman([0.4], [0.9]) == 1.0


@given(
    st.lists(
        st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.5, 0.75, 1.0]), min_size=2, max_size=40
    ),
    st.lists(
        st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.5, 0.75, 1.0]), min_size=2, max_size=40
    ),
)
@settings(max_examples=200)
def test_spearman_matches_reference(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    assert spearman(a, b) == pytest.approx(spearman_reference(a, b), abs=1e-9)


# a coarse grid keeps x -> x**3 collision-free in float arithmetic
@given(st.lists(st.sampled_from([i / 20 for i in range(21)]), min_size=2, max_size=30))
@settings(max_examples=100)
def test_spearman_invariant_under_monotone_transform(values):
    other = [((i * 7919) % 97) / 97 for i in range(len(values))]
    transformed = [v**3 for v in values]  # strictly monotone on [0, 1]
    assert spearman(values, other) == pytest.approx(
        spearman(transformed, other), abs=1e-9
    )


@given(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=40))
@settings(max_examples=200)
def test_tied_ranks_match_reference_exactly(values):
    assert tied_ranks(values) == average_ranks(values)


def test_import_leaves_scipy_out():
    code = "import sys, hallmark; print('scipy' in sys.modules, 'numpy' in sys.modules)"
    src = str(Path(hallmark.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False False"


class TestExpandSoft:
    def test_basic(self):
        assert expand_soft([SpanLabel(2, 4, 0.5)], 5) == [0, 0, 0.5, 0.5, 0]

    def test_empty(self):
        assert expand_soft([], 3) == [0, 0, 0]

    def test_overlap_rejected(self):
        with pytest.raises(SpanError):
            expand_soft([SpanLabel(0, 3, 0.5), SpanLabel(2, 4, 0.6)], 5)

    def test_out_of_range(self):
        with pytest.raises(SpanError):
            expand_soft([SpanLabel(0, 9, 0.5)], 5)


def gold(id, lang, answer, hard=(), soft=()):
    return GoldRecord(
        id=id,
        lang=lang,
        answer=answer,
        hard_labels=tuple(SpanLabel(s, e) for s, e in hard),
        soft_labels=tuple(SpanLabel(s, e, p) for s, e, p in soft),
    )


def pred(id, lang, hard=(), soft=(), runs_used=12):
    return PredictionRecord(
        id=id,
        lang=lang,
        hard_labels=tuple(SpanLabel(s, e) for s, e in hard),
        soft_labels=tuple(SpanLabel(s, e, p) for s, e, p in soft),
        runs_used=runs_used,
    )


class TestEvaluate:
    def test_self_comparison_is_perfect(self):
        preds, golds = [], []
        for i in range(10):
            answer = "x" * 20
            hard = [(2, 5)] if i % 2 else []
            soft = [(2, 5, 0.75)] if i % 2 else []
            preds.append(pred(f"i{i}", "EN", hard, soft))
            golds.append(gold(f"i{i}", "EN", answer, hard, soft))
        report = evaluate(preds, golds)
        assert report["overall"] == {"mean_iou": 1.0, "mean_cor": 1.0}

    def test_empty_prediction_vs_gold_span(self):
        report = evaluate(
            [pred("a", "EN")],
            [gold("a", "EN", "0123456789", hard=[(2, 5)], soft=[(2, 5, 1.0)])],
        )
        assert report["per_item"][0]["iou"] == 0.0

    def test_empty_answer_scores_perfect(self):
        # iou and spearman give 1.0 on nothing; evaluate adds no case of its own
        report = evaluate([pred("a", "EN")], [gold("a", "EN", "")])
        assert report["per_item"] == [{"id": "a", "lang": "EN", "iou": 1.0, "cor": 1.0}]

    def test_missing_gold_id(self):
        with pytest.raises(EvaluationError) as excinfo:
            evaluate([pred("a", "EN")], [gold("b", "EN", "xyz")])
        assert str(excinfo.value) == (
            "prediction/gold id mismatch; predictions without gold: ['a']; gold without prediction: ['b']"
        )

    def test_duplicated_prediction_id_is_refused(self):
        with pytest.raises(EvaluationError) as excinfo:
            evaluate(
                [pred("a", "EN"), pred("a", "EN"), pred("b", "EN")],
                [gold("a", "EN", "xyz"), gold("b", "EN", "xyz")],
            )
        assert str(excinfo.value) == "duplicated prediction ids: ['a']"

    def test_duplicated_gold_id_is_refused(self):
        with pytest.raises(EvaluationError) as excinfo:
            evaluate(
                [pred("a", "EN"), pred("b", "EN")],
                [gold("a", "EN", "xyz"), gold("b", "EN", "xyz"), gold("b", "EN", "abc")],
            )
        assert str(excinfo.value) == "duplicated gold ids: ['b']"

    def test_prediction_answer_differing_from_gold_is_refused(self):
        same = PredictionRecord("a", "EN", (), (), 12, answer="xyz")
        drifted = PredictionRecord("b", "EN", (SpanLabel(0, 2),), (), 12, answer="xy z")
        with pytest.raises(EvaluationError) as excinfo:
            evaluate([same, drifted], [gold("a", "EN", "xyz"), gold("b", "EN", "xyz")])
        assert str(excinfo.value) == "prediction answer differs from gold answer: ['b']"

    def test_prediction_label_past_the_gold_answer_is_refused(self):
        # a prediction without its own answer is checked against gold's
        inside = pred("a", "EN", [(0, 3)], [(0, 3, 0.5)])
        hard_past, soft_past = pred("b", "EN", [(0, 4)]), pred("c", "EN", soft=[(2, 4, 0.5)])
        golds = [gold(i, "EN", "xyz") for i in "abc"]
        with pytest.raises(EvaluationError) as excinfo:
            evaluate([inside, hard_past, soft_past], golds)
        assert str(excinfo.value) == "prediction label past the gold answer: ['b', 'c']"

    def test_nothing_to_score_is_refused(self):
        # no mean of zero items exists
        with pytest.raises(EvaluationError, match="^nothing to score"):
            evaluate([], [])

    def test_prediction_with_gold_answer_or_none_is_scored(self):
        same = PredictionRecord("a", "EN", (SpanLabel(0, 2),), (), 12, answer="xyz")
        report = evaluate(
            [same, pred("b", "EN", [(0, 2)])],
            [gold("a", "EN", "xyz", hard=[(0, 2)]), gold("b", "EN", "xyz", hard=[(0, 2)])],
        )
        assert [s["iou"] for s in report["per_item"]] == [1.0, 1.0]

    def test_three_language_means_match_recount(self):
        rng = random.Random(5)
        preds, golds = [], []
        for i, lang in enumerate(["EN", "ZH", "EN", "HI", "ZH", "EN"]):
            n = rng.randint(6, 15)
            answer = "a" * n
            gold_hard = [(0, rng.randint(1, n))]
            pred_hard = [(0, rng.randint(1, n))]
            preds.append(pred(f"i{i}", lang, pred_hard, [(0, 2, 0.5)]))
            golds.append(gold(f"i{i}", lang, answer, gold_hard, [(0, 2, 0.5)]))
        report = evaluate(preds, golds)

        by_lang: dict[str, list[float]] = {}
        for p, g in zip(preds, golds):
            value = iou_reference(
                [(s.start, s.end) for s in p.hard_labels],
                [(s.start, s.end) for s in g.hard_labels],
                len(g.answer),
            )
            by_lang.setdefault(g.lang, []).append(value)
        for lang, values in by_lang.items():
            assert report["per_lang"][lang]["mean_iou"] == pytest.approx(sum(values) / len(values))
            assert report["per_lang"][lang]["n"] == len(values)

    def test_report_dict_shape(self):
        report = evaluate(
            [pred("b", "ZH"), pred("a", "EN")],
            [gold("a", "EN", "xxxx"), gold("b", "ZH", "yyyy")],
        )
        assert report == {
            "overall": {"mean_iou": 1.0, "mean_cor": 1.0},
            "per_lang": {
                "EN": {"mean_iou": 1.0, "mean_cor": 1.0, "n": 1},
                "ZH": {"mean_iou": 1.0, "mean_cor": 1.0, "n": 1},
            },
            "per_item": [
                {"id": "b", "lang": "ZH", "iou": 1.0, "cor": 1.0},
                {"id": "a", "lang": "EN", "iou": 1.0, "cor": 1.0},
            ],
        }
        assert list(report["per_lang"]) == ["EN", "ZH"]  # languages sorted, items in prediction order

    def test_render_table_layout(self):
        report = evaluate([pred("a", "EN")], [gold("a", "EN", "zzz")])
        table = render_table(report)
        lines = table.splitlines()
        assert lines[0].split() == ["Lang", "IoU", "Cor", "N"]
        assert lines[-1].split() == ["ALL", "1.0000", "1.0000", "1"]


@given(
    st.lists(st.tuples(st.integers(0, 30), st.integers(1, 8)), max_size=4),
    st.lists(st.tuples(st.integers(0, 30), st.integers(1, 8)), max_size=4),
)
@settings(max_examples=200)
def test_iou_symmetric(a_raw, b_raw):
    length = 60

    def build(raw):
        spans = []
        pos = 0
        for offset, width in sorted(raw):
            start = max(pos, offset)
            if start + width > length:
                break
            spans.append(SpanLabel(start, start + width))
            pos = start + width + 1
        return spans

    a, b = build(a_raw), build(b_raw)
    assert iou(a, b, length) == iou(b, a, length)
    assert iou(a, b, length) == iou_reference(
        [(s.start, s.end) for s in a], [(s.start, s.end) for s in b], length
    )
