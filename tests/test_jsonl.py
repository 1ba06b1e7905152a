from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hallmark import PredictionRecord, SpanLabel, read_gold, read_items, read_predictions, write_predictions
from hallmark.errors import SchemaError
from hallmark.jsonl import load_json


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestReadItems:
    def test_field_mapping(self, tmp_path):
        path = tmp_path / "items.jsonl"
        write_lines(path, ['{"id":"en-1","lang":"EN","model_input":"Q?","model_output_text":"A."}'])
        items = read_items(path)
        assert len(items) == 1
        assert items[0].id == "en-1"
        assert items[0].lang == "EN"
        assert items[0].question == "Q?"
        assert items[0].answer == "A."

    def test_empty_file(self, tmp_path):
        path = tmp_path / "items.jsonl"
        path.write_text("", encoding="utf-8")
        assert read_items(path) == []

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "items.jsonl"
        write_lines(path, [
            '{"id":"a","lang":"EN","model_input":"q","model_output_text":"x"}',
            "",
            '{"id":"b","lang":"EN","model_input":"q","model_output_text":"y"}',
        ])
        assert [i.id for i in read_items(path)] == ["a", "b"]

    def test_malformed_line_carries_line_number(self, tmp_path):
        path = tmp_path / "items.jsonl"
        write_lines(path, [
            '{"id":"a","lang":"EN","model_input":"q","model_output_text":"x"}',
            "{not json",
        ])
        with pytest.raises(SchemaError, match=r"items\.jsonl:2: "):
            read_items(path)

    def test_lines_break_at_crlf_cr_and_lf_only(self, tmp_path):
        # a raw U+2028 or U+0085 is text inside its answer, where str.splitlines would break the line
        line = '{{"id":"{}","lang":"EN","model_input":"q","model_output_text":"{}"}}'
        text = line.format("a", "x\u2028y") + "\r\n" + line.format("b", "z\x85w") + "\r" + line.format("c", "v") + "\n"
        path = tmp_path / "items.jsonl"
        path.write_bytes(text.encode("utf-8"))
        assert [(i.id, i.answer) for i in read_items(path)] == [("a", "x\u2028y"), ("b", "z\x85w"), ("c", "v")]
        path.write_bytes((text + '{"id":"d","lang":"EN","model_input":"q"}\n').encode("utf-8"))
        with pytest.raises(SchemaError, match=":4: missing required key 'model_output_text'"):
            read_items(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "items.jsonl"
        write_lines(path, ['{"id":"a","lang":"EN","model_input":"q"}'])
        with pytest.raises(SchemaError) as excinfo:
            read_items(path)
        assert "model_output_text" in str(excinfo.value)


    # "\ud800" is valid JSON, but a lone surrogate: no cache key or prompt can encode it
    @pytest.mark.parametrize("key", ["id", "lang", "model_input", "model_output_text"])
    @pytest.mark.parametrize("value", [None, 42, "a\ud800b"])
    def test_text_fields_must_be_strings(self, tmp_path, key, value):
        path = tmp_path / "items.jsonl"
        obj = {"id": "a", "lang": "EN", "model_input": "q", "model_output_text": "x"}
        write_lines(path, [json.dumps({**obj, "id": "b"}), json.dumps({**obj, key: value})])
        with pytest.raises(SchemaError) as excinfo:
            read_items(path)
        assert f"items.jsonl:2: {key!r} must be str, got {json.dumps(value)}" in str(excinfo.value)

class TestWritePredictions:
    def test_wire_format(self, tmp_path):
        record = PredictionRecord(
            id="en-1", lang="EN",
            hard_labels=(SpanLabel(25, 31),),
            soft_labels=(SpanLabel(25, 31, 1.0),),
            runs_used=12,
        )
        path = tmp_path / "pred.jsonl"
        write_predictions([record], path)
        line = path.read_text(encoding="utf-8").strip()
        assert '"hard_labels":[[25,31]]' in line
        assert '"soft_labels":[{"start":25,"end":31,"prob":1.0}]' in line
        obj = json.loads(line)
        assert obj["id"] == "en-1"
        assert obj["runs_used"] == 12

    def test_round_trip_example(self, tmp_path):
        record = PredictionRecord(
            id="x", lang="ZH",
            hard_labels=(SpanLabel(25, 31),),
            soft_labels=(SpanLabel(25, 31, 0.5),),
            runs_used=12,
            answer="某个答案" * 10,
        )
        path = tmp_path / "pred.jsonl"
        write_predictions([record], path)
        assert read_predictions(path) == [record]

    def test_unicode_not_escaped(self, tmp_path):
        record = PredictionRecord(
            id="x", lang="HI", hard_labels=(), soft_labels=(), runs_used=0, answer="मुंबई"
        )
        path = tmp_path / "pred.jsonl"
        write_predictions([record], path)
        assert "मुंबई" in path.read_text(encoding="utf-8")

    def test_read_requires_label_keys(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        write_lines(path, ['{"id":"a","lang":"EN","hard_labels":[[0,1]]}'])
        with pytest.raises(SchemaError) as excinfo:
            read_predictions(path)
        assert "soft_labels" in str(excinfo.value)

    @pytest.mark.parametrize("value", [None, "12", 1.5, True])
    def test_runs_used_must_be_a_count(self, tmp_path, value):
        path = tmp_path / "pred.jsonl"
        obj = {"id": "a", "lang": "EN", "hard_labels": [], "soft_labels": [], "runs_used": value}
        write_lines(path, [json.dumps(obj)])
        with pytest.raises(SchemaError) as excinfo:
            read_predictions(path)
        assert "pred.jsonl:1: 'runs_used' must be int" in str(excinfo.value)

    def test_prediction_answer_must_be_a_string_when_present(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        obj = {"id": "a", "lang": "EN", "hard_labels": [], "soft_labels": []}
        write_lines(path, [json.dumps({**obj, "model_output_text": None})])
        assert read_predictions(path)[0].answer is None
        write_lines(path, [json.dumps({**obj, "model_output_text": 7})])
        with pytest.raises(SchemaError):
            read_predictions(path)

    def test_null_id_is_refused(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        write_lines(path, ['{"id":null,"lang":"EN","hard_labels":[],"soft_labels":[]}'])
        with pytest.raises(SchemaError) as excinfo:
            read_predictions(path)
        assert "pred.jsonl:1: 'id' must be str, got null" in str(excinfo.value)


class TestReadGold:
    def test_parses_labels(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        write_lines(path, [
            json.dumps({
                "id": "g1", "lang": "EN", "model_input": "q",
                "model_output_text": "0123456789",
                "hard_labels": [[2, 4]],
                "soft_labels": [{"start": 2, "end": 4, "prob": 0.8}],
            })
        ])
        gold = read_gold(path)[0]
        assert gold.answer == "0123456789"
        assert gold.hard_labels == (SpanLabel(2, 4),)
        assert gold.soft_labels == (SpanLabel(2, 4, 0.8),)

    def test_labels_optional(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        write_lines(path, ['{"id":"g1","lang":"EN","model_output_text":"abc"}'])
        gold = read_gold(path)[0]
        assert gold.hard_labels == ()
        assert gold.soft_labels == ()

    def test_null_answer_is_refused(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        write_lines(path, ['{"id":"g1","lang":"EN","model_output_text":null}'])
        with pytest.raises(SchemaError) as excinfo:
            read_gold(path)
        assert "gold.jsonl:1: 'model_output_text' must be str, got null" in str(excinfo.value)

    def test_null_id_is_refused(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        write_lines(path, ['{"id":null,"lang":"EN","model_output_text":"abc"}'])
        with pytest.raises(SchemaError) as excinfo:
            read_gold(path)
        assert "gold.jsonl:1: 'id' must be str, got null" in str(excinfo.value)

    def test_malformed_hard_labels(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        write_lines(path, ['{"id":"g1","lang":"EN","model_output_text":"abc","hard_labels":[[1]]}'])
        with pytest.raises(SchemaError):
            read_gold(path)


# Offsets must be JSON integers and prob a JSON number: a cast would score another span.
WRONG_LABEL_TYPES = [
    ({"hard_labels": [[0, 2.9]]}, "2.9 is not an integer"),
    ({"hard_labels": [[True, 3]]}, "true is not an integer"),
    ({"hard_labels": [["0", "3"]]}, '"0" is not an integer'),
    ({"soft_labels": [{"start": 0, "end": 3, "prob": "0.5"}]}, '"0.5" is not a number'),
    ({"soft_labels": [{"start": 0, "end": 3, "prob": True}]}, "true is not a number"),
    ({"soft_labels": [{"start": 0.0, "end": 3, "prob": 0.5}]}, "0.0 is not an integer"),
]
WRONG_LABEL_IDS = ["hard-fraction", "hard-bool", "hard-str", "prob-str", "prob-bool", "soft-float-start"]


def label_record(**labels):
    return {"id": "a", "lang": "EN", "model_output_text": "abcdef", "hard_labels": [], "soft_labels": [], **labels}


@pytest.mark.parametrize("reader", [read_gold, read_predictions])
@pytest.mark.parametrize("labels, reason", WRONG_LABEL_TYPES, ids=WRONG_LABEL_IDS)
def test_label_of_the_wrong_json_type_is_refused(tmp_path, reader, labels, reason):
    path = tmp_path / "labels.jsonl"
    write_lines(path, [json.dumps(label_record()), json.dumps(label_record(**labels))])
    with pytest.raises(SchemaError) as excinfo:
        reader(path)
    assert "labels.jsonl:2: malformed " in str(excinfo.value)
    assert reason in str(excinfo.value)


@pytest.mark.parametrize("reader", [read_gold, read_predictions])
def test_integer_prob_is_a_number(tmp_path, reader):
    path = tmp_path / "labels.jsonl"
    write_lines(path, [json.dumps(label_record(soft_labels=[{"start": 0, "end": 3, "prob": 1}]))])
    assert reader(path)[0].soft_labels == (SpanLabel(0, 3, 1.0),)


@st.composite
def prediction_records(draw):
    length = draw(st.integers(min_value=1, max_value=40))
    n_runs = draw(st.integers(min_value=1, max_value=12))
    # random disjoint spans by cutting the range
    bounds = sorted(draw(st.sets(st.integers(0, length), max_size=8)))
    soft = []
    hard = []
    for start, end in zip(bounds[::2], bounds[1::2]):
        if start == end:
            continue
        k = draw(st.integers(min_value=1, max_value=n_runs))
        soft.append(SpanLabel(start, end, k / n_runs))
        if k / n_runs >= 0.5:
            hard.append(SpanLabel(start, end))
    return PredictionRecord(
        id=draw(st.text(alphabet="abcdef0123456789-", min_size=1, max_size=12)),
        lang=draw(st.sampled_from(["EN", "ZH", "HI", "AR", "FI"])),
        hard_labels=tuple(hard),
        soft_labels=tuple(soft),
        runs_used=n_runs,
        answer=draw(st.one_of(st.none(), st.text(min_size=length, max_size=length))),
    )


# The first st.text() draw builds Hypothesis's codec table, which takes seconds
# when no .hypothesis/ directory holds it yet.
@settings(suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(prediction_records(), max_size=6))
def test_round_trip_identity(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("jsonl") / "pred.jsonl"
    write_predictions(records, path)
    assert read_predictions(path) == records


@pytest.mark.parametrize(
    "labels",
    [{"hard_labels": [[0, 3], [2, 4]]}, {"soft_labels": [{"start": 0, "end": 3, "prob": 1}, {"start": 2, "end": 4, "prob": 1}]}],
    ids=["hard", "soft"],
)
def test_overlapping_prediction_labels_name_the_line(tmp_path, labels):
    path = tmp_path / "pred.jsonl"
    write_lines(path, [json.dumps(label_record()), json.dumps(label_record(**labels))])
    with pytest.raises(SchemaError) as excinfo:
        read_predictions(path)
    assert str(excinfo.value) == f"{path}:2: span [2, 4) overlaps or is out of order"


@pytest.mark.parametrize("reader", [read_gold, read_predictions])
@pytest.mark.parametrize(
    "labels",
    [{"hard_labels": [[0, 3], [4, 7]]}, {"soft_labels": [{"start": 4, "end": 7, "prob": 1}]}],
    ids=["hard", "soft"],
)
def test_label_past_its_answer_names_the_line(tmp_path, reader, labels):
    path = tmp_path / "labels.jsonl"
    write_lines(path, [json.dumps(label_record()), json.dumps(label_record(**labels))])
    with pytest.raises(SchemaError) as excinfo:
        reader(path)
    assert str(excinfo.value) == f"{path}:2: span [4, 7) exceeds text length 6"


def test_overlapping_gold_soft_labels_name_the_line(tmp_path):
    path = tmp_path / "gold.jsonl"
    soft = [{"start": 0, "end": 3, "prob": 0.5}, {"start": 2, "end": 4, "prob": 0.5}]
    write_lines(path, [json.dumps(label_record()), json.dumps(label_record(soft_labels=soft))])
    with pytest.raises(SchemaError) as excinfo:
        read_gold(path)
    assert str(excinfo.value) == f"{path}:2: span [2, 4) overlaps or is out of order"


def test_gold_hard_labels_keep_the_characters_they_cover(tmp_path):
    # overlapping, touching and unsorted gold spans become the maximal runs they cover
    path = tmp_path / "gold.jsonl"
    write_lines(path, [json.dumps(label_record(hard_labels=[[5, 6], [0, 2], [1, 3], [3, 4]]))])
    assert read_gold(path)[0].hard_labels == (SpanLabel(0, 4), SpanLabel(5, 6))


RECORD_KEYS = ["id", "lang", "model_input", "model_output_text", "hard_labels", "soft_labels", "runs_used"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["start", "end", "prob", "x"]), inner),
    max_leaves=8,
)


@st.composite
def damaged_records(draw):
    """A record with some fields of any JSON value, encoded with any lone surrogates kept, and a few bytes spliced in."""
    record = {**label_record(), "model_input": "q", **draw(st.dictionaries(st.sampled_from(RECORD_KEYS), JSON_VALUES))}
    line = json.dumps(record, ensure_ascii=draw(st.booleans())).encode("utf-8", "surrogatepass")
    at = draw(st.integers(0, len(line)))
    return line[:at] + draw(st.binary(max_size=3)) + line[at:]


@settings(suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(st.binary(), damaged_records()))
def test_any_line_is_a_record_or_a_schema_error(tmp_path_factory, line):
    path = tmp_path_factory.mktemp("jsonl") / "any.jsonl"
    path.write_bytes(line + b"\n")
    for reader in (read_items, read_gold, read_predictions):
        try:
            reader(path)
        except SchemaError as exc:
            assert re.match(rf"{re.escape(str(path))}:\d+: ", str(exc))


SRC = Path(__file__).resolve().parent.parent / "src" / "hallmark"


def test_outside_json_has_one_decoder():
    # json.loads, json.load( and .json() may appear only in jsonl.load_json, and in
    # cache.py, which reads back only rows and files that hallmark wrote itself
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        functions = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)]
        for line_no, line in enumerate(source.splitlines(), start=1):
            if re.search(r"json\.loads|json\.load\(|\.json\(\)", line):
                around = [f for f in functions if f.lineno <= line_no <= f.end_lineno]
                innermost = max(around, key=lambda f: f.lineno).name if around else None
                sites.add(path.name if path.name == "cache.py" else f"{path.name}:{innermost}")
    assert sites == {"cache.py", "jsonl.py:load_json"}


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
def test_non_finite_numbers_are_refused(value):
    # Python's decoder reads the three constants, which are not JSON, and the numbers past
    # the float range as NaN or an infinity, which would pass every range check downstream
    with pytest.raises(ValueError, match=f"^{value} is not a finite number$"):
        load_json('{"temperature": %s}' % value)


def test_non_json_constant_in_a_line_names_the_line(tmp_path):
    path = tmp_path / "gold.jsonl"
    path.write_text('{"id":"a","lang":"EN","model_output_text":"abc","soft_labels":[{"start":0,"end":1,"prob":NaN}]}\n', encoding="utf-8")
    with pytest.raises(SchemaError, match=":1: NaN is not a finite number"):
        read_gold(path)
