"""Readers and writers for the UTF-8 JSONL dataset formats, and the decoder for all outside JSON.

Input datasets use the keys ``model_input`` (question) and
``model_output_text`` (answer). Prediction files carry ``hard_labels`` as
``[[start, end], ...]`` and ``soft_labels`` as
``[{"start": ..., "end": ..., "prob": ...}, ...]``; those key names and
shapes are a fixed wire contract.
"""

from __future__ import annotations

import json
import math
import os
import re
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .core import GoldRecord, PredictionRecord, QAItem, SpanLabel, coverage, runs_of
from .errors import SchemaError


def _finite(number: str) -> float:
    """A JSON number, or Python's NaN and ±Infinity, as a float that must be finite (else ValueError)."""
    if not math.isfinite(value := float(number)):
        raise ValueError(f"{number[:20]} is not a finite number")
    return value


def load_json(data: bytes | str) -> Any:
    """The JSON value in ``data``, whose bytes must be UTF-8. Every way outside input can be bad
    raises ValueError: bytes that are not UTF-8, text that is not JSON (``NaN`` and ``±Infinity``
    included), a number past the float range, nesting too deep to parse."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    try:
        return json.loads(text, parse_float=_finite, parse_constant=_finite)
    except RecursionError:
        raise ValueError("JSON nested too deep") from None


def _numbered(path: str | Path, build: Callable[[dict], Any]) -> Iterator[tuple[int, Any]]:
    """``(line, build(obj))`` for the JSON object on each non-blank line of ``path``; a line that is not one,
    or whose object ``build`` refuses with TypeError or ValueError, is a SchemaError naming ``path:line``."""
    # bytes.splitlines breaks only at CR LF, CR and LF, which occur in no UTF-8 sequence or JSON string; an
    # unescaped U+2028 or U+0085 in an answer stays inside its line, as it would not with str.splitlines.
    for line_no, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = load_json(line)
            if not isinstance(obj, dict):
                raise ValueError("record is not a JSON object")
            record = build(obj)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{path}:{line_no}: {exc}") from exc
        yield line_no, record


def _records(path: str | Path, build: Callable[[dict], Any]) -> list:
    return [record for _, record in _numbered(path, build)]


# How messages name each JSON type, keyed by the Python type that holds it.
JSON_TYPES = {str: "a string", int: "an integer", float: "a number", bool: "true or false", dict: "an object"}

# JSON may escape a lone surrogate (``"\ud800"``); it decodes to a str that UTF-8 cannot encode.
_SURROGATE = re.compile("[\ud800-\udfff]")


def is_json_type(value: Any, kind: type) -> bool:
    """Whether ``value`` is exactly the JSON type ``kind``: a bool is no number, an int is a valid
    float, and a string holds no lone surrogate."""
    if type(value) is str:
        return kind is str and not _SURROGATE.search(value)
    return type(value) is kind or (kind is float and type(value) is int)


def json_value(value: Any, kind: type) -> Any:
    """``value``, which must be exactly the JSON type ``kind`` (else TypeError)."""
    if not is_json_type(value, kind):
        raise TypeError(f"{json.dumps(value)} is not {JSON_TYPES[kind]}")
    return value


def _require(obj: dict, key: str, kind: type | None = None) -> Any:
    """``obj[key]``; with ``kind`` it must be exactly that JSON type."""
    if key not in obj:
        raise ValueError(f"missing required key {key!r}")
    if kind is not None and not is_json_type(obj[key], kind):
        raise TypeError(f"{key!r} must be {kind.__name__}, got {json.dumps(obj[key])}")
    return obj[key]


def parse_span_pairs(raw: Any) -> tuple[SpanLabel, ...]:
    """The spans of an outside ``[[start, end], ...]`` list, such as ``hard_labels``. Any other shape is a
    ValueError, and so is a span ``SpanLabel`` refuses (a SpanError)."""
    try:
        pairs = [(json_value(s, int), json_value(e, int)) for s, e in raw]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed [start, end] list: {exc}") from exc
    return tuple(SpanLabel(s, e) for s, e in pairs)


def _parse_soft_labels(raw: Any) -> tuple[SpanLabel, ...]:
    try:
        return tuple(
            SpanLabel(json_value(d["start"], int), json_value(d["end"], int), json_value(d["prob"], float))
            for d in raw
        )
    except (TypeError, KeyError, ValueError) as exc:
        raise ValueError(f"malformed soft_labels: {exc}") from exc


def _item(obj: dict) -> QAItem:
    return QAItem(
        id=_require(obj, "id", str),
        lang=_require(obj, "lang", str),
        question=_require(obj, "model_input", str),
        answer=_require(obj, "model_output_text", str),
    )


def read_items(path: str | Path) -> list[QAItem]:
    """Read a dataset of QA pairs awaiting annotation. An id on a second line is a SchemaError."""
    items, first_line = [], {}
    for line_no, item in _numbered(path, _item):
        if first_line.setdefault(item.id, line_no) != line_no:
            raise SchemaError(f"{path}:{line_no}: id {item.id!r} is already on line {first_line[item.id]}")
        items.append(item)
    return items


def read_gold(path: str | Path) -> list[GoldRecord]:
    """Read reference annotations (answer text plus hard and soft labels).

    Overlapping or touching hard labels are kept as the characters they cover.
    """
    return _records(
        path,
        lambda obj: GoldRecord(
            id=_require(obj, "id", str),
            lang=_require(obj, "lang", str),
            answer=(answer := _require(obj, "model_output_text", str)),
            hard_labels=tuple(
                SpanLabel(s.start, s.end)
                for s in runs_of(coverage(parse_span_pairs(obj.get("hard_labels", [])), len(answer)))
            ),
            soft_labels=_parse_soft_labels(obj.get("soft_labels", [])),
        ),
    )


def read_predictions(path: str | Path) -> list[PredictionRecord]:
    """Read a prediction file produced by :func:`write_predictions`."""
    return _records(
        path,
        lambda obj: PredictionRecord(
            id=_require(obj, "id", str),
            lang=_require(obj, "lang", str),
            hard_labels=parse_span_pairs(_require(obj, "hard_labels")),
            soft_labels=_parse_soft_labels(_require(obj, "soft_labels")),
            runs_used=_require(obj, "runs_used", int) if "runs_used" in obj else 0,
            answer=None if obj.get("model_output_text") is None else _require(obj, "model_output_text", str),
        ),
    )


def prediction_to_dict(record: PredictionRecord) -> dict:
    """Serialize one record to the JSONL wire shape."""
    obj: dict[str, Any] = {
        "id": record.id,
        "lang": record.lang,
        "hard_labels": [[s.start, s.end] for s in record.hard_labels],
        "soft_labels": [
            {"start": s.start, "end": s.end, "prob": s.prob} for s in record.soft_labels
        ],
        "runs_used": record.runs_used,
    }
    if record.answer is not None:
        obj["model_output_text"] = record.answer
    return obj


def write_predictions(records: Iterable[PredictionRecord], path: str | Path) -> None:
    """Write one compact JSON object per line, UTF-8, unescaped non-ASCII. The lines go to a new file beside
    ``path`` that then replaces ``path`` whole; if anything raises, the new file is removed and ``path`` stays
    as it was."""
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.urandom(4).hex()}.tmp"  # no other writer's name
    fh = tmp.open("x", encoding="utf-8")  # the mode open(path, "w") gives
    try:
        with fh:
            for record in records:
                fh.write(json.dumps(prediction_to_dict(record), ensure_ascii=False, separators=(",", ":")))
                fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
