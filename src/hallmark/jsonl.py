"""Readers and writers for the UTF-8 JSONL dataset formats.

Input datasets use the keys ``model_input`` (question) and
``model_output_text`` (answer). Prediction files carry ``hard_labels`` as
``[[start, end], ...]`` and ``soft_labels`` as
``[{"start": ..., "end": ..., "prob": ...}, ...]``; those key names and
shapes are a fixed wire contract.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from .core import GoldRecord, PredictionRecord, QAItem, SpanLabel
from .errors import JsonlParseError, SchemaError


def _iter_records(path: str | Path) -> Iterable[tuple[int, dict]]:
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise JsonlParseError(str(path), line_no, exc.msg) from exc
            if not isinstance(obj, dict):
                raise SchemaError(str(path), line_no, "record is not a JSON object")
            yield line_no, obj


# How messages name each JSON type, keyed by the Python type that holds it.
JSON_TYPES = {str: "a string", int: "an integer", float: "a number", bool: "true or false"}


def is_json_type(value: Any, kind: type) -> bool:
    """Whether ``value`` is exactly the JSON type ``kind``: a bool is no number, an int is a valid float."""
    return type(value) is kind or (kind is float and type(value) is int)


def json_value(value: Any, kind: type) -> Any:
    """``value``, which must be exactly the JSON type ``kind`` (else TypeError)."""
    if not is_json_type(value, kind):
        raise TypeError(f"{json.dumps(value)} is not {JSON_TYPES[kind]}")
    return value


def _require(obj: dict, key: str, path: str | Path, line_no: int, kind: type | None = None) -> Any:
    """``obj[key]``; with ``kind`` it must be exactly that JSON type."""
    if key not in obj:
        raise SchemaError(str(path), line_no, f"missing required key {key!r}")
    if kind is not None and not is_json_type(obj[key], kind):
        reason = f"{key!r} must be {kind.__name__}, got {json.dumps(obj[key])}"
        raise SchemaError(str(path), line_no, reason)
    return obj[key]


def _parse_hard_labels(raw: Any, path: str | Path, line_no: int) -> tuple[SpanLabel, ...]:
    try:
        return tuple(SpanLabel(json_value(s, int), json_value(e, int)) for s, e in raw)
    except (TypeError, ValueError) as exc:
        raise SchemaError(str(path), line_no, f"malformed hard_labels: {exc}") from exc


def _parse_soft_labels(raw: Any, path: str | Path, line_no: int) -> tuple[SpanLabel, ...]:
    try:
        return tuple(
            SpanLabel(json_value(d["start"], int), json_value(d["end"], int), json_value(d["prob"], float))
            for d in raw
        )
    except (TypeError, KeyError, ValueError) as exc:
        raise SchemaError(str(path), line_no, f"malformed soft_labels: {exc}") from exc


def read_items(path: str | Path) -> list[QAItem]:
    """Read a dataset of QA pairs awaiting annotation."""
    items = []
    for line_no, obj in _iter_records(path):
        items.append(
            QAItem(
                id=_require(obj, "id", path, line_no, str),
                lang=_require(obj, "lang", path, line_no, str),
                question=_require(obj, "model_input", path, line_no, str),
                answer=_require(obj, "model_output_text", path, line_no, str),
            )
        )
    return items


def read_gold(path: str | Path) -> list[GoldRecord]:
    """Read reference annotations (answer text plus hard and soft labels)."""
    records = []
    for line_no, obj in _iter_records(path):
        records.append(
            GoldRecord(
                id=_require(obj, "id", path, line_no, str),
                lang=_require(obj, "lang", path, line_no, str),
                answer=_require(obj, "model_output_text", path, line_no, str),
                hard_labels=_parse_hard_labels(obj.get("hard_labels", []), path, line_no),
                soft_labels=_parse_soft_labels(obj.get("soft_labels", []), path, line_no),
            )
        )
    return records


def read_predictions(path: str | Path) -> list[PredictionRecord]:
    """Read a prediction file produced by :func:`write_predictions`."""
    records = []
    for line_no, obj in _iter_records(path):
        answer = obj.get("model_output_text")
        records.append(
            PredictionRecord(
                id=_require(obj, "id", path, line_no, str),
                lang=_require(obj, "lang", path, line_no, str),
                hard_labels=_parse_hard_labels(
                    _require(obj, "hard_labels", path, line_no), path, line_no
                ),
                soft_labels=_parse_soft_labels(
                    _require(obj, "soft_labels", path, line_no), path, line_no
                ),
                runs_used=_require(obj, "runs_used", path, line_no, int) if "runs_used" in obj else 0,
                answer=None if answer is None else _require(obj, "model_output_text", path, line_no, str),
            )
        )
    return records


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
    """Write one compact JSON object per line, UTF-8, unescaped non-ASCII."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(prediction_to_dict(record), ensure_ascii=False, separators=(",", ":")))
            fh.write("\n")
