"""Command-line entry point: annotate, evaluate, inspect.

Exit codes: 0 success, 1 usage or input error, 2 annotation finished with
some items unannotated, 3 missing API key, 4 id or answer mismatch,
an unknown or repeated id, a prediction label past the gold answer, or no
item to score.
Human-readable text goes to stdout; machine output goes only to files.
"""

from __future__ import annotations

import argparse
import errno
import json
import logging
import os
import sys
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Sequence, TypeVar, get_type_hints

from .core import GoldRecord, PredictionRecord, SpanLabel, validate_spans
from .errors import (
    AuthError,
    ConfigError,
    EvaluationError,
    HallmarkError,
    SpanError,
)
from .jsonl import JSON_TYPES, is_json_type, json_value, load_json, read_gold, read_items, read_predictions, write_predictions

# Each command imports the layers it runs, so that evaluate and inspect load no part of annotate.
if TYPE_CHECKING:
    from .llm import MarkingRule, ProviderConfig

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 2
EXIT_NO_KEY = 3
EXIT_ID_MISMATCH = 4

DEFAULT_CACHE_DIR = ".hallmark-cache"

Record = TypeVar("Record", PredictionRecord, GoldRecord)

KNOWN_PROVIDERS = {
    "openai": {"base_url": "https://api.openai.com/v1", "api_key_env": "OPENAI_API_KEY"},
    "deepseek": {"base_url": "https://api.deepseek.com/v1", "api_key_env": "DEEPSEEK_API_KEY"},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hallmark",
        description="Annotate hallucination spans in QA answers with an LLM ensemble.",
    )
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    annotate = sub.add_parser("annotate", help="annotate a dataset")
    annotate.add_argument("--input", required=True, help="dataset JSONL")
    annotate.add_argument("--output", required=True, help="prediction JSONL to write")
    # Each override flag's dest is the config key it overrides; unset flags stay None.
    annotate.add_argument("--model", help="model name")
    annotate.add_argument("--provider", dest="name", help="mock, openai, deepseek, or configured name")
    annotate.add_argument("--runs", dest="runs_n", type=int, help="annotation runs per item (default 12)")
    annotate.add_argument("--threshold", type=float, help="hard-label vote threshold (default 0.5)")
    annotate.add_argument("--no-roles", dest="use_roles", action="store_false", help="disable expert-role diversification")
    annotate.add_argument("--no-external", dest="use_external", action="store_false", help="disable Wikipedia knowledge")
    annotate.add_argument("--min-similarity", type=float, help="run acceptance gate (default 0.7)")
    annotate.add_argument("--cache-dir", help=f"response cache (default {DEFAULT_CACHE_DIR})")
    annotate.add_argument(
        "--max-parallel",
        dest="max_parallel_items",
        type=int,
        help="provider requests on the wire, and as many Wikipedia requests; one more item than that is prepared and parsed meanwhile",
    )
    annotate.add_argument("--config", help="JSON config file (CLI flags win)")
    annotate.add_argument("--base-url", help="override provider base URL")
    annotate.add_argument("--api-key-env", help="override API key env var name")
    annotate.add_argument("--mock-fixture", help="JSON file of spans the mock provider marks, keyed by item id")
    annotate.set_defaults(use_roles=None, use_external=None)

    evaluate_p = sub.add_parser("evaluate", help="score predictions against gold labels")
    evaluate_p.add_argument("--pred", required=True)
    evaluate_p.add_argument("--gold", required=True)
    evaluate_p.add_argument("--report", default=None, help="write the JSON report here")

    inspect = sub.add_parser("inspect", help="render one item's spans in the terminal")
    inspect.add_argument("--pred", required=True)
    inspect.add_argument("--gold", default=None)
    inspect.add_argument("--id", required=True, dest="item_id")
    return parser


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        data = load_json(Path(path).read_bytes())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def config_keys(cls: type) -> dict[str, type]:
    """A config class's fields, as config-file keys with their JSON types; ``provider`` is an object."""
    keys = get_type_hints(cls)
    keys.pop("provider", None)
    return keys


def _settings(args: argparse.Namespace, section: dict, keys: dict[str, type], prefix: str = "") -> dict:
    """The values ``section`` sets, overlaid by the flags given for ``keys``. A key no setting has is
    refused, so a misspelt key cannot run a different experiment; each value must be exactly its JSON type."""
    flags = {key: value for key, value in vars(args).items() if value is not None and key in keys}
    for source, name in ((section, "config key"), (flags, "flag value for")):
        for key, value in source.items():
            if key not in keys:
                raise ConfigError(f"unknown config key '{prefix}{key}'")
            if not is_json_type(value, keys[key]):
                raise ConfigError(f"{name} '{prefix}{key}' must be {JSON_TYPES[keys[key]]}")
    return {**section, **flags}


def _provider_config(args: argparse.Namespace, file_provider: dict) -> ProviderConfig:
    from .llm import ProviderConfig

    values = _settings(args, file_provider, config_keys(ProviderConfig), "provider.")
    name = values.setdefault("name", "mock")  # only an absent name means the mock
    if not name:
        raise ConfigError("provider name must not be empty")
    for key, default in KNOWN_PROVIDERS.get(name, {}).items():
        values[key] = values.get(key) or default
    if name != "mock" and not values.get("base_url"):
        raise ConfigError(f"provider {name!r} needs a base URL (--base-url or config)")
    return ProviderConfig(**values)


def _fixture_spans(raw, item) -> tuple[SpanLabel, ...]:
    """One fixture span list, checked to be sorted, disjoint and inside the answer."""
    try:
        spans = tuple(SpanLabel(json_value(s, int), json_value(e, int)) for s, e in raw)
        validate_spans(spans, len(item.answer))
    except SpanError as exc:
        raise ValueError(f"item {item.id!r}: {exc}") from exc
    return spans


def _load_mock_rules(path: str | None, items, runs_n: int) -> list[MarkingRule]:
    """The fixture's rules, one per item. An id, entry key or ``per_run`` tag that would mark nothing
    (a misspelling, or a run past ``runs_n``) is refused."""
    from .llm import MarkingRule

    fixture: dict = {}
    rules = []
    seed_tags = [f"run-{i}" for i in range(runs_n)]
    try:  # malformed JSON, or a fixture of the wrong shape
        if path is not None:
            fixture = load_json(Path(path).read_bytes())
        unknown = sorted(fixture.keys() - {item.id for item in items})
        if unknown:  # a misspelt id would otherwise leave its item unmarked
            raise ValueError(f"no input item has id {', '.join(map(repr, unknown))}")
        for item in items:
            entry = fixture.get(item.id, {})
            unknown = sorted(entry.keys() - {"spans", "per_run"})
            if unknown:
                raise ValueError(f"item {item.id!r}: unknown key {', '.join(map(repr, unknown))}")
            spans = _fixture_spans(entry.get("spans", []), item)
            per_run = entry.get("per_run")
            if per_run is not None:
                unknown = [tag for tag in per_run if tag not in seed_tags]
                if unknown:
                    raise ValueError(
                        f"item {item.id!r}: no run has the per_run tag {', '.join(map(repr, unknown))} "
                        f"(the runs are {seed_tags[0]} … {seed_tags[-1]})"
                    )
                per_run = {tag: _fixture_spans(raw, item) for tag, raw in per_run.items()}
            rules.append(MarkingRule(answer=item.answer, spans=spans, per_run=per_run))
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad mock fixture {path}: {exc}") from exc
    return rules


def _check_writable(path: str) -> None:
    """Fail if no file can replace ``path``: it is a directory, or its directory takes no new file. Checked
    before any request, so that a bad ``--output`` fails at once."""
    target = Path(path)
    try:
        if target.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        tempfile.TemporaryFile(dir=target.parent).close()  # a file with no name, so none is left behind
    except OSError as exc:  # name the output, not its directory
        raise OSError(exc.errno, exc.strerror, path) from exc


def cmd_annotate(args: argparse.Namespace) -> int:
    from .cache import JsonFileCache
    from .knowledge import KnowledgeService, WikipediaClient
    from .llm import LLMClient, MockProvider, OpenAIChatProvider, RateLimiter
    from .pipeline import PipelineConfig, annotate_dataset
    from .prompts import validate_templates

    keys = {**config_keys(PipelineConfig), "provider": dict, "cache_dir": str}
    values = _settings(args, _load_config_file(args.config), keys)
    validate_templates()
    cache_dir = values.pop("cache_dir", None) or DEFAULT_CACHE_DIR
    try:  # the config classes' own range checks
        provider_cfg = _provider_config(args, values.pop("provider", {}))
        values.setdefault("model", "mock-model" if provider_cfg.name == "mock" else None)
        if values["model"] is None:
            raise ConfigError("a model name is required (--model or config file)")
        cfg = PipelineConfig(provider=provider_cfg, **values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid setting: {exc}") from exc

    items = read_items(args.input)
    if provider_cfg.name == "mock":
        provider = MockProvider(rules=_load_mock_rules(args.mock_fixture, items, cfg.runs_n))
        limiter = None
    else:
        provider = OpenAIChatProvider(provider_cfg)
        limiter = RateLimiter(provider_cfg.requests_per_minute)
    cache = JsonFileCache(cache_dir)
    llm = LLMClient(provider, cache=cache, limiter=limiter, max_retries=provider_cfg.max_retries)
    wiki = WikipediaClient() if cfg.use_external else None  # building one loads the network stack
    knowledge_svc = KnowledgeService(llm, wiki, cfg.model, cache=cache)

    total = len(items)
    done = 0

    def unannotated(record: PredictionRecord) -> bool:
        return record.runs_used == 0 and bool(record.answer)  # an empty answer needs no run

    def progress(record: PredictionRecord) -> None:
        nonlocal done
        done += 1
        status = f"runs_used={record.runs_used} hard={len(record.hard_labels)}"
        if unannotated(record):
            status += " (unannotated)"
        print(f"[{done}/{total}] {record.id} {status}")

    try:
        _check_writable(args.output)
        records = annotate_dataset(items, cfg, llm, knowledge_svc, progress=progress)
        write_predictions(records, args.output)
    finally:
        cache.close()

    failures = sum(map(unannotated, records))
    answered = [r.runs_used for r in records if r.answer]  # an empty answer has no run to count
    mean_runs = sum(answered) / len(answered) if answered else 0.0
    print(f"wrote {total} records to {args.output} (mean runs used {mean_runs:.1f}, {failures} failures)")
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .scoring import evaluate, render_table

    report = evaluate(read_predictions(args.pred), read_gold(args.gold))
    print(render_table(report))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, ensure_ascii=False)
            fh.write("\n")
        print(f"report written to {args.report}")
    return EXIT_OK


def _only_record(records: Sequence[Record], item_id: str, path: str) -> Record:
    """The one record of ``records`` with id ``item_id``, read from ``path``; none, or more than one, is an
    EvaluationError, as a duplicated id is in ``evaluate``."""
    found = [r for r in records if r.id == item_id]
    if not found:
        raise EvaluationError(f"id {item_id!r} not found in {path}")
    if len(found) > 1:
        raise EvaluationError(f"id {item_id!r} occurs {len(found)} times in {path}")
    return found[0]


def cmd_inspect(args: argparse.Namespace) -> int:
    from .marking import insert_markers
    from .scoring import check_against_gold, iou

    pred = _only_record(read_predictions(args.pred), args.item_id, args.pred)
    gold = None
    if args.gold:
        gold = _only_record(read_gold(args.gold), args.item_id, args.gold)
        check_against_gold([(pred, gold)])

    answer = pred.answer if pred.answer is not None else (gold.answer if gold else None)
    if answer is None:
        print(
            "error: prediction file carries no answer text; pass --gold to supply it",
            file=sys.stderr,
        )
        return EXIT_ERROR

    print(f"id={pred.id} lang={pred.lang} runs_used={pred.runs_used}")
    print(f"pred: {insert_markers(answer, pred.hard_labels)}")
    for span in pred.soft_labels:
        votes = span.prob * pred.runs_used
        k = round(votes)  # a file from another tool may hold a prob that is no whole count of runs
        count = f" ({k} of {pred.runs_used} runs)" if k and abs(votes - k) <= 1e-9 else ""
        print(f"soft: [{span.start}, {span.end}) {answer[span.start : span.end]!r} prob={span.prob:.4f}{count}")
    if gold is not None:
        print(f"gold: {insert_markers(gold.answer, gold.hard_labels)}")
        print(f"IoU: {iou(pred.hard_labels, gold.hard_labels, len(gold.answer)):.4f}")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    try:
        if args.command == "annotate":
            return cmd_annotate(args)
        if args.command == "evaluate":
            return cmd_evaluate(args)
        return cmd_inspect(args)
    except AuthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_KEY
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ID_MISMATCH
    except (HallmarkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
