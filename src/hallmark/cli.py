"""Command-line entry point: annotate, evaluate, inspect.

Exit codes: 0 success, 1 usage or input error, 2 annotation finished with
some items unannotated, 3 missing API key, 4 id mismatch or unknown id.
Human-readable text goes to stdout; machine output goes only to files.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import Sequence, get_type_hints

from .cache import JsonFileCache
from .core import PredictionRecord
from .errors import (
    AuthError,
    ConfigError,
    EvaluationError,
    HallmarkError,
)
from .jsonl import JSON_TYPES, is_json_type, json_value, read_gold, read_items, read_predictions, write_predictions
from .knowledge import KnowledgeService, WikipediaClient
from .llm import (
    LLMClient,
    MarkingRule,
    MockProvider,
    OpenAIChatProvider,
    ProviderConfig,
    RateLimiter,
)
from .marking import insert_markers
from .pipeline import PipelineConfig, annotate_dataset
from .prompts import validate_templates
from .scoring import evaluate, iou, render_table, report_to_dict

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 2
EXIT_NO_KEY = 3
EXIT_ID_MISMATCH = 4

DEFAULT_CACHE_DIR = ".hallmark-cache"

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
    annotate.add_argument("--max-parallel", dest="max_parallel_items", type=int, help="items, and so provider requests, in flight")
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
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
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
    """The values ``section`` sets for ``keys``, each exactly its JSON type, overlaid by the flags given."""
    for key, kind in keys.items():
        if key in section and not is_json_type(section[key], kind):
            raise ConfigError(f"config key '{prefix}{key}' must be {JSON_TYPES[kind]}")
    values = {key: section[key] for key in keys if key in section}
    flags = vars(args)
    values.update((key, flags[key]) for key in keys if flags.get(key) is not None)
    return values


def _provider_config(args: argparse.Namespace, file_cfg: dict) -> ProviderConfig:
    file_provider = file_cfg.get("provider", {})
    if not isinstance(file_provider, dict):
        raise ConfigError("config key 'provider' must be an object")
    values = _settings(args, file_provider, config_keys(ProviderConfig), "provider.")
    name = values["name"] = values.get("name") or "mock"
    for key, default in KNOWN_PROVIDERS.get(name, {}).items():
        values[key] = values.get(key) or default
    if name != "mock" and not values.get("base_url"):
        raise ConfigError(f"provider {name!r} needs a base URL (--base-url or config)")
    return ProviderConfig(**values)


def _pipeline_config(args: argparse.Namespace, file_cfg: dict, provider: ProviderConfig) -> PipelineConfig:
    values = _settings(args, file_cfg, config_keys(PipelineConfig))
    values.setdefault("model", "mock-model" if provider.name == "mock" else None)
    if values["model"] is None:
        raise ConfigError("a model name is required (--model or config file)")
    return PipelineConfig(provider=provider, **values)


def _fixture_spans(raw, item) -> tuple[tuple[int, int], ...]:
    """One fixture span list, checked to be sorted, disjoint and inside the answer."""
    spans = tuple((json_value(s, int), json_value(e, int)) for s, e in raw)
    prev_end = 0
    for start, end in spans:
        if not prev_end <= start < end <= len(item.answer):
            raise ValueError(
                f"item {item.id!r}: span [{start}, {end}) is empty, unsorted, overlapping"
                f" or outside its {len(item.answer)}-char answer"
            )
        prev_end = end
    return spans


def _load_mock_rules(path: str | None, items) -> list[MarkingRule]:
    fixture: dict = {}
    rules = []
    try:  # malformed JSON, or a fixture of the wrong shape
        if path is not None:
            with open(path, "r", encoding="utf-8") as fh:
                fixture = json.load(fh)
        for item in items:
            entry = fixture.get(item.id, {})
            spans = _fixture_spans(entry.get("spans", []), item)
            per_run = entry.get("per_run")
            if per_run is not None:
                per_run = {tag: _fixture_spans(raw, item) for tag, raw in per_run.items()}
            rules.append(MarkingRule(answer=item.answer, spans=spans, per_run=per_run))
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad mock fixture {path}: {exc}") from exc
    return rules


def cmd_annotate(args: argparse.Namespace) -> int:
    file_cfg = _load_config_file(args.config)
    validate_templates()
    try:  # the config classes' own range checks
        provider_cfg = _provider_config(args, file_cfg)
        cfg = _pipeline_config(args, file_cfg, provider_cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid setting: {exc}") from exc
    cache_dir = _settings(args, file_cfg, {"cache_dir": str}).get("cache_dir") or DEFAULT_CACHE_DIR

    items = read_items(args.input)
    cache = JsonFileCache(cache_dir)

    if provider_cfg.name == "mock":
        provider = MockProvider(rules=_load_mock_rules(args.mock_fixture, items))
        limiter = None
    else:
        provider = OpenAIChatProvider(provider_cfg)
        limiter = RateLimiter(provider_cfg.requests_per_minute)
    llm = LLMClient(provider, cache=cache, limiter=limiter, max_retries=provider_cfg.max_retries)
    knowledge_svc = KnowledgeService(llm, WikipediaClient(), cfg.model, cache=cache)

    total = len(items)
    done = 0

    def progress(record: PredictionRecord) -> None:
        nonlocal done
        done += 1
        status = f"runs_used={record.runs_used} hard={len(record.hard_labels)}"
        if record.runs_used == 0:
            status += " (unannotated)"
        print(f"[{done}/{total}] {record.id} {status}")

    records = annotate_dataset(items, cfg, llm, knowledge_svc, progress=progress)
    write_predictions(records, args.output)

    failures = sum(1 for r in records if r.runs_used == 0)
    mean_runs = sum(r.runs_used for r in records) / total if total else 0.0
    print(f"wrote {total} records to {args.output} (mean runs used {mean_runs:.1f}, {failures} failures)")
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    preds = read_predictions(args.pred)
    golds = read_gold(args.gold)
    try:
        report = evaluate(preds, golds)
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ID_MISMATCH
    print(render_table(report))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report_to_dict(report), fh, indent=2, ensure_ascii=False)
            fh.write("\n")
        print(f"report written to {args.report}")
    return EXIT_OK


def cmd_inspect(args: argparse.Namespace) -> int:
    preds = {p.id: p for p in read_predictions(args.pred)}
    pred = preds.get(args.item_id)
    if pred is None:
        print(f"error: id {args.item_id!r} not found in {args.pred}", file=sys.stderr)
        return EXIT_ID_MISMATCH

    gold = None
    if args.gold:
        golds = {g.id: g for g in read_gold(args.gold)}
        gold = golds.get(args.item_id)
        if gold is None:
            print(f"error: id {args.item_id!r} not found in {args.gold}", file=sys.stderr)
            return EXIT_ID_MISMATCH

    answer = pred.answer if pred.answer is not None else (gold.answer if gold else None)
    if answer is None:
        print(
            "error: prediction file carries no answer text; pass --gold to supply it",
            file=sys.stderr,
        )
        return EXIT_ERROR

    print(f"id={pred.id} lang={pred.lang} runs_used={pred.runs_used}")
    print(f"pred: {insert_markers(answer, pred.hard_labels)}")
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
    except (HallmarkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
