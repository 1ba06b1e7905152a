"""Per-item annotation orchestration.

For each item: build the role- and knowledge-conditioned prompt, sample
the annotator N times, parse and align every reply, gate runs on
alignment similarity, aggregate the surviving votes, and emit one
prediction record. Run failures shrink the vote denominator; an item
where every run failed is reported unannotated rather than failing the
batch.
"""

from __future__ import annotations

import logging
import sys
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, Sequence

from .aggregate import BELOW_GATE, MARKER_ERROR, OK, PROVIDER_ERROR, TRUNCATED, AnnotationRun, aggregate
from .aggregate import to_hard_labels, to_soft_labels
from .alignment import align, project_spans, validate_run
from .core import PredictionRecord, QAItem
from .errors import AggregationError, MarkerError, ProviderError, TruncatedReplyError
from .knowledge import KnowledgeService
from .llm import CompletionRequest, LLMClient, ProviderConfig
from .marking import parse_marked
from .prompts import (
    NO_KNOWLEDGE_SENTINEL,
    example,
    language_name,
    load_template,
    render,
)

logger = logging.getLogger(__name__)

REPLY_SENTINEL = "Revised answer:"


@dataclass(frozen=True)
class PipelineConfig:
    model: str
    provider: ProviderConfig
    runs_n: int = 12
    threshold: float = 0.5
    min_similarity: float = 0.7
    use_roles: bool = True
    use_external: bool = True
    temperature: float = 1.0
    max_tokens: int = 2048
    max_parallel_items: int = 1

    def __post_init__(self) -> None:
        if self.runs_n < 1:
            raise ValueError("runs_n must be >= 1")
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if not 0.0 <= self.min_similarity <= 1.0:
            raise ValueError("min_similarity must be in [0, 1]")
        if not 0 <= self.temperature <= sys.float_info.max:  # NaN, inf and an int past the float range fail
            raise ValueError("temperature must be a finite number >= 0")
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be > 0")
        if self.max_parallel_items < 1:
            raise ValueError("max_parallel_items must be >= 1")


def build_main_prompt(item: QAItem, role: str, knowledge: str | None) -> str:
    """Fill the annotation template for one run.

    ``knowledge`` is the refined external knowledge, or None to insert the
    explicit no-knowledge sentinel.
    """
    template = load_template("main_annotation")
    return render(
        template,
        {
            "role": role,
            "lang": language_name(item.lang),
            "question": item.question,
            "answer": item.answer,
            "knowledge": knowledge if knowledge else NO_KNOWLEDGE_SENTINEL,
            "example": example(),
        },
    )


def extract_final_marked(reply: str) -> str:
    """Isolate the marked answer from a reply that may carry reasoning.

    Takes the text after the last sentinel line when present, otherwise
    the whole reply; strips surrounding code fences either way.
    """
    text = reply.strip()
    idx = text.rfind(REPLY_SENTINEL)
    if idx != -1:
        text = text[idx + len(REPLY_SENTINEL) :].strip()
    if text.startswith("```"):
        first_newline = text.find("\n")
        if first_newline != -1 and text.rstrip().endswith("```"):
            text = text[first_newline + 1 :].rstrip()
            text = text[: text.rfind("```")].strip()
    return text


def _empty_record(item: QAItem) -> PredictionRecord:
    return PredictionRecord(
        id=item.id,
        lang=item.lang,
        hard_labels=(),
        soft_labels=(),
        runs_used=0,
        answer=item.answer,
    )


def _execute_run(item: QAItem, prompt: str, seed_tag: str, cfg: PipelineConfig, llm: LLMClient) -> AnnotationRun:
    try:
        reply = llm.complete(
            CompletionRequest(
                model=cfg.model,
                user_prompt=prompt,
                temperature=cfg.temperature,
                max_tokens=cfg.max_tokens,
                seed_tag=seed_tag,
            )
        )
        parsed = parse_marked(extract_final_marked(reply), item.answer)
    except (ProviderError, MarkerError) as exc:
        if isinstance(exc, MarkerError):
            outcome, level = MARKER_ERROR, logging.DEBUG
        else:
            outcome, level = (TRUNCATED if isinstance(exc, TruncatedReplyError) else PROVIDER_ERROR), logging.WARNING
        logger.log(level, "item %s %s: %s (%s)", item.id, seed_tag, outcome, exc)
        return AnnotationRun(outcome)

    alignment = align(parsed.clean_text, item.answer, cfg.min_similarity)
    if not validate_run(alignment, cfg.min_similarity):
        logger.debug("item %s %s: %s (similarity %.3f)", item.id, seed_tag, BELOW_GATE, alignment.similarity)
        return AnnotationRun(BELOW_GATE)
    return AnnotationRun(OK, tuple(project_spans(parsed, alignment)))


def annotate_item(
    item: QAItem,
    cfg: PipelineConfig,
    llm: LLMClient,
    knowledge_svc: KnowledgeService,
) -> PredictionRecord:
    """Annotate one item with ``cfg.runs_n`` ensemble runs."""
    if not item.answer:
        logger.warning("item %s: empty answer, emitting empty labels", item.id)
        return _empty_record(item)

    bundle = knowledge_svc.build_bundle(item, use_roles=cfg.use_roles, use_external=cfg.use_external)

    runs = []
    for i in range(cfg.runs_n):
        prompt = build_main_prompt(item, bundle.roles[i % len(bundle.roles)], bundle.refined_external)
        runs.append(_execute_run(item, prompt, f"run-{i}", cfg, llm))

    try:
        probs = aggregate(runs, len(item.answer))
    except AggregationError:
        logger.warning("item %s: no valid runs, emitting empty labels", item.id)
        return _empty_record(item)

    return PredictionRecord(
        id=item.id,
        lang=item.lang,
        hard_labels=tuple(to_hard_labels(probs, cfg.threshold)),
        soft_labels=tuple(to_soft_labels(probs)),
        runs_used=sum(r.outcome == OK for r in runs),
        answer=item.answer,
    )


def annotate_dataset(
    items: Sequence[QAItem],
    cfg: PipelineConfig,
    llm: LLMClient,
    knowledge_svc: KnowledgeService,
    progress: Callable[[PredictionRecord], None] | None = None,
) -> list[PredictionRecord]:
    """Annotate a dataset, preserving input order in the output.

    Up to ``cfg.max_parallel_items`` items run at once, and each item makes
    its provider calls one after another, so that bound is also the number
    of provider requests in flight. Items start longest answer first (ties
    in input order): every reply copies the answer, so the longest items
    cost most, and starting them last would leave request slots idle at the
    end of the batch. Records and ``progress`` calls still follow input
    order, so on a mixed batch the first ``progress`` call can wait for the
    longest items. An error or interrupt cancels the items not yet started.
    All completions land in the shared response cache, so an interrupted
    batch resumes from where it stopped when rerun.
    """
    order = sorted(range(len(items)), key=lambda i: len(items[i].answer), reverse=True)
    records: list[PredictionRecord | None] = [None] * len(items)
    reported = 0
    with ThreadPoolExecutor(max_workers=cfg.max_parallel_items) as pool:
        try:
            futures = {
                pool.submit(annotate_item, items[i], cfg, llm, knowledge_svc): i for i in order
            }
            # Completion order, so that any item's error stops the batch at once
            # rather than when its input position comes up.
            for future in as_completed(futures):
                records[futures[future]] = future.result()
                while reported < len(records) and records[reported] is not None:
                    if progress is not None:
                        progress(records[reported])
                    reported += 1
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return records
