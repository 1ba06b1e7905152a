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

from .alignment import align, project_spans, validate_run
from .cache import JsonFileCache
from .core import PredictionRecord, QAItem
from .errors import MarkerError, ProviderError, TruncatedReplyError
from .knowledge import KnowledgeService
from .llm import BATCH, Batch, CompletionRequest, LLMClient, Provider, ProviderConfig, RateLimiter
from .marking import parse_marked
from .prompts import (
    NO_KNOWLEDGE_SENTINEL,
    example,
    language_name,
    load_template,
    render,
)
from .voting import BELOW_GATE, MARKER_ERROR, OK, PROVIDER_ERROR, TRUNCATED, AnnotationRun, aggregate
from .voting import to_hard_labels, to_soft_labels

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
        if not self.model:
            raise ValueError("model name must not be empty")
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


def connect(cfg: PipelineConfig, provider: Provider, cache: JsonFileCache) -> tuple[LLMClient, KnowledgeService]:
    """The chat client and knowledge service a batch under ``cfg`` runs on, wired as ``hallmark annotate``
    wires them. Both read through ``cache``, which the caller closes. The chat client sends to ``provider``
    with ``cfg.provider``'s retries, and with its rate limit unless it is the mock. The service asks
    ``cfg.model``, and gets a Wikipedia client only when ``cfg.use_external``."""
    from .knowledge import WikipediaClient  # looked up at each call, so that a stand-in set on the module is built

    limiter = None if cfg.provider.name == "mock" else RateLimiter(cfg.provider.requests_per_minute)
    llm = LLMClient(provider, cache=cache, limiter=limiter, max_retries=cfg.provider.max_retries)
    wiki = WikipediaClient() if cfg.use_external else None  # building one loads the network stack
    return llm, KnowledgeService(llm, wiki, cfg.model, cache=cache)


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


def _unfenced(text: str) -> str:
    """``text`` stripped, and out of its code fences if it sits in them."""
    text = text.strip()
    if text.startswith("```"):
        first_newline = text.find("\n")
        if first_newline != -1 and text.rstrip().endswith("```"):
            text = text[first_newline + 1 :].rstrip()
            text = text[: text.rfind("```")].strip()
    return text


def _candidates(reply: str, answer: str) -> list[str]:
    """The text after each sentinel, latest first, then the whole reply if it holds no more sentinels than
    ``answer`` (each may then be the answer's own): the copies of the marked answer, out of their code fences."""
    parts = reply.split(REPLY_SENTINEL)
    candidates = [REPLY_SENTINEL.join(parts[i:]) for i in range(len(parts) - 1, 0, -1)]
    if len(parts) - 1 <= answer.count(REPLY_SENTINEL):
        candidates.append(reply)
    return [_unfenced(text) for text in candidates]


def _execute_run(item: QAItem, prompt: str, seed_tag: str, cfg: PipelineConfig, llm: LLMClient) -> AnnotationRun:
    """One run's vote on ``item``. Each of the reply's ``_candidates`` is parsed and aligned once, and one whose
    markers do not parse is skipped (none left is a marker error). The best aligned, the latest of equals, is
    gated and projected onto the answer with that same parse and alignment."""
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
    except ProviderError as exc:
        outcome = TRUNCATED if isinstance(exc, TruncatedReplyError) else PROVIDER_ERROR
        logger.warning("item %s %s: %s (%s)", item.id, seed_tag, outcome, exc)
        return AnnotationRun(outcome)

    best = error = None
    for text in _candidates(reply, item.answer):
        try:
            parsed = parse_marked(text, item.answer)
        except MarkerError as exc:
            error = error or exc  # the latest candidate's
            continue
        alignment = align(parsed.clean_text, item.answer, cfg.min_similarity)
        if best is None or alignment.similarity > best[1].similarity:
            best = parsed, alignment
    if best is None:
        logger.debug("item %s %s: %s (%s)", item.id, seed_tag, MARKER_ERROR, error)
        return AnnotationRun(MARKER_ERROR)

    parsed, alignment = best
    if not validate_run(alignment, cfg.min_similarity):
        logger.debug("item %s %s: %s (similarity %.3f)", item.id, seed_tag, BELOW_GATE, alignment.similarity)
        return AnnotationRun(BELOW_GATE)
    return AnnotationRun(OK, tuple(project_spans(parsed, alignment, item.answer)))


def annotate_item(
    item: QAItem,
    cfg: PipelineConfig,
    llm: LLMClient,
    knowledge_svc: KnowledgeService,
) -> PredictionRecord:
    """Annotate one item with ``cfg.runs_n`` ensemble runs; an empty answer gets none, and sends nothing."""
    runs = []
    if item.answer:
        bundle = knowledge_svc.build_bundle(item, use_roles=cfg.use_roles, use_external=cfg.use_external)
        prompts = [build_main_prompt(item, role, bundle.refined_external) for role in bundle.roles[: cfg.runs_n]]
        runs = [_execute_run(item, prompts[i % len(prompts)], f"run-{i}", cfg, llm) for i in range(cfg.runs_n)]

    runs_used = sum(r.outcome == OK for r in runs)
    if item.answer and not runs_used:
        logger.warning("item %s: no valid runs, emitting empty labels", item.id)
    probs = aggregate(runs, len(item.answer))
    return PredictionRecord(
        id=item.id,
        lang=item.lang,
        hard_labels=tuple(to_hard_labels(probs, cfg.threshold)),
        soft_labels=tuple(to_soft_labels(probs)),
        runs_used=runs_used,
        answer=item.answer,
    )


def annotate_dataset(
    items: Sequence[QAItem],
    cfg: PipelineConfig,
    llm: LLMClient,
    knowledge_svc: KnowledgeService,
    progress: Callable[[PredictionRecord], None] | None = None,
) -> list[PredictionRecord]:
    """Annotate a dataset, preserving input order in the output. ``connect`` builds ``llm`` and
    ``knowledge_svc`` for ``cfg``.

    At most ``cfg.max_parallel_items`` provider requests are on the wire at
    once, counting the knowledge chain's, and as many Wikipedia requests,
    and one more item than that is prepared and parsed meanwhile:
    ``max_parallel_items + 1`` items run at once, each sending its requests
    one after another. Each service has slots of its own, and a request
    holds one only for each attempt on the wire (see ``with_retries``). So
    while one item hashes, reads the cache, parses or aligns, another item's
    request takes its slot. The slots and the batch's stop event belong to
    its worker threads (``BATCH``), not to the clients, so each batch bounds
    and stops its own requests, also when batches share ``llm``.

    Items are submitted longest answer first (ties in input order). Every
    reply copies the answer, so the longest items cost most, and starting
    them last would leave request slots idle at the end of the batch.
    Records and ``progress`` calls still follow input order, so on a mixed
    batch the first ``progress`` call can wait for the longest items. An
    error or interrupt, here or in ``progress``, stops the batch: items not
    yet started are cancelled, requests already on the wire finish, a
    backoff or a wait for the rate window ends at once, and no new request
    or retry is sent to either service. All completions land in
    the shared response cache, so a stopped batch resumes from where it
    stopped when rerun.
    """
    order = sorted(range(len(items)), key=lambda i: len(items[i].answer), reverse=True)
    records: list[PredictionRecord | None] = [None] * len(items)
    reported = 0
    batch = Batch(cfg.max_parallel_items)
    with ThreadPoolExecutor(max_workers=cfg.max_parallel_items + 1, initializer=BATCH.set, initargs=(batch,)) as pool:
        try:
            futures = {pool.submit(annotate_item, items[i], cfg, llm, knowledge_svc): i for i in order}
            # Completion order, so that any item's error stops the batch at once
            # rather than when its input position comes up.
            for future in as_completed(futures):
                records[futures[future]] = future.result()
                while reported < len(records) and records[reported] is not None:
                    if progress is not None:
                        progress(records[reported])
                    reported += 1
        except BaseException:
            batch.stopped.set()
            pool.shutdown(cancel_futures=True)
            raise
    return records
