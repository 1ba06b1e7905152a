"""One workload against hallmark, wired the way ``cli.cmd_annotate`` wires it.

A batch is one pass of ``annotate_dataset`` + ``write_predictions`` over
the workload's items: a closed loop, one batch job in one process, with
``items_in_flight`` items in flight. Every batch starts from a fresh copy
of the cache set-up filled, which is empty for a cold workload.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import requests
import scipy

from hallmark.cache import JsonFileCache
from hallmark.core import GoldRecord, SpanLabel
from hallmark.jsonl import read_predictions, write_predictions
from hallmark.knowledge import KnowledgeService, WikipediaClient
from hallmark.llm import LLMClient, OpenAIChatProvider, ProviderConfig, RateLimiter
from hallmark.pipeline import PipelineConfig, annotate_dataset
from hallmark.prompts import validate_templates
from hallmark.scoring import evaluate

from .sim import CHAT_URL, TIME_COMPRESSION, ChatEndpoint, WikiEndpoint, session_for
from .trace import Tracer
from .workload import MIN_SIMILARITY, RUNS_N, THRESHOLD, Settings, Workload, generate

MODEL = "sim-model"
API_KEY_ENV = "HALLMARK_BENCH_API_KEY"
# The limiter stays on, but with a budget far above what any workload sends
# (the cold workloads send under 10k requests a minute), so it never waits.
REQUESTS_PER_MINUTE = 10_000_000
BACKOFF_BASE_S = 1.0 / TIME_COMPRESSION
SETUP_REPS = 5
MIN_BATCHES = 3
EVAL_REPS = 10
# Time to import hallmark in a fresh interpreter; the path to src is argv[1].
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import hallmark; print(time.perf_counter() - t)"
)


def unit_of(metric: str) -> str:
    """Every metric's unit follows from its name."""
    if metric.endswith("_per_s"):
        return "1/s"
    if "_ms" in metric:
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(("_share", "_iou")):
        return "ratio"
    return "count"


class RecordingSleep:
    """The ``sleep`` handed to ``LLMClient``: sleeps, and counts what it was asked."""

    def __init__(self):
        self._lock = threading.Lock()
        self.calls = 0
        self.total_s = 0.0

    def __call__(self, seconds: float) -> None:
        with self._lock:
            self.calls += 1
            self.total_s += seconds
        time.sleep(seconds)


@dataclass
class Batch:
    plans: tuple
    records: list | None
    wall_s: float
    error: str | None
    chat_requests: int
    chat_good: int
    chat_wait_s: float
    wiki_requests: int
    retries: int
    backoff_s: float
    cache_files: int
    tracer: Tracer | None = None
    eval_s: list[float] = field(default_factory=list)

    @property
    def written(self) -> int:
        return len(self.records) if self.records is not None else 0


class Harness:
    def __init__(self, workload: Workload, workdir: Path):
        s = workload.settings
        self.workload = workload
        self.workdir = workdir
        self.chat = ChatEndpoint(workload, faults=s.faults)
        self.wiki = WikiEndpoint(workload)
        self.provider_cfg = ProviderConfig(
            name="sim",
            base_url=CHAT_URL,
            api_key_env=API_KEY_ENV,
            requests_per_minute=REQUESTS_PER_MINUTE,
        )
        self.cfg = PipelineConfig(
            model=MODEL,
            provider=self.provider_cfg,
            runs_n=RUNS_N,
            threshold=THRESHOLD,
            min_similarity=MIN_SIMILARITY,
            use_roles=True,
            use_external=True,
            max_parallel_items=s.items_in_flight,
        )
        self.golds = [
            GoldRecord(
                id=p.item.id,
                lang=p.item.lang,
                answer=p.item.answer,
                hard_labels=tuple(SpanLabel(a, b) for a, b in p.hard),
                soft_labels=tuple(SpanLabel(a, b, q) for a, b, q in p.soft),
            )
            for p in workload.plans
        ]
        self._dirs = 0

    def new_cache_dir(self) -> Path:
        self._dirs += 1
        return self.workdir / f"cache-{self._dirs}"

    def run_batch(self, cache_dir: Path, tracer: Tracer | None = None) -> Batch:
        """One pass over the items; an exception out of the batch is its result."""
        plans = self.workload.plans
        items = [p.item for p in plans]
        self.chat.reset()
        self.wiki.reset()
        self.chat.tracer = self.wiki.tracer = tracer
        os.environ[API_KEY_ENV] = "sim-key"
        cache = JsonFileCache(cache_dir)
        sleep = RecordingSleep()
        llm = LLMClient(
            OpenAIChatProvider(self.provider_cfg, session=session_for(self.chat)),
            cache=cache,
            limiter=RateLimiter(self.provider_cfg.requests_per_minute),
            max_retries=self.provider_cfg.max_retries,
            backoff_base=BACKOFF_BASE_S,
            sleep=sleep,
        )
        wiki = WikipediaClient(
            session=session_for(self.wiki), sleep=lambda s: time.sleep(s / TIME_COMPRESSION)
        )
        knowledge_svc = KnowledgeService(llm, wiki, self.cfg.model, cache=cache)
        out = self.workdir / "predictions.jsonl"
        records = error = None
        gc.collect()  # garbage of earlier batches is not this batch's cost
        start = time.perf_counter()
        try:
            with tracer.install() if tracer else nullcontext():
                records = annotate_dataset(items, self.cfg, llm, knowledge_svc)
                with _span(tracer, "jsonl.write_predictions"):
                    write_predictions(records, out)
        except Exception as exc:  # an aborted batch is a measured outcome, not a crash
            records = None
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        self.chat.tracer = self.wiki.tracer = None
        return Batch(
            plans=plans,
            records=records,
            wall_s=wall,
            error=error,
            chat_requests=self.chat.requests,
            chat_good=self.chat.good,
            chat_wait_s=self.chat.wait_s,
            wiki_requests=self.wiki.requests,
            retries=sleep.calls,
            backoff_s=sleep.total_s,
            cache_files=sum(1 for _ in cache_dir.iterdir()),
            tracer=tracer,
        )

    def time_evaluate(self, batch: Batch) -> None:
        """Time ``evaluate`` on the batch's records against the planned labels."""
        if batch.records is None:
            return
        for _ in range(EVAL_REPS):
            gc.collect()
            start = time.perf_counter()
            with _span(batch.tracer, "scoring.evaluate"):
                evaluate(batch.records, self.golds)
            batch.eval_s.append(time.perf_counter() - start)

    def check(self, batch: Batch) -> list[str]:
        """Ways the batch's output disagrees with the plan; empty when correct.

        Items whose answers contain marker-like characters are held only to
        the structural checks: at seed hallmark may take those characters for
        delimiters (ROADMAP 3a), which hard_iou and labels_exact_share show.
        A batch that raised fails the check unless the workload plans faults;
        there its items count as failed instead.
        """
        if batch.records is None:
            return [] if self.workload.settings.faults else [f"batch raised {batch.error}"]
        problems = []
        if [r.id for r in batch.records] != [p.item.id for p in batch.plans]:
            return ["record ids differ from item ids"]
        for rec, plan in zip(batch.records, batch.plans):
            if rec.answer != plan.item.answer:
                problems.append(f"{rec.id}: answer text changed")
            if rec.runs_used != plan.valid_runs:
                problems.append(f"{rec.id}: runs_used {rec.runs_used}, planned {plan.valid_runs}")
            if not plan.marker_like and not _exact(rec, plan):
                problems.append(f"{rec.id}: labels differ from the plan")
        return problems


def _span(tracer: Tracer | None, name: str):
    """A span around a call the benchmark makes itself, when tracing."""
    return tracer.span(name) if tracer is not None else nullcontext()


def _hard(rec) -> list[tuple[int, int]]:
    return [(s.start, s.end) for s in rec.hard_labels]


def _exact(rec, plan) -> bool:
    return _hard(rec) == list(plan.hard) and [(s.start, s.end, s.prob) for s in rec.soft_labels] == list(plan.soft)


def char_iou(pred: list[tuple[int, int]], gold: list[tuple[int, int]]) -> float:
    p = {i for a, b in pred for i in range(a, b)}
    g = {i for a, b in gold for i in range(a, b)}
    union = p | g
    return len(p & g) / len(union) if union else 1.0


def _pct(values: list[float], q: int) -> float:
    """The q-th percentile, or the single value, or 0 with no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def import_seconds(src: Path) -> float:
    """Time ``import hallmark`` takes in a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(src)], capture_output=True, text=True, timeout=120, check=True
    )
    return float(probe.stdout)


def setup(settings: Settings, seed: int, workdir: Path, src: Path) -> tuple[Harness, Path, float]:
    """Import hallmark, generate the inputs, and, for a warm workload, fill
    the cache by running the program cold once. Returns the harness, the
    cache and the time taken."""
    import_s = import_seconds(src)
    start = time.perf_counter()
    validate_templates()
    harness = Harness(generate(settings, seed), workdir)
    cache_dir = harness.new_cache_dir()
    cache_dir.mkdir(parents=True)
    if settings.warm:
        prefill = harness.run_batch(cache_dir)
        problems = harness.check(prefill)  # a warm workload plans no faults, so a raise is a problem
        if problems:
            raise RuntimeError(f"cache prefill failed: {problems}")
    return harness, cache_dir, import_s + time.perf_counter() - start


def failed_items(batches: list[Batch], items: int) -> int:
    """Items with no valid run, plus every item of a batch that raised."""
    return sum(items if b.records is None else sum(r.runs_used == 0 for r in b.records) for b in batches)


def end_to_end(batches: list[Batch], harness: Harness, setup_s: float) -> dict[str, float]:
    items = len(harness.workload.plans)
    attempted = items * len(batches)
    failed = failed_items(batches, items)
    # Items of an aborted batch have no labels: they score 0 on both.
    written = [(r, p) for b in batches if b.records is not None for r, p in zip(b.records, harness.workload.plans)]
    evals = [s for b in batches for s in b.eval_s]
    return {
        "items_per_s": _median([b.written / b.wall_s for b in batches]),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "llm_requests_per_item": sum(b.chat_requests for b in batches) / attempted,
        "failed_item_share": failed / attempted,
        "annotated_item_share": 1.0 - failed / attempted,
        "hard_iou": sum(char_iou(_hard(r), list(p.hard)) for r, p in written) / attempted,
        "labels_exact_share": sum(_exact(r, p) for r, p in written) / attempted,
        "eval_items_per_s": items / _median(evals) if evals else 0.0,
    }


def layer_self_s(traced: list[Batch]) -> dict[str, float]:
    """Self time per layer per batch."""
    totals: dict[str, float] = {}
    for b in traced:
        for s in b.tracer.spans:
            totals[s.layer] = totals.get(s.layer, 0.0) + s.self_s
    return {layer: total / len(traced) for layer, total in totals.items()}


def per_layer(traced: list[Batch], untraced: list[Batch]) -> dict[str, float]:
    n = len(traced)
    wall = sum(b.wall_s for b in traced)
    by_name: dict[str, list] = {}
    for b in traced:
        for s in b.tracer.spans:
            by_name.setdefault(s.name, []).append(s)
    self_s = layer_self_s(traced)

    def ms(name):
        return [s.duration * 1000.0 for s in by_name.get(name, [])]

    def share(name, pred):
        group = by_name.get(name, [])
        return sum(1 for s in group if pred(s.note)) / len(group) if group else 0.0

    aligns = by_name.get("alignment.align", [])
    align_self_s = sum(s.self_s for s in aligns)
    requests_sent = sum(b.chat_requests for b in traced)
    records = [r for b in traced if b.records is not None for r in b.records]
    chat_wait = sum(b.chat_wait_s for b in traced)
    return {
        "alignment.align_calls": len(aligns) / n,
        "alignment.align_ms_p50": _median(ms("alignment.align")),
        "alignment.align_ms_p95": _pct(ms("alignment.align"), 95),
        "alignment.align_self_s": align_self_s / n,
        "alignment.busy_share": align_self_s / wall,
        "alignment.cells": sum(s.note for s in aligns) / n,
        "alignment.gate_reject_share": share("alignment.validate_run", lambda ok: ok is False),
        "marking.parse_calls": len(by_name.get("marking.parse_marked", [])) / n,
        "marking.parse_self_s": self_s.get("marking", 0.0),
        "marking.reject_share": share("marking.parse_marked", lambda note: note == "MarkerError"),
        "aggregate.calls": len(by_name.get("aggregate.aggregate", [])) / n,
        "aggregate.self_s": self_s.get("aggregate", 0.0),
        "cache.get_calls": len(by_name.get("cache.get", [])) / n,
        "cache.hit_share": share("cache.get", lambda hit: hit is True),
        "cache.get_ms_p50": _median(ms("cache.get")),
        "cache.put_calls": len(by_name.get("cache.put", [])) / n,
        "cache.put_ms_p50": _median(ms("cache.put")),
        "cache.files": statistics.fmean(b.cache_files for b in traced),
        "llm.complete_calls": len(by_name.get("llm.complete", [])) / n,
        "llm.complete_ms_p50": _median(ms("llm.complete")),
        "llm.complete_ms_p95": _pct(ms("llm.complete"), 95),
        "llm.requests": requests_sent / n,
        "llm.endpoint_wait_s": chat_wait / n,
        "llm.limiter_wait_s": sum(ms("llm.limiter_acquire")) / 1000.0 / n,
        "llm.retries": sum(b.retries for b in traced) / n,
        "llm.backoff_sleep_s": sum(b.backoff_s for b in traced) / n,
        "llm.success_share": sum(b.chat_good for b in traced) / requests_sent if requests_sent else 0.0,
        "knowledge.bundle_ms_p50": _median(ms("knowledge.build_bundle")),
        "knowledge.wiki_requests": sum(b.wiki_requests for b in traced) / n,
        "knowledge.external_share": share("knowledge.build_bundle", lambda ext: ext is True),
        "pipeline.item_ms_p50": _median(ms("pipeline.annotate_item")),
        "pipeline.item_ms_p95": _pct(ms("pipeline.annotate_item"), 95),
        "pipeline.valid_run_share": sum(r.runs_used for r in records) / (len(records) * RUNS_N) if records else 0.0,
        "pipeline.self_s": self_s.get("pipeline", 0.0),
        "pipeline.inflight_mean": chat_wait / wall,
        "jsonl.write_ms": _median(ms("jsonl.write_predictions")),
        "scoring.evaluate_ms": _median(ms("scoring.evaluate")),
        "trace.overhead_share": _median([b.wall_s for b in traced]) / _median([b.wall_s for b in untraced]) - 1.0,
    }


def _git_commit(root: Path) -> str:
    try:
        head = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return head.stdout.strip()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path) -> dict:
    return {
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "requests": requests.__version__,
        "git_commit": _git_commit(root),
        "time_compression": TIME_COMPRESSION,
        "requests_per_minute": REQUESTS_PER_MINUTE,
        "backoff_base_s": BACKOFF_BASE_S,
    }


def run(settings: Settings, seed: int, seconds: float, trace: bool, workdir: Path, src: Path):
    """Set up, measure for ``seconds``, and return (result, report)."""
    setups = [setup(settings, seed, workdir / f"setup-{i}", src) for i in range(SETUP_REPS)]
    setup_s = _median([t for _, _, t in setups])
    harness, prefilled, _ = setups[-1]
    for _, cache_dir, _ in setups[:-1]:
        shutil.rmtree(cache_dir.parent, ignore_errors=True)

    untraced: list[Batch] = []
    traced: list[Batch] = []
    problems: list[str] = []
    deadline = time.perf_counter() + seconds
    while True:
        tracer = Tracer() if trace and len(traced) < len(untraced) else None
        cache_dir = harness.new_cache_dir()
        shutil.copytree(prefilled, cache_dir)
        batch = harness.run_batch(cache_dir, tracer)
        shutil.rmtree(cache_dir)
        harness.time_evaluate(batch)
        if not untraced and batch.records is not None:
            if read_predictions(harness.workdir / "predictions.jsonl") != batch.records:
                problems.append("written predictions differ from the returned records")
        problems += harness.check(batch)
        (traced if tracer else untraced).append(batch)
        done = len(untraced) >= MIN_BATCHES and (not trace or len(traced) >= MIN_BATCHES)
        if done and time.perf_counter() >= deadline:
            break

    attempted = len(harness.workload.plans) * len(untraced)
    report = {
        "workload": settings.name,
        "seed": seed,
        "generator": settings.describe(),
        "batches": {"untraced": len(untraced), "traced": len(traced)},
        "batch_errors": sorted({b.error for b in untraced + traced if b.error}),
        "problems": problems[:20],
        "end_to_end": end_to_end(untraced, harness, setup_s),
    }
    if trace:
        report["per_layer"] = per_layer(traced, untraced)
        report["self_s_per_layer"] = layer_self_s(traced)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed_items(untraced, len(harness.workload.plans)),
    }
    return result, report
