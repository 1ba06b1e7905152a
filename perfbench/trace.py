"""Span recording around hallmark's public entry points.

``Tracer.install()`` swaps each traced function or method for a wrapper
that records a span (name, start, end, parent, item id) and puts the
original back on exit, so the program's sources stay untouched. Spans nest
per thread; an item's id is taken from ``annotate_item`` and inherited by
every span below it. A span's self time is its duration minus the time its
children on the same thread cover.
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from time import perf_counter

from hallmark import cache, knowledge, llm, pipeline

# (owner, attribute, span name). The module-level names are patched in
# ``hallmark.pipeline``, which imported them by name and calls them there.
# A span name is "<layer>.<entry point>".
TRACED = (
    (pipeline, "annotate_item", "pipeline.annotate_item"),
    (pipeline, "parse_marked", "marking.parse_marked"),
    (pipeline, "align", "alignment.align"),
    (pipeline, "validate_run", "alignment.validate_run"),
    (pipeline, "project_spans", "alignment.project_spans"),
    (pipeline, "aggregate", "aggregate.aggregate"),
    (pipeline, "to_hard_labels", "aggregate.to_hard_labels"),
    (pipeline, "to_soft_labels", "aggregate.to_soft_labels"),
    (llm.LLMClient, "complete", "llm.complete"),
    (llm.RateLimiter, "acquire", "llm.limiter_acquire"),
    (llm.OpenAIChatProvider, "send", "llm.provider_send"),
    (cache.JsonFileCache, "get", "cache.get"),
    (cache.JsonFileCache, "put", "cache.put"),
    (knowledge.KnowledgeService, "build_bundle", "knowledge.build_bundle"),
    (knowledge.KnowledgeService, "assign_roles", "knowledge.assign_roles"),
    (knowledge.KnowledgeService, "extract_keyword", "knowledge.extract_keyword"),
    (knowledge.KnowledgeService, "fetch_wikipedia", "knowledge.fetch_wikipedia"),
    (knowledge.KnowledgeService, "summarize_knowledge", "knowledge.summarize_knowledge"),
    (knowledge.WikipediaClient, "search_first_title", "knowledge.search_first_title"),
    (knowledge.WikipediaClient, "fetch_extract", "knowledge.fetch_extract"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "child_s", "note")

    def __init__(self, name: str, parent: "Span | None", item: str | None):
        self.name = name
        self.parent = parent
        self.item = item
        self.child_s = 0.0
        self.note = None
        self.end = 0.0
        self.start = perf_counter()

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _note(name: str, args: tuple, result) -> object:
    """What a span keeps of its call, for the layer counters."""
    if name == "alignment.align":
        return len(args[0]) * len(args[1])  # cells of the DP
    if name == "alignment.validate_run":
        return bool(result)
    if name == "cache.get":
        return result is not None
    if name == "knowledge.build_bundle":
        return result.refined_external is not None
    return None


class Tracer:
    """Keeps spans in memory; one tracer per traced batch."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, item: str | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if item is None and parent is not None:
            item = parent.item
        span = Span(name, parent, item)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_s += span.duration

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            item = args[0].id if name == "pipeline.annotate_item" else None
            span = tracer.open(name, item)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.note = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            span.note = _note(name, args, result)
            return result

        return traced

    @contextmanager
    def install(self):
        """Trace every entry point in ``TRACED`` until the block exits."""
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in TRACED]
        try:
            for (owner, attr, name), (_, _, fn) in zip(TRACED, originals):
                setattr(owner, attr, self._wrap(fn, name))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)
