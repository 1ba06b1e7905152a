"""Uniform chat-completion client: caching, rate limiting, retries, and a
deterministic mock provider for offline runs.

All live providers speak the OpenAI-compatible chat-completions JSON, which
covers every endpoint this tool targets without per-provider code.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping, Protocol, Sequence

import requests

from .cache import JsonFileCache, make_key
from .errors import AuthError, MockError, ProviderError
from .marking import insert_markers

logger = logging.getLogger(__name__)

PROVIDER_TIMEOUT_S = 120.0  # per chat-completion request


class TransientProviderError(ProviderError):
    """Retryable failure: rate limit, server error, or network trouble."""


@dataclass(frozen=True)
class CompletionRequest:
    """One completion call.

    ``seed_tag`` distinguishes repeated stochastic samples of the same
    prompt (run-0, run-1, ...) so the cache does not collapse them. It is
    part of the cache key only and never sent over the wire.
    """

    model: str
    user_prompt: str
    temperature: float = 1.0
    max_tokens: int = 2048
    seed_tag: str = ""


@dataclass(frozen=True)
class ProviderConfig:
    name: str
    base_url: str = ""
    api_key_env: str = ""
    requests_per_minute: int = 60
    max_retries: int = 3

    def __post_init__(self) -> None:
        if self.requests_per_minute <= 0:
            raise ValueError("requests_per_minute must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


class Provider(Protocol):
    name: str

    def send(self, req: CompletionRequest) -> str: ...


class RateLimiter:
    """Sliding-window limiter: at most ``requests_per_minute`` acquisitions
    in any 60 second window. Thread-safe; callers block when the budget is
    spent. Clock and sleep are injectable for tests."""

    def __init__(
        self,
        requests_per_minute: int,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.requests_per_minute = requests_per_minute
        self._clock = clock
        self._sleep = sleep
        self._stamps: deque[float] = deque()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = self._clock()
                while self._stamps and self._stamps[0] <= now - 60.0:
                    self._stamps.popleft()
                if len(self._stamps) < self.requests_per_minute:
                    self._stamps.append(now)
                    return
                wait = self._stamps[0] + 60.0 - now
            self._sleep(max(wait, 0.0))


class OpenAIChatProvider:
    """POSTs to ``{base_url}/chat/completions`` with bearer auth."""

    def __init__(self, cfg: ProviderConfig, session: requests.Session | None = None):
        if not cfg.api_key_env:
            raise AuthError(f"provider {cfg.name!r} has no api_key_env configured")
        api_key = os.environ.get(cfg.api_key_env)
        if not api_key:
            raise AuthError(f"environment variable {cfg.api_key_env} is not set")
        self.name = cfg.name
        self._url = cfg.base_url.rstrip("/") + "/chat/completions"
        self._headers = {
            "Authorization": f"Bearer {api_key}",
            "Content-Type": "application/json",
        }
        self._session = session or requests.Session()

    def send(self, req: CompletionRequest) -> str:
        body = {
            "model": req.model,
            "messages": [{"role": "user", "content": req.user_prompt}],
            "temperature": req.temperature,
            "max_tokens": req.max_tokens,
        }
        try:
            response = self._session.post(
                self._url, json=body, headers=self._headers, timeout=PROVIDER_TIMEOUT_S
            )
        except requests.RequestException as exc:
            raise TransientProviderError(f"network error calling {self.name}: {exc}") from exc

        if response.status_code == 401:
            raise AuthError(f"provider {self.name} rejected the API key (HTTP 401)")
        if response.status_code == 429 or response.status_code >= 500:
            raise TransientProviderError(f"provider {self.name} returned HTTP {response.status_code}")
        if response.status_code != 200:
            raise ProviderError(f"provider {self.name} returned HTTP {response.status_code}")
        try:
            content = response.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed completion payload from {self.name}: {exc}") from exc
        if not isinstance(content, str):
            raise ProviderError(f"provider {self.name} returned no text content ({content!r})")
        return content


@dataclass(frozen=True)
class MarkingRule:
    """Rule-mode fixture: how the mock annotates one known answer.

    ``spans`` are offsets into ``answer``; ``per_run`` overrides them for
    individual seed tags, which lets a fixture vary the vote across runs.
    """

    answer: str
    spans: tuple[tuple[int, int], ...] = ()
    per_run: Mapping[str, Sequence[tuple[int, int]]] | None = None

    def spans_for(self, seed_tag: str) -> Sequence[tuple[int, int]]:
        if self.per_run is not None and seed_tag in self.per_run:
            return self.per_run[seed_tag]
        return self.spans


# Phrases that identify the stock knowledge prompts; kept in sync with the
# templates shipped under hallmark/prompts/.
_ROLES_PHRASE = "expert identities"
_KEYWORD_PHRASE = "extract a keyword"
_SUMMARY_PHRASE = "refine the given knowledge"


class MockProvider:
    """Deterministic offline provider.

    Resolution order per request: exact scripted prompt, stock replies for
    the knowledge prompts, then marking rules. A rule matches when its
    answer text occurs in the prompt; the rule with the rightmost
    occurrence wins, because the item under annotation appears after any
    worked example embedded in the prompt. Unmatched prompts get
    ``default_reply``, or raise MockError when it is None.
    """

    name = "mock"

    def __init__(
        self,
        script: Mapping[str, str] | None = None,
        rules: Sequence[MarkingRule] = (),
        default_reply: str | None = None,
        roles_reply: Sequence[str] = ("fact-checking expert", "reference librarian"),
    ):
        self.script = dict(script or {})
        self.rules = tuple(rules)
        self.default_reply = default_reply
        self.roles_reply = tuple(roles_reply)
        self.calls: list[CompletionRequest] = []
        self._lock = threading.Lock()

    @property
    def call_count(self) -> int:
        return len(self.calls)

    def send(self, req: CompletionRequest) -> str:
        with self._lock:
            self.calls.append(req)

        if req.user_prompt in self.script:
            return self.script[req.user_prompt]

        if _ROLES_PHRASE in req.user_prompt:
            return json.dumps(
                {"Identities": list(self.roles_reply), "Reason": "scripted"},
                ensure_ascii=False,
            )
        if _KEYWORD_PHRASE in req.user_prompt:
            return "Keyword: mock keyword"
        if _SUMMARY_PHRASE in req.user_prompt:
            return '{"Knowledge": "mock refined knowledge", "Reason": "scripted"}'

        best: MarkingRule | None = None
        best_pos = -1
        for rule in self.rules:
            if not rule.answer:
                continue  # empty text would "match" at the end of any prompt
            pos = req.user_prompt.rfind(rule.answer)
            if pos > best_pos:
                best = rule
                best_pos = pos
        if best is not None:
            return insert_markers(best.answer, best.spans_for(req.seed_tag))

        if self.default_reply is None:
            raise MockError(f"no scripted reply for prompt: {req.user_prompt[:80]!r}...")
        return self.default_reply


class LLMClient:
    """Provider wrapper adding the response cache, the rate limiter, and
    exponential-backoff retries for transient failures."""

    def __init__(
        self,
        provider: Provider,
        cache: JsonFileCache | None = None,
        limiter: RateLimiter | None = None,
        max_retries: int = 3,
        backoff_base: float = 1.0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.provider = provider
        self.cache = cache
        self.limiter = limiter
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self._sleep = sleep

    def _cache_key(self, req: CompletionRequest) -> str:
        return make_key(
            "complete",
            {
                "provider": self.provider.name,
                "model": req.model,
                "system_prompt": None,  # a removed field; kept so existing caches still hit
                "user_prompt": req.user_prompt,
                "temperature": float(req.temperature),  # 0 and 0.0 are one setting, spelled 0.0 in caches
                "max_tokens": req.max_tokens,
                "seed_tag": req.seed_tag,
            },
        )

    def complete(self, req: CompletionRequest) -> str:
        key = None
        if self.cache is not None:
            key = self._cache_key(req)
            hit = self.cache.get(key)
            if hit is not None:
                return hit["text"]

        attempt = 0
        while True:
            if self.limiter is not None:
                self.limiter.acquire()
            try:
                text = self.provider.send(req)
                break
            except TransientProviderError as exc:
                if attempt >= self.max_retries:
                    raise ProviderError(
                        f"giving up after {attempt + 1} attempts: {exc}"
                    ) from exc
                delay = self.backoff_base * (2**attempt)
                logger.warning("transient provider failure (%s), retrying in %.1fs", exc, delay)
                self._sleep(delay)
                attempt += 1

        if not isinstance(text, str):
            raise ProviderError(f"provider {self.provider.name} returned {type(text).__name__}, not text")
        if self.cache is not None:
            self.cache.put(key, {"text": text})
        return text
