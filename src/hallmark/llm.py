"""Uniform chat-completion client: caching, rate limiting, retries, and the
deterministic mock provider that ``--provider mock`` runs offline.

All live providers speak the OpenAI-compatible chat-completions JSON, which
covers every endpoint this tool targets without per-provider code.
"""

from __future__ import annotations

import copy
import itertools
import json
import logging
import math
import os
import threading
import time
from collections import deque
from concurrent.futures import CancelledError
from contextvars import ContextVar
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Protocol, Sequence, TypeVar
from urllib.parse import urlsplit

from .cache import JsonFileCache, make_key
from .core import SpanLabel
from .errors import AuthError, ConfigError, ProviderError, TruncatedReplyError
from .jsonl import is_json_type, load_json
from .marking import insert_markers

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

PROVIDER_TIMEOUT_S = 120.0  # per chat-completion request

T = TypeVar("T")


class TransientProviderError(ProviderError):
    """Retryable failure: rate limit, server error, or network trouble."""


def transient_checked(call: Callable[[], requests.Response], service: str) -> requests.Response:
    """``call()``'s response, unless it is one a retry may mend: a connection error, timeout, 429 or 5xx.
    A request that could not be built or sent for any other reason fails at once."""
    import requests  # on first use, so commands that send nothing never load the network stack

    try:
        response = call()
    except (requests.ConnectionError, requests.Timeout, requests.exceptions.ChunkedEncodingError) as exc:
        raise TransientProviderError(f"network error calling {service}: {exc}") from exc
    except requests.RequestException as exc:
        raise ProviderError(f"cannot send the request to {service}: {exc}") from exc
    if response.status_code == 429 or response.status_code >= 500:
        raise TransientProviderError(f"{service} returned HTTP {response.status_code}")
    return response


# A batch's slots for each service and its stop event, set in every thread of its pool; elsewhere a request takes
# an unbounded gate, and nothing stops it.
CHAT_SLOTS: ContextVar[threading.Semaphore] = ContextVar("CHAT_SLOTS", default=threading.Semaphore(math.inf))
WIKI_SLOTS: ContextVar[threading.Semaphore] = ContextVar("WIKI_SLOTS", default=threading.Semaphore(math.inf))
STOPPED: ContextVar[threading.Event] = ContextVar("STOPPED", default=threading.Event())


def check_stop() -> None:
    """Raise ``CancelledError`` once the batch has stopped."""
    if STOPPED.get().is_set():
        raise CancelledError("the batch has stopped")


def backoff(seconds: float) -> None:
    """Wait ``seconds``, or less if the batch stops first: the default ``sleep`` of every client and limiter."""
    STOPPED.get().wait(seconds)


def with_retries(
    call: Callable[[], T], slots: threading.Semaphore, retries: int, backoff_base: float, sleep: Callable[[float], None]
) -> T:
    """``call()``, retried at most ``retries`` times, ``backoff_base·2ⁿ`` s after its n-th transient failure.

    The one place where a request to an outside service takes its slot: each attempt holds one of ``slots``,
    and a backoff sleep holds none. Once the batch stops (``STOPPED``), no attempt starts, a retry included:
    the next one raises ``CancelledError``, and the default ``sleep``, ``backoff``, ends at the stop.
    """
    for attempt in itertools.count():
        try:
            with slots:
                check_stop()
                return call()
        except TransientProviderError as exc:
            if attempt >= retries:
                raise ProviderError(f"giving up after {attempt + 1} attempts: {exc}") from exc
            delay = backoff_base * (2**attempt)
            logger.warning("transient failure (%s), retrying in %.1fs", exc, delay)
            sleep(delay)


@dataclass(frozen=True)
class CompletionRequest:
    """One completion call.

    ``seed_tag`` distinguishes repeated stochastic samples of the same
    prompt (run-0, run-1, ...) so the cache does not collapse them. It is
    part of the cache key only and never sent over the wire.
    """

    model: str
    user_prompt: str
    temperature: float
    max_tokens: int
    seed_tag: str


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
        if self.base_url and urlsplit(self.base_url).scheme.lower() not in ("http", "https"):
            raise ValueError(f"base_url {self.base_url!r} must start with http:// or https://")


class Provider(Protocol):
    name: str

    def send(self, req: CompletionRequest) -> str: ...


class RateLimiter:
    """Sliding-window limiter: at most ``requests_per_minute`` acquisitions
    in any 60 second window. Thread-safe; callers block when the budget is
    spent, until the batch stops, when the wait raises ``CancelledError``
    and takes no stamp. Clock and sleep are injectable for tests."""

    def __init__(
        self,
        requests_per_minute: int,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = backoff,
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
            check_stop()


def environment_reader(session: requests.Session) -> Callable[[str], dict]:
    """Stop ``session`` reading the environment on each request; return the function that reads it instead.

    For a URL, the function gives the ``proxies``, ``stream``, ``verify`` and
    ``cert`` that ``requests`` would work out on every request: the
    environment as it is at the call, merged with the session's own settings.
    Pass them to each request. The session then also leaves ``~/.netrc``
    unread, so no stored password replaces or adds an Authorization header.
    """
    import requests

    # a copy keeps the session's own trust_env, proxies, verify and cert for calls made after the switch below
    reader = copy.copy(session) if isinstance(session, requests.Session) else requests.Session()
    session.trust_env = False
    return lambda url: reader.merge_environment_settings(url, {}, None, None, None)


class OpenAIChatProvider:
    """POSTs to ``{base_url}/chat/completions`` with bearer auth.

    Proxy and CA-bundle settings are read from the environment once, when
    the provider is built, and passed to every request; the session itself
    ignores the environment. That saves a scan of ``os.environ`` per request,
    and keeps ``~/.netrc`` from replacing the bearer header with Basic auth.
    The URL, the session's headers and hooks, and the bearer header are
    prepared once, too, so a later change to ``session.headers`` or
    ``session.hooks`` is not seen; each call prepares only the session's
    cookies and the JSON body, with requests' own encoder, so the bytes on
    the wire are those of ``session.post``. A session with its own ``auth``
    is a ``ConfigError``: the key goes in the bearer header, and an auth
    that signs the body would sign the template's empty one.
    A reply cut off at ``max_tokens`` (``finish_reason`` ``"length"``) is a
    ``TruncatedReplyError``: its copy of the answer stops short of the end.
    Text with a lone surrogate (an escaped ``\\ud800``), which UTF-8, and so
    the response cache, cannot encode, is a ``ProviderError``. A key that is
    not printable ASCII, which no HTTP header can carry, is an ``AuthError``
    before any request.
    """

    def __init__(self, cfg: ProviderConfig, session: requests.Session | None = None):
        if not cfg.api_key_env:
            raise AuthError(f"provider {cfg.name!r} has no api_key_env configured")
        api_key = os.environ.get(cfg.api_key_env)
        if not api_key:
            raise AuthError(f"environment variable {cfg.api_key_env} is not set")
        if not (api_key.isascii() and api_key.isprintable()):  # the message never echoes the key
            raise AuthError(f"environment variable {cfg.api_key_env} holds a key an HTTP header cannot carry")
        import requests

        self.name = cfg.name
        url = cfg.base_url.rstrip("/") + "/chat/completions"
        self._session = session or requests.Session()
        if self._session.auth is not None:
            raise ConfigError(f"provider {cfg.name!r}: a session with its own auth is not supported")
        self._env_settings = environment_reader(self._session)(url)
        headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"}
        self._template = self._session.prepare_request(requests.Request("POST", url, headers=headers))
        # each call prepares the cookies and then the body, as requests does, so headers keep its order
        for name in ("Cookie", "Content-Length"):
            self._template.headers.pop(name, None)

    def _post(self, body: dict) -> requests.Response:
        """``session.post(url, json=body, headers=…)``, prepared from the template built at construction."""
        prepared = self._template.copy()
        prepared.prepare_cookies(self._session.cookies)
        prepared.prepare_body(None, None, json=body)
        return self._session.send(prepared, timeout=PROVIDER_TIMEOUT_S, **self._env_settings)

    def send(self, req: CompletionRequest) -> str:
        body = {
            "model": req.model,
            "messages": [{"role": "user", "content": req.user_prompt}],
            "temperature": req.temperature,
            "max_tokens": req.max_tokens,
        }
        response = transient_checked(lambda: self._post(body), f"provider {self.name}")
        if response.status_code == 401:
            raise AuthError(f"provider {self.name} rejected the API key (HTTP 401)")
        if response.status_code != 200:
            raise ProviderError(f"provider {self.name} returned HTTP {response.status_code}")
        try:
            choice = load_json(response.content)["choices"][0]
            content = choice["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed completion payload from {self.name}: {exc}") from exc
        if choice.get("finish_reason") == "length":
            raise TruncatedReplyError(f"provider {self.name} cut the reply off at max_tokens")
        if not is_json_type(content, str):  # null, or a string with a lone surrogate
            raise ProviderError(f"provider {self.name} returned no text content ({content!r:.80})")
        return content


@dataclass(frozen=True)
class MarkingRule:
    """Rule-mode fixture: how the mock annotates one known answer.

    ``spans`` are offsets into ``answer``; ``per_run`` overrides them for
    individual seed tags, which lets a fixture vary the vote across runs.
    """

    answer: str
    spans: tuple[SpanLabel, ...] = ()
    per_run: Mapping[str, Sequence[SpanLabel]] | None = None

    def spans_for(self, seed_tag: str) -> Sequence[SpanLabel]:
        if self.per_run is not None and seed_tag in self.per_run:
            return self.per_run[seed_tag]
        return self.spans


MOCK_ROLES = ("fact-checking expert", "reference librarian")  # the mock's reply to every roles prompt


class MockProvider:
    """Deterministic offline provider: what ``--provider mock`` runs.

    The knowledge chain's seed tags (``roles-attempt-N``, ``keyword``,
    ``summary-attempt-N``) get stock replies; the roles are ``MOCK_ROLES``.
    Any other prompt is marked by the rules. A rule matches when its answer
    text occurs in the prompt. The answer under annotation is the prompt's
    last field, after any worked example, so the rule whose occurrence ends
    latest wins, and of those the longest: an answer that is a suffix of
    another ends where it does. A prompt no rule matches raises ProviderError,
    which costs that run.
    """

    name = "mock"

    def __init__(self, rules: Sequence[MarkingRule] = ()):
        self.rules = tuple(rules)

    def send(self, req: CompletionRequest) -> str:
        if req.seed_tag.startswith("roles-attempt-"):
            return json.dumps(
                {"Identities": list(MOCK_ROLES), "Reason": "scripted"},
                ensure_ascii=False,
            )
        if req.seed_tag == "keyword":
            return "Keyword: mock keyword"
        if req.seed_tag.startswith("summary-attempt-"):
            return '{"Knowledge": "mock refined knowledge", "Reason": "scripted"}'

        best: MarkingRule | None = None
        best_key = (-1, 0)
        for rule in self.rules:
            if not rule.answer:
                continue  # empty text would "match" at the end of any prompt
            pos = req.user_prompt.rfind(rule.answer)
            key = (pos + len(rule.answer), len(rule.answer))
            if pos != -1 and key > best_key:
                best = rule
                best_key = key
        if best is None:
            raise ProviderError(f"no marking rule matches prompt: {req.user_prompt[:80]!r}...")
        return insert_markers(best.answer, best.spans_for(req.seed_tag))


class LLMClient:
    """Provider wrapper adding the response cache, the rate limiter, and
    exponential-backoff retries for transient failures.

    Every request reads through ``cache`` with ``JsonFileCache.read_through``:
    a hit costs no provider call, and only a complete text reply is stored,
    so a failed call, or a row that holds no text, is asked again on the next
    request.

    Each provider attempt takes one of ``CHAT_SLOTS`` (the batch's slots in
    its threads, an unbounded gate elsewhere) by the rule of ``with_retries``,
    and waits on the rate limiter and on the provider inside it. Cache reads
    and writes and key hashing run outside it, so the slots stay busy while
    the threads that hold none do that work. Once the batch's ``STOPPED``
    event is set, a backoff or a wait for the rate window ends at once and
    nothing more is sent.
    """

    def __init__(
        self,
        provider: Provider,
        cache: JsonFileCache,
        limiter: RateLimiter | None = None,
        max_retries: int = 3,
        backoff_base: float = 1.0,
        sleep: Callable[[float], None] = backoff,
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
        def attempt() -> str:
            if self.limiter is not None:
                self.limiter.acquire()  # inside the slot, so its stamps are send times
            return self.provider.send(req)

        return self.cache.read_through(
            self._cache_key(req),
            "text",
            lambda: with_retries(attempt, CHAT_SLOTS.get(), self.max_retries, self.backoff_base, self._sleep),
            lambda text: is_json_type(text, str),
        )
