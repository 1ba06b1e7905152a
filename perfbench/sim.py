"""Simulated OpenAI-compatible chat endpoint and Wikipedia API.

Both are ``requests`` transport adapters: mounted on a ``requests.Session``
they answer every request in-process, so ``OpenAIChatProvider.send`` and
``WikipediaClient`` run their real code without a network. Any URL the
simulator does not know gets a 404.

Latency, faults and the choice of reply are decided by hashing the seed,
the request body and how many times that body has been seen, never by
arrival order, so the counts repeat exactly when two threads interleave.
Latency is a real-world figure divided by ``TIME_COMPRESSION``.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from statistics import NormalDist
from urllib.parse import parse_qs, urlsplit

import requests
from requests.adapters import BaseAdapter
from requests.structures import CaseInsensitiveDict

from .workload import ItemPlan, Workload

CHAT_URL = "http://chat.sim.invalid/v1"
TIME_COMPRESSION = 100.0

# Real-world latency model of one chat completion: a fixed part plus a
# per-output-token part, times a log-normal jitter.
CHAT_BASE_S = 0.3
CHAT_PER_TOKEN_S = 0.02
CHAT_JITTER_SIGMA = 0.3
FAULT_LATENCY_S = 0.05
WIKI_LATENCY_S = 0.15
RETRY_AFTER_S = 2

_ROLES_PHRASE = "expert identities"
_KEYWORD_PHRASE = "extract a keyword"
_SUMMARY_PHRASE = "refine the given knowledge"
_NORMAL = NormalDist()


def _unit(*parts: object) -> float:
    """A uniform draw in (0, 1) fixed by ``parts``."""
    digest = hashlib.blake2b("\x1f".join(map(str, parts)).encode("utf-8"), digest_size=8).digest()
    return (int.from_bytes(digest, "big") + 0.5) / 2**64


def _response(request, status: int, body: bytes, headers: dict | None = None) -> requests.Response:
    r = requests.Response()
    r.status_code = status
    r._content = body
    r.headers = CaseInsensitiveDict({"Content-Type": "application/json", **(headers or {})})
    r.url = request.url
    r.request = request
    r.encoding = "utf-8"
    r.reason = "OK" if status == 200 else "Error"
    return r


class _Endpoint(BaseAdapter):
    """Shared counting and timing of a simulated service. While ``tracer`` is
    set, each request is also recorded as a span. ``latency=False`` answers
    at once, for tests that only look at what was answered."""

    def __init__(self, workload: Workload, latency: bool = True):
        super().__init__()
        self.seed = workload.seed
        self.latency = latency
        self.tracer = None
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Forget every body seen and zero the counters."""
        with self._lock:
            self._seen: dict[str, int] = {}
            self._served: dict[str, int] = {}
            self.requests = 0
            self.good = 0
            self.wait_s = 0.0

    def _arrival(self, body: bytes) -> tuple[str, int]:
        key = hashlib.blake2b(body, digest_size=16).hexdigest()
        with self._lock:
            n = self._seen.get(key, 0)
            self._seen[key] = n + 1
            self.requests += 1
        return key, n

    def _served_before(self, key: str) -> int:
        """Count one good reply to ``key``; return how many came before it."""
        with self._lock:
            n = self._served.get(key, 0)
            self._served[key] = n + 1
            self.good += 1
        return n

    def send(self, request, stream=False, timeout=None, verify=True, cert=None, proxies=None):
        start = time.perf_counter()
        span = self.tracer.open(self.span_name) if self.tracer is not None else None
        try:
            response, delay = self.handle(request)
            if self.latency and delay > 0:
                time.sleep(delay / TIME_COMPRESSION)
            return response
        finally:
            if span is not None:
                self.tracer.close(span)
            elapsed = time.perf_counter() - start
            with self._lock:
                self.wait_s += elapsed

    def close(self) -> None:
        pass


class ChatEndpoint(_Endpoint):
    """OpenAI-compatible ``/chat/completions`` answering from the item plans."""

    span_name = "endpoint.chat"

    def __init__(self, workload: Workload, faults=(), latency: bool = True):
        super().__init__(workload, latency)
        self.faults = tuple(faults)
        self._by_answer = {p.item.answer: p for p in workload.plans}
        self._by_question = {p.item.question: p for p in workload.plans}

    def handle(self, request) -> tuple[requests.Response, float]:
        if request.method != "POST" or not request.url.startswith(CHAT_URL + "/chat/completions"):
            return _response(request, 404, b'{"error": "not found"}'), 0.0
        body = request.body if isinstance(request.body, bytes) else request.body.encode("utf-8")
        key, seen = self._arrival(body)
        u = _unit(self.seed, key, seen, "fault")
        for fault, share in self.faults:
            if u < share:
                return self._fault(request, fault), FAULT_LATENCY_S
            u -= share

        prompt = json.loads(body)["messages"][-1]["content"]
        text = self.reply(prompt, key)
        if text is None:
            return _response(request, 400, b'{"error": "unknown prompt"}'), FAULT_LATENCY_S
        payload = {
            "id": f"sim-{key[:12]}-{seen}",
            "object": "chat.completion",
            "choices": [{"index": 0, "message": {"role": "assistant", "content": text}, "finish_reason": "stop"}],
            "usage": {"prompt_tokens": len(prompt) // 4, "completion_tokens": len(text) // 4},
        }
        jitter = _NORMAL.inv_cdf(_unit(self.seed, key, seen, "latency")) * CHAT_JITTER_SIGMA
        delay = (CHAT_BASE_S + CHAT_PER_TOKEN_S * len(text) / 4) * 2.718281828459045**jitter
        return _response(request, 200, json.dumps(payload, ensure_ascii=False).encode("utf-8")), delay

    def _fault(self, request, fault: str) -> requests.Response:
        if fault == "http429":
            return _response(request, 429, b'{"error": "rate limited"}', {"Retry-After": str(RETRY_AFTER_S)})
        if fault == "http503":
            return _response(request, 503, b'{"error": "unavailable"}')
        if fault == "null":
            content = {"choices": [{"index": 0, "message": {"role": "assistant", "content": None}, "finish_reason": "content_filter"}]}
            return _response(request, 200, json.dumps(content).encode("utf-8"))
        if fault == "malformed":
            return _response(request, 200, b'{"choices": []}')
        raise ValueError(f"unknown fault {fault!r}")

    def reply(self, prompt: str, key: str) -> str | None:
        if _ROLES_PHRASE in prompt:
            plan = self._by_answer.get(_between(prompt, "Given answer: ", "\n\nPlease give"))
            if plan is None:
                return None
            self._served_before(key)
            return json.dumps({"Identities": list(plan.roles), "Reason": "simulated"}, ensure_ascii=False)
        if _KEYWORD_PHRASE in prompt:
            plan = self._by_question.get(prompt.rstrip().rsplit("Question: ", 1)[-1])
            if plan is None:
                return None
            self._served_before(key)
            return f"Keyword: {plan.keyword}"
        if _SUMMARY_PHRASE in prompt:
            plan = self._by_answer.get(_between(prompt, "\nAnswer: ", "\nRelated knowledge: "))
            if plan is None:
                return None
            self._served_before(key)
            return json.dumps({"Knowledge": plan.summary, "Reason": "simulated"}, ensure_ascii=False)
        return self._annotation(prompt, key)

    def _annotation(self, prompt: str, key: str) -> str | None:
        last_line = prompt.rstrip("\n").rsplit("\n", 1)[-1]
        plan = self._by_answer.get(last_line.split("): ", 1)[-1])
        if plan is None or not prompt.startswith("You are a "):
            return None
        role = prompt[len("You are a ") : prompt.index(".\n")]
        if role not in plan.roles:
            return None
        # The k-th good reply to one prompt is the k-th run with that role.
        run = plan.roles.index(role) + len(plan.roles) * self._served_before(key)
        return plan.replies[run] if run < len(plan.replies) else None


class WikiEndpoint(_Endpoint):
    """The per-language ``/w/api.php`` search and extract queries."""

    span_name = "endpoint.wiki"

    def __init__(self, workload: Workload):
        super().__init__(workload)
        self._by_keyword: dict[str, ItemPlan] = {p.keyword: p for p in workload.plans}

    def _has(self, plan: ItemPlan | None, lang: str) -> bool:
        if plan is None or plan.wiki == "none":
            return False
        item_lang = plan.item.lang.lower()
        return lang == item_lang if plan.wiki == "primary" else lang == "en"

    def handle(self, request) -> tuple[requests.Response, float]:
        parts = urlsplit(request.url)
        if request.method != "GET" or not parts.netloc.endswith(".wikipedia.org") or parts.path != "/w/api.php":
            return _response(request, 404, b'{"error": "not found"}'), 0.0
        self._arrival(request.url.encode("utf-8"))
        lang = parts.netloc.split(".", 1)[0]
        query = {k: v[0] for k, v in parse_qs(parts.query).items()}
        if query.get("list") == "search":
            plan = self._by_keyword.get(query.get("srsearch", ""))
            hits = [{"ns": 0, "title": plan.keyword, "pageid": 1}] if self._has(plan, lang) else []
            data = {"batchcomplete": "", "query": {"searchinfo": {"totalhits": len(hits)}, "search": hits}}
        else:
            plan = self._by_keyword.get(query.get("titles", ""))
            pages = {"1": {"pageid": 1, "ns": 0, "title": plan.keyword, "extract": plan.extract}} if self._has(plan, lang) else {}
            data = {"batchcomplete": "", "query": {"pages": pages}}
        self._served_before(request.url)
        return _response(request, 200, json.dumps(data, ensure_ascii=False).encode("utf-8")), WIKI_LATENCY_S


def _between(text: str, start: str, end: str) -> str:
    i = text.find(start)
    if i == -1:
        return ""
    i += len(start)
    j = text.find(end, i)
    return text[i:j] if j != -1 else text[i:]


def session_for(adapter: BaseAdapter) -> requests.Session:
    """A session whose every http and https request goes to ``adapter``."""
    session = requests.Session()
    session.mount("http://", adapter)
    session.mount("https://", adapter)
    return session
