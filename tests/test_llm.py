from __future__ import annotations

import inspect
import json
import sys
import threading
import time
from concurrent.futures import CancelledError

import pytest
import requests
from hypothesis import given, settings
from requests.adapters import BaseAdapter

from hallmark import (
    CompletionRequest,
    JsonFileCache,
    LLMClient,
    MarkingRule,
    MockProvider,
    OpenAIChatProvider,
    PipelineConfig,
    ProviderConfig,
    RateLimiter,
    SpanLabel,
)
from hallmark.errors import AuthError, ConfigError, ProviderError
from hallmark.knowledge import WikipediaClient
from hallmark.llm import MOCK_ROLES, STOPPED, TransientProviderError, backoff, with_retries

from .conftest import SWIMMER_ANSWER, FakeProvider, cache_rows, call_sites, json_bodies, swimmer_spans, wire_response


def req(prompt="hello", seed_tag="run-0", temperature=1.0):
    return CompletionRequest(model="m", user_prompt=prompt, temperature=temperature, max_tokens=2048, seed_tag=seed_tag)


class TestCompletionRequest:
    def test_validation(self):
        # sampling settings are checked where user values enter
        with pytest.raises(ValueError):
            PipelineConfig(model="m", provider=ProviderConfig("mock"), temperature=-0.1)
        with pytest.raises(ValueError):
            PipelineConfig(model="m", provider=ProviderConfig("mock"), max_tokens=0)

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"), 10**400], ids=["nan", "inf", "huge-int"])
    def test_temperature_must_be_a_finite_number(self, temperature):
        with pytest.raises(ValueError, match="finite"):
            PipelineConfig(model="m", provider=ProviderConfig("mock"), temperature=temperature)

    def test_cache_key_is_pinned(self, cache):
        # a changed key would make every existing cache miss
        key = LLMClient(MockProvider(), cache)._cache_key(
            CompletionRequest(model="m", user_prompt="héllo «x»", temperature=1.0, max_tokens=2048, seed_tag="run-3")
        )
        assert key == "7827acb3fb46d93fda67f50c18ce56095787afaab5e5abaec2735ce5b64993fc"


class TestMockProvider:
    def test_strict_unknown_prompt(self):
        mock = MockProvider(rules=[MarkingRule(answer=SWIMMER_ANSWER)])
        with pytest.raises(ProviderError, match="^no marking rule matches prompt: 'an answer no rule holds'"):
            mock.send(req("an answer no rule holds"))

    def test_rule_mode_marks_fixture_spans(self):
        mock = MockProvider(rules=[MarkingRule(answer=SWIMMER_ANSWER, spans=tuple(swimmer_spans()))])
        reply = mock.send(req(f"Answer (English): {SWIMMER_ANSWER}"))
        assert "⟨⟨silver⟩⟩" in reply
        assert "⟨⟨Beijing, China⟩⟩" in reply

    def test_rule_mode_per_run_variation(self):
        spans = swimmer_spans()
        rule = MarkingRule(
            answer=SWIMMER_ANSWER,
            spans=(spans[0],),
            per_run={"run-8": ()},
        )
        mock = MockProvider(rules=[rule])
        marked = mock.send(req(SWIMMER_ANSWER, seed_tag="run-0"))
        unmarked = mock.send(req(SWIMMER_ANSWER, seed_tag="run-8"))
        assert "⟨⟨" in marked
        assert unmarked == SWIMMER_ANSWER

    def test_rightmost_rule_wins(self):
        # the prompt embeds a worked example before the item under
        # annotation; the rule for the later occurrence must win
        example_rule = MarkingRule(answer="example answer", spans=(SpanLabel(0, 7),))
        item_rule = MarkingRule(answer="item answer", spans=())
        mock = MockProvider(rules=[example_rule, item_rule])
        prompt = "Example:\nexample answer\n\nAnswer: item answer"
        assert mock.send(req(prompt)) == "item answer"

    def test_rule_ending_latest_wins_over_its_own_suffix(self):
        # "France." also occurs inside the longer answer, later than that answer starts
        short = MarkingRule(answer="France.", spans=(SpanLabel(0, 6),))
        long = MarkingRule(answer="Paris is the capital of France.", spans=(SpanLabel(0, 5),))
        mock = MockProvider(rules=[short, long])
        assert mock.send(req("Answer: Paris is the capital of France.")) == "⟨⟨Paris⟩⟩ is the capital of France."
        assert mock.send(req("Answer: France.")) == "⟨⟨France⟩⟩."

    def test_knowledge_default_replies(self):
        mock = MockProvider()
        roles = json.loads(mock.send(req("identify up to 5 distinct expert identities ...", "roles-attempt-0")))
        assert roles["Identities"] == list(MOCK_ROLES)
        assert mock.send(req("you need to extract a keyword ...", "keyword")).startswith("Keyword:")
        summary = json.loads(mock.send(req("refine the given knowledge ...", "summary-attempt-1")))
        assert "Knowledge" in summary


class TestLLMClientCache:
    def test_second_call_served_from_cache(self, tmp_path):
        mock = FakeProvider({"p": "r"})
        client = LLMClient(mock, cache=JsonFileCache(tmp_path))
        assert client.complete(req("p")) == "r"
        assert client.complete(req("p")) == "r"
        assert mock.call_count == 1

    def test_seed_tag_distinguishes_runs(self, tmp_path):
        mock = FakeProvider({"p": "r"})
        client = LLMClient(mock, cache=JsonFileCache(tmp_path))
        client.complete(req("p", seed_tag="run-0"))
        client.complete(req("p", seed_tag="run-1"))
        assert mock.call_count == 2

    def test_provider_name_is_part_of_the_key(self, tmp_path):
        cache = JsonFileCache(tmp_path)
        first = LLMClient(FakeProvider({"p": "from a"}, name="a"), cache=cache)
        second = LLMClient(FakeProvider({"p": "from b"}, name="b"), cache=cache)
        assert first.complete(req("p")) == "from a"
        assert second.complete(req("p")) == "from b"

    def test_non_text_reply_is_not_cached(self, tmp_path):
        cache = JsonFileCache(tmp_path)
        client = LLMClient(FakeProvider({"p": None}), cache=cache)
        with pytest.raises(ProviderError):
            client.complete(req("p"))
        assert cache_rows(tmp_path) == {}


def http_response(status_code, payload=None):
    """A response with ``status_code`` whose body is ``payload`` as JSON."""
    response = wire_response(json.dumps(payload or {}).encode("utf-8"))
    response.status_code = status_code
    return response


def completion_payload(text, finish_reason="stop"):
    return {"choices": [{"message": {"content": text}, "finish_reason": finish_reason}]}


class RecordingAdapter(BaseAdapter):
    """A ``requests`` transport that records each prepared request and the settings it was sent with, and
    answers it with ``reply(request)``: a response, or an exception to raise. By default it answers ``ok``."""

    def __init__(self, reply=None):
        super().__init__()
        self.reply = reply or (lambda request: http_response(200, completion_payload("ok")))
        self.sent = []
        self.settings = []

    def send(self, request, **kwargs):
        self.sent.append(request)
        self.settings.append(kwargs)
        response = self.reply(request)
        if isinstance(response, Exception):
            raise response
        response.request = request
        return response

    def close(self):
        pass


def recording_session(reply=None):
    """A real session with a ``RecordingAdapter`` mounted for https; returns both."""
    adapter = RecordingAdapter(reply)
    session = requests.Session()
    session.mount("https://", adapter)
    return session, adapter


def replaying_session(*responses):
    """A recording session that answers each request with the next of ``responses``."""
    queue = list(responses)
    return recording_session(lambda request: queue.pop(0))


def provider_config():
    return ProviderConfig(name="test", base_url="https://api.test/v1", api_key_env="TEST_KEY")


class TestOpenAIChatProvider:
    def test_missing_key_env(self, monkeypatch):
        monkeypatch.delenv("TEST_KEY", raising=False)
        with pytest.raises(AuthError) as excinfo:
            OpenAIChatProvider(provider_config())
        assert "TEST_KEY" in str(excinfo.value)

    # a non-ASCII key fails to encode; a newline makes every request retry and log the bearer header
    @pytest.mark.parametrize("key", ["sk-\u2026", "sk-x\n", "sk-\udcff"], ids=["ellipsis", "newline", "not-utf8"])
    def test_key_no_header_can_carry_is_refused(self, monkeypatch, key):
        monkeypatch.setenv("TEST_KEY", key)
        session, adapter = recording_session()
        with pytest.raises(AuthError) as excinfo:
            OpenAIChatProvider(provider_config(), session=session)
        assert "TEST_KEY" in str(excinfo.value)
        assert "sk-" not in str(excinfo.value)
        assert adapter.sent == []

    def test_request_shape(self, monkeypatch):
        monkeypatch.setenv("TEST_KEY", "sk-x")
        session, adapter = recording_session()
        provider = OpenAIChatProvider(provider_config(), session=session)
        out = provider.send(req("u", temperature=0.2))
        assert out == "ok"
        sent = adapter.sent[0]
        assert sent.url == "https://api.test/v1/chat/completions"
        assert json.loads(sent.body)["messages"] == [{"role": "user", "content": "u"}]
        assert sent.headers["Authorization"] == "Bearer sk-x"

    def test_request_on_the_wire_is_pinned(self, monkeypatch):
        # method, URL, headers in order, and body bytes, as requests' own session.post prepares them;
        # the second request shows that nothing of the first carries over
        monkeypatch.setenv("TEST_KEY", "sk-x")
        session, adapter = recording_session()
        session.cookies.set("sid", "abc", domain="api.test")
        provider = OpenAIChatProvider(provider_config(), session=session)
        provider.send(req("Petra «won» a ⟨⟨silver⟩⟩ medal\n", temperature=0.2))
        session.cookies.set("sid", "def", domain="api.test")
        provider.send(req("u", seed_tag="run-1"))
        bodies = [
            b'{"model": "m", "messages": [{"role": "user", "content": "Petra \\u00abwon\\u00bb a '
            b'\\u27e8\\u27e8silver\\u27e9\\u27e9 medal\\n"}], "temperature": 0.2, "max_tokens": 2048}',
            b'{"model": "m", "messages": [{"role": "user", "content": "u"}], "temperature": 1.0, "max_tokens": 2048}',
        ]
        assert [sent.body for sent in adapter.sent] == bodies
        for sent, body, cookie in zip(adapter.sent, bodies, ["sid=abc", "sid=def"]):
            assert (sent.method, sent.url) == ("POST", "https://api.test/v1/chat/completions")
            assert list(sent.headers.items()) == [
                *requests.utils.default_headers().items(),
                ("Authorization", "Bearer sk-x"),
                ("Content-Type", "application/json"),
                ("Cookie", cookie),
                ("Content-Length", str(len(body))),
            ]

    @given(body=json_bodies({"choices": [{"message": {"content": None}, "finish_reason": None}]}))
    @settings(max_examples=300, deadline=None)
    def test_any_json_body_gives_text_or_a_provider_error(self, body):
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("TEST_KEY", "sk-x")
            session, _ = recording_session(lambda request: wire_response(json.dumps(body).encode("utf-8")))
            provider = OpenAIChatProvider(provider_config(), session=session)
        try:
            text = provider.send(req("u"))
        except ProviderError:
            return
        assert type(text) is str
        text.encode("utf-8")  # holds no lone surrogate

    def test_session_auth_is_refused(self, monkeypatch):
        # each request is prepared from a template built once, so an auth that signs the body would sign
        # an empty one; and the key belongs in the bearer header
        monkeypatch.setenv("TEST_KEY", "sk-x")
        session, adapter = recording_session()
        session.auth = ("user", "password")
        with pytest.raises(ConfigError, match="session with its own auth"):
            OpenAIChatProvider(provider_config(), session=session)

    def test_session_headers_are_read_when_the_provider_is_built(self, monkeypatch):
        monkeypatch.setenv("TEST_KEY", "sk-x")
        session, adapter = recording_session()
        session.headers["X-Team"] = "first"
        provider = OpenAIChatProvider(provider_config(), session=session)
        session.headers["X-Team"] = "second"
        provider.send(req("u"))
        assert adapter.sent[0].headers["X-Team"] == "first"

    def test_retry_after_429(self, cache, monkeypatch):
        monkeypatch.setenv("TEST_KEY", "sk-x")
        session, adapter = replaying_session(http_response(429), http_response(200, completion_payload("ok")))
        provider = OpenAIChatProvider(provider_config(), session=session)
        sleeps = []
        client = LLMClient(provider, cache, sleep=sleeps.append)
        assert client.complete(req("p")) == "ok"
        assert len(adapter.sent) == 2
        assert sleeps == [1.0]

    def test_auth_error_fails_fast(self, cache, monkeypatch):
        monkeypatch.setenv("TEST_KEY", "sk-x")
        session, adapter = replaying_session(http_response(401))
        provider = OpenAIChatProvider(provider_config(), session=session)
        client = LLMClient(provider, cache, sleep=lambda _: None)
        with pytest.raises(AuthError):
            client.complete(req("p"))
        assert len(adapter.sent) == 1

    def test_exhausted_retries(self, cache, monkeypatch):
        monkeypatch.setenv("TEST_KEY", "sk-x")
        session, adapter = recording_session(lambda request: http_response(503))
        provider = OpenAIChatProvider(provider_config(), session=session)
        client = LLMClient(provider, cache, max_retries=3, sleep=lambda _: None)
        with pytest.raises(ProviderError):
            client.complete(req("p"))
        assert len(adapter.sent) == 4

    def test_null_content_is_a_provider_error(self, monkeypatch):
        monkeypatch.setenv("TEST_KEY", "sk-x")
        session, _ = replaying_session(http_response(200, completion_payload(None)))
        provider = OpenAIChatProvider(provider_config(), session=session)
        with pytest.raises(ProviderError):
            provider.send(req("p"))

    def test_lone_surrogate_is_a_provider_error(self, monkeypatch, tmp_path):
        # ``"\ud800"`` is valid JSON, but no UTF-8 text: the run is rejected, not the batch
        monkeypatch.setenv("TEST_KEY", "sk-x")
        session, _ = replaying_session(http_response(200, completion_payload("Revised answer: \ud800")))
        client = LLMClient(OpenAIChatProvider(provider_config(), session=session), cache=JsonFileCache(tmp_path))
        with pytest.raises(ProviderError):
            client.complete(req("p"))
        assert cache_rows(tmp_path) == {}

    def test_reply_cut_at_max_tokens_is_a_provider_error(self, monkeypatch, tmp_path):
        # a reply stopped by max_tokens copied only part of the answer; it is
        # rejected like any failed run, and never cached
        monkeypatch.setenv("TEST_KEY", "sk-x")
        session, adapter = replaying_session(http_response(200, completion_payload("Revised answer: The Eras", "length")))
        client = LLMClient(OpenAIChatProvider(provider_config(), session=session), cache=JsonFileCache(tmp_path))
        with pytest.raises(ProviderError) as excinfo:
            client.complete(req("p"))
        assert not isinstance(excinfo.value, TransientProviderError)
        assert len(adapter.sent) == 1
        assert cache_rows(tmp_path) == {}

    def test_environment_is_read_once_per_provider(self, monkeypatch):
        monkeypatch.setenv("TEST_KEY", "sk-x")
        scans = []
        real = requests.sessions.get_environ_proxies
        monkeypatch.setattr(requests.sessions, "get_environ_proxies", lambda *a, **kw: scans.append(a) or real(*a, **kw))
        session, adapter = recording_session()
        provider = OpenAIChatProvider(provider_config(), session=session)
        for _ in range(3):
            assert provider.send(req("p")) == "ok"
        assert len(adapter.sent) == 3
        assert len(scans) == 1

    def test_proxy_set_at_construction_reaches_post(self, monkeypatch):
        monkeypatch.setenv("TEST_KEY", "sk-x")
        for name in ("https_proxy", "no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("HTTPS_PROXY", "http://proxy.test:3128")
        session, adapter = recording_session()
        provider = OpenAIChatProvider(provider_config(), session=session)
        monkeypatch.delenv("HTTPS_PROXY")  # later changes to the environment are not read
        provider.send(req("p"))
        assert adapter.settings[0]["proxies"]["https"] == "http://proxy.test:3128"
        assert session.trust_env is False

    def test_session_keeps_its_own_ca_bundle(self, monkeypatch):
        monkeypatch.setenv("TEST_KEY", "sk-x")
        for name in ("REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"):
            monkeypatch.delenv(name, raising=False)
        session, adapter = recording_session()
        session.verify = "certs/internal-ca.pem"
        OpenAIChatProvider(provider_config(), session=session).send(req("p"))
        assert adapter.settings[0]["verify"] == "certs/internal-ca.pem"

    def test_netrc_does_not_replace_the_bearer_header(self, monkeypatch, tmp_path):
        monkeypatch.setenv("TEST_KEY", "sk-x")
        netrc = tmp_path / "netrc"
        netrc.write_text("machine api.test login someone password secret\n", encoding="utf-8")
        monkeypatch.setenv("NETRC", str(netrc))
        session, adapter = recording_session()
        OpenAIChatProvider(provider_config(), session=session).send(req("p"))
        (sent,) = adapter.sent
        assert sent.headers["Authorization"] == "Bearer sk-x"

    def test_non_retryable_status(self, cache, monkeypatch):
        monkeypatch.setenv("TEST_KEY", "sk-x")
        session, adapter = replaying_session(http_response(400))
        provider = OpenAIChatProvider(provider_config(), session=session)
        client = LLMClient(provider, cache, sleep=lambda _: None)
        with pytest.raises(ProviderError) as excinfo:
            client.complete(req("p"))
        assert not isinstance(excinfo.value, TransientProviderError)
        assert len(adapter.sent) == 1

    # raised inside this process, before anything is sent: a retry would fail the same way
    @pytest.mark.parametrize(
        "error",
        [
            requests.exceptions.InvalidJSONError,
            requests.exceptions.MissingSchema,
            requests.exceptions.InvalidSchema,
            requests.exceptions.InvalidURL,
            requests.exceptions.InvalidHeader,
        ],
    )
    def test_request_that_cannot_be_built_fails_at_once(self, cache, monkeypatch, error):
        monkeypatch.setenv("TEST_KEY", "sk-x")
        session, adapter = recording_session(lambda request: error("bad request"))
        sleeps = []
        client = LLMClient(OpenAIChatProvider(provider_config(), session=session), cache, sleep=sleeps.append)
        with pytest.raises(ProviderError) as excinfo:
            client.complete(req("p"))
        assert not isinstance(excinfo.value, TransientProviderError)
        assert (len(adapter.sent), sleeps) == (1, [])

    @pytest.mark.parametrize(
        "error",
        [requests.ConnectionError, requests.Timeout, requests.ReadTimeout, requests.exceptions.ChunkedEncodingError],
    )
    def test_connection_error_or_timeout_is_retried(self, cache, monkeypatch, error):
        monkeypatch.setenv("TEST_KEY", "sk-x")
        session, adapter = recording_session(lambda request: error("connection trouble"))
        sleeps = []
        provider = OpenAIChatProvider(provider_config(), session=session)
        client = LLMClient(provider, cache, max_retries=3, sleep=sleeps.append)
        with pytest.raises(ProviderError) as excinfo:
            client.complete(req("p"))
        assert "giving up after 4 attempts" in str(excinfo.value)
        assert (len(adapter.sent), sleeps) == (4, [1.0, 2.0, 4.0])

    def test_body_requests_cannot_encode_is_never_sent(self, cache, monkeypatch):
        # a NaN temperature is no JSON: requests refuses the body before the transport sees it
        monkeypatch.setenv("TEST_KEY", "sk-x")
        session, adapter = recording_session()
        sleeps = []
        client = LLMClient(OpenAIChatProvider(provider_config(), session=session), cache, sleep=sleeps.append)
        with pytest.raises(ProviderError) as excinfo:
            client.complete(req("p", temperature=float("nan")))
        assert not isinstance(excinfo.value, TransientProviderError)
        assert (adapter.sent, sleeps) == ([], [])


class VirtualClock:
    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


class TestRateLimiter:
    def test_limits_calls_per_window(self):
        vc = VirtualClock()
        limiter = RateLimiter(5, clock=vc.clock, sleep=vc.sleep)
        stamps = []
        for _ in range(12):
            limiter.acquire()
            stamps.append(vc.now)
            vc.now += 1.0  # one call per simulated second
        for i, t in enumerate(stamps):
            in_window = [u for u in stamps if t - 60.0 < u <= t]
            assert len(in_window) <= 5

    def test_blocks_until_slot_frees(self):
        vc = VirtualClock()
        limiter = RateLimiter(2, clock=vc.clock, sleep=vc.sleep)
        limiter.acquire()
        limiter.acquire()
        limiter.acquire()  # must wait a full window
        assert vc.sleeps
        assert vc.now >= 60.0

    def test_client_acquires_once_per_attempt_and_never_on_a_cache_hit(self, tmp_path):
        class CountingLimiter(RateLimiter):
            def __init__(self):
                super().__init__(60)
                self.acquired = 0

            def acquire(self):
                self.acquired += 1

        limiter = CountingLimiter()
        provider = FakeProvider(lambda req: TransientProviderError("HTTP 503") if provider.call_count <= 2 else "r")
        client = LLMClient(provider, cache=JsonFileCache(tmp_path), limiter=limiter, sleep=lambda _: None)
        assert client.complete(req("p")) == "r"
        assert (limiter.acquired, provider.call_count) == (3, 3)
        limiter.acquired = 0
        assert client.complete(req("p")) == "r"
        assert (limiter.acquired, provider.call_count) == (0, 3)


def test_one_transient_test_and_one_backoff_loop():
    # both outside services decide what a failed call costs, and when a request holds a slot, in the same places
    assert call_sites(r"sleep\(") == {"llm.py:with_retries", "llm.py:acquire"}
    assert call_sites(r"\b429\b") == {"llm.py:transient_checked"}
    assert call_sites(r"with slots:") == {"llm.py:with_retries"}


@pytest.mark.concurrency
def test_request_slots_hold_the_bound_under_contention():
    # more threads than cores, switching often: no third holder gets in, and no waiter is left without a slot
    slots, lock = threading.Semaphore(2), threading.Lock()
    inside, peak, finished = [0], [0], []

    def attempt():
        with lock:
            inside[0] += 1
            peak[0] = max(peak[0], inside[0])
        time.sleep(0.0002)
        with lock:
            inside[0] -= 1

    def worker():
        for _ in range(100):
            with_retries(attempt, slots, 0, 0.0, time.sleep)
        finished.append(True)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert (len(finished), peak[0]) == (8, 2)
    stopped = threading.Event()
    stopped.set()
    token = STOPPED.set(stopped)
    try:
        with pytest.raises(CancelledError):
            with_retries(attempt, slots, 0, 0.0, time.sleep)
    finally:
        STOPPED.reset(token)


@pytest.mark.concurrency
def test_request_slots_stopped_waiter_sends_nothing():
    # a request already waiting for a slot when the batch stops gets the freed slot and gives it straight back
    slots, stopped, outcome, ran = threading.Semaphore(1), threading.Event(), [], []

    def waiter():
        STOPPED.set(stopped)  # in this thread's own context, as a thread of the batch
        try:
            with_retries(lambda: ran.append(True), slots, 0, 0.0, time.sleep)
        except CancelledError:
            outcome.append("cancelled")

    thread = threading.Thread(target=waiter)
    with slots:
        thread.start()
        deadline, blocked = time.monotonic() + 10, threading.Condition.wait.__code__  # where a semaphore waits
        while getattr(sys._current_frames().get(thread.ident), "f_code", None) is not blocked:
            assert time.monotonic() < deadline, "the waiter never blocked"
            time.sleep(0.001)
        stopped.set()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert (outcome, ran) == (["cancelled"], [])


@pytest.mark.concurrency
def test_stop_ends_a_backoff_at_once(tmp_path):
    # a batch stopped while a request sleeps out its backoff ends now, not 60 s later, and sends no retry
    sent, stopped, outcome = threading.Event(), threading.Event(), []
    provider = FakeProvider(lambda _: sent.set() or TransientProviderError("HTTP 503"))
    client = LLMClient(provider, cache=JsonFileCache(tmp_path), backoff_base=60.0)

    def request():
        STOPPED.set(stopped)  # in this thread's own context, as a thread of the batch
        try:
            client.complete(req())
        except CancelledError:
            outcome.append("cancelled")

    thread = threading.Thread(target=request, daemon=True)  # a regression fails the join, not the run's exit
    thread.start()
    assert sent.wait(timeout=10)
    stopped.set()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert (provider.call_count, outcome) == (1, ["cancelled"])
    for waiter in (LLMClient, WikipediaClient, RateLimiter):  # every wait in a batch sleeps this way by default
        assert inspect.signature(waiter).parameters["sleep"].default is backoff


@pytest.mark.concurrency
def test_stop_during_a_wait_for_the_rate_window_sends_nothing(tmp_path):
    # the second request waits for the 1-a-minute window; the batch stops meanwhile, and it is never sent
    vc, stopped = VirtualClock(), threading.Event()

    def wait(seconds):
        stopped.set()
        vc.sleep(seconds)

    provider = FakeProvider("r")
    client = LLMClient(provider, cache=JsonFileCache(tmp_path), limiter=RateLimiter(1, clock=vc.clock, sleep=wait))
    token = STOPPED.set(stopped)
    try:
        assert client.complete(req("first")) == "r"
        with pytest.raises(CancelledError):
            client.complete(req("second"))
    finally:
        STOPPED.reset(token)
    assert provider.call_count == 1
