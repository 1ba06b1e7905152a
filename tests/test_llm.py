from __future__ import annotations

import json

import pytest

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
)
from hallmark.errors import AuthError, MockError, ProviderError
from hallmark.llm import TransientProviderError

from .conftest import SWIMMER_ANSWER, swimmer_spans


def req(prompt="hello", seed_tag="run-0", **kwargs):
    return CompletionRequest(model="m", user_prompt=prompt, seed_tag=seed_tag, **kwargs)


class TestCompletionRequest:
    def test_validation(self):
        # sampling settings are checked where user values enter
        with pytest.raises(ValueError):
            PipelineConfig(model="m", provider=ProviderConfig("mock"), temperature=-0.1)
        with pytest.raises(ValueError):
            PipelineConfig(model="m", provider=ProviderConfig("mock"), max_tokens=0)

    def test_cache_key_is_pinned(self):
        # a changed key would make every existing cache miss
        key = LLMClient(MockProvider())._cache_key(
            CompletionRequest(model="m", user_prompt="héllo «x»", seed_tag="run-3")
        )
        assert key == "7827acb3fb46d93fda67f50c18ce56095787afaab5e5abaec2735ce5b64993fc"


class TestMockProvider:
    def test_scripted_reply(self):
        mock = MockProvider(script={"hello": "world"})
        assert mock.send(req("hello")) == "world"

    def test_strict_unknown_prompt(self):
        mock = MockProvider(script={})
        with pytest.raises(MockError):
            mock.send(req("unscripted"))

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
        example_rule = MarkingRule(answer="example answer", spans=((0, 7),))
        item_rule = MarkingRule(answer="item answer", spans=())
        mock = MockProvider(rules=[example_rule, item_rule])
        prompt = "Example:\nexample answer\n\nAnswer: item answer"
        assert mock.send(req(prompt)) == "item answer"

    def test_knowledge_default_replies(self):
        mock = MockProvider(roles_reply=("A", "B"))
        roles = json.loads(mock.send(req("identify up to 5 distinct expert identities ...")))
        assert roles["Identities"] == ["A", "B"]
        assert mock.send(req("you need to extract a keyword ...")).startswith("Keyword:")
        summary = json.loads(mock.send(req("refine the given knowledge ...")))
        assert "Knowledge" in summary

    def test_call_recording(self):
        mock = MockProvider(script={"a": "1"})
        mock.send(req("a"))
        assert mock.call_count == 1
        assert mock.calls[0].user_prompt == "a"


class TestLLMClientCache:
    def test_second_call_served_from_cache(self, tmp_path):
        mock = MockProvider(script={"p": "r"})
        client = LLMClient(mock, cache=JsonFileCache(tmp_path))
        assert client.complete(req("p")) == "r"
        assert client.complete(req("p")) == "r"
        assert mock.call_count == 1

    def test_seed_tag_distinguishes_runs(self, tmp_path):
        mock = MockProvider(script={"p": "r"})
        client = LLMClient(mock, cache=JsonFileCache(tmp_path))
        client.complete(req("p", seed_tag="run-0"))
        client.complete(req("p", seed_tag="run-1"))
        assert mock.call_count == 2

    def test_provider_name_is_part_of_the_key(self, tmp_path):
        cache = JsonFileCache(tmp_path)

        class Named(MockProvider):
            def __init__(self, name):
                super().__init__(script={"p": f"from {name}"})
                self.name = name

        first = LLMClient(Named("a"), cache=cache)
        second = LLMClient(Named("b"), cache=cache)
        assert first.complete(req("p")) == "from a"
        assert second.complete(req("p")) == "from b"

    def test_non_text_reply_is_not_cached(self, tmp_path):
        cache = JsonFileCache(tmp_path)
        client = LLMClient(MockProvider(script={"p": None}), cache=cache)
        with pytest.raises(ProviderError):
            client.complete(req("p"))
        assert list(tmp_path.iterdir()) == []


class FakeResponse:
    def __init__(self, status_code, payload=None):
        self.status_code = status_code
        self._payload = payload or {}

    def json(self):
        return self._payload


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        return self.responses.pop(0)


def completion_payload(text):
    return {"choices": [{"message": {"content": text}}]}


def provider_config():
    return ProviderConfig(name="test", base_url="https://api.test/v1", api_key_env="TEST_KEY")


class TestOpenAIChatProvider:
    def test_missing_key_env(self, monkeypatch):
        monkeypatch.delenv("TEST_KEY", raising=False)
        with pytest.raises(AuthError) as excinfo:
            OpenAIChatProvider(provider_config())
        assert "TEST_KEY" in str(excinfo.value)

    def test_request_shape(self, monkeypatch):
        monkeypatch.setenv("TEST_KEY", "sk-x")
        session = FakeSession([FakeResponse(200, completion_payload("ok"))])
        provider = OpenAIChatProvider(provider_config(), session=session)
        out = provider.send(CompletionRequest(model="m", user_prompt="u", temperature=0.2))
        assert out == "ok"
        sent = session.requests[0]
        assert sent["url"] == "https://api.test/v1/chat/completions"
        assert sent["json"]["messages"] == [{"role": "user", "content": "u"}]
        assert sent["headers"]["Authorization"] == "Bearer sk-x"

    def test_retry_after_429(self, monkeypatch):
        monkeypatch.setenv("TEST_KEY", "sk-x")
        session = FakeSession([FakeResponse(429), FakeResponse(200, completion_payload("ok"))])
        provider = OpenAIChatProvider(provider_config(), session=session)
        sleeps = []
        client = LLMClient(provider, sleep=sleeps.append)
        assert client.complete(req("p")) == "ok"
        assert len(session.requests) == 2
        assert sleeps == [1.0]

    def test_auth_error_fails_fast(self, monkeypatch):
        monkeypatch.setenv("TEST_KEY", "sk-x")
        session = FakeSession([FakeResponse(401)])
        provider = OpenAIChatProvider(provider_config(), session=session)
        client = LLMClient(provider, sleep=lambda _: None)
        with pytest.raises(AuthError):
            client.complete(req("p"))
        assert len(session.requests) == 1

    def test_exhausted_retries(self, monkeypatch):
        monkeypatch.setenv("TEST_KEY", "sk-x")
        session = FakeSession([FakeResponse(503)] * 4)
        provider = OpenAIChatProvider(provider_config(), session=session)
        client = LLMClient(provider, max_retries=3, sleep=lambda _: None)
        with pytest.raises(ProviderError):
            client.complete(req("p"))
        assert len(session.requests) == 4

    def test_null_content_is_a_provider_error(self, monkeypatch):
        monkeypatch.setenv("TEST_KEY", "sk-x")
        session = FakeSession([FakeResponse(200, completion_payload(None))])
        provider = OpenAIChatProvider(provider_config(), session=session)
        with pytest.raises(ProviderError):
            provider.send(req("p"))

    def test_non_retryable_status(self, monkeypatch):
        monkeypatch.setenv("TEST_KEY", "sk-x")
        session = FakeSession([FakeResponse(400)])
        provider = OpenAIChatProvider(provider_config(), session=session)
        client = LLMClient(provider, sleep=lambda _: None)
        with pytest.raises(ProviderError) as excinfo:
            client.complete(req("p"))
        assert not isinstance(excinfo.value, TransientProviderError)
        assert len(session.requests) == 1


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
