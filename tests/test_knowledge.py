from __future__ import annotations

import json
from pathlib import Path

import pytest
import requests

from hallmark import (
    JsonFileCache,
    LLMClient,
    MarkingRule,
    MockProvider,
    PipelineConfig,
    ProviderConfig,
    QAItem,
    annotate_dataset,
)
from hallmark.errors import AuthError, KnowledgeError
from hallmark.knowledge import KnowledgeService, WikipediaClient
from hallmark.llm import TransientProviderError
from hallmark.prompts import DEFAULT_ROLE, NO_KNOWLEDGE_SENTINEL, load_template, render

from .conftest import SWIMMER_ANSWER, SWIMMER_QUESTION


@pytest.fixture
def item():
    return QAItem(id="k-1", lang="EN", question=SWIMMER_QUESTION, answer=SWIMMER_ANSWER)


def roles_prompt(item):
    return render(
        load_template("assign_roles"),
        {"lang": item.lang, "question": item.question, "answer": item.answer},
    )


def keyword_prompt(item):
    return render(load_template("extract_keyword"), {"question": item.question})


def service_with_script(script, item, wiki=None, cache=None):
    provider = MockProvider(script=script)
    client = LLMClient(provider, cache=cache, sleep=lambda _: None)
    return KnowledgeService(client, wiki, "m", cache=cache), provider


class TestAssignRoles:
    def test_parses_identities(self, item):
        script = {roles_prompt(item): '{"Identities": ["A", "B"], "Reason": "r"}'}
        svc, _ = service_with_script(script, item)
        assert svc.assign_roles(item) == ["A", "B"]

    def test_fallback_after_two_malformed_replies(self, item):
        script = {roles_prompt(item): "not json"}
        svc, provider = service_with_script(script, item)
        assert svc.assign_roles(item) == [DEFAULT_ROLE]
        assert provider.call_count == 2

    def test_truncates_to_five_and_dedupes(self, item):
        identities = ["A", "B", "A", "C", "D", "E", "F"]
        script = {roles_prompt(item): json.dumps({"Identities": identities, "Reason": ""})}
        svc, _ = service_with_script(script, item)
        roles = svc.assign_roles(item)
        assert roles == ["A", "B", "C", "D", "E"]
        assert 1 <= len(roles) <= 5

    def test_tolerates_fenced_json(self, item):
        script = {roles_prompt(item): '```json\n{"Identities": ["X"], "Reason": ""}\n```'}
        svc, _ = service_with_script(script, item)
        assert svc.assign_roles(item) == ["X"]

    def test_empty_identities_falls_back(self, item):
        script = {roles_prompt(item): '{"Identities": [], "Reason": ""}'}
        svc, _ = service_with_script(script, item)
        assert svc.assign_roles(item) == [DEFAULT_ROLE]


class TestExtractKeyword:
    def test_swimmer_keyword(self, item):
        script = {keyword_prompt(item): "Keyword: Petra van Staveren"}
        svc, _ = service_with_script(script, item)
        assert svc.extract_keyword(item) == "Petra van Staveren"

    def test_whitespace_trimmed(self, item):
        script = {keyword_prompt(item): "Keyword:  Ada Lovelace \n"}
        svc, _ = service_with_script(script, item)
        assert svc.extract_keyword(item) == "Ada Lovelace"

    def test_missing_keyword_line(self, item):
        script = {keyword_prompt(item): "I cannot help"}
        svc, _ = service_with_script(script, item)
        with pytest.raises(KnowledgeError):
            svc.extract_keyword(item)


def search_payload(*titles):
    return {"query": {"search": [{"title": t} for t in titles]}}


def extract_payload(title, text):
    return {"query": {"pages": {"1": {"title": title, "extract": text}}}}


class FakeWikiSession:
    """Routes Action API calls by (lang, action kind); records traffic."""

    def __init__(self, search_results=None, extracts=None, fail=False):
        self.search_results = search_results or {}
        self.extracts = extracts or {}
        self.fail = fail
        self.calls = []

    def get(self, url, params=None, timeout=None):
        self.calls.append({"url": url, "params": params})
        if self.fail:
            raise requests.ConnectionError("boom")
        lang = url.split("//")[1].split(".")[0]

        class R:
            status_code = 200

            def __init__(self, payload):
                self._payload = payload

            def json(self):
                return self._payload

        if params.get("list") == "search":
            return R(search_payload(*self.search_results.get(lang, [])))
        title = params.get("titles")
        return R(extract_payload(title, self.extracts.get((lang, title), "")))


class TestFetchWikipedia:
    def test_first_result_wins(self, item):
        session = FakeWikiSession(
            search_results={"en": ["First Hit", "Second Hit"]},
            extracts={("en", "First Hit"): "extract text"},
        )
        svc, _ = service_with_script({}, item, wiki=WikipediaClient(session=session))
        text, provenance = svc.fetch_wikipedia("some keyword", "EN")
        assert text == "extract text"
        assert provenance == "https://en.wikipedia.org/wiki/First_Hit"

    def test_no_results_anywhere(self, item):
        session = FakeWikiSession(search_results={})
        svc, _ = service_with_script({}, item, wiki=WikipediaClient(session=session))
        with pytest.raises(KnowledgeError):
            svc.fetch_wikipedia("kw", "EN")

    def test_truncation(self, item):
        session = FakeWikiSession(
            search_results={"en": ["Long"]},
            extracts={("en", "Long"): "x" * 12000},
        )
        svc, _ = service_with_script({}, item, wiki=WikipediaClient(session=session))
        text, _ = svc.fetch_wikipedia("kw", "EN")
        assert len(text) == 8000

    def test_language_fallback_to_english(self, item):
        session = FakeWikiSession(
            search_results={"fi": [], "en": ["Hit"]},
            extracts={("en", "Hit"): "english text"},
        )
        svc, _ = service_with_script({}, item, wiki=WikipediaClient(session=session))
        text, provenance = svc.fetch_wikipedia("kw", "FI")
        assert text == "english text"
        assert "en.wikipedia.org" in provenance
        langs = [c["url"].split("//")[1].split(".")[0] for c in session.calls]
        assert "fi" in langs

    def test_network_failure_wrapped(self, item):
        session = FakeWikiSession(fail=True)
        wiki = WikipediaClient(session=session, sleep=lambda _: None)
        svc, _ = service_with_script({}, item, wiki=wiki)
        with pytest.raises(KnowledgeError):
            svc.fetch_wikipedia("kw", "EN")
        assert len(session.calls) == 3  # initial try plus two retries


class TestRecordedWikipediaReplay:
    """Replays captured Action API response bodies end to end."""

    FIXTURE = Path(__file__).resolve().parent / "fixtures" / "wikipedia_swimmer.json"

    class ReplaySession:
        def __init__(self, bodies):
            self.bodies = bodies
            self.calls = []

        def get(self, url, params=None, timeout=None):
            self.calls.append(params)

            class R:
                status_code = 200

                def __init__(self, payload):
                    self._payload = payload

                def json(self):
                    return self._payload

            kind = "search" if params.get("list") == "search" else "extract"
            return R(self.bodies[kind])

    def test_first_hit_extract_round_trip(self, item):
        bodies = json.loads(self.FIXTURE.read_text(encoding="utf-8"))
        session = self.ReplaySession(bodies)
        svc, _ = service_with_script({}, item, wiki=WikipediaClient(session=session))
        text, provenance = svc.fetch_wikipedia("Petra van Staveren", "EN")

        first_hit = bodies["search"]["query"]["search"][0]["title"]
        assert text
        assert provenance == f"https://en.wikipedia.org/wiki/{first_hit.replace(' ', '_')}"
        page = next(iter(bodies["extract"]["query"]["pages"].values()))
        assert text == page["extract"][:8000]
        assert session.calls[1]["titles"] == first_hit


class TestSummarize:
    def summary_prompt(self, item, raw):
        return render(
            load_template("summarize_knowledge"),
            {
                "lang": item.lang,
                "question": item.question,
                "answer": item.answer,
                "knowledge": raw,
            },
        )

    def test_parses_knowledge(self, item):
        script = {self.summary_prompt(item, "raw"): '{"Knowledge": "K", "Reason": "R"}'}
        svc, _ = service_with_script(script, item)
        assert svc.summarize_knowledge(item, "raw") == "K"

    def test_fallback_truncates_raw(self, item):
        raw = "y" * 5000
        script = {self.summary_prompt(item, raw): "garbage"}
        svc, provider = service_with_script(script, item)
        out = svc.summarize_knowledge(item, raw)
        assert out == raw[:2000]
        assert provider.call_count == 2


class TestCaching:
    def test_roles_cached(self, item, tmp_path):
        cache = JsonFileCache(tmp_path)
        script = {roles_prompt(item): '{"Identities": ["A"], "Reason": ""}'}
        svc, provider = service_with_script(script, item, cache=cache)
        assert svc.assign_roles(item) == ["A"]
        assert svc.assign_roles(item) == ["A"]
        assert provider.call_count == 1

    def test_wikipedia_cached(self, item, tmp_path):
        cache = JsonFileCache(tmp_path)
        session = FakeWikiSession(
            search_results={"en": ["Hit"]}, extracts={("en", "Hit"): "text"}
        )
        svc, _ = service_with_script({}, item, wiki=WikipediaClient(session=session), cache=cache)
        svc.fetch_wikipedia("kw", "EN")
        calls_before = len(session.calls)
        svc.fetch_wikipedia("kw", "EN")
        assert len(session.calls) == calls_before

    def test_wikipedia_cache_key_is_pinned(self, tmp_path):
        # a changed key would make every existing cache miss
        session = FakeWikiSession(search_results={"en": ["Hit"]}, extracts={("en", "Hit"): "t"})
        svc, _ = service_with_script(
            {}, None, wiki=WikipediaClient(session=session), cache=JsonFileCache(tmp_path)
        )
        svc.fetch_wikipedia("Petra van Staveren", "EN")
        assert [p.name for p in tmp_path.iterdir()] == [
            "548781f7b1fa0a1002a6da80ab3cea07b0f375b47cc444f0270031c8d5a76214.json"
        ]

    def test_full_chain_zero_calls_on_repeat(self, item, tmp_path):
        cache = JsonFileCache(tmp_path)
        raw = "wiki text"
        session = FakeWikiSession(
            search_results={"en": ["Hit"]}, extracts={("en", "Hit"): raw}
        )
        script = {
            roles_prompt(item): '{"Identities": ["A"], "Reason": ""}',
            keyword_prompt(item): "Keyword: kw",
        }
        provider = MockProvider(script=script)
        client = LLMClient(provider, cache=cache, sleep=lambda _: None)
        svc = KnowledgeService(client, WikipediaClient(session=session), "m", cache=cache)

        bundle = svc.build_bundle(item)
        assert bundle.refined_external is not None
        llm_calls = provider.call_count
        wiki_calls = len(session.calls)

        again = svc.build_bundle(item)
        assert again == bundle
        assert provider.call_count == llm_calls
        assert len(session.calls) == wiki_calls


    def test_only_wikipedia_fetch_is_cached_here(self, item, tmp_path):
        # the three LLM steps live in LLMClient's response cache, which this
        # client does not have; the service itself stores only the fetch
        cache = JsonFileCache(tmp_path)
        session = FakeWikiSession(search_results={"en": ["Hit"]}, extracts={("en", "Hit"): "t"})
        client = LLMClient(MockProvider(), sleep=lambda _: None)
        svc = KnowledgeService(client, WikipediaClient(session=session), "m", cache=cache)
        assert svc.build_bundle(item).refined_external is not None
        (entry,) = tmp_path.iterdir()
        assert json.loads(entry.read_text(encoding="utf-8")) == {
            "text": "t",
            "provenance": "https://en.wikipedia.org/wiki/Hit",
        }


class TestBuildBundle:
    def test_full_chain(self, item, tmp_path):
        session = FakeWikiSession(
            search_results={"en": ["Hit"]}, extracts={("en", "Hit"): "wiki text"}
        )
        provider = MockProvider(roles_reply=("A", "B"))
        client = LLMClient(provider, sleep=lambda _: None)
        svc = KnowledgeService(client, WikipediaClient(session=session), "m")
        bundle = svc.build_bundle(item)
        assert bundle.roles == ("A", "B")
        assert bundle.keyword == "mock keyword"
        assert bundle.raw_external == "wiki text"
        assert bundle.refined_external == "mock refined knowledge"
        assert bundle.provenance == "https://en.wikipedia.org/wiki/Hit"

    def test_wiki_failure_degrades_gracefully(self, item):
        session = FakeWikiSession(fail=True)
        provider = MockProvider()
        client = LLMClient(provider, sleep=lambda _: None)
        wiki = WikipediaClient(session=session, sleep=lambda _: None)
        svc = KnowledgeService(client, wiki, "m")
        bundle = svc.build_bundle(item)
        assert bundle.refined_external is None
        assert len(bundle.roles) >= 1

    def test_roles_disabled(self, item):
        provider = MockProvider()
        client = LLMClient(provider, sleep=lambda _: None)
        svc = KnowledgeService(client, None, "m")
        bundle = svc.build_bundle(item, use_roles=False, use_external=False)
        assert bundle.roles == (DEFAULT_ROLE,)
        assert provider.call_count == 0


class FailingOn(MockProvider):
    """Mock provider that raises ``error`` for prompts containing ``phrase``."""

    def __init__(self, phrase, error, **kwargs):
        super().__init__(**kwargs)
        self.phrase = phrase
        self.error = error

    def send(self, req):
        if self.phrase in req.user_prompt:
            with self._lock:
                self.calls.append(req)
            raise self.error
        return super().send(req)


class TestProviderFailures:
    """A provider failure in the knowledge chain costs knowledge, never the batch."""

    def annotate(self, provider, **cfg):
        item = QAItem(id="k-1", lang="EN", question=SWIMMER_QUESTION, answer=SWIMMER_ANSWER)
        llm = LLMClient(provider, max_retries=1, sleep=lambda _: None)
        wiki = WikipediaClient(
            session=FakeWikiSession(search_results={"en": ["Hit"]}, extracts={("en", "Hit"): "text"})
        )
        svc = KnowledgeService(llm, wiki, "m")
        config = PipelineConfig(model="m", provider=ProviderConfig("mock"), runs_n=3, **cfg)
        return annotate_dataset([item], config, llm, svc), svc, item

    def test_roles_failure_falls_back_to_default_role(self):
        provider = FailingOn(
            "expert identities",
            TransientProviderError("HTTP 503"),
            rules=[MarkingRule(SWIMMER_ANSWER, ((0, 5),))],
        )
        (record,), svc, item = self.annotate(provider, use_external=False)
        assert record.runs_used == 3
        assert [(s.start, s.end) for s in record.hard_labels] == [(0, 5)]
        roles_calls = [c for c in provider.calls if "expert identities" in c.user_prompt]
        assert len(roles_calls) == 2  # one call, retried once, then the fallback
        runs = [c for c in provider.calls if c.seed_tag.startswith("run-")]
        assert all(c.user_prompt.startswith(f"You are a {DEFAULT_ROLE}.") for c in runs)
        assert svc.assign_roles(item) == [DEFAULT_ROLE]

    def test_external_chain_failure_leaves_item_without_knowledge(self):
        provider = FailingOn(
            "refine the given knowledge",
            TransientProviderError("HTTP 429"),
            rules=[MarkingRule(SWIMMER_ANSWER, ((0, 5),))],
        )
        (record,), svc, item = self.annotate(provider)
        assert record.runs_used == 3
        runs = [c for c in provider.calls if c.seed_tag.startswith("run-")]
        assert runs and all(NO_KNOWLEDGE_SENTINEL in c.user_prompt for c in runs)
        assert svc.build_bundle(item).refined_external is None

    @pytest.mark.parametrize("phrase", ["expert identities", "extract a keyword"])
    def test_auth_error_still_propagates(self, phrase):
        provider = FailingOn(
            phrase, AuthError("key rejected"), rules=[MarkingRule(SWIMMER_ANSWER, ())]
        )
        with pytest.raises(AuthError):
            self.annotate(provider)
