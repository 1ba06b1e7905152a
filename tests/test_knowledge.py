from __future__ import annotations

import hashlib
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
    SpanLabel,
    annotate_dataset,
)
from hallmark import __version__
from hallmark.errors import AuthError, KnowledgeError, ProviderError
from hallmark.knowledge import FALLBACK_CHARS, KnowledgeService, WikipediaClient
from hallmark.llm import TransientProviderError
from hallmark.prompts import DEFAULT_ROLE, NO_KNOWLEDGE_SENTINEL, load_template, render

from .conftest import SWIMMER_ANSWER, SWIMMER_QUESTION, cache_rows, nested, wire_response


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


class ByTag(MockProvider):
    """Mock provider that answers ``replies[seed_tag]`` where one is given,
    or raises it when it is an exception."""

    def __init__(self, replies, **kwargs):
        super().__init__(**kwargs)
        self.replies = replies

    def send(self, req):
        if req.seed_tag in self.replies:
            with self._lock:
                self.calls.append(req)
            reply = self.replies[req.seed_tag]
            if isinstance(reply, Exception):
                raise reply
            return reply
        return super().send(req)


def service_by_tag(replies, **kwargs):
    provider = ByTag(replies, **kwargs)
    return KnowledgeService(LLMClient(provider, sleep=lambda _: None), None, "m"), provider


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

    def test_identities_must_be_a_list(self, item):
        # a string would give its characters as roles, an object its keys
        svc, provider = service_by_tag({
            "roles-attempt-0": '{"Identities": "historian", "Reason": ""}',
            "roles-attempt-1": '{"Identities": {"historian": 1}, "Reason": ""}',
        })
        assert svc.assign_roles(item) == [DEFAULT_ROLE]
        assert provider.call_count == 2

    def test_identity_with_a_lone_surrogate_is_skipped(self, item):
        # valid JSON, but no prompt holding it could be cached
        svc, provider = service_by_tag({"roles-attempt-0": '{"Identities": ["\\ud800", "A"], "Reason": ""}'})
        assert svc.assign_roles(item) == ["A"]
        assert provider.call_count == 1

    def test_too_deeply_nested_reply_costs_one_attempt(self, item):
        deep = '{"Identities": ' + "[" * 5000 + "]" * 5000 + "}"
        svc, provider = service_by_tag({"roles-attempt-0": deep, "roles-attempt-1": '{"Identities": ["A"]}'})
        assert svc.assign_roles(item) == ["A"]
        assert provider.call_count == 2

    def test_failed_call_costs_one_attempt(self, item):
        svc, provider = service_by_tag({"roles-attempt-0": ProviderError("null content")}, roles_reply=("A", "B"))
        assert svc.assign_roles(item) == ["A", "B"]
        assert [c.seed_tag for c in provider.calls] == ["roles-attempt-0", "roles-attempt-1"]


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
                self.content = json.dumps(payload).encode("utf-8")

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


class QueuedSession:
    """Answers each GET with the next ``(status, body)`` reply; records the calls."""

    def __init__(self, *replies):
        self.replies = list(replies)
        self.calls = []

    def get(self, url, params=None, timeout=None):
        self.calls.append(params)
        status, body = self.replies.pop(0)
        response = wire_response(body)
        response.status_code = status
        return response


class TestWikipediaRetries:
    """Only a connection error or timeout, a 429 or a 5xx is asked again, after 1 s and then 2 s."""

    @pytest.mark.parametrize("status, body", [(200, b"<html>"), (404, b'{"error": "missing"}')], ids=["html", "404"])
    def test_reply_a_retry_cannot_mend_costs_one_request(self, status, body):
        session, sleeps = QueuedSession((status, body)), []
        with pytest.raises(KnowledgeError):
            WikipediaClient(session=session, sleep=sleeps.append).search_first_title("kw", "en")
        assert (len(session.calls), sleeps) == (1, [])

    def test_request_that_cannot_be_built_costs_one_attempt(self):
        class UnbuildableSession(QueuedSession):
            def get(self, url, params=None, timeout=None):
                self.calls.append(params)
                raise requests.exceptions.InvalidURL("no host")

        session, sleeps = UnbuildableSession(), []
        with pytest.raises(KnowledgeError):
            WikipediaClient(session=session, sleep=sleeps.append).search_first_title("kw", "en")
        assert (len(session.calls), sleeps) == (1, [])

    def test_server_error_is_asked_again_after_one_second(self):
        session, sleeps = QueuedSession((503, b"{}"), (200, json.dumps(search_payload("Hit")).encode("utf-8"))), []
        assert WikipediaClient(session=session, sleep=sleeps.append).search_first_title("kw", "en") == "Hit"
        assert (len(session.calls), sleeps) == (2, [1.0])


def test_own_session_names_hallmark_in_its_user_agent():
    # https://meta.wikimedia.org/wiki/User-Agent_policy asks for a descriptive User-Agent
    agent = WikipediaClient()._session.headers["User-Agent"]
    assert agent.startswith(f"hallmark/{__version__} (") and "python-requests/" in agent
    session = requests.Session()
    headers = dict(session.headers)
    WikipediaClient(session=session)
    assert dict(session.headers) == headers


class ReplaySession:
    """Answers every search query with ``bodies["search"]``, every extract query with ``bodies["extract"]``."""

    def __init__(self, bodies):
        self.bodies = bodies
        self.calls = []

    def get(self, url, params=None, timeout=None):
        self.calls.append(params)

        class R:
            status_code = 200

            def __init__(self, payload):
                self.content = json.dumps(payload).encode("utf-8")

        kind = "search" if params.get("list") == "search" else "extract"
        return R(self.bodies[kind])


# Payloads of the wrong shape, or with a title or extract that is no text.
MALFORMED_WIKIPEDIA = [
    pytest.param([], None, id="search-list"),
    pytest.param("oops", None, id="search-string"),
    pytest.param({"query": []}, None, id="query-list"),
    pytest.param({"query": {"search": ["x"]}}, None, id="hit-string"),
    pytest.param(search_payload(5), None, id="title-int"),
    pytest.param(search_payload("\ud800"), None, id="title-surrogate"),
    pytest.param(search_payload("Hit"), extract_payload("Hit", 5), id="extract-int"),
    pytest.param(search_payload("Hit"), extract_payload("Hit", "\ud800"), id="extract-surrogate"),
    pytest.param(search_payload("Hit"), {"query": {"pages": [{"title": "Hit", "extract": "t"}]}}, id="pages-list"),
]


@pytest.mark.parametrize("search, extract", MALFORMED_WIKIPEDIA)
def test_malformed_wikipedia_payload_costs_only_the_knowledge(item, tmp_path, search, extract):
    wiki = WikipediaClient(session=ReplaySession({"search": search, "extract": extract}))
    provider = MockProvider(rules=[MarkingRule(SWIMMER_ANSWER, (SpanLabel(0, 5),))])
    llm = LLMClient(provider, sleep=lambda _: None)
    svc = KnowledgeService(llm, wiki, "m", cache=JsonFileCache(tmp_path))
    with pytest.raises(KnowledgeError):
        svc.fetch_wikipedia("kw", "EN")

    config = PipelineConfig(model="m", provider=ProviderConfig("mock"), runs_n=3)
    (record,) = annotate_dataset([item], config, llm, svc)
    assert record.runs_used == 3
    runs = [c for c in provider.calls if c.seed_tag.startswith("run-")]
    assert len(runs) == 3 and all(NO_KNOWLEDGE_SENTINEL in c.user_prompt for c in runs)


def test_wikipedia_payload_nested_too_deep_costs_only_the_knowledge(item):
    class DeepSession:
        def get(self, url, params=None, timeout=None):
            return wire_response(b'{"query": ' + nested(3000) + b"}")

    wiki = WikipediaClient(session=DeepSession(), sleep=lambda _: None)
    svc, _ = service_with_script({}, item, wiki=wiki)
    bundle = svc.build_bundle(item, use_roles=False)
    assert bundle.keyword == "mock keyword"
    assert (bundle.refined_external, bundle.provenance) == (None, None)


class TestRecordedWikipediaReplay:
    """Replays captured Action API response bodies end to end."""

    FIXTURE = Path(__file__).resolve().parent / "fixtures" / "wikipedia_swimmer.json"

    def test_first_hit_extract_round_trip(self, item):
        bodies = json.loads(self.FIXTURE.read_text(encoding="utf-8"))
        session = ReplaySession(bodies)
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

    def test_failed_call_costs_one_attempt(self, item):
        svc, provider = service_by_tag({"summary-attempt-0": ProviderError("null content")})
        assert svc.summarize_knowledge(item, "raw") == "mock refined knowledge"
        assert [c.seed_tag for c in provider.calls] == ["summary-attempt-0", "summary-attempt-1"]

    def test_two_failed_calls_fall_back_to_the_extract(self, item):
        # the extract was fetched already; losing both summary calls must not throw it away
        raw = "z" * 5000
        failed = ProviderError("gave up after 4 attempts")
        provider = ByTag({"summary-attempt-0": failed, "summary-attempt-1": failed})
        session = FakeWikiSession(search_results={"en": ["Hit"]}, extracts={("en", "Hit"): raw})
        svc = KnowledgeService(LLMClient(provider, sleep=lambda _: None), WikipediaClient(session=session), "m")
        bundle = svc.build_bundle(item)
        assert bundle.refined_external == raw[:FALLBACK_CHARS]
        assert bundle.provenance == "https://en.wikipedia.org/wiki/Hit"


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

    def test_wikipedia_miss_cached(self, item, tmp_path):
        session = FakeWikiSession(search_results={})
        svc, _ = service_with_script({}, item, wiki=WikipediaClient(session=session), cache=JsonFileCache(tmp_path))
        with pytest.raises(KnowledgeError) as first:
            svc.fetch_wikipedia("kw", "FI")
        calls_before = len(session.calls)
        with pytest.raises(KnowledgeError) as second:
            svc.fetch_wikipedia("kw", "FI")
        assert len(session.calls) == calls_before == 2
        assert str(second.value) == str(first.value) == "no wikipedia results for 'kw' in ['fi', 'en']"

    def test_failed_wikipedia_request_not_cached(self, item, tmp_path):
        session = FakeWikiSession(fail=True)
        wiki = WikipediaClient(session=session, sleep=lambda _: None)
        svc, _ = service_with_script({}, item, wiki=wiki, cache=JsonFileCache(tmp_path))
        with pytest.raises(KnowledgeError):
            svc.fetch_wikipedia("kw", "EN")
        assert cache_rows(tmp_path) == {}

    def test_wikipedia_cache_key_is_pinned(self, tmp_path):
        # a changed key would make every existing cache miss
        session = FakeWikiSession(search_results={"en": ["Hit"]}, extracts={("en", "Hit"): "t"})
        svc, _ = service_with_script(
            {}, None, wiki=WikipediaClient(session=session), cache=JsonFileCache(tmp_path)
        )
        svc.fetch_wikipedia("Petra van Staveren", "EN")
        assert list(cache_rows(tmp_path)) == [
            "548781f7b1fa0a1002a6da80ab3cea07b0f375b47cc444f0270031c8d5a76214"
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
        (entry,) = cache_rows(tmp_path).values()
        assert entry == {
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
            rules=[MarkingRule(SWIMMER_ANSWER, (SpanLabel(0, 5),))],
        )
        (record,), svc, item = self.annotate(provider, use_external=False)
        assert record.runs_used == 3
        assert [(s.start, s.end) for s in record.hard_labels] == [(0, 5)]
        roles_calls = [c for c in provider.calls if "expert identities" in c.user_prompt]
        assert len(roles_calls) == 4  # two attempts, each retried once, then the fallback
        runs = [c for c in provider.calls if c.seed_tag.startswith("run-")]
        assert all(c.user_prompt.startswith(f"You are a {DEFAULT_ROLE}.") for c in runs)
        assert svc.assign_roles(item) == [DEFAULT_ROLE]

    def test_external_chain_failure_leaves_item_without_knowledge(self):
        provider = FailingOn(
            "extract a keyword",
            TransientProviderError("HTTP 429"),
            rules=[MarkingRule(SWIMMER_ANSWER, (SpanLabel(0, 5),))],
        )
        (record,), svc, item = self.annotate(provider)
        assert record.runs_used == 3
        runs = [c for c in provider.calls if c.seed_tag.startswith("run-")]
        assert runs and all(NO_KNOWLEDGE_SENTINEL in c.user_prompt for c in runs)
        assert svc.build_bundle(item).refined_external is None

    @pytest.mark.parametrize("phrase", ["expert identities", "extract a keyword", "refine the given knowledge"])
    def test_auth_error_still_propagates(self, phrase):
        provider = FailingOn(
            phrase, AuthError("key rejected"), rules=[MarkingRule(SWIMMER_ANSWER, ())]
        )
        with pytest.raises(AuthError):
            self.annotate(provider)


# SHA-256 of each distinct prompt the pinned item sends; see the test below.
ROLES_SHA = "488a2191679230026b8f31163e21c2dbc9ebdce7abf1e3f60aa1ab37676443de"
KEYWORD_SHA = "e800a600509e3e25eaf0908503ca4f62e4ab9c8c3b1dd66d38bb3f9eb61521fe"
SUMMARY_SHA = "a04176dec8e6b05709dda52d9055092a6c9a90786564548321d813a2f951d4d4"
RUN_A_SHA = "9e84e63ecf3187eae7ab274f1116eeae81b4707f852e22a8ba1d296e377a8c69"
RUN_B_SHA = "fa1465991c1ae0ed58a0d49c79e362bc4d34fc5b1deea77be22e91c290794cb7"


def test_knowledge_chain_requests_are_pinned(item):
    # One item whose first roles reply and first summary reply do not parse.
    # The seed tags, prompts and sampling settings of its requests are pinned:
    # a changed prompt or tag would make every existing cache miss.
    provider = ByTag(
        {"roles-attempt-0": "not json", "summary-attempt-0": "garbage"},
        roles_reply=("A", "B"),
        rules=[MarkingRule(SWIMMER_ANSWER, (SpanLabel(0, 5),))],
    )
    llm = LLMClient(provider, sleep=lambda _: None)
    session = FakeWikiSession(search_results={"en": ["Hit"]}, extracts={("en", "Hit"): "wiki text"})
    svc = KnowledgeService(llm, WikipediaClient(session=session), "m")
    (record,) = annotate_dataset([item], PipelineConfig(model="m", provider=ProviderConfig("mock")), llm, svc)

    sent = [
        (c.seed_tag, hashlib.sha256(c.user_prompt.encode("utf-8")).hexdigest(), c.model, c.temperature, c.max_tokens)
        for c in provider.calls
    ]
    assert sent == [
        ("roles-attempt-0", ROLES_SHA, "m", 0.0, 1024),
        ("roles-attempt-1", ROLES_SHA, "m", 0.0, 1024),
        ("keyword", KEYWORD_SHA, "m", 0.0, 1024),
        ("summary-attempt-0", SUMMARY_SHA, "m", 0.0, 1024),
        ("summary-attempt-1", SUMMARY_SHA, "m", 0.0, 1024),
    ] + [(f"run-{i}", (RUN_A_SHA, RUN_B_SHA)[i % 2], "m", 1.0, 2048) for i in range(12)]
    assert record.runs_used == 12
