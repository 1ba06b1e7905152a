from __future__ import annotations

import hashlib
import json
import threading
from concurrent.futures import CancelledError
from contextvars import copy_context
from pathlib import Path
from urllib.parse import urlsplit

import pytest
import requests
from hypothesis import given, settings

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
from hallmark.errors import AuthError, ConfigError, KnowledgeError, ProviderError
from hallmark.knowledge import FALLBACK_CHARS, WIKIPEDIA_RETRIES, KnowledgeService, WikipediaClient
from hallmark.llm import CHAT_SLOTS, STOPPED, WIKI_SLOTS, CompletionRequest, TransientProviderError
from hallmark.prompts import DEFAULT_ROLE, NO_KNOWLEDGE_SENTINEL, load_template, render

from .conftest import (
    SWIMMER_ANSWER,
    SWIMMER_QUESTION,
    FakeProvider,
    by_tag,
    cache_rows,
    json_bodies,
    nested,
    roles_replies,
    wire_response,
)
from .test_llm import http_response, recording_session


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


def service_for(provider, cache, wiki=None):
    client = LLMClient(provider, cache=cache, sleep=lambda _: None)
    return KnowledgeService(client, wiki, "m", cache=cache), provider


def service_with_script(script, cache, wiki=None):
    """A service whose provider answers the prompts ``script`` holds, and the rest like the stock mock."""
    return service_for(FakeProvider(script), cache, wiki)


def service_by_tag(replies, cache):
    """A service whose provider answers the seed tags ``replies`` holds, and the rest like the stock mock."""
    return service_for(FakeProvider(by_tag(replies)), cache)


class TestAssignRoles:
    def test_parses_identities(self, item, cache):
        script = {roles_prompt(item): '{"Identities": ["A", "B"], "Reason": "r"}'}
        svc, _ = service_with_script(script, cache)
        assert svc.assign_roles(item) == ["A", "B"]

    def test_fallback_after_two_malformed_replies(self, item, cache):
        script = {roles_prompt(item): "not json"}
        svc, provider = service_with_script(script, cache)
        assert svc.assign_roles(item) == [DEFAULT_ROLE]
        assert provider.call_count == 2

    def test_truncates_to_five_and_dedupes(self, item, cache):
        identities = ["A", "B", "A", "C", "D", "E", "F"]
        script = {roles_prompt(item): json.dumps({"Identities": identities, "Reason": ""})}
        svc, _ = service_with_script(script, cache)
        roles = svc.assign_roles(item)
        assert roles == ["A", "B", "C", "D", "E"]
        assert 1 <= len(roles) <= 5

    def test_tolerates_fenced_json(self, item, cache):
        script = {roles_prompt(item): '```json\n{"Identities": ["X"], "Reason": ""}\n```'}
        svc, _ = service_with_script(script, cache)
        assert svc.assign_roles(item) == ["X"]

    def test_empty_identities_falls_back(self, item, cache):
        script = {roles_prompt(item): '{"Identities": [], "Reason": ""}'}
        svc, _ = service_with_script(script, cache)
        assert svc.assign_roles(item) == [DEFAULT_ROLE]

    def test_identities_must_be_a_list(self, item, cache):
        # a string would give its characters as roles, an object its keys
        svc, provider = service_by_tag({
            "roles-attempt-0": '{"Identities": "historian", "Reason": ""}',
            "roles-attempt-1": '{"Identities": {"historian": 1}, "Reason": ""}',
        }, cache)
        assert svc.assign_roles(item) == [DEFAULT_ROLE]
        assert provider.call_count == 2

    def test_identity_with_a_lone_surrogate_is_skipped(self, item, cache):
        # valid JSON, but no prompt holding it could be cached
        svc, provider = service_by_tag({"roles-attempt-0": '{"Identities": ["\\ud800", "A"], "Reason": ""}'}, cache)
        assert svc.assign_roles(item) == ["A"]
        assert provider.call_count == 1

    def test_too_deeply_nested_reply_costs_one_attempt(self, item, cache):
        deep = '{"Identities": ' + "[" * 5000 + "]" * 5000 + "}"
        svc, provider = service_by_tag({"roles-attempt-0": deep, "roles-attempt-1": '{"Identities": ["A"]}'}, cache)
        assert svc.assign_roles(item) == ["A"]
        assert provider.call_count == 2

    def test_failed_call_costs_one_attempt(self, item, cache):
        replies = {**roles_replies("A", "B"), "roles-attempt-0": ProviderError("null content")}
        svc, provider = service_by_tag(replies, cache)
        assert svc.assign_roles(item) == ["A", "B"]
        assert [c.seed_tag for c in provider.calls] == ["roles-attempt-0", "roles-attempt-1"]


class TestExtractKeyword:
    def test_swimmer_keyword(self, item, cache):
        script = {keyword_prompt(item): "Keyword: Petra van Staveren"}
        svc, _ = service_with_script(script, cache)
        assert svc.extract_keyword(item) == "Petra van Staveren"

    def test_whitespace_trimmed(self, item, cache):
        script = {keyword_prompt(item): "Keyword:  Ada Lovelace \n"}
        svc, _ = service_with_script(script, cache)
        assert svc.extract_keyword(item) == "Ada Lovelace"

    def test_missing_keyword_line(self, item, cache):
        script = {keyword_prompt(item): "I cannot help"}
        svc, _ = service_with_script(script, cache)
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

    def get(self, url, params=None, timeout=None, **settings):
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
    def test_first_result_wins(self, item, cache):
        # the provenance link percent-encodes the title as MediaWiki's own links do
        for title, path in [("First Hit", "First_Hit"), ("Why?", "Why%3F"), ("100%", "100%25")]:
            session = FakeWikiSession(
                search_results={"en": [title, "Second Hit"]},
                extracts={("en", title): "extract text"},
            )
            svc, _ = service_with_script({}, cache, wiki=WikipediaClient(session=session))
            text, provenance = svc.fetch_wikipedia(f"keyword for {title}", "EN")
            assert text == "extract text"
            assert provenance == f"https://en.wikipedia.org/wiki/{path}"

    def test_no_results_anywhere(self, item, cache):
        session = FakeWikiSession(search_results={})
        svc, _ = service_with_script({}, cache, wiki=WikipediaClient(session=session))
        with pytest.raises(KnowledgeError):
            svc.fetch_wikipedia("kw", "EN")

    def test_truncation(self, item, cache):
        session = FakeWikiSession(
            search_results={"en": ["Long"]},
            extracts={("en", "Long"): "x" * 12000},
        )
        svc, _ = service_with_script({}, cache, wiki=WikipediaClient(session=session))
        text, _ = svc.fetch_wikipedia("kw", "EN")
        assert len(text) == 8000

    def test_language_fallback_to_english(self, item, cache):
        session = FakeWikiSession(
            search_results={"fi": [], "en": ["Hit"]},
            extracts={("en", "Hit"): "english text"},
        )
        svc, _ = service_with_script({}, cache, wiki=WikipediaClient(session=session))
        text, provenance = svc.fetch_wikipedia("kw", "FI")
        assert text == "english text"
        assert "en.wikipedia.org" in provenance
        langs = [c["url"].split("//")[1].split(".")[0] for c in session.calls]
        assert "fi" in langs

    def test_search_and_extract_requests_are_pinned(self, item, cache):
        # the Action API requests, key order included, as one lookup sends them
        session = FakeWikiSession(search_results={"fi": ["Osuma"]}, extracts={("fi", "Osuma"): "teksti"})
        svc, _ = service_with_script({}, cache, wiki=WikipediaClient(session=session))
        assert svc.fetch_wikipedia("avainsana", "FI") == ("teksti", "https://fi.wikipedia.org/wiki/Osuma")
        api = "https://fi.wikipedia.org/w/api.php"
        search = [("action", "query"), ("list", "search"), ("srsearch", "avainsana"), ("srlimit", 1), ("format", "json")]
        extract = [
            ("action", "query"), ("prop", "extracts"), ("explaintext", 1), ("redirects", 1), ("titles", "Osuma"),
            ("format", "json"),
        ]
        assert [(c["url"], list(c["params"].items())) for c in session.calls] == [(api, search), (api, extract)]

    @pytest.mark.concurrency
    def test_stopped_batch_sends_no_request(self, item, cache):
        # a batch that has stopped sends nothing new to Wikipedia either
        session = FakeWikiSession(search_results={"en": ["Hit"]}, extracts={("en", "Hit"): "t"})
        svc, _ = service_with_script({}, cache, wiki=WikipediaClient(session=session))
        stopped = threading.Event()
        stopped.set()
        token = STOPPED.set(stopped)
        try:
            with pytest.raises(CancelledError):
                svc.fetch_wikipedia("kw", "EN")
        finally:
            STOPPED.reset(token)
        assert session.calls == []

    @pytest.mark.concurrency
    def test_request_holds_a_slot_of_the_batch(self, item, cache):
        # in a batch, a Wikipedia request waits for a free slot of the batch's Wikipedia slots
        session = FakeWikiSession(search_results={"en": ["Hit"]}, extracts={("en", "Hit"): "t"})
        svc, _ = service_with_script({}, cache, wiki=WikipediaClient(session=session))
        slots = threading.Semaphore(1)
        token = WIKI_SLOTS.set(slots)
        batch_context = copy_context()  # what a thread of the batch sees
        WIKI_SLOTS.reset(token)
        with slots:
            fetch = threading.Thread(target=batch_context.run, args=(svc.fetch_wikipedia, "kw", "EN"))
            fetch.start()
            fetch.join(timeout=0.2)
            assert session.calls == []
        fetch.join(timeout=10)
        assert not fetch.is_alive()
        assert len(session.calls) == 2

    @pytest.mark.parametrize("lang", ["attacker.example/x?", "\uff45\uff4e"], ids=["host-and-path", "full-width-en"])
    def test_language_that_is_no_subtag_asks_english_alone(self, cache, lang):
        # the language is the first label of the request's host, so only 2 to 8 ASCII letters may be it
        def reply(request):
            search = "list=search" in request.url
            return http_response(200, search_payload("Hit") if search else extract_payload("Hit", "text"))

        session, adapter = recording_session(reply)
        svc, _ = service_with_script({}, cache, wiki=WikipediaClient(session=session))
        assert svc.fetch_wikipedia("kw", lang) == ("text", "https://en.wikipedia.org/wiki/Hit")
        with pytest.raises(KnowledgeError):
            WikipediaClient(session=session).search_first_title("kw", lang)
        assert [urlsplit(r.url).hostname for r in adapter.sent] == ["en.wikipedia.org"] * 2

    def test_network_failure_wrapped(self, item, cache):
        session = FakeWikiSession(fail=True)
        wiki = WikipediaClient(session=session, sleep=lambda _: None)
        svc, _ = service_with_script({}, cache, wiki=wiki)
        with pytest.raises(KnowledgeError):
            svc.fetch_wikipedia("kw", "EN")
        assert len(session.calls) == 3  # initial try plus two retries


class QueuedSession:
    """Answers each GET with the next ``(status, body)`` reply; records the calls."""

    def __init__(self, *replies):
        self.replies = list(replies)
        self.calls = []

    def get(self, url, params=None, timeout=None, **settings):
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
            def get(self, url, params=None, timeout=None, **settings):
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


def failing_chat_request(cache, sleep):
    """A chat request whose every attempt fails with a 503: its service's slots, the call, and its count of sends."""
    provider = FakeProvider(TransientProviderError("HTTP 503"))
    client = LLMClient(provider, cache, max_retries=WIKIPEDIA_RETRIES, sleep=sleep)
    request = CompletionRequest(model="m", user_prompt="p", temperature=0.0, max_tokens=16, seed_tag="run-0")
    return CHAT_SLOTS, lambda: client.complete(request), lambda: provider.call_count


def failing_wiki_request(cache, sleep):
    """The same for a Wikipedia lookup whose every attempt meets a connection error."""
    session = FakeWikiSession(fail=True)
    svc, _ = service_with_script({}, cache, wiki=WikipediaClient(session=session, sleep=sleep))
    return WIKI_SLOTS, lambda: svc.fetch_wikipedia("kw", "EN"), lambda: len(session.calls)


class HeldSlots(threading.Semaphore):
    """Request slots that count their holders."""

    def __init__(self, n):
        super().__init__(n)
        self.held = 0

    def __enter__(self):
        super().__enter__()
        self.held += 1

    def __exit__(self, *exc_info):
        self.held -= 1
        super().__exit__(*exc_info)


@pytest.mark.parametrize("failing_request", [failing_chat_request, failing_wiki_request], ids=["chat", "wikipedia"])
class TestSlotPerAttempt:
    """Both services hold a slot of the batch for each attempt, and none for the backoff sleep between attempts."""

    def test_batch_stopped_during_backoff_sends_no_retry(self, cache, failing_request):
        stopped = threading.Event()
        _, send, sent = failing_request(cache, lambda _: stopped.set())
        token = STOPPED.set(stopped)
        try:
            with pytest.raises(CancelledError):
                send()
        finally:
            STOPPED.reset(token)
        assert sent() == 1

    def test_backoff_sleep_leaves_the_only_slot_free(self, cache, failing_request):
        slots, held = HeldSlots(1), []
        var, send, sent = failing_request(cache, lambda _: held.append(slots.held))
        token = var.set(slots)
        try:
            with pytest.raises((ProviderError, KnowledgeError)):
                send()
        finally:
            var.reset(token)
        assert (sent(), held) == (1 + WIKIPEDIA_RETRIES, [0] * WIKIPEDIA_RETRIES)


def test_own_session_names_hallmark_in_its_user_agent():
    # https://meta.wikimedia.org/wiki/User-Agent_policy asks for a descriptive User-Agent
    agent = WikipediaClient()._session.headers["User-Agent"]
    assert agent.startswith(f"hallmark/{__version__} (") and "python-requests/" in agent
    session = requests.Session()
    headers = dict(session.headers)
    WikipediaClient(session=session)
    assert dict(session.headers) == headers


class TestWikipediaEnvironment:
    """Like the chat provider, the Wikipedia client reads the environment once per host and never ~/.netrc."""

    def test_netrc_sends_no_credentials(self, monkeypatch, tmp_path):
        netrc = tmp_path / "netrc"
        netrc.write_text("default login someone password secret\n", encoding="utf-8")
        monkeypatch.setenv("NETRC", str(netrc))
        session, adapter = recording_session()
        WikipediaClient(session=session).search_first_title("kw", "en")
        (sent,) = adapter.sent
        assert "Authorization" not in sent.headers

    def test_environment_is_read_once_per_wiki(self, monkeypatch):
        scans = []
        real = requests.sessions.get_environ_proxies
        monkeypatch.setattr(requests.sessions, "get_environ_proxies", lambda *a, **kw: scans.append(a) or real(*a, **kw))
        session, adapter = recording_session()
        wiki = WikipediaClient(session=session)
        for _ in range(3):
            wiki.search_first_title("kw", "en")
        assert (len(adapter.sent), len(scans)) == (3, 1)
        wiki.search_first_title("kw", "fi")
        assert (len(adapter.sent), len(scans)) == (4, 2)

    def test_no_proxy_can_name_one_wiki(self, monkeypatch):
        for name in ("https_proxy", "no_proxy"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("HTTPS_PROXY", "http://proxy.test:3128")
        monkeypatch.setenv("NO_PROXY", "fi.wikipedia.org")
        session, adapter = recording_session()
        wiki = WikipediaClient(session=session)
        wiki.search_first_title("kw", "fi")
        wiki.search_first_title("kw", "en")
        monkeypatch.delenv("HTTPS_PROXY")  # a host already asked keeps what it read
        wiki.search_first_title("kw", "en")
        proxy = "http://proxy.test:3128"
        assert [s["proxies"].get("https") for s in adapter.settings] == [None, proxy, proxy]


class ReplaySession:
    """Answers every search query with ``bodies["search"]``, every extract query with ``bodies["extract"]``."""

    def __init__(self, bodies):
        self.bodies = bodies
        self.calls = []

    def get(self, url, params=None, timeout=None, **settings):
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
    provider = FakeProvider(MockProvider(rules=[MarkingRule(SWIMMER_ANSWER, (SpanLabel(0, 5),))]).send)
    svc, _ = service_for(provider, JsonFileCache(tmp_path), wiki)
    with pytest.raises(KnowledgeError):
        svc.fetch_wikipedia("kw", "EN")

    config = PipelineConfig(model="m", provider=ProviderConfig("mock"), runs_n=3)
    (record,) = annotate_dataset([item], config, svc.llm, svc)
    assert record.runs_used == 3
    runs = [c for c in provider.calls if c.seed_tag.startswith("run-")]
    assert len(runs) == 3 and all(NO_KNOWLEDGE_SENTINEL in c.user_prompt for c in runs)


@given(body=json_bodies({"query": {"search": [{"title": None}], "pages": {"1": {"extract": None}}}}))
@settings(max_examples=300, deadline=None)
def test_any_json_body_gives_text_none_or_a_knowledge_error(body):
    wiki = WikipediaClient(session=ReplaySession({"search": body, "extract": body}), sleep=lambda _: None)
    for read in (wiki.search_first_title, wiki.fetch_extract):
        try:
            found = read("kw", "en")
        except KnowledgeError:
            continue
        if found is not None:
            assert type(found) is str
            found.encode("utf-8")  # holds no lone surrogate


def test_wikipedia_payload_nested_too_deep_costs_only_the_knowledge(item, cache):
    class DeepSession:
        def get(self, url, params=None, timeout=None, **settings):
            return wire_response(b'{"query": ' + nested(3000) + b"}")

    wiki = WikipediaClient(session=DeepSession(), sleep=lambda _: None)
    svc, _ = service_with_script({}, cache, wiki=wiki)
    bundle = svc.build_bundle(item, use_roles=False)
    assert bundle.keyword == "mock keyword"
    assert (bundle.refined_external, bundle.provenance) == (None, None)


class TestRecordedWikipediaReplay:
    """Replays captured Action API response bodies end to end."""

    FIXTURE = Path(__file__).resolve().parent / "fixtures" / "wikipedia_swimmer.json"

    def test_first_hit_extract_round_trip(self, item, cache):
        bodies = json.loads(self.FIXTURE.read_text(encoding="utf-8"))
        session = ReplaySession(bodies)
        svc, _ = service_with_script({}, cache, wiki=WikipediaClient(session=session))
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

    def test_parses_knowledge(self, item, cache):
        script = {self.summary_prompt(item, "raw"): '{"Knowledge": "K", "Reason": "R"}'}
        svc, _ = service_with_script(script, cache)
        assert svc.summarize_knowledge(item, "raw") == "K"

    def test_fallback_truncates_raw(self, item, cache):
        raw = "y" * 5000
        script = {self.summary_prompt(item, raw): "garbage"}
        svc, provider = service_with_script(script, cache)
        out = svc.summarize_knowledge(item, raw)
        assert out == raw[:2000]
        assert provider.call_count == 2

    def test_failed_call_costs_one_attempt(self, item, cache):
        svc, provider = service_by_tag({"summary-attempt-0": ProviderError("null content")}, cache)
        assert svc.summarize_knowledge(item, "raw") == "mock refined knowledge"
        assert [c.seed_tag for c in provider.calls] == ["summary-attempt-0", "summary-attempt-1"]

    def test_two_failed_calls_fall_back_to_the_extract(self, item, cache):
        # the extract was fetched already; losing both summary calls must not throw it away
        raw = "z" * 5000
        failed = ProviderError("gave up after 4 attempts")
        session = FakeWikiSession(search_results={"en": ["Hit"]}, extracts={("en", "Hit"): raw})
        svc, _ = service_for(
            FakeProvider(by_tag({"summary-attempt-0": failed, "summary-attempt-1": failed})),
            cache,
            WikipediaClient(session=session),
        )
        bundle = svc.build_bundle(item)
        assert bundle.refined_external == raw[:FALLBACK_CHARS]
        assert bundle.provenance == "https://en.wikipedia.org/wiki/Hit"


class TestCaching:
    def test_roles_cached(self, item, tmp_path):
        cache = JsonFileCache(tmp_path)
        script = {roles_prompt(item): '{"Identities": ["A"], "Reason": ""}'}
        svc, provider = service_with_script(script, cache)
        assert svc.assign_roles(item) == ["A"]
        assert svc.assign_roles(item) == ["A"]
        assert provider.call_count == 1

    def test_wikipedia_cached(self, item, tmp_path):
        cache = JsonFileCache(tmp_path)
        session = FakeWikiSession(
            search_results={"en": ["Hit"]}, extracts={("en", "Hit"): "text"}
        )
        svc, _ = service_with_script({}, cache, wiki=WikipediaClient(session=session))
        svc.fetch_wikipedia("kw", "EN")
        calls_before = len(session.calls)
        svc.fetch_wikipedia("kw", "EN")
        assert len(session.calls) == calls_before

    def test_wikipedia_miss_cached(self, item, tmp_path):
        session = FakeWikiSession(search_results={})
        svc, _ = service_with_script({}, JsonFileCache(tmp_path), wiki=WikipediaClient(session=session))
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
        svc, _ = service_with_script({}, JsonFileCache(tmp_path), wiki=wiki)
        with pytest.raises(KnowledgeError):
            svc.fetch_wikipedia("kw", "EN")
        assert cache_rows(tmp_path) == {}

    def test_wikipedia_cache_key_is_pinned(self, tmp_path):
        # a changed key would make every existing cache miss; one entry per request, search then extract
        session = FakeWikiSession(search_results={"en": ["Hit"]}, extracts={("en", "Hit"): "t"})
        svc, _ = service_with_script({}, JsonFileCache(tmp_path), wiki=WikipediaClient(session=session))
        svc.fetch_wikipedia("Petra van Staveren", "EN")
        assert cache_rows(tmp_path) == {
            "2a20b8aeca425e513b8056e490c35b8a985b0ac81442fb9b50c92a9e4619ba5e": {"value": "Hit"},
            "b1f4f427bc5bae81f9e2d6b9ac042c9f339bcb2c4d4c9faf7133debfdab5fe2e": {"value": "t"},
        }

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
        svc, provider = service_with_script(script, cache, wiki=WikipediaClient(session=session))

        bundle = svc.build_bundle(item)
        assert bundle.refined_external is not None
        llm_calls = provider.call_count
        wiki_calls = len(session.calls)

        again = svc.build_bundle(item)
        assert again == bundle
        assert provider.call_count == llm_calls
        assert len(session.calls) == wiki_calls


    def test_only_wikipedia_fetch_is_cached_here(self, item, tmp_path):
        # the three LLM steps live in LLMClient's response cache, here one of
        # its own; the service itself stores only the fetch's two requests
        cache = JsonFileCache(tmp_path)
        session = FakeWikiSession(search_results={"en": ["Hit"]}, extracts={("en", "Hit"): "t"})
        client = LLMClient(MockProvider(), cache=JsonFileCache(tmp_path / "completions"), sleep=lambda _: None)
        svc = KnowledgeService(client, WikipediaClient(session=session), "m", cache=cache)
        assert svc.build_bundle(item).refined_external is not None
        assert list(cache_rows(tmp_path).values()) == [{"value": "Hit"}, {"value": "t"}]


class TestBuildBundle:
    def test_full_chain(self, item, cache):
        session = FakeWikiSession(
            search_results={"en": ["Hit"]}, extracts={("en", "Hit"): "wiki text"}
        )
        svc, _ = service_for(FakeProvider(by_tag(roles_replies("A", "B"))), cache, WikipediaClient(session=session))
        bundle = svc.build_bundle(item)
        assert bundle.roles == ("A", "B")
        assert bundle.keyword == "mock keyword"
        assert bundle.refined_external == "mock refined knowledge"
        assert bundle.provenance == "https://en.wikipedia.org/wiki/Hit"

    def test_wiki_failure_degrades_gracefully(self, item, cache):
        session = FakeWikiSession(fail=True)
        svc, _ = service_for(MockProvider(), cache, WikipediaClient(session=session, sleep=lambda _: None))
        bundle = svc.build_bundle(item)
        assert bundle.refined_external is None
        assert len(bundle.roles) >= 1

    def test_roles_disabled(self, item, cache):
        svc, provider = service_for(FakeProvider(MockProvider().send), cache)
        bundle = svc.build_bundle(item, use_roles=False, use_external=False)
        assert bundle.roles == (DEFAULT_ROLE,)
        assert provider.call_count == 0


def failing_on(phrase, error, rules):
    """A provider that raises ``error`` for prompts containing ``phrase``, and marks the others by ``rules``."""
    mock = MockProvider(rules=rules)
    return FakeProvider(lambda req: error if phrase in req.user_prompt else mock.send(req))


class TestProviderFailures:
    """A provider failure in the knowledge chain costs knowledge, never the batch."""

    def annotate(self, provider, cache, **cfg):
        item = QAItem(id="k-1", lang="EN", question=SWIMMER_QUESTION, answer=SWIMMER_ANSWER)
        llm = LLMClient(provider, cache=cache, max_retries=1, sleep=lambda _: None)
        wiki = WikipediaClient(
            session=FakeWikiSession(search_results={"en": ["Hit"]}, extracts={("en", "Hit"): "text"})
        )
        svc = KnowledgeService(llm, wiki, "m", cache=cache)
        config = PipelineConfig(model="m", provider=ProviderConfig("mock"), runs_n=3, **cfg)
        return annotate_dataset([item], config, llm, svc), svc, item

    def test_roles_failure_falls_back_to_default_role(self, cache):
        provider = failing_on(
            "expert identities",
            TransientProviderError("HTTP 503"),
            rules=[MarkingRule(SWIMMER_ANSWER, (SpanLabel(0, 5),))],
        )
        (record,), svc, item = self.annotate(provider, cache, use_external=False)
        assert record.runs_used == 3
        assert [(s.start, s.end) for s in record.hard_labels] == [(0, 5)]
        roles_calls = [c for c in provider.calls if "expert identities" in c.user_prompt]
        assert len(roles_calls) == 4  # two attempts, each retried once, then the fallback
        runs = [c for c in provider.calls if c.seed_tag.startswith("run-")]
        assert all(c.user_prompt.startswith(f"You are a {DEFAULT_ROLE}.") for c in runs)
        assert svc.assign_roles(item) == [DEFAULT_ROLE]

    def test_external_chain_failure_leaves_item_without_knowledge(self, cache):
        provider = failing_on(
            "extract a keyword",
            TransientProviderError("HTTP 429"),
            rules=[MarkingRule(SWIMMER_ANSWER, (SpanLabel(0, 5),))],
        )
        (record,), svc, item = self.annotate(provider, cache)
        assert record.runs_used == 3
        runs = [c for c in provider.calls if c.seed_tag.startswith("run-")]
        assert runs and all(NO_KNOWLEDGE_SENTINEL in c.user_prompt for c in runs)
        assert svc.build_bundle(item).refined_external is None

    @pytest.mark.parametrize("phrase", ["expert identities", "extract a keyword", "refine the given knowledge"])
    def test_auth_error_still_propagates(self, cache, phrase):
        provider = failing_on(phrase, AuthError("key rejected"), rules=[MarkingRule(SWIMMER_ANSWER, ())])
        with pytest.raises(AuthError):
            self.annotate(provider, cache)


def test_external_knowledge_without_a_wikipedia_client_is_refused(item, cache):
    svc, provider = service_with_script({}, cache)
    with pytest.raises(ConfigError):
        svc.build_bundle(item)
    assert provider.call_count == 0
    assert svc.build_bundle(item, use_external=False).refined_external is None


# SHA-256 of each distinct prompt the pinned item sends; see the test below.
ROLES_SHA = "488a2191679230026b8f31163e21c2dbc9ebdce7abf1e3f60aa1ab37676443de"
KEYWORD_SHA = "e800a600509e3e25eaf0908503ca4f62e4ab9c8c3b1dd66d38bb3f9eb61521fe"
SUMMARY_SHA = "a04176dec8e6b05709dda52d9055092a6c9a90786564548321d813a2f951d4d4"
RUN_A_SHA = "9e84e63ecf3187eae7ab274f1116eeae81b4707f852e22a8ba1d296e377a8c69"
RUN_B_SHA = "fa1465991c1ae0ed58a0d49c79e362bc4d34fc5b1deea77be22e91c290794cb7"


def test_knowledge_chain_requests_are_pinned(item, cache):
    # One item whose first roles reply and first summary reply do not parse.
    # The seed tags, prompts and sampling settings of its requests are pinned:
    # a changed prompt or tag would make every existing cache miss.
    mock = MockProvider(rules=[MarkingRule(SWIMMER_ANSWER, (SpanLabel(0, 5),))])
    replies = {**roles_replies("A", "B"), "roles-attempt-0": "not json", "summary-attempt-0": "garbage"}
    session = FakeWikiSession(search_results={"en": ["Hit"]}, extracts={("en", "Hit"): "wiki text"})
    svc, provider = service_for(FakeProvider(by_tag(replies, mock.send)), cache, WikipediaClient(session=session))
    (record,) = annotate_dataset([item], PipelineConfig(model="m", provider=ProviderConfig("mock")), svc.llm, svc)

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
