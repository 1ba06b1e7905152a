from __future__ import annotations

import json
import tempfile
import threading
import time
from collections import Counter
from contextlib import closing, contextmanager
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hallmark import (
    AnnotationRun,
    CompletionRequest,
    JsonFileCache,
    OpenAIChatProvider,
    LLMClient,
    MarkingRule,
    MockProvider,
    ProviderConfig,
    QAItem,
    RateLimiter,
    SpanLabel,
    annotate_dataset,
    annotate_item,
    build_main_prompt,
    connect,
    write_predictions,
)
from hallmark import pipeline
from hallmark.alignment import align
from hallmark.errors import AuthError
from hallmark.knowledge import KnowledgeService, WikipediaClient
from hallmark.marking import insert_markers
from hallmark.pipeline import REPLY_SENTINEL, PipelineConfig, _execute_run
from hallmark.prompts import NO_KNOWLEDGE_SENTINEL, load_template, render
from hallmark.voting import BELOW_GATE, MARKER_ERROR, OK, PROVIDER_ERROR, TRUNCATED

from .conftest import (
    SCRIPT_POOLS,
    SWIMMER_ANSWER,
    SWIMMER_QUESTION,
    FakeProvider,
    by_tag,
    cache_rows,
    call_sites,
    nested,
    roles_replies,
    swimmer_spans,
    wire_response,
)
from .test_marking import MARKER_LIKE_CASES, hallucinated_spans
from .test_knowledge import FakeWikiSession
from .test_llm import completion_payload, http_response, recording_session


def config(**kwargs):
    defaults = dict(model="m", provider=ProviderConfig("mock"), use_external=False)
    defaults.update(kwargs)
    return PipelineConfig(**defaults)


def swimmer():
    return QAItem(id="s1", lang="EN", question=SWIMMER_QUESTION, answer=SWIMMER_ANSWER)


def service(provider, cache, wiki_session=None):
    client = LLMClient(provider, cache=cache, sleep=lambda _: None)
    wiki = WikipediaClient(session=wiki_session, sleep=lambda _: None) if wiki_session else None
    return client, KnowledgeService(client, wiki, "m", cache=cache)


class TestBuildMainPrompt:
    def test_language_name_substituted(self):
        item = QAItem(id="h", lang="HI", question="q", answer="a")
        prompt = build_main_prompt(item, "expert", None)
        assert "Hindi" in prompt
        assert "{lang}" not in prompt
        assert "{answer}" not in prompt

    def test_sentinel_when_knowledge_missing(self):
        item = QAItem(id="h", lang="EN", question="q", answer="a")
        assert NO_KNOWLEDGE_SENTINEL in build_main_prompt(item, "expert", None)
        assert NO_KNOWLEDGE_SENTINEL not in build_main_prompt(item, "expert", "facts here")

    def test_embeds_question_answer_and_role(self):
        prompt = build_main_prompt(swimmer(), "sports historian", None)
        assert SWIMMER_QUESTION in prompt
        assert SWIMMER_ANSWER in prompt
        assert "sports historian" in prompt

    def test_unknown_language_code_passes_through(self):
        item = QAItem(id="x", lang="tlh", question="q", answer="a")
        assert "(tlh)" in build_main_prompt(item, "r", None)


class Replying:
    """Stands in for the LLMClient: every request gets ``reply``."""

    def __init__(self, reply):
        self.reply = reply

    def complete(self, request):
        return self.reply


def judged(reply, answer, **cfg):
    """The run ``_execute_run`` makes of ``reply`` on an item with ``answer``. The gate is 1.0 unless ``cfg``
    sets it, so a run is OK only when the copy it takes is the answer, markers aside."""
    item = QAItem(id="j", lang="EN", question="q", answer=answer)
    return _execute_run(item, "p", "run-0", config(**{"min_similarity": 1.0, **cfg}), Replying(reply))


class TestExtractFinalMarked:
    """Which copy of the marked answer a reply's run is judged by."""

    def test_takes_text_after_last_sentinel(self):
        reply = "thinking...\nRevised answer: first\nmore\nRevised answer: ⟨⟨x⟩⟩ final"
        assert judged(reply, "x final") == AnnotationRun(OK, (SpanLabel(0, 1),))

    def test_whole_reply_without_sentinel(self):
        assert judged("  ⟨⟨just⟩⟩ the answer \n", "just the answer") == AnnotationRun(OK, (SpanLabel(0, 4),))

    def test_strips_code_fences(self):
        assert judged("```\n⟨⟨marked⟩⟩ text\n```", "marked text") == AnnotationRun(OK, (SpanLabel(0, 6),))

    @pytest.mark.parametrize(
        "before", [f"Analysis: the year is wrong.\n{REPLY_SENTINEL} ", ""], ids=["after-reasoning", "marked-answer-alone"]
    )
    def test_answer_holding_the_sentinel(self, before):
        # the answer's own sentinel is no cut point, whether or not a sentinel line introduces it
        answer = f"The memoir {REPLY_SENTINEL} A Life was published in 1990 by Penguin."
        marked = insert_markers(answer, [SpanLabel(51, 55)])
        assert judged(before + marked, answer) == AnnotationRun(OK, (SpanLabel(51, 55),))

    def test_markers_splitting_the_answers_sentinel(self):
        # the copies hold one sentinel fewer than the answer: counting sentinels cut at the draft, kept both
        # copies and lost the run at the gate (0.434)
        answer = f"The memoir {REPLY_SENTINEL} A Life was published in 1990."
        draft = "The memoir Revised ⟨⟨answer: A Life⟩⟩ was published in 1990."
        final = "The memoir Revised ⟨⟨answer: A Life⟩⟩ was published in ⟨⟨1990⟩⟩."
        reply = f"Reference answer: x\nfirst try\n{REPLY_SENTINEL} {draft}\n{REPLY_SENTINEL} {final}"
        run = judged(reply, answer, min_similarity=0.7)
        assert run.outcome == OK
        assert [answer[s.start : s.end] for s in run.spans] == ["answer: A Life", "1990"]

    @given(
        pieces=st.lists(st.sampled_from([REPLY_SENTINEL, " ", "\n", "Revised", "answer", ":", "x", "é", "1990"])),
        reasoning=st.text(st.sampled_from("Revised answer:x \n⟨⟩"), max_size=40),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_the_marked_copy_after_the_last_reasoning_is_extracted(self, pieces, reasoning, data):
        # any answer (its own sentinels included), any marking of it, any reasoning without the sentinel
        answer = "".join(pieces).strip()
        assume(answer and REPLY_SENTINEL not in reasoning)
        bounds = sorted(data.draw(st.sets(st.integers(0, len(answer)), max_size=6)))
        spans = [SpanLabel(s, e) for s, e in zip(bounds[::2], bounds[1::2])]
        marked = insert_markers(answer, spans)
        assert judged(f"{reasoning}\n{REPLY_SENTINEL} {marked}", answer) == AnnotationRun(OK, tuple(spans))


class TestAnnotateItem:
    def test_unanimous_marking(self, cache):
        provider = MockProvider(rules=[MarkingRule(SWIMMER_ANSWER, tuple(swimmer_spans()))])
        llm, svc = service(provider, cache)
        record = annotate_item(swimmer(), config(), llm, svc)
        assert list(record.hard_labels) == swimmer_spans()
        assert all(s.prob == 1.0 for s in record.soft_labels)
        assert record.runs_used == 12
        covered = [SWIMMER_ANSWER[s.start : s.end] for s in record.hard_labels]
        assert covered == ["silver", "2008", "Beijing, China"]

    def test_split_vote_seven_of_twelve(self, cache):
        silver = swimmer_spans()[0]
        rule = MarkingRule(
            SWIMMER_ANSWER,
            spans=(silver,),
            per_run={f"run-{i}": () for i in range(7, 12)},
        )
        llm, svc = service(MockProvider(rules=[rule]), cache)

        record = annotate_item(swimmer(), config(threshold=0.5), llm, svc)
        assert record.runs_used == 12
        assert record.hard_labels == (silver,)
        assert record.soft_labels[0].prob == 7 / 12

        record = annotate_item(swimmer(), config(threshold=0.6), llm, svc)
        assert record.hard_labels == ()

    def test_all_runs_unparseable(self, cache):
        provider = FakeProvider("⟨⟨broken")
        llm, svc = service(provider, cache)
        record = annotate_item(swimmer(), config(), llm, svc)
        assert record.runs_used == 0
        assert record.hard_labels == ()
        assert record.soft_labels == ()

    def test_wholesale_rewrite_rejected(self, cache):
        provider = FakeProvider("something else entirely")
        llm, svc = service(provider, cache)
        record = annotate_item(swimmer(), config(), llm, svc)
        assert record.runs_used == 0

    def test_empty_answer_skipped(self, cache):
        item = QAItem(id="e", lang="EN", question="q", answer="")
        provider = FakeProvider("")
        llm, svc = service(provider, cache)
        record = annotate_item(item, config(), llm, svc)
        assert record.runs_used == 0
        assert provider.call_count == 0

    def test_roles_assigned_round_robin(self, cache):
        mock = MockProvider(rules=[MarkingRule(SWIMMER_ANSWER, ())])
        provider = FakeProvider(by_tag(roles_replies("R0", "R1", "R2"), mock.send))
        llm, svc = service(provider, cache)
        annotate_item(swimmer(), config(runs_n=6), llm, svc)
        annotation_calls = [c for c in provider.calls if c.seed_tag.startswith("run-")]
        assert len(annotation_calls) == 6
        roles_seen = []
        for call in sorted(annotation_calls, key=lambda c: int(c.seed_tag.split("-")[1])):
            for role in ("R0", "R1", "R2"):
                if f"You are a {role}." in call.user_prompt:
                    roles_seen.append(role)
        assert roles_seen == ["R0", "R1", "R2", "R0", "R1", "R2"]

    def test_soft_probs_are_fractions_of_runs_used(self, cache):
        silver, year, place = swimmer_spans()
        rule = MarkingRule(
            SWIMMER_ANSWER,
            spans=(silver,),
            per_run={"run-1": (silver, year), "run-2": (place,), "run-3": ()},
        )
        llm, svc = service(MockProvider(rules=[rule]), cache)
        record = annotate_item(swimmer(), config(runs_n=8), llm, svc)
        assert record.runs_used == 8
        allowed = {k / 8 for k in range(1, 9)}
        assert all(s.prob in allowed for s in record.soft_labels)

    def test_bare_baseline_prompt(self, cache):
        # with roles and external knowledge both off, every run gets the
        # default role and the no-knowledge sentinel
        provider = FakeProvider(MockProvider(rules=[MarkingRule(SWIMMER_ANSWER, ())]).send)
        llm, svc = service(provider, cache)
        annotate_item(swimmer(), config(use_roles=False, runs_n=3), llm, svc)
        prompts = [c.user_prompt for c in provider.calls]
        assert len(prompts) == 3
        for prompt in prompts:
            assert prompt.startswith("You are a fact-checking expert.")
            assert NO_KNOWLEDGE_SENTINEL in prompt
        assert len(set(prompts)) == 1

    def test_hard_labels_covered_by_strong_soft_labels(self, cache):
        rng_spans = swimmer_spans()
        rule = MarkingRule(
            SWIMMER_ANSWER,
            spans=(rng_spans[0],),
            per_run={
                "run-0": tuple(rng_spans),
                "run-1": (rng_spans[1],),
                "run-5": (),
                "run-9": (rng_spans[2],),
            },
        )
        llm, svc = service(MockProvider(rules=[rule]), cache)
        cfg = config(threshold=0.5)
        record = annotate_item(swimmer(), cfg, llm, svc)
        from hallmark import coverage

        n = len(SWIMMER_ANSWER)
        hard_chars = {i for i, v in enumerate(coverage(record.hard_labels, n)) if v}
        strong_soft = [s for s in record.soft_labels if s.prob >= cfg.threshold]
        assert hard_chars <= {i for i, v in enumerate(coverage(strong_soft, n)) if v}

    @pytest.mark.parametrize("case", MARKER_LIKE_CASES, ids=lambda c: c["id"])
    def test_marker_like_answer_labels_only_marked_terms(self, cache, case):
        # « » and << in the answer itself are text, not markers: a verbatim
        # copy is a valid run that labels nothing the annotator left unmarked
        answer = case["answer"]
        rule = MarkingRule(answer, tuple(hallucinated_spans(case)))
        llm, svc = service(MockProvider(rules=[rule]), cache)
        item = QAItem(id=case["id"], lang=case["lang"], question="q", answer=answer)
        record = annotate_item(item, config(use_roles=False, runs_n=3), llm, svc)
        assert record.runs_used == 3
        assert [answer[s.start : s.end] for s in record.hard_labels] == case["hallucinated"]

    def test_marking_with_the_answers_own_alphabet_rejects_the_run(self, cache):
        # run-0 marks with the « » the answer already holds: that run is
        # rejected and leaves the vote denominator
        answer = "Le roman « Les Misérables » est de Hugo."

        class GuillemetsOnFirstRun:
            name = "scripted"

            def send(self, req):
                marks = ("«", "»") if req.seed_tag == "run-0" else ("⟨⟨", "⟩⟩")
                return answer.replace("Hugo", "Hugo".join(marks))

        llm, svc = service(GuillemetsOnFirstRun(), cache)
        item = QAItem(id="fr", lang="FR", question="q", answer=answer)
        record = annotate_item(item, config(use_roles=False, runs_n=3), llm, svc)
        assert record.runs_used == 2
        assert [(answer[s.start : s.end], s.prob) for s in record.soft_labels] == [("Hugo", 1.0)]

    def test_null_content_rejects_one_run(self, tmp_path, open_cache, monkeypatch):
        # an OpenAI-compatible endpoint may answer ``"content": null`` (a
        # refusal or a content filter); that run is rejected, uncached
        def null_first(request):
            content = None if len(adapter.sent) == 1 else "Petra van Stoveren won a ⟨⟨silver⟩⟩ medal"
            return http_response(200, completion_payload(content))

        session, adapter = recording_session(null_first)
        monkeypatch.setenv("TEST_KEY", "sk-x")
        provider = OpenAIChatProvider(
            ProviderConfig("test", base_url="https://api.test/v1", api_key_env="TEST_KEY"),
            session=session,
        )
        cache = open_cache(tmp_path)
        llm = LLMClient(provider, cache=cache, sleep=lambda _: None)
        item = QAItem(id="n", lang="EN", question="q", answer="Petra van Stoveren won a silver medal")
        svc = KnowledgeService(llm, None, "m", cache=cache)
        (record,) = annotate_dataset([item], config(use_roles=False, runs_n=4), llm, svc)
        assert record.runs_used == 3
        assert [item.answer[s.start : s.end] for s in record.hard_labels] == ["silver"]
        entries = list(cache_rows(tmp_path).values())
        assert len(entries) == 3
        assert all(isinstance(e["text"], str) for e in entries)

    def test_replies_cut_at_max_tokens_do_not_vote(self, cache, monkeypatch):
        # six runs mark "Rotterdam"; six more were cut off at max_tokens before
        # reaching it, yet copied 86% of the answer, enough to pass the gate
        answer = (
            "The Erasmus Bridge is a cable-stayed and bascule bridge over the Nieuwe Maas. "
            "It was designed by Ben van Berkel, opened in 1996 by Queen Beatrix, and carries buses, "
            "trams, bikes and walkers over the river in central Rotterdam, Europe."
        )
        assert (len(answer), answer.index("Rotterdam")) == (234, 216)
        marked = insert_markers(answer, [SpanLabel(216, 225)])

        def half_cut(request):
            if len(adapter.sent) <= 6:
                return http_response(200, completion_payload(marked))
            return http_response(200, completion_payload(marked[: int(len(marked) * 0.85)], "length"))

        session, adapter = recording_session(half_cut)
        monkeypatch.setenv("TEST_KEY", "sk-x")
        provider = OpenAIChatProvider(
            ProviderConfig("test", base_url="https://api.test/v1", api_key_env="TEST_KEY"),
            session=session,
        )
        llm, svc = service(provider, cache)
        item = QAItem(id="r", lang="EN", question="q", answer=answer)
        record = annotate_item(item, config(use_roles=False, runs_n=12), llm, svc)
        assert record.runs_used == 6
        assert [(s.start, s.end, s.prob) for s in record.soft_labels] == [(216, 225, 1.0)]

    def test_auth_error_propagates(self, cache):
        llm, svc = service(FakeProvider(AuthError("key rejected")), cache)
        with pytest.raises(AuthError):
            annotate_item(swimmer(), config(use_roles=False), llm, svc)


class TestAnnotateDataset:
    def make_items(self, n=6):
        items = []
        for i in range(n):
            answer = f"answer number {i} has some words in it."
            items.append(QAItem(id=f"it-{i}", lang="EN", question=f"q{i}", answer=answer))
        return items

    def rules_for(self, items):
        return [MarkingRule(it.answer, (SpanLabel(0, 6),)) for it in items]

    @pytest.mark.concurrency
    def test_order_preserved(self, tmp_path, open_cache):
        items = self.make_items()
        provider = MockProvider(rules=self.rules_for(items))
        llm, svc = service(provider, cache=open_cache(tmp_path))
        records = annotate_dataset(items, config(), llm, svc)
        assert [r.id for r in records] == [it.id for it in items]

    def test_rerun_is_fully_cached(self, tmp_path, open_cache):
        items = self.make_items()
        cache = open_cache(tmp_path)
        provider = FakeProvider(MockProvider(rules=self.rules_for(items)).send)
        llm, svc = service(provider, cache=cache)
        first = annotate_dataset(items, config(), llm, svc)
        calls = provider.call_count
        second = annotate_dataset(items, config(), llm, svc)
        assert second == first
        assert provider.call_count == calls

    @pytest.mark.concurrency
    def test_parallel_matches_serial(self, tmp_path, open_cache):
        items = self.make_items()
        provider = MockProvider(rules=self.rules_for(items))
        llm, svc = service(provider, open_cache(tmp_path / "serial"))
        serial = annotate_dataset(items, config(), llm, svc)
        # a cache of its own, so the parallel batch sends its requests too
        llm, svc = service(provider, open_cache(tmp_path / "parallel"))
        parallel = annotate_dataset(items, config(max_parallel_items=3), llm, svc)
        assert parallel == serial

    def test_no_external_means_no_wiki_traffic(self, cache):
        items = self.make_items(3)
        session = FakeWikiSession(search_results={"en": ["Hit"]}, extracts={("en", "Hit"): "t"})
        provider = MockProvider(rules=self.rules_for(items))
        llm, svc = service(provider, cache, wiki_session=session)
        annotate_dataset(items, config(use_external=False), llm, svc)
        assert session.calls == []

    @pytest.mark.concurrency
    def test_progress_callback_in_order(self, cache):
        items = self.make_items(4)
        provider = MockProvider(rules=self.rules_for(items))
        llm, svc = service(provider, cache)
        seen = []
        annotate_dataset(items, config(), llm, svc, progress=lambda r: seen.append(r.id))
        assert seen == [it.id for it in items]

    def first_started(self, items, cfg, cache):
        """The ids of the first ``max_parallel_items + 1`` items whose requests reach a provider that
        takes about 1 ms per request, and the ids of the records, in their order."""
        mock = MockProvider(rules=self.rules_for(items))
        provider = FakeProvider(lambda req: time.sleep(0.001) or mock.send(req))
        llm, svc = service(provider, cache)
        records = annotate_dataset(items, cfg, llm, svc)
        started = {}
        for call in provider.calls:
            started.setdefault(next(it.id for it in items if it.answer in call.user_prompt), None)
        return set(list(started)[: cfg.max_parallel_items + 1]), [r.id for r in records]

    @pytest.mark.concurrency
    def test_longest_answer_starts_first(self, tmp_path, open_cache):
        # items are submitted longest first, so the first to reach the provider are the longest,
        # in whatever order their threads take a slot; records still follow input order
        lengths = (1, 4, 2, 8, 3)
        items = [QAItem(id=f"len-{n}", lang="EN", question="q", answer=f"item {n}: " + "word " * n) for n in lengths]
        for max_parallel in (1, 2):
            cfg = config(max_parallel_items=max_parallel)
            started, records = self.first_started(items, cfg, open_cache(tmp_path / str(max_parallel)))
            assert started == {f"len-{n}" for n in sorted(lengths, reverse=True)[: max_parallel + 1]}
            assert records == [it.id for it in items]

    @pytest.mark.concurrency
    def test_equal_lengths_start_in_input_order(self, cache):
        items = self.make_items(5)[::-1]
        started, records = self.first_started(items, config(max_parallel_items=1), cache)
        assert started == {it.id for it in items[:2]}
        assert records == [it.id for it in items]

    @pytest.mark.concurrency
    def test_repeated_item_gets_one_record_per_position(self, cache):
        a, b = self.make_items(2)
        provider = MockProvider(rules=self.rules_for([a, b]))
        llm, svc = service(provider, cache)
        records = annotate_dataset([a, b, a], config(max_parallel_items=2), llm, svc)
        assert [r.id for r in records] == ["it-0", "it-1", "it-0"]
        assert records[0] == records[2]

    @pytest.mark.concurrency
    def test_items_sharing_a_question_send_its_knowledge_requests_once(self, cache):
        # the second item reads the keyword while the first item's request for it is on the wire, and
        # waits for its reply instead of sending its own; the Wikipedia requests after it are shared too
        items = [QAItem(id=f"same-{i}", lang="EN", question="q", answer=f"answer {i} has words.") for i in range(2)]
        mock = MockProvider(rules=self.rules_for(items))
        reads = []  # (thread, key) of each read through the cache, as it starts
        read_through = cache.read_through

        def read(key, *args):
            reads.append((threading.get_ident(), key))
            return read_through(key, *args)

        def reply(req):
            if req.seed_tag == "keyword":
                key, deadline = llm._cache_key(req), time.monotonic() + 10
                while not any(thread != threading.get_ident() and k == key for thread, k in reads):
                    assert time.monotonic() < deadline, "the other item never read the keyword"
                    time.sleep(0.001)
            return mock.send(req)

        cache.read_through = read
        provider = FakeProvider(reply)
        session = FakeWikiSession(search_results={"en": ["Hit"]}, extracts={("en", "Hit"): "wiki text"})
        llm, svc = service(provider, cache, wiki_session=session)
        cfg = config(use_roles=False, use_external=True, max_parallel_items=2)
        records = annotate_dataset(items, cfg, llm, svc)
        assert [r.id for r in records] == ["same-0", "same-1"]
        assert [req.seed_tag for req in provider.calls].count("keyword") == 1
        assert [call["params"].get("list") for call in session.calls] == ["search", None]

    def slow_provider(self, reply=""):
        """A provider that takes 20 ms to give ``reply``."""
        return FakeProvider(lambda req: time.sleep(0.02) or reply)

    @pytest.mark.concurrency
    def test_auth_error_stops_the_batch(self, cache):
        items = self.make_items(20)
        provider = self.slow_provider(AuthError("key rejected"))
        llm, svc = service(provider, cache)
        with pytest.raises(AuthError):
            annotate_dataset(items, config(use_roles=False, max_parallel_items=1), llm, svc)
        assert provider.call_count <= 2

    def interrupted_batch(self, cache, items, cfg):
        """Runs ``items`` on a provider that takes 20 ms a request, in a batch whose first ``progress`` call
        raises KeyboardInterrupt; returns the provider and the requests it got after the raise."""
        raised = threading.Event()
        late = []

        def reply(req):
            if raised.is_set():
                late.append(req)
            time.sleep(0.02)
            return ""

        def interrupt(record):
            raised.set()
            raise KeyboardInterrupt

        provider = FakeProvider(reply)
        llm, svc = service(provider, cache)
        with pytest.raises(KeyboardInterrupt):
            annotate_dataset(items, cfg, llm, svc, progress=interrupt)
        return provider, late

    @pytest.mark.concurrency
    def test_interrupt_stops_the_batch(self, cache):
        # which items sent before the raise depends on the thread order: the thread that finishes
        # first may already have started a third item. The contract is about what goes out after it:
        # at most the one request that held the slot, and nothing once the interrupt surfaces.
        cfg = config(use_roles=False, runs_n=2, max_parallel_items=1)
        provider, late = self.interrupted_batch(cache, self.make_items(10), cfg)
        sent = provider.call_count
        time.sleep(0.05)
        assert len(late) <= 1
        assert provider.call_count == sent

    @pytest.mark.parametrize("max_parallel", [1, 2])
    @pytest.mark.concurrency
    def test_stopped_batch_sends_nothing_new(self, cache, max_parallel):
        # after the raise, only a request that already held a slot may still go out
        cfg = config(use_roles=False, runs_n=12, max_parallel_items=max_parallel)
        _, late = self.interrupted_batch(cache, self.make_items(6), cfg)
        assert len(late) <= max_parallel

    @pytest.mark.concurrency
    def test_clients_stay_usable_after_a_batch_stops(self, cache):
        # a stop ends its own batch only: outside any batch a request passes an unbounded gate that
        # nothing stops, and a new batch on the same clients runs to its end
        first = self.make_items(4)
        second = [QAItem(id=f"new-{i}", lang="EN", question="q", answer=f"a new reply, {i} words.") for i in range(3)]
        mock = MockProvider(rules=self.rules_for(first + second))
        provider = FakeProvider(lambda req: "direct" if req.user_prompt == "a new prompt" else mock.send(req))
        llm, svc = service(provider, cache)
        cfg = config(use_roles=False, runs_n=2, max_parallel_items=1)

        def interrupt(record):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            annotate_dataset(first, cfg, llm, svc, progress=interrupt)
        sent = provider.call_count
        request = CompletionRequest(model="m", user_prompt="a new prompt", temperature=0.0, max_tokens=16, seed_tag="x")
        assert llm.complete(request) == "direct"
        assert provider.call_count == sent + 1
        records = annotate_dataset(second, cfg, llm, svc)
        assert [(r.id, r.runs_used) for r in records] == [(it.id, cfg.runs_n) for it in second]
        assert provider.call_count == sent + 1 + len(second) * cfg.runs_n

    @pytest.mark.parametrize(
        "max_parallel, shared", [(1, True), (2, True), (3, True), (2, False)], ids=["1", "2", "3", "2-two-clients"]
    )
    @pytest.mark.concurrency
    def test_provider_requests_on_the_wire_never_exceed_max_parallel(self, tmp_path, open_cache, max_parallel, shared):
        # the knowledge chain's requests count too, also when the knowledge service has its own
        # client; Wikipedia requests have a bound of their own
        items = self.make_items(8)
        sends, wiki_gets = InFlight(), InFlight()
        provider = InFlightProvider(MockProvider(rules=self.rules_for(items)).send, sends)
        wiki = InFlightWikiSession(wiki_gets, search_results={"en": ["Hit"]}, extracts={("en", "Hit"): "wiki text"})
        cfg = config(use_external=True, runs_n=4, max_parallel_items=max_parallel)

        llm, svc = service(provider, open_cache(tmp_path / "serial"), wiki_session=wiki)
        write_predictions([annotate_item(it, cfg, llm, svc) for it in items], tmp_path / "serial.jsonl")
        sends.peak = wiki_gets.peak = 0

        llm, svc = service(provider, open_cache(tmp_path / "batch"), wiki_session=wiki)
        if not shared:
            svc.llm = LLMClient(provider, cache=svc.cache, sleep=lambda _: None)
        write_predictions(annotate_dataset(items, cfg, llm, svc), tmp_path / "batch.jsonl")
        assert sends.peak == max_parallel
        assert 1 <= wiki_gets.peak <= max_parallel
        assert (tmp_path / "batch.jsonl").read_bytes() == (tmp_path / "serial.jsonl").read_bytes()

    @pytest.mark.concurrency
    def test_two_batches_on_one_client_keep_their_own_slots(self, tmp_path, open_cache):
        # a batch started from another's progress call shares its clients, and each batch has its
        # own bound: requests are counted per batch, by the item whose answer is in the prompt
        first = self.make_items(6)
        second = [QAItem(id=f"other-{i}", lang="EN", question="q", answer=f"another reply, {i} words.") for i in range(6)]
        counters = {"it": InFlight(), "other": InFlight()}
        mock = MockProvider(rules=self.rules_for(first + second))

        def reply(req):
            item = next(it for it in first + second if it.answer in req.user_prompt)
            with counters[item.id.split("-")[0]].request():
                return mock.send(req)

        cfg_first, cfg_second = config(max_parallel_items=2), config(max_parallel_items=1)
        llm, svc = service(FakeProvider(reply), open_cache(tmp_path / "serial"))
        serial = [annotate_item(it, cfg_first, llm, svc) for it in first + second]
        counters["it"].peak = counters["other"].peak = 0

        llm, svc = service(FakeProvider(reply), open_cache(tmp_path / "batch"))
        nested_records = []

        def start_second(record):
            if not nested_records:
                nested_records.extend(annotate_dataset(second, cfg_second, llm, svc))

        assert annotate_dataset(first, cfg_first, llm, svc, progress=start_second) == serial[:6]
        assert nested_records == serial[6:]
        assert counters["it"].peak == 2
        assert counters["other"].peak == 1


class InFlight:
    """Counts the requests in progress at once, to the provider and to Wikipedia; ``peak`` is the most.
    Each takes 5 ms."""

    def __init__(self):
        self.peak = 0
        self._in_flight = 0
        self._lock = threading.Lock()

    @contextmanager
    def request(self):
        with self._lock:
            self._in_flight += 1
            self.peak = max(self.peak, self._in_flight)
        try:
            time.sleep(0.005)
            yield
        finally:
            with self._lock:
                self._in_flight -= 1


class InFlightProvider(FakeProvider):
    def __init__(self, reply, counter):
        super().__init__(reply)
        self.counter = counter

    def send(self, req):
        with self.counter.request():
            return super().send(req)


class InFlightWikiSession(FakeWikiSession):
    def __init__(self, counter, **kwargs):
        super().__init__(**kwargs)
        self.counter = counter

    def get(self, url, **kwargs):
        with self.counter.request():
            return super().get(url, **kwargs)


class TestPipelineConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            config(runs_n=0)
        with pytest.raises(ValueError):
            config(threshold=0.0)
        with pytest.raises(ValueError):
            config(min_similarity=1.5)
        with pytest.raises(ValueError):
            config(max_parallel_items=0)
        with pytest.raises(ValueError, match="model name must not be empty"):
            config(model="")


class TestConnect:
    def test_only_connect_builds_the_clients(self):
        # the CLI and library users take them from connect, so a batch is wired in one place
        assert call_sites(r"\b(LLMClient|KnowledgeService|RateLimiter|WikipediaClient)\(") == {"pipeline.py:connect"}

    def test_only_batch_builds_the_scope_of_a_batch(self):
        # the slots and the stop event of a batch are made together, by the default scope and by annotate_dataset
        assert call_sites(r"threading\.(Semaphore|Event)\(") == {"llm.py:__init__"}
        assert call_sites(r"\bBatch\(") == {"llm.py:None", "pipeline.py:annotate_dataset"}

    def test_clients_follow_the_config(self, cache):
        provider = FakeProvider("reply")
        cfg = config(provider=ProviderConfig("mock", max_retries=0))
        llm, svc = connect(cfg, provider, cache)
        assert (llm.provider, llm.limiter, llm.max_retries) == (provider, None, 0)  # the mock is not rate-limited
        assert (svc.llm, svc.wiki, svc.model) == (llm, None, "m")
        assert svc.cache is llm.cache is cache

        live = ProviderConfig("openai", base_url="http://127.0.0.1:9", requests_per_minute=7, max_retries=5)
        llm, svc = connect(config(model="gpt", provider=live, use_external=True), provider, cache)
        assert isinstance(llm.limiter, RateLimiter) and llm.limiter.requests_per_minute == 7
        assert llm.max_retries == 5
        assert isinstance(svc.wiki, WikipediaClient) and svc.model == "gpt"
        assert svc.cache is llm.cache is cache


# What replies are made of besides slices of the answer: every marker
# alphabet, fences, the reply sentinel, and lone surrogates, raw and escaped.
REPLY_PIECES = ["⟨⟨", "⟩⟩", "«", "»", "<<", ">>", "<", ">", "```", "```json\n", REPLY_SENTINEL, "\n", " ", "\ud800", "\udfff", "\\ud800"]
TEXT_ALPHABET = "".join(SCRIPT_POOLS.values()) + "«»<>⟨⟩`\n"


@st.composite
def answers_and_replies(draw):
    answer = draw(st.text(alphabet=TEXT_ALPHABET, min_size=1, max_size=40))
    cuts = draw(st.lists(st.integers(0, len(answer)), min_size=2, max_size=6))
    slices = [answer] + [answer[a:b] for a, b in zip(cuts, cuts[1:])]
    piece = st.one_of(
        st.sampled_from(REPLY_PIECES), st.sampled_from(slices), st.text(alphabet=TEXT_ALPHABET, max_size=6)
    )
    return answer, "".join(draw(st.lists(piece, max_size=12)))


@settings(deadline=None)
@given(answers_and_replies(), st.sampled_from(["stop", "length"]))
@example(case=("<", "\ud800\udfff"), finish_reason="stop")  # on the wire a valid pair, read back as U+103FF
def test_any_reply_yields_a_run(case, finish_reason):
    # a bad reply costs one vote and never the batch
    answer, reply = case
    item = QAItem(id="p", lang="EN", question="q", answer=answer)
    cfg = config(provider=ProviderConfig("test", base_url="https://api.test/v1", api_key_env="TEST_KEY"))
    payload = json.loads(json.dumps(completion_payload(reply, finish_reason)))  # passed through JSON as on the wire
    session, _ = recording_session(lambda request: http_response(200, payload))
    content = payload["choices"][0]["message"]["content"]  # the reply as decoded from the wire
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as directory:
        mp.setenv("TEST_KEY", "sk-x")
        provider = OpenAIChatProvider(cfg.provider, session=session)
        with closing(JsonFileCache(directory)) as cache:
            prompt = build_main_prompt(item, "expert", None)
            run = _execute_run(item, prompt, "run-0", cfg, LLMClient(provider, cache=cache))
    assert isinstance(run, AnnotationRun)
    assert all(0 <= s.start < s.end <= len(answer) for s in run.spans)
    if finish_reason == "length":
        assert run.outcome == TRUNCATED
    elif any("\ud800" <= ch <= "\udfff" for ch in content):
        assert run.outcome == PROVIDER_ERROR
    else:
        assert run.outcome in (OK, MARKER_ERROR, BELOW_GATE)
    if run.outcome != OK:
        assert run.spans == ()


def test_payload_nested_too_deep_rejects_one_run(monkeypatch, cache):
    session, _ = recording_session(lambda request: wire_response(b'{"choices": ' + nested(3000) + b"}"))
    monkeypatch.setenv("TEST_KEY", "sk-x")
    cfg = config(provider=ProviderConfig("test", base_url="https://api.test/v1", api_key_env="TEST_KEY"))
    provider = OpenAIChatProvider(cfg.provider, session=session)
    item = QAItem(id="d", lang="EN", question="q", answer="an answer")
    run = _execute_run(item, build_main_prompt(item, "expert", None), "run-0", cfg, LLMClient(provider, cache))
    assert run == AnnotationRun(PROVIDER_ERROR)


def test_run_at_the_gate_keeps_its_spans(cache):
    # 55 of 100 characters match: 55/100 >= 0.55, though 0.55 * 100 > 55 in
    # floating point, so the gate must compare the quotient
    assert 55 / 100 >= 0.55 and 0.55 * 100 > 55
    item = QAItem(id="g", lang="EN", question="q", answer="a" * 55 + "b" * 45)
    reply = "⟨⟨" + "a" * 5 + "⟩⟩" + "a" * 50 + "c" * 45
    alignment = align("a" * 55 + "c" * 45, item.answer, 0.55)
    assert alignment.similarity == 0.55
    assert None not in alignment.mapping[:55]  # traced back, not skipped at the gate
    cfg = config(min_similarity=0.55)
    llm = LLMClient(FakeProvider(reply), cache)
    run = _execute_run(item, build_main_prompt(item, "expert", None), "run-0", cfg, llm)
    assert run == AnnotationRun(OK, (SpanLabel(0, 5),))


OUTCOME_ANSWER = "Paris is the capital of France."


@pytest.mark.parametrize(
    "status, reply, finish_reason, outcome, level, spans",
    [
        (500, OUTCOME_ANSWER, "stop", PROVIDER_ERROR, "WARNING", ()),
        (200, OUTCOME_ANSWER, "length", TRUNCATED, "WARNING", ()),
        (200, "⟨⟨" + OUTCOME_ANSWER, "stop", MARKER_ERROR, "DEBUG", ()),
        (200, "Lyon is a city in the south of ⟨⟨France⟩⟩.", "stop", BELOW_GATE, "DEBUG", ()),
        (200, "Paris is the capital of ⟨⟨France⟩⟩.", "stop", OK, None, (SpanLabel(24, 30),)),
    ],
    ids=["http-500", "cut-at-max-tokens", "unbalanced-marker", "rewrite-below-gate", "faithful-copy"],
)
def test_each_reply_ends_in_its_outcome(
    monkeypatch, caplog, cache, status, reply, finish_reason, outcome, level, spans
):
    # one outcome per run, and one log line per rejected run at its level
    monkeypatch.setenv("TEST_KEY", "sk-x")
    caplog.set_level("DEBUG", logger="hallmark.pipeline")
    cfg = config(provider=ProviderConfig("test", base_url="https://api.test/v1", api_key_env="TEST_KEY"))
    session, adapter = recording_session(lambda request: http_response(status, completion_payload(reply, finish_reason)))
    llm = LLMClient(OpenAIChatProvider(cfg.provider, session=session), cache, sleep=lambda _: None)
    item = QAItem(id="o", lang="EN", question="q", answer=OUTCOME_ANSWER)
    run = _execute_run(item, build_main_prompt(item, "expert", None), "run-0", cfg, llm)
    assert run == AnnotationRun(outcome, spans)
    assert len(adapter.sent) == (4 if status == 500 else 1)  # the first attempt and 3 retries
    logged = [(r.levelname, r.getMessage().split(" (")[0]) for r in caplog.records if r.name == "hallmark.pipeline"]
    assert logged == ([] if level is None else [(level, f"item o run-0: {outcome}")])


@pytest.mark.parametrize(
    "reply, copies",
    [
        ("Paris is the capital of ⟨⟨France⟩⟩.", 1),
        (f"Draft:\n{REPLY_SENTINEL} Paris ⟨⟨is⟩⟩ the capital of France.\n{REPLY_SENTINEL} Paris is the capital of ⟨⟨France⟩⟩.", 2),
    ],
    ids=["one-copy", "draft-and-final"],
)
def test_each_copy_is_parsed_and_aligned_once(monkeypatch, reply, copies):
    # the benchmark tracer's hooks; the chosen copy's parse and alignment judge the run, not a second pair
    calls = Counter()

    def counting(name):
        fn = getattr(pipeline, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in ("parse_marked", "align"):
        monkeypatch.setattr(pipeline, name, counting(name))
    assert judged(reply, OUTCOME_ANSWER) == AnnotationRun(OK, (SpanLabel(24, 30),))
    assert calls == {"parse_marked": copies, "align": copies}


def test_traced_entry_points_resolve():
    # the benchmark's tracer patches these names; a rename would otherwise
    # break only traced benchmark runs
    from perfbench.trace import TRACED

    for owner, attr, _ in TRACED:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


class Interrupter:
    """Counts the requests sent to either service; request number ``at`` is
    replaced by a KeyboardInterrupt, as if Ctrl-C landed before it went out."""

    def __init__(self, at=None):
        self.at = at
        self.sent = 0
        self._seen = 0
        self._lock = threading.Lock()

    def request(self):
        with self._lock:
            self._seen += 1
            if self._seen - 1 == self.at:
                raise KeyboardInterrupt
            self.sent += 1


class InterruptibleWiki:
    """Wikipedia whose search for ``keyword`` in ``lang`` finds a page titled
    ``keyword`` when ``pages`` holds its text under ``(lang, keyword)``."""

    def __init__(self, interrupter, pages):
        self.interrupter = interrupter
        self.pages = pages

    def get(self, url, params=None, timeout=None, **settings):
        self.interrupter.request()
        lang = url.split("//")[1].split(".")[0]
        if params.get("list") == "search":
            found = (lang, params["srsearch"]) in self.pages
            payload = {"query": {"search": [{"title": params["srsearch"]}] if found else []}}
        else:
            payload = {"query": {"pages": {"1": {"extract": self.pages.get((lang, params["titles"]), "")}}}}
        return wire_response(json.dumps(payload).encode("utf-8"))


RERUN_KEYWORDS = {"EN": "Ada", "FI": "Bea", "DE": "Cid", "ES": "Dot", "SV": "Eve"}
RERUN_ITEMS = [
    QAItem(id=f"r-{lang}", lang=lang, question=f"Who is {keyword}?", answer=f"{keyword} won {n} medals in the games.")
    for n, (lang, keyword) in enumerate(RERUN_KEYWORDS.items())
]
# A hit in the item's wiki, a hit on the English fallback, a miss in both, a hit again, and a page in the
# item's wiki whose extract is empty, before a hit on the English fallback.
RERUN_PAGES = {
    ("en", "Ada"): "Ada text", ("en", "Bea"): "Bea text", ("es", "Dot"): "Dot text", ("sv", "Eve"): "",
    ("en", "Eve"): "Eve text",
}


def rerun_batch(directory, at=None):
    """Annotate RERUN_ITEMS on the cache in ``directory``; (predictions bytes or None, requests sent)."""
    interrupter = Interrupter(at)
    keywords = {
        render(load_template("extract_keyword"), {"question": f"Who is {keyword}?"}): f"Keyword: {keyword}"
        for keyword in RERUN_KEYWORDS.values()
    }
    mock = MockProvider(rules=[MarkingRule(it.answer, (SpanLabel(0, 3),)) for it in RERUN_ITEMS])

    def reply(req):
        interrupter.request()
        return keywords.get(req.user_prompt) or mock.send(req)

    provider = FakeProvider(reply)
    with closing(JsonFileCache(directory)) as cache:
        llm = LLMClient(provider, cache=cache, sleep=lambda _: None)
        wiki = WikipediaClient(session=InterruptibleWiki(interrupter, RERUN_PAGES), sleep=lambda _: None)
        svc = KnowledgeService(llm, wiki, "m", cache=cache)
        cfg = config(use_external=True, runs_n=3, max_parallel_items=2)
        try:
            records = annotate_dataset(RERUN_ITEMS, cfg, llm, svc)
        except KeyboardInterrupt:
            return None, interrupter.sent
    out = Path(directory) / "pred.jsonl"
    write_predictions(records, out)
    return out.read_bytes(), interrupter.sent


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_rerun_after_an_interrupt_asks_nothing_it_already_knows(data):
    # Every request that came back, to either service, is cached as it
    # does, so the rerun sends exactly the requests the interrupt cut off.
    with tempfile.TemporaryDirectory() as clean, tempfile.TemporaryDirectory() as resumed:
        expected, total = rerun_batch(clean)
        at = data.draw(st.integers(0, total - 1), label="interrupted request")
        interrupted, sent_before = rerun_batch(resumed, at)
        assert interrupted is None
        predictions, sent_after = rerun_batch(resumed)
        assert predictions == expected
        assert sent_before + sent_after == total
        assert rerun_batch(resumed) == (expected, 0)
