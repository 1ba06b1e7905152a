from __future__ import annotations

import json
import time

import pytest

from hallmark import (
    JsonFileCache,
    OpenAIChatProvider,
    LLMClient,
    MarkingRule,
    MockProvider,
    ProviderConfig,
    QAItem,
    annotate_dataset,
    annotate_item,
    build_main_prompt,
)
from hallmark.errors import AuthError
from hallmark.knowledge import KnowledgeService, WikipediaClient
from hallmark.pipeline import PipelineConfig, extract_final_marked
from hallmark.prompts import NO_KNOWLEDGE_SENTINEL

from .conftest import SWIMMER_ANSWER, SWIMMER_QUESTION, swimmer_spans
from .test_marking import MARKER_LIKE_CASES, hallucinated_spans
from .test_knowledge import FakeWikiSession
from .test_llm import FakeResponse, completion_payload


def config(**kwargs):
    defaults = dict(model="m", provider=ProviderConfig("mock"), use_external=False)
    defaults.update(kwargs)
    return PipelineConfig(**defaults)


def swimmer():
    return QAItem(id="s1", lang="EN", question=SWIMMER_QUESTION, answer=SWIMMER_ANSWER)


def service(provider, cache=None, wiki_session=None):
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


class TestExtractFinalMarked:
    def test_takes_text_after_last_sentinel(self):
        reply = "thinking...\nRevised answer: first\nmore\nRevised answer: ⟨⟨x⟩⟩ final"
        assert extract_final_marked(reply) == "⟨⟨x⟩⟩ final"

    def test_whole_reply_without_sentinel(self):
        assert extract_final_marked("  just the answer \n") == "just the answer"

    def test_strips_code_fences(self):
        assert extract_final_marked("```\nmarked text\n```") == "marked text"


class TestAnnotateItem:
    def test_unanimous_marking(self):
        provider = MockProvider(rules=[MarkingRule(SWIMMER_ANSWER, tuple(swimmer_spans()))])
        llm, svc = service(provider)
        record = annotate_item(swimmer(), config(), llm, svc)
        assert [(s.start, s.end) for s in record.hard_labels] == swimmer_spans()
        assert all(s.prob == 1.0 for s in record.soft_labels)
        assert record.runs_used == 12
        covered = [SWIMMER_ANSWER[s.start : s.end] for s in record.hard_labels]
        assert covered == ["silver", "2008", "Beijing, China"]

    def test_split_vote_seven_of_twelve(self):
        silver = swimmer_spans()[0]
        rule = MarkingRule(
            SWIMMER_ANSWER,
            spans=(silver,),
            per_run={f"run-{i}": () for i in range(7, 12)},
        )
        llm, svc = service(MockProvider(rules=[rule]))

        record = annotate_item(swimmer(), config(threshold=0.5), llm, svc)
        assert record.runs_used == 12
        assert [(s.start, s.end) for s in record.hard_labels] == [silver]
        assert record.soft_labels[0].prob == 7 / 12

        record = annotate_item(swimmer(), config(threshold=0.6), llm, svc)
        assert record.hard_labels == ()

    def test_all_runs_unparseable(self):
        provider = MockProvider(default_reply="⟨⟨broken")
        llm, svc = service(provider)
        record = annotate_item(swimmer(), config(), llm, svc)
        assert record.runs_used == 0
        assert record.hard_labels == ()
        assert record.soft_labels == ()

    def test_wholesale_rewrite_rejected(self):
        provider = MockProvider(default_reply="something else entirely")
        llm, svc = service(provider)
        record = annotate_item(swimmer(), config(), llm, svc)
        assert record.runs_used == 0

    def test_empty_answer_skipped(self):
        item = QAItem(id="e", lang="EN", question="q", answer="")
        provider = MockProvider(default_reply="")
        llm, svc = service(provider)
        record = annotate_item(item, config(), llm, svc)
        assert record.runs_used == 0
        assert provider.call_count == 0

    def test_roles_assigned_round_robin(self):
        provider = MockProvider(
            rules=[MarkingRule(SWIMMER_ANSWER, ())], roles_reply=("R0", "R1", "R2")
        )
        llm, svc = service(provider)
        annotate_item(swimmer(), config(runs_n=6), llm, svc)
        annotation_calls = [c for c in provider.calls if c.seed_tag.startswith("run-")]
        assert len(annotation_calls) == 6
        roles_seen = []
        for call in sorted(annotation_calls, key=lambda c: int(c.seed_tag.split("-")[1])):
            for role in ("R0", "R1", "R2"):
                if f"You are a {role}." in call.user_prompt:
                    roles_seen.append(role)
        assert roles_seen == ["R0", "R1", "R2", "R0", "R1", "R2"]

    def test_soft_probs_are_fractions_of_runs_used(self):
        silver, year, place = swimmer_spans()
        rule = MarkingRule(
            SWIMMER_ANSWER,
            spans=(silver,),
            per_run={"run-1": (silver, year), "run-2": (place,), "run-3": ()},
        )
        llm, svc = service(MockProvider(rules=[rule]))
        record = annotate_item(swimmer(), config(runs_n=8), llm, svc)
        assert record.runs_used == 8
        allowed = {k / 8 for k in range(1, 9)}
        assert all(s.prob in allowed for s in record.soft_labels)

    def test_bare_baseline_prompt(self):
        # with roles and external knowledge both off, every run gets the
        # default role and the no-knowledge sentinel
        provider = MockProvider(rules=[MarkingRule(SWIMMER_ANSWER, ())])
        llm, svc = service(provider)
        annotate_item(swimmer(), config(use_roles=False, runs_n=3), llm, svc)
        prompts = [c.user_prompt for c in provider.calls]
        assert len(prompts) == 3
        for prompt in prompts:
            assert prompt.startswith("You are a fact-checking expert.")
            assert NO_KNOWLEDGE_SENTINEL in prompt
        assert len(set(prompts)) == 1

    def test_hard_labels_covered_by_strong_soft_labels(self):
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
        llm, svc = service(MockProvider(rules=[rule]))
        cfg = config(threshold=0.5)
        record = annotate_item(swimmer(), cfg, llm, svc)
        from hallmark import spans_to_charset

        n = len(SWIMMER_ANSWER)
        hard_chars = spans_to_charset(record.hard_labels, n)
        strong_soft = [s for s in record.soft_labels if s.prob >= cfg.threshold]
        assert hard_chars <= spans_to_charset(strong_soft, n)

    @pytest.mark.parametrize("case", MARKER_LIKE_CASES, ids=lambda c: c["id"])
    def test_marker_like_answer_labels_only_marked_terms(self, case):
        # « » and << in the answer itself are text, not markers: a verbatim
        # copy is a valid run that labels nothing the annotator left unmarked
        answer = case["answer"]
        rule = MarkingRule(answer, tuple(hallucinated_spans(case)))
        llm, svc = service(MockProvider(rules=[rule]))
        item = QAItem(id=case["id"], lang=case["lang"], question="q", answer=answer)
        record = annotate_item(item, config(use_roles=False, runs_n=3), llm, svc)
        assert record.runs_used == 3
        assert [answer[s.start : s.end] for s in record.hard_labels] == case["hallucinated"]

    def test_marking_with_the_answers_own_alphabet_rejects_the_run(self):
        # run-0 marks with the « » the answer already holds: that run is
        # rejected and leaves the vote denominator
        answer = "Le roman « Les Misérables » est de Hugo."

        class GuillemetsOnFirstRun:
            name = "scripted"

            def send(self, req):
                marks = ("«", "»") if req.seed_tag == "run-0" else ("⟨⟨", "⟩⟩")
                return answer.replace("Hugo", "Hugo".join(marks))

        llm, svc = service(GuillemetsOnFirstRun())
        item = QAItem(id="fr", lang="FR", question="q", answer=answer)
        record = annotate_item(item, config(use_roles=False, runs_n=3), llm, svc)
        assert record.runs_used == 2
        assert [(answer[s.start : s.end], s.prob) for s in record.soft_labels] == [("Hugo", 1.0)]

    def test_null_content_rejects_one_run(self, tmp_path, monkeypatch):
        # an OpenAI-compatible endpoint may answer ``"content": null`` (a
        # refusal or a content filter); that run is rejected, uncached
        class NullFirstSession:
            def __init__(self):
                self.posts = 0

            def post(self, url, json=None, headers=None, timeout=None):
                self.posts += 1
                content = None if self.posts == 1 else "Petra van Stoveren won a ⟨⟨silver⟩⟩ medal"
                return FakeResponse(200, completion_payload(content))

        monkeypatch.setenv("TEST_KEY", "sk-x")
        provider = OpenAIChatProvider(
            ProviderConfig("test", base_url="https://api.test/v1", api_key_env="TEST_KEY"),
            session=NullFirstSession(),
        )
        cache = JsonFileCache(tmp_path)
        llm = LLMClient(provider, cache=cache, sleep=lambda _: None)
        item = QAItem(id="n", lang="EN", question="q", answer="Petra van Stoveren won a silver medal")
        (record,) = annotate_dataset([item], config(use_roles=False, runs_n=4), llm, None)
        assert record.runs_used == 3
        assert [item.answer[s.start : s.end] for s in record.hard_labels] == ["silver"]
        entries = [json.loads(p.read_text(encoding="utf-8")) for p in tmp_path.iterdir()]
        assert len(entries) == 3
        assert all(isinstance(e["text"], str) for e in entries)

    def test_auth_error_propagates(self):
        class AngryProvider:
            name = "angry"

            def send(self, req):
                raise AuthError("key rejected")

        llm = LLMClient(AngryProvider(), sleep=lambda _: None)
        _, svc = service(MockProvider(default_reply=""))
        with pytest.raises(AuthError):
            annotate_item(swimmer(), config(use_roles=False), llm, None)


class TestAnnotateDataset:
    def make_items(self, n=6):
        items = []
        for i in range(n):
            answer = f"answer number {i} has some words in it."
            items.append(QAItem(id=f"it-{i}", lang="EN", question=f"q{i}", answer=answer))
        return items

    def rules_for(self, items):
        return [MarkingRule(it.answer, ((0, 6),)) for it in items]

    def test_order_preserved(self, tmp_path):
        items = self.make_items()
        provider = MockProvider(rules=self.rules_for(items))
        llm, svc = service(provider, cache=JsonFileCache(tmp_path))
        records = annotate_dataset(items, config(), llm, svc)
        assert [r.id for r in records] == [it.id for it in items]

    def test_rerun_is_fully_cached(self, tmp_path):
        items = self.make_items()
        cache = JsonFileCache(tmp_path)
        provider = MockProvider(rules=self.rules_for(items))
        llm, svc = service(provider, cache=cache)
        first = annotate_dataset(items, config(), llm, svc)
        calls = provider.call_count
        second = annotate_dataset(items, config(), llm, svc)
        assert second == first
        assert provider.call_count == calls

    def test_parallel_matches_serial(self, tmp_path):
        items = self.make_items()
        provider = MockProvider(rules=self.rules_for(items))
        llm, svc = service(provider)
        serial = annotate_dataset(items, config(), llm, svc)
        parallel = annotate_dataset(items, config(max_parallel_items=3), llm, svc)
        assert parallel == serial

    def test_no_external_means_no_wiki_traffic(self):
        items = self.make_items(3)
        session = FakeWikiSession(search_results={"en": ["Hit"]}, extracts={("en", "Hit"): "t"})
        provider = MockProvider(rules=self.rules_for(items))
        llm, svc = service(provider, wiki_session=session)
        annotate_dataset(items, config(use_external=False), llm, svc)
        assert session.calls == []

    def test_progress_callback_in_order(self):
        items = self.make_items(4)
        provider = MockProvider(rules=self.rules_for(items))
        llm, svc = service(provider)
        seen = []
        annotate_dataset(items, config(), llm, svc, progress=lambda r: seen.append(r.id))
        assert seen == [it.id for it in items]

    def start_order(self, provider, items):
        """Item ids in the order their first annotation call was sent."""
        firsts = [c.user_prompt for c in provider.calls if c.seed_tag == "run-0"]
        return [next(it.id for it in items if it.answer in p) for p in firsts]

    def test_longest_answer_starts_first(self):
        items = [
            QAItem(id=f"len-{n}", lang="EN", question="q", answer=f"item {n}: " + "word " * n)
            for n in (1, 4, 2, 8)
        ]
        provider = MockProvider(rules=self.rules_for(items))
        llm, svc = service(provider)
        records = annotate_dataset(items, config(max_parallel_items=1), llm, svc)
        assert self.start_order(provider, items) == ["len-8", "len-4", "len-2", "len-1"]
        assert [r.id for r in records] == [it.id for it in items]

    def test_equal_lengths_start_in_input_order(self):
        items = self.make_items(5)[::-1]
        provider = MockProvider(rules=self.rules_for(items))
        llm, svc = service(provider)
        annotate_dataset(items, config(max_parallel_items=1), llm, svc)
        assert self.start_order(provider, items) == [it.id for it in items]

    def test_repeated_item_gets_one_record_per_position(self):
        a, b = self.make_items(2)
        provider = MockProvider(rules=self.rules_for([a, b]))
        llm, svc = service(provider)
        records = annotate_dataset([a, b, a], config(max_parallel_items=2), llm, svc)
        assert [r.id for r in records] == ["it-0", "it-1", "it-0"]
        assert records[0] == records[2]

    def slow_provider(self, exc=None):
        class SlowProvider(MockProvider):
            def send(self, req):
                time.sleep(0.02)
                reply = super().send(req)
                if exc is not None:
                    raise exc
                return reply

        return SlowProvider(default_reply="")

    def test_auth_error_stops_the_batch(self):
        items = self.make_items(20)
        provider = self.slow_provider(AuthError("key rejected"))
        llm = LLMClient(provider, sleep=lambda _: None)
        with pytest.raises(AuthError):
            annotate_dataset(items, config(use_roles=False, max_parallel_items=1), llm, None)
        assert provider.call_count <= 2

    def test_interrupt_stops_the_batch(self):
        items = self.make_items(10)
        provider = self.slow_provider()
        llm = LLMClient(provider, sleep=lambda _: None)

        def interrupt(record):
            raise KeyboardInterrupt

        cfg = config(use_roles=False, runs_n=2, max_parallel_items=1)
        with pytest.raises(KeyboardInterrupt):
            annotate_dataset(items, cfg, llm, None, progress=interrupt)
        assert len({c.user_prompt for c in provider.calls}) <= 2


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
