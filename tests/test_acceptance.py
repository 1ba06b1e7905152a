"""Acceptance suite: one test per top-level contract of the package.

Each test prints a [PASS] line so a plain ``pytest -s tests/test_acceptance.py``
run reads as a checklist. Derived expectations are computed by the
brute-force references in ``tests/reference.py``, never by the code under
test.
"""

from __future__ import annotations

import itertools
import json
import random
import time

from jsonschema import validate as validate_schema

import hallmark.cli as cli
from hallmark import (
    AnnotationRun,
    GoldRecord,
    MarkingRule,
    MockProvider,
    ProviderConfig,
    QAItem,
    SpanLabel,
    aggregate,
    align,
    annotate_dataset,
    annotate_item,
    evaluate,
    insert_markers,
    iou,
    parse_marked,
    project_spans,
    spearman,
    to_hard_labels,
)
from hallmark.pipeline import PipelineConfig

from .conftest import (
    SCRIPT_POOLS,
    SWIMMER_ANSWER,
    SWIMMER_QUESTION,
    FakeProvider,
    random_nonadjacent_spans,
    random_text,
    swimmer_spans,
)
from .reference import (
    iou_reference,
    lcs_length,
    recount_probs,
    spearman_reference,
)
from .test_cli import (
    PREDICTION_LINE_SCHEMA,
    SAMPLE_ITEMS,
    annotate_args,
    gold_from_predictions,
)
from .test_knowledge import FakeWikiSession
from .test_pipeline import service


def record_pass(name: str) -> None:
    print(f"[PASS] {name}")


def swimmer_item() -> QAItem:
    return QAItem(id="acc-1", lang="EN", question=SWIMMER_QUESTION, answer=SWIMMER_ANSWER)


def mock_config(**kwargs) -> PipelineConfig:
    defaults = dict(model="m", provider=ProviderConfig("mock"), use_external=False)
    defaults.update(kwargs)
    return PipelineConfig(**defaults)


def test_unanimous_replay_end_to_end(cache):
    """Unanimous 12-run marking reproduces the fixture spans perfectly."""
    started = time.monotonic()

    provider = MockProvider(rules=[MarkingRule(SWIMMER_ANSWER, tuple(swimmer_spans()))])
    llm, svc = service(provider, cache)
    record = annotate_item(swimmer_item(), mock_config(), llm, svc)

    expected = swimmer_spans()
    assert list(record.hard_labels) == expected
    assert [SWIMMER_ANSWER[s.start : s.end] for s in record.hard_labels] == [
        "silver",
        "2008",
        "Beijing, China",
    ]
    assert [s.prob for s in record.soft_labels] == [1.0, 1.0, 1.0]
    assert record.runs_used == 12

    gold = GoldRecord(
        id="acc-1",
        lang="EN",
        answer=SWIMMER_ANSWER,
        hard_labels=tuple(expected),
        soft_labels=tuple(SpanLabel(s.start, s.end, 1.0) for s in expected),
    )
    report = evaluate([record], [gold])
    assert report["overall"] == {"mean_iou": 1.0, "mean_cor": 1.0}

    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"replay took {elapsed:.2f}s"
    record_pass(f"unanimous replay: exact spans, IoU=1.0, Cor=1.0 in {elapsed:.2f}s")


def test_aggregation_formula():
    """Vote fractions are exactly k/12; order-free and monotone."""

    def runs_marking(k, span, n=12):
        marked = [AnnotationRun("ok", (SpanLabel(*span),)) for _ in range(k)]
        silent = [AnnotationRun("ok") for _ in range(n - k)]
        return marked + silent

    for k in range(13):
        runs = runs_marking(k, (0, 1))
        probs = aggregate(runs, 5)
        assert probs[0] == k / 12

    rng = random.Random(20250811)
    for _ in range(1000):
        length = rng.randint(1, 25)
        n_runs = rng.randint(1, 10)
        run_list = []
        for _ in range(n_runs):
            spans = tuple(SpanLabel(s, e) for s, e in random_nonadjacent_spans(rng, length))
            run_list.append(AnnotationRun("ok", spans))
        probs = aggregate(run_list, length)

        expected = recount_probs(
            [[(s.start, s.end) for s in r.spans] for r in run_list], length
        )
        assert list(probs) == expected

        char = rng.randrange(length)
        grown = run_list + [AnnotationRun("ok", (SpanLabel(char, char + 1),))]
        assert aggregate(grown, length)[char] >= probs[char]
        silent = run_list + [AnnotationRun("ok")]
        assert aggregate(silent, length)[char] <= probs[char]

        shuffled = list(run_list)
        rng.shuffle(shuffled)
        assert aggregate(shuffled, length) == probs
    record_pass("aggregation formula: k/12 exact, monotone, permutation-invariant (1000 cases)")


def test_metric_oracles():
    """IoU and Spearman match their brute-force references."""
    rng = random.Random(113)

    def random_spans(length):
        return random_nonadjacent_spans(rng, length, max_spans=5)

    for _ in range(1000):
        length = rng.randint(1, 50)
        a, b = random_spans(length), random_spans(length)
        got = iou(
            [SpanLabel(s, e) for s, e in a], [SpanLabel(s, e) for s, e in b], length
        )
        assert abs(got - iou_reference(a, b, length)) <= 1e-12

    grid = [0.0, 0.0, 0.25, 0.25, 0.5, 0.5, 0.75, 1.0]  # deliberate ties
    for _ in range(1000):
        n = rng.randint(1, 50)
        x = [rng.choice(grid) for _ in range(n)]
        y = [rng.choice(grid) for _ in range(n)]
        assert abs(spearman(x, y) - spearman_reference(x, y)) <= 1e-9

    for _ in range(200):
        n = rng.randint(2, 40)
        x = [rng.choice(grid) for _ in range(n)]
        y = [rng.choice(grid) for _ in range(n)]
        cubed = [v**3 for v in x]  # strictly monotone transform
        assert abs(spearman(x, y) - spearman(cubed, y)) <= 1e-9
    record_pass("metric oracles: IoU exact to 1e-12, Spearman within 1e-9, monotone-invariant")


def test_marker_round_trip_multilingual():
    """Insert -> parse -> align -> project recovers spans across scripts."""
    rng = random.Random(424242)
    pools = list(SCRIPT_POOLS.values())
    checked = 0
    for i in range(1000):
        text = random_text(rng, pools[i % len(pools)], min_len=1, max_len=60)
        spans = random_nonadjacent_spans(rng, len(text))
        parsed = parse_marked(insert_markers(text, [SpanLabel(*s) for s in spans]))
        assert parsed.clean_text == text
        alignment = align(parsed.clean_text, text)
        assert alignment.similarity == 1.0
        projected = project_spans(parsed, alignment, text)
        assert [(s.start, s.end) for s in projected] == spans
        checked += 1
    assert checked == 1000

    strings = [
        "".join(t) for n in range(5) for t in itertools.product("abc", repeat=n)
    ]
    for a, b in itertools.product(strings, strings):
        result = align(a, b)
        mapped = [m for m in result.mapping if m is not None]
        assert all(y > x for x, y in zip(mapped, mapped[1:]))
        matches = sum(
            1 for i, m in enumerate(result.mapping) if m is not None and a[i] == b[m]
        )
        expected = lcs_length(a, b)
        assert matches == expected
        assert result.similarity == (expected / max(len(a), len(b)) if a or b else 1.0)
    record_pass(
        "marker round-trip: 1000 multilingual cases exact; alignment matches the "
        f"exhaustive oracle on {len(strings) ** 2} small-string pairs"
    )


def test_threshold_semantics(tmp_path, open_cache):
    """A 7-of-12 vote survives at 0.5 and drops at 0.6."""
    span = swimmer_spans()[0]
    rule = MarkingRule(
        SWIMMER_ANSWER, spans=(span,), per_run={f"run-{i}": () for i in range(7, 12)}
    )

    for threshold, expected in [(0.5, [span]), (0.6, [])]:
        llm, svc = service(MockProvider(rules=[rule]), open_cache(tmp_path / str(threshold)))
        record = annotate_item(
            swimmer_item(), mock_config(threshold=threshold), llm, svc
        )
        assert record.runs_used == 12
        assert list(record.hard_labels) == expected
        if record.soft_labels:
            assert record.soft_labels[0].prob == 7 / 12

    probs = aggregate(
        [AnnotationRun("ok", (span,))] * 7
        + [AnnotationRun("ok")] * 5,
        len(SWIMMER_ANSWER),
    )
    assert to_hard_labels(probs, 0.5) == [span]
    assert to_hard_labels(probs, 0.6) == []
    record_pass("threshold semantics: 7/12 kept at 0.5, dropped at 0.6")


def test_robustness_invalid_runs_shrink_denominator(cache):
    """Broken markers and drifted rewrites drop out of the vote."""
    span = swimmer_spans()[0]

    class SeedScriptedProvider:
        name = "seed-scripted"

        def send(self, req):
            index = int(req.seed_tag.split("-")[1])
            if index == 10:
                return "⟨⟨broken"  # unbalanced markers
            if index == 11:
                return "a wholesale rewrite that shares nothing with the answer"
            if index < 5:
                return insert_markers(SWIMMER_ANSWER, [span])
            return SWIMMER_ANSWER

    llm, svc = service(SeedScriptedProvider(), cache)
    record = annotate_item(swimmer_item(), mock_config(use_roles=False), llm, svc)
    assert record.runs_used == 10
    assert record.soft_labels == (SpanLabel(span.start, span.end, 0.5),)
    allowed = {k / 10 for k in range(11)}
    assert all(s.prob in allowed for s in record.soft_labels)
    assert record.hard_labels == (span,)
    record_pass("robustness: 2 invalid runs excluded, probabilities in tenths of 10")


def test_cli_contract(tmp_path, built_mocks, capsys):
    """annotate + evaluate on the bundled sample: exit 0, valid JSONL,
    perfect self-comparison, cached rerun."""
    assert cli.main(annotate_args(tmp_path)) == 0
    pred_path = tmp_path / "pred.jsonl"
    lines = pred_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 10
    for line in lines:
        validate_schema(json.loads(line), PREDICTION_LINE_SCHEMA)

    gold_path = tmp_path / "gold.jsonl"
    gold_from_predictions(pred_path, SAMPLE_ITEMS, gold_path)
    report_path = tmp_path / "report.json"
    assert (
        cli.main(
            [
                "evaluate",
                "--pred", str(pred_path),
                "--gold", str(gold_path),
                "--report", str(report_path),
            ]
        )
        == 0
    )
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["overall"] == {"mean_iou": 1.0, "mean_cor": 1.0}

    assert cli.main(annotate_args(tmp_path)) == 0
    assert built_mocks[1].call_count == 0
    capsys.readouterr()
    record_pass("CLI contract: exit 0, schema-valid output, all-1.0 self-report, cached rerun")


def test_knowledge_chain_degradation(tmp_path, open_cache):
    """A dead Wikipedia only removes the knowledge section of the prompt."""
    items = [swimmer_item()]
    rule = MarkingRule(SWIMMER_ANSWER, tuple(swimmer_spans()))

    def run(session, cache):
        provider = FakeProvider(MockProvider(rules=[rule]).send)
        llm, svc = service(provider, cache, wiki_session=session)
        records = annotate_dataset(
            items, mock_config(use_external=True), llm, svc
        )
        prompts = {
            c.seed_tag: c.user_prompt
            for c in provider.calls
            if c.seed_tag.startswith("run-")
        }
        return records, prompts

    working = FakeWikiSession(
        search_results={"en": ["Hit"]}, extracts={("en", "Hit"): "useful facts"}
    )
    broken = FakeWikiSession(fail=True)

    records_ok, prompts_ok = run(working, open_cache(tmp_path / "working"))
    records_degraded, prompts_degraded = run(broken, open_cache(tmp_path / "broken"))

    assert records_degraded[0].runs_used == 12
    assert records_degraded == records_ok

    assert prompts_ok.keys() == prompts_degraded.keys()
    for tag in prompts_ok:
        head_ok, rest_ok = prompts_ok[tag].split("External knowledge:\n", 1)
        knowledge_ok, tail_ok = rest_ok.split("\n\nQuestion", 1)
        head_deg, rest_deg = prompts_degraded[tag].split("External knowledge:\n", 1)
        knowledge_deg, tail_deg = rest_deg.split("\n\nQuestion", 1)
        assert head_ok == head_deg
        assert tail_ok == tail_deg
        assert knowledge_ok != knowledge_deg
        assert "No external knowledge" in knowledge_deg
    record_pass("knowledge degradation: annotation completes; prompts differ only in the knowledge section")
