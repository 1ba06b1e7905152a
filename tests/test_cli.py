from __future__ import annotations

import importlib
import json
import os
import re
import shlex
import shutil
import sqlite3
import stat
from pathlib import Path

import pytest
from jsonschema import validate as validate_schema

import hallmark.cli as cli
import hallmark.jsonl
import hallmark.knowledge
import hallmark.llm
import hallmark.pipeline
from hallmark import SpanLabel, read_items, read_predictions
from hallmark.errors import CacheError
from hallmark.jsonl import prediction_to_dict

from .conftest import FakeProvider, cache_rows, nested
from .test_knowledge import FakeWikiSession

SAMPLE_DIR = Path(__file__).resolve().parent.parent / "data" / "sample"
SAMPLE_ITEMS = SAMPLE_DIR / "items.jsonl"
SAMPLE_FIXTURE = SAMPLE_DIR / "mock_fixture.json"
GOLDEN_PREDICTIONS = Path(__file__).resolve().parent / "data" / "sample_predictions.jsonl"
README = Path(__file__).resolve().parent.parent / "README.md"

PREDICTION_LINE_SCHEMA = {
    "type": "object",
    "required": ["id", "lang", "hard_labels", "soft_labels"],
    "properties": {
        "id": {"type": "string"},
        "lang": {"type": "string"},
        "hard_labels": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "integer"},
                "minItems": 2,
                "maxItems": 2,
            },
        },
        "soft_labels": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["start", "end", "prob"],
                "properties": {
                    "start": {"type": "integer"},
                    "end": {"type": "integer"},
                    "prob": {"type": "number", "minimum": 0, "maximum": 1},
                },
            },
        },
        "runs_used": {"type": "integer", "minimum": 0},
    },
}


NOT_UTF8_ITEM = b'{"id":"a","lang":"EN","model_input":"q","model_output_text":"\xff"}\n'
DEEP_ITEM = b'{"id":"a","lang":"EN","model_input":' + nested(5000) + b',"model_output_text":"x"}\n'


def annotate_args(tmp_path, out_name="pred.jsonl", *extra, items=SAMPLE_ITEMS):
    return [
        "annotate",
        "--input", str(items),
        "--output", str(tmp_path / out_name),
        "--provider", "mock",
        "--mock-fixture", str(SAMPLE_FIXTURE),
        "--cache-dir", str(tmp_path / "cache"),
        "--no-external",
        *extra,
    ]


def fixture_for_runs(tmp_path, runs_n):
    """The sample fixture with only the ``per_run`` tags of ``runs_n`` runs; returns its path."""
    fixture = json.loads(SAMPLE_FIXTURE.read_text(encoding="utf-8"))
    for entry in fixture.values():
        if "per_run" in entry:
            entry["per_run"] = {f"run-{i}": entry["per_run"][f"run-{i}"] for i in range(runs_n)}
    path = tmp_path / f"fixture-{runs_n}.json"
    path.write_text(json.dumps(fixture), encoding="utf-8")
    return path


def gold_from_predictions(pred_path, items_path, gold_path):
    """Self-comparison gold: sample answers plus the predicted labels."""
    answers = {item.id: item for item in read_items(items_path)}
    with open(gold_path, "w", encoding="utf-8") as fh:
        for record in read_predictions(pred_path):
            item = answers[record.id]
            fh.write(
                json.dumps(
                    {
                        "id": record.id,
                        "lang": record.lang,
                        "model_input": item.question,
                        "model_output_text": item.answer,
                        "hard_labels": [[s.start, s.end] for s in record.hard_labels],
                        "soft_labels": [
                            {"start": s.start, "end": s.end, "prob": s.prob}
                            for s in record.soft_labels
                        ],
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )


# A config file setting every key that has a flag, to a value no flag below uses.
SETTINGS_FILE = {
    "model": "file-model", "runs_n": 5, "threshold": 0.75, "min_similarity": 0.9,
    "use_roles": True, "use_external": True, "max_parallel_items": 2,
    "provider": {"name": "file-provider", "base_url": "http://localhost:1/file", "api_key_env": "HALLMARK_FILE_KEY"},
}


def flat_settings(settings):
    """``settings`` (a config-file dict or a PipelineConfig) as {key: value}, provider keys dotted."""
    get = dict.get if isinstance(settings, dict) else getattr
    flat = {key: get(settings, key) for key in SETTINGS_FILE if key != "provider"}
    flat.update((f"provider.{key}", get(get(settings, "provider"), key)) for key in SETTINGS_FILE["provider"])
    return flat


def settings_after(tmp_path, monkeypatch, file_cfg, flags):
    """The settings ``annotate`` runs with, given a config file and flags; nothing is annotated."""
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(file_cfg), encoding="utf-8")
    monkeypatch.setenv("HALLMARK_FILE_KEY", "file-key")
    monkeypatch.setenv("HALLMARK_FLAG_KEY", "flag-key")
    seen = []
    monkeypatch.setattr(hallmark.pipeline, "annotate_dataset", lambda items, cfg, *a, **kw: seen.append(cfg) or [])
    code = cli.main([
        "annotate", "--input", str(SAMPLE_ITEMS), "--output", str(tmp_path / "p.jsonl"),
        "--cache-dir", str(tmp_path / "cache"), "--config", str(path), *flags,
    ])
    assert code == 0
    return flat_settings(seen[0])


class TestAnnotateCommand:
    def test_mock_sample_smoke(self, tmp_path, capsys):
        code = cli.main(annotate_args(tmp_path))
        out = capsys.readouterr().out
        assert code == 0
        lines = (tmp_path / "pred.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 10
        for line in lines:
            validate_schema(json.loads(line), PREDICTION_LINE_SCHEMA)
        assert "[10/10]" in out
        assert "0 failures" in out

    def test_marked_spans_present(self, tmp_path):
        cli.main(annotate_args(tmp_path))
        records = {r.id: r for r in read_predictions(tmp_path / "pred.jsonl")}
        en1 = records["sample-en-1"]
        assert [(s.start, s.end) for s in en1.hard_labels] == [(25, 31), (45, 49), (69, 83)]
        # split-vote item: 7 of 12 runs marked the year
        en2 = records["sample-en-2"]
        assert en2.soft_labels[0].prob == 7 / 12
        assert len(en2.hard_labels) == 1

    def test_rerun_hits_cache(self, tmp_path, built_mocks):
        assert cli.main(annotate_args(tmp_path)) == 0
        assert built_mocks[0].call_count > 0
        assert cli.main(annotate_args(tmp_path)) == 0
        assert built_mocks[1].call_count == 0

    def test_integer_temperature_hits_the_cache_of_its_float(self, tmp_path, built_mocks):
        # a config file's 1 and the default 1.0 are one temperature: same cache keys
        assert cli.main(annotate_args(tmp_path)) == 0
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"temperature": 1}), encoding="utf-8")
        assert cli.main(annotate_args(tmp_path, "pred.jsonl", "--config", str(config))) == 0
        assert built_mocks[1].call_count == 0

    def test_runs_flag_controls_vote_granularity(self, tmp_path):
        cli.main(annotate_args(tmp_path, "pred4.jsonl", "--runs", "4", "--mock-fixture", str(fixture_for_runs(tmp_path, 4))))
        allowed = {0.25, 0.5, 0.75, 1.0}
        for record in read_predictions(tmp_path / "pred4.jsonl"):
            assert record.runs_used == 4
            assert all(s.prob in allowed for s in record.soft_labels)

    def test_missing_api_key_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        code = cli.main([
            "annotate",
            "--input", str(SAMPLE_ITEMS),
            "--output", str(tmp_path / "p.jsonl"),
            "--provider", "openai",
            "--model", "gpt-4o-mini",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 3
        assert "OPENAI_API_KEY" in capsys.readouterr().err

    def test_provider_without_api_key_env_exits_3(self, tmp_path, capsys):
        code = cli.main([
            "annotate", "--input", str(SAMPLE_ITEMS), "--output", str(tmp_path / "p.jsonl"),
            "--provider", "custom", "--base-url", "https://a.example", "--model", "m",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 3
        assert capsys.readouterr().err == "error: provider 'custom' has no api_key_env configured\n"
        assert not (tmp_path / "p.jsonl").exists()

    def test_partial_failure_exits_2(self, tmp_path, monkeypatch, capsys):
        items = tmp_path / "items.jsonl"
        items.write_text(
            '{"id":"ok","lang":"EN","model_input":"q","model_output_text":"fine answer"}\n'
            '{"id":"broken","lang":"EN","model_input":"q","model_output_text":"broken answer"}\n'
            '{"id":"empty","lang":"EN","model_input":"q","model_output_text":""}\n',
            encoding="utf-8",
        )
        # every run on the broken item replies with unbalanced markers
        mock_provider = hallmark.llm.MockProvider

        def build(rules):
            mock = mock_provider(rules=rules)

            def send(req):
                broken = req.seed_tag.startswith("run-") and "broken answer" in req.user_prompt
                return "⟨⟨broken" if broken else mock.send(req)

            return FakeProvider(send)

        monkeypatch.setattr(hallmark.llm, "MockProvider", build)
        code = cli.main([
            "annotate",
            "--input", str(items),
            "--output", str(tmp_path / "p.jsonl"),
            "--provider", "mock",
            "--cache-dir", str(tmp_path / "cache"),
            "--no-external",
        ])
        assert code == 2
        out = capsys.readouterr().out
        assert "broken runs_used=0 hard=0 (unannotated)" in out and "1 failures" in out
        # an item no run voted on, and one with nothing to vote on, write these exact lines
        assert (tmp_path / "p.jsonl").read_text(encoding="utf-8").splitlines()[1:] == [
            '{"id":"broken","lang":"EN","hard_labels":[],"soft_labels":[],"runs_used":0,"model_output_text":"broken answer"}',
            '{"id":"empty","lang":"EN","hard_labels":[],"soft_labels":[],"runs_used":0,"model_output_text":""}',
        ]

    def test_empty_answer_counts_as_annotated(self, tmp_path, capsys):
        # an empty answer needs no run: its record has runs_used 0 and no labels, and is no failure
        items = tmp_path / "items.jsonl"
        empty = '{"id":"empty","lang":"EN","model_input":"q","model_output_text":""}\n'
        items.write_text(SAMPLE_ITEMS.read_text(encoding="utf-8") + empty, encoding="utf-8")
        assert cli.main(annotate_args(tmp_path, items=items)) == 0
        out = capsys.readouterr().out
        assert "empty runs_used=0 hard=0\n" in out and "(unannotated)" not in out
        assert "(mean runs used 12.0, 0 failures)" in out
        record = read_predictions(tmp_path / "pred.jsonl")[-1]
        assert (record.id, record.runs_used, record.hard_labels, record.soft_labels) == ("empty", 0, (), ())

    def test_batch_of_empty_answers_averages_no_runs(self, tmp_path, capsys):
        items = tmp_path / "items.jsonl"
        items.write_text('{"id":"empty","lang":"EN","model_input":"q","model_output_text":""}\n', encoding="utf-8")
        fixture = tmp_path / "fixture.json"
        fixture.write_text('{"empty": {"spans": []}}', encoding="utf-8")
        args = annotate_args(tmp_path, items=items)
        args[args.index("--mock-fixture") + 1] = str(fixture)
        assert cli.main(args) == 0
        assert "(mean runs used 0.0, 0 failures)" in capsys.readouterr().out

    def test_answer_holding_the_reply_sentinel_is_annotated(self, tmp_path, capsys):
        # the mock's reply is the marked answer alone, so the answer's own sentinel is no cut point
        answer = "The memoir Revised answer: A Life was published in 1990 by Penguin."
        items = tmp_path / "items.jsonl"
        item = {"id": "memoir", "lang": "EN", "model_input": "When was A Life published?", "model_output_text": answer}
        items.write_text(json.dumps(item) + "\n", encoding="utf-8")
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps({"memoir": {"spans": [[51, 55]]}}), encoding="utf-8")
        args = annotate_args(tmp_path, items=items)
        args[args.index("--mock-fixture") + 1] = str(fixture)
        assert cli.main(args) == 0
        assert "[1/1] memoir runs_used=12 hard=1" in capsys.readouterr().out
        [record] = read_predictions(tmp_path / "pred.jsonl")
        assert [(s.start, s.end) for s in record.hard_labels] == [(51, 55)]

    def test_repeated_item_id_exits_1_before_any_request(self, tmp_path, capsys, built_mocks):
        items = tmp_path / "items.jsonl"
        line = '{{"id":"{}","lang":"EN","model_input":"q","model_output_text":"an answer"}}\n'
        items.write_text(line.format("d") + line.format("e") + "\n" + line.format("d"), encoding="utf-8")
        assert cli.main(annotate_args(tmp_path, items=items)) == 1
        assert capsys.readouterr().err == f"error: {items}:4: id 'd' is already on line 1\n"
        assert built_mocks == []
        assert not (tmp_path / "pred.jsonl").exists()

    @pytest.mark.parametrize(
        "output, error",
        [("missing-dir/out.jsonl", "[Errno 2] No such file or directory"), ("a-dir", "[Errno 21] Is a directory")],
        ids=["missing-directory", "a-directory"],
    )
    def test_unwritable_output_exits_1_before_any_request(self, tmp_path, capsys, built_mocks, output, error):
        (tmp_path / "a-dir").mkdir()
        output = tmp_path / output
        args = annotate_args(tmp_path)
        args[args.index("--output") + 1] = str(output)
        assert cli.main(args) == 1
        assert capsys.readouterr().err == f"error: {error}: '{output}'\n"
        assert [mock.call_count for mock in built_mocks] == [0]
        assert not (tmp_path / "cache").exists()

    def test_failed_write_leaves_the_old_output_as_it_was(self, tmp_path, monkeypatch, capsys):
        output = tmp_path / "pred.jsonl"
        output.write_bytes(b'{"old": "predictions"}\n')
        written = []

        def disk_full_at_the_third(record):
            written.append(record)
            if len(written) == 3:
                raise OSError(28, "No space left on device")
            return prediction_to_dict(record)

        monkeypatch.setattr(hallmark.jsonl, "prediction_to_dict", disk_full_at_the_third)
        assert cli.main(annotate_args(tmp_path)) == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert output.read_bytes() == b'{"old": "predictions"}\n'
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cache", "pred.jsonl"]  # no temporary file left

    def test_output_replaced_whole_gets_the_mode_of_a_new_file(self, tmp_path):
        # the records go to a temporary file first; the output keeps the mode ``open(path, "w")`` would give it
        output = tmp_path / "pred.jsonl"
        output.write_bytes(b"old\n")
        assert cli.main(annotate_args(tmp_path)) == 0
        assert output.read_bytes() == GOLDEN_PREDICTIONS.read_bytes()
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(output.stat().st_mode) == 0o666 & ~umask

    def test_lone_surrogate_in_an_answer_is_an_error_line(self, tmp_path, capsys):
        # valid JSON, but no UTF-8 text: cache keys could not be made from it
        items = tmp_path / "items.jsonl"
        items.write_text('{"id":"s","lang":"EN","model_input":"q","model_output_text":"a \\ud800 b"}\n', encoding="utf-8")
        assert cli.main(annotate_args(tmp_path, items=items)) == 1
        err = capsys.readouterr().err
        assert err == f"error: {items}:1: 'model_output_text' must be str, got \"a \\ud800 b\"\n"
        assert not (tmp_path / "pred.jsonl").exists()

    # Outside input that is not UTF-8, or nests deeper than the recursion limit, in each
    # file annotate and evaluate read, and in a flag: one error line naming where it was.
    @pytest.mark.parametrize(
        "flag, given, error",
        [
            ("--input", NOT_UTF8_ITEM, "{path}:1: 'utf-8' codec can't decode byte 0xff"),
            ("--input", DEEP_ITEM, "{path}:1: JSON nested too deep"),
            ("--pred", NOT_UTF8_ITEM, "{path}:1: 'utf-8' codec can't decode byte 0xff"),
            ("--gold", NOT_UTF8_ITEM, "{path}:1: 'utf-8' codec can't decode byte 0xff"),
            ("--config", b'{"model": "m\xff"}', "cannot read config file {path}: 'utf-8' codec can't decode"),
            ("--config", b'{"runs_n": ' + nested(5000) + b"}", "cannot read config file {path}: JSON nested too deep"),
            ("--mock-fixture", b'{"sample-en-1": ' + nested(5000) + b"}", "bad mock fixture {path}: JSON nested too deep"),
            ("--model", "m\udcff", "flag value for 'model' must be a string"),  # argv bytes m 0xff
        ],
        ids=["input-not-utf8", "input-deep", "pred-not-utf8", "gold-not-utf8", "config-not-utf8", "config-deep",
             "fixture-deep", "model-not-utf8"],
    )
    def test_bad_outside_input_is_one_error_line(self, tmp_path, capsys, flag, given, error):
        path = tmp_path / "given"
        if isinstance(given, bytes):
            path.write_bytes(given)
            given = str(path)
        if flag in ("--pred", "--gold"):
            args = ["evaluate", "--pred", str(GOLDEN_PREDICTIONS), "--gold", str(GOLDEN_PREDICTIONS),
                    "--report", str(tmp_path / "out")]
        else:
            args = annotate_args(tmp_path, "out")
        if flag in args:
            args[args.index(flag) + 1] = given
        else:
            args += [flag, given]
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: " + error.format(path=path))
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_unusable_api_key_exits_3_without_printing_it(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HALLMARK_TEST_KEY", "sk-secret\n")
        code = cli.main([
            "annotate", "--input", str(SAMPLE_ITEMS), "--output", str(tmp_path / "p.jsonl"),
            "--provider", "test", "--base-url", "http://127.0.0.1:9/v1", "--api-key-env", "HALLMARK_TEST_KEY",
            "--model", "m", "--no-external", "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 3
        captured = capsys.readouterr()
        assert "HALLMARK_TEST_KEY" in captured.err
        assert "secret" not in captured.out + captured.err
        assert not (tmp_path / "p.jsonl").exists()

    def test_no_external_means_zero_wiki_calls(self, tmp_path, monkeypatch):
        counters = []

        class CountingWiki:
            def __init__(self, *a, **k):
                self.calls = 0
                counters.append(self)

            def search_first_title(self, keyword, lang):
                self.calls += 1
                return "Hit"

            def fetch_extract(self, title, lang):
                self.calls += 1
                return "text"

        monkeypatch.setattr(hallmark.knowledge, "WikipediaClient", CountingWiki)
        assert cli.main(annotate_args(tmp_path)) == 0
        assert sum(w.calls for w in counters) == 0

    def test_external_knowledge_path_through_cli(self, tmp_path, monkeypatch):
        class StubWiki:
            instances: list = []

            def __init__(self, *a, **k):
                self.calls = 0
                StubWiki.instances.append(self)

            def search_first_title(self, keyword, lang):
                self.calls += 1
                return "Hit"

            def fetch_extract(self, title, lang):
                self.calls += 1
                return "stub extract"

        monkeypatch.setattr(hallmark.knowledge, "WikipediaClient", StubWiki)
        args = [a for a in annotate_args(tmp_path) if a != "--no-external"]
        assert cli.main(args) == 0
        assert sum(w.calls for w in StubWiki.instances) > 0

    @pytest.mark.concurrency  # all ten items share the mock's keyword, so both workers read its Wikipedia rows
    def test_unreadable_cache_rows_are_requested_again(self, tmp_path, monkeypatch, built_mocks):
        # rows as a torn write or another program may leave them: each is a miss, asked again and replaced
        session = FakeWikiSession(search_results={"en": ["Hit"]}, extracts={("en", "Hit"): "wiki text"})
        wikipedia_client = hallmark.knowledge.WikipediaClient
        monkeypatch.setattr(hallmark.knowledge, "WikipediaClient", lambda: wikipedia_client(session=session))
        args = [a for a in annotate_args(tmp_path) if a != "--no-external"]
        assert cli.main(args) == 0
        rows = cache_rows(tmp_path / "cache")
        texts = {key: row["text"] for key, row in rows.items() if "text" in row}
        run_keys = [key for key, text in texts.items() if not text.startswith(("{", "Keyword:"))]
        roles_keys = [key for key, text in texts.items() if '"Identities"' in text]
        damage = ['{"text": tru', '["text"]', '{"reply": "x"}', '{"text": 5}']
        corrupt = {**dict(zip(run_keys, damage)), **dict(zip(roles_keys, damage))}
        corrupt[next(key for key, row in rows.items() if "value" in row)] = '{"value": 5}'
        db = sqlite3.connect(tmp_path / "cache" / "cache.sqlite3")
        with db:
            db.executemany("UPDATE entries SET value = ? WHERE key = ?", [(v, k) for k, v in corrupt.items()])
        db.close()
        session.calls.clear()
        assert cli.main(args) == 0
        assert (tmp_path / "pred.jsonl").read_bytes() == GOLDEN_PREDICTIONS.read_bytes()
        # each corrupted row, and no other, was requested again and now holds its reply once more
        assert (built_mocks[1].call_count, len(session.calls)) == (8, 1)
        assert cache_rows(tmp_path / "cache") == rows

    def test_output_is_byte_deterministic(self, tmp_path):
        # two independent runs (separate caches) must agree byte for byte
        cli.main(annotate_args(tmp_path / "a", "pred.jsonl"))
        cli.main(annotate_args(tmp_path / "b", "pred.jsonl"))
        first = (tmp_path / "a" / "pred.jsonl").read_bytes()
        second = (tmp_path / "b" / "pred.jsonl").read_bytes()
        assert first == second

    @pytest.mark.parametrize("parallel", ["1", "4"])
    def test_sample_predictions_match_golden(self, tmp_path, parallel):
        # README quick start; the golden file pins its output byte for byte
        assert cli.main(annotate_args(tmp_path, "pred.jsonl", "--max-parallel", parallel)) == 0
        assert (tmp_path / "pred.jsonl").read_bytes() == GOLDEN_PREDICTIONS.read_bytes()

    def test_max_parallel_flag(self, tmp_path):
        serial = annotate_args(tmp_path / "s", "pred.jsonl")
        parallel = annotate_args(tmp_path / "p", "pred.jsonl", "--max-parallel", "3")
        cli.main(serial)
        cli.main(parallel)
        assert (tmp_path / "s" / "pred.jsonl").read_bytes() == (
            tmp_path / "p" / "pred.jsonl"
        ).read_bytes()

    def test_unknown_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(annotate_args(tmp_path) + ["--bogus"])
        assert excinfo.value.code == 1

    def test_config_file_and_cli_precedence(self, tmp_path):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"runs_n": 3, "use_roles": False}), encoding="utf-8")
        fixture = fixture_for_runs(tmp_path, 2)
        cli.main(annotate_args(tmp_path, "pred.jsonl", "--config", str(config), "--runs", "2", "--mock-fixture", str(fixture)))
        for record in read_predictions(tmp_path / "pred.jsonl"):
            assert record.runs_used == 2  # CLI flag beats config file

    @pytest.mark.parametrize(
        "extra, config, message",
        [
            (["--runs", "0"], None, "invalid setting: runs_n must be >= 1"),
            (["--threshold", "2"], None, "invalid setting: threshold must be in (0, 1]"),
            ([], {"runs_n": "x"}, "config key 'runs_n' must be an integer"),
            ([], {"use_external": "false"}, "config key 'use_external' must be true or false"),
            ([], {"use_roles": 0}, "config key 'use_roles' must be true or false"),
            ([], {"provider": {"name": "mock", "requests_per_minute": 0}}, "invalid setting: requests_per_minute must be > 0"),
            ([], {"provider": {"name": "mock", "max_retries": None}}, "config key 'provider.max_retries' must be an integer"),
            ([], {"cache_dir": 5}, "config key 'cache_dir' must be a string"),
            ([], {"temperature": -1}, "invalid setting: temperature must be a finite number >= 0"),
            ([], {"max_tokens": 0}, "invalid setting: max_tokens must be > 0"),
            (
                ["--model", "m"],
                {"provider": {"name": "x", "base_url": 5, "api_key_env": "HOME"}},
                "config key 'provider.base_url' must be a string",
            ),
            ([], {"provider": {"name": 5}}, "config key 'provider.name' must be a string"),
            ([], {"provider": {"name": "mock", "max_retries": -4}}, "invalid setting: max_retries must be >= 0"),
            # valid JSON, but too large for the float in the cache key
            ([], {"temperature": 10**400}, "invalid setting: temperature must be a finite number >= 0"),
            (
                ["--provider", "x", "--model", "m", "--api-key-env", "HOME", "--base-url", "localhost:8000/v1"],
                None,
                "invalid setting: base_url 'localhost:8000/v1' must start with http:// or https://",
            ),
            (
                ["--provider", "x", "--model", "m", "--api-key-env", "HOME", "--base-url", "htp://x/v1"],
                None,
                "invalid setting: base_url 'htp://x/v1' must start with http:// or https://",
            ),
            ([], [1, 2], "config file {conf} must hold a JSON object"),
            ([], {"provider": "deepseek"}, "config key 'provider' must be an object"),
            (["--provider", "x", "--model", "m"], None, "provider 'x' needs a base URL (--base-url or config)"),
            (["--provider", "deepseek"], None, "a model name is required (--model or config file)"),
            (["--model", ""], None, "invalid setting: model name must not be empty"),
            ([], {"model": ""}, "invalid setting: model name must not be empty"),
            (["--provider", ""], None, "provider name must not be empty"),
            ([], {"provider": {"name": ""}, "model": "deepseek-chat"}, "provider name must not be empty"),
        ],
        ids=[
            "runs-0", "threshold-2", "runs_n-str", "use_external-str", "use_roles-int",
            "rpm-0", "retries-null", "cache_dir-int", "temperature-negative", "max_tokens-0",
            "base_url-int", "name-int", "retries-negative", "temperature-past-float",
            "base_url-no-scheme", "base_url-bad-scheme",
            "config-not-object", "provider-not-object", "no-base-url", "no-model", "model-empty-flag",
            "model-empty-in-file",
            "name-empty-flag", "name-empty-in-file",
        ],
    )
    def test_invalid_setting_exits_1_with_error_line(self, tmp_path, monkeypatch, capsys, extra, config, message):
        built = []  # no provider is built, so none is called
        monkeypatch.setattr(hallmark.llm, "MockProvider", lambda *args, **kwargs: built.append(args))
        monkeypatch.setattr(hallmark.llm, "OpenAIChatProvider", lambda *args, **kwargs: built.append(args))
        path = tmp_path / "conf.json"
        if config is not None:
            path.write_text(json.dumps(config), encoding="utf-8")
            extra = [*extra, "--config", str(path)]
        argv = annotate_args(tmp_path, "pred.jsonl", *extra)
        at = argv.index("--provider")
        del argv[at : at + 2]  # the mock is the default, so a case's config file may name the provider
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {message.format(conf=path)}\n"
        assert built == []
        assert not (tmp_path / "pred.jsonl").exists()

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_temperature_exits_1_before_any_call(self, tmp_path, built_mocks, capsys, value):
        # read as a float it passes the temperature check, and then no request body can be
        # encoded, so every run would be retried with backoff and lost
        path = tmp_path / "conf.json"
        path.write_text('{"temperature": %s}' % value, encoding="utf-8")
        assert cli.main(annotate_args(tmp_path, "pred.jsonl", "--config", str(path))) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read config file {path}: ")
        assert built_mocks == []
        assert not (tmp_path / "pred.jsonl").exists()

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"runs": 3}, "runs"),
            ({"provider": {"max_retry": 1}}, "provider.max_retry"),
            ({"runs": 3, "provider": {"max_retry": 1}}, "runs"),
            ({"provider": {"name": "mock", "cache_dir": "c"}}, "provider.cache_dir"),
            ({"requests_per_minute": 10}, "requests_per_minute"),
        ],
        ids=["runs", "provider.max_retry", "both", "cache_dir-in-provider", "provider-key-at-top"],
    )
    def test_unknown_config_key_is_named(self, tmp_path, capsys, config, key):
        # a misspelt key must not silently run with the default instead
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(annotate_args(tmp_path, "pred.jsonl", "--config", str(path))) == 1
        assert capsys.readouterr().err == f"error: unknown config key '{key}'\n"
        assert not (tmp_path / "pred.jsonl").exists()

    def test_unreadable_cache_file_is_an_error_line(self, tmp_path, capsys):
        cache_file = tmp_path / "cache" / "cache.sqlite3"
        cache_file.parent.mkdir()
        cache_file.write_bytes(b"not a database, " * 64)
        assert cli.main(annotate_args(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(cache_file) in err
        assert "Traceback" not in err
        assert not (tmp_path / "pred.jsonl").exists()

    @pytest.mark.parametrize("key", ["name", "base_url", "api_key_env"])
    def test_non_string_provider_setting_is_named(self, tmp_path, capsys, key):
        provider = {"name": "x", "base_url": "http://localhost", "api_key_env": "HOME", key: 5}
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"provider": provider}), encoding="utf-8")
        assert cli.main(annotate_args(tmp_path, "pred.jsonl", "--model", "m", "--config", str(path))) == 1
        assert capsys.readouterr().err == f"error: config key 'provider.{key}' must be a string\n"

    @pytest.mark.parametrize(
        "config, key, kind",
        [
            ({"runs_n": 2.9}, "runs_n", "an integer"),
            ({"runs_n": True}, "runs_n", "an integer"),
            ({"threshold": "0.5"}, "threshold", "a number"),
            ({"temperature": True}, "temperature", "a number"),
            ({"model": 5}, "model", "a string"),
            ({"max_parallel_items": 1.7}, "max_parallel_items", "an integer"),
            ({"provider": {"requests_per_minute": True}}, "provider.requests_per_minute", "an integer"),
            ({"provider": {"max_retries": 2.9}}, "provider.max_retries", "an integer"),
        ],
        ids=[
            "runs_n-fraction", "runs_n-bool", "threshold-str", "temperature-bool", "model-int",
            "max_parallel_items-fraction", "rpm-bool", "retries-fraction",
        ],
    )
    def test_wrong_json_type_is_named(self, tmp_path, capsys, config, key, kind):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(annotate_args(tmp_path, "pred.jsonl", "--config", str(path))) == 1
        assert capsys.readouterr().err == f"error: config key '{key}' must be {kind}\n"
        assert not (tmp_path / "pred.jsonl").exists()

    def test_wrong_json_type_is_named_even_when_a_flag_overrides_it(self, tmp_path, capsys):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"runs_n": 2.9}), encoding="utf-8")
        assert cli.main(annotate_args(tmp_path, "pred.jsonl", "--config", str(path), "--runs", "3")) == 1
        assert capsys.readouterr().err == "error: config key 'runs_n' must be an integer\n"

    def test_integer_for_a_number_is_accepted(self, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"threshold": 1}), encoding="utf-8")
        assert cli.main(annotate_args(tmp_path, "pred.jsonl", "--config", str(path))) == 0

    @pytest.mark.parametrize(
        "flags, key, value",
        [
            (["--model", "flag-model"], "model", "flag-model"),
            (["--runs", "3"], "runs_n", 3),
            (["--threshold", "0.25"], "threshold", 0.25),
            (["--min-similarity", "0.2"], "min_similarity", 0.2),
            (["--no-roles"], "use_roles", False),
            (["--no-external"], "use_external", False),
            (["--max-parallel", "3"], "max_parallel_items", 3),
            (["--provider", "flag-provider"], "provider.name", "flag-provider"),
            (["--base-url", "http://localhost:1/flag"], "provider.base_url", "http://localhost:1/flag"),
            (["--api-key-env", "HALLMARK_FLAG_KEY"], "provider.api_key_env", "HALLMARK_FLAG_KEY"),
        ],
        ids=["model", "runs", "threshold", "min-similarity", "no-roles", "no-external", "max-parallel",
             "provider", "base-url", "api-key-env"],
    )
    def test_each_flag_overrides_its_config_key(self, tmp_path, monkeypatch, flags, key, value):
        expected = flat_settings(SETTINGS_FILE)
        expected[key] = value  # the flag wins; every other setting keeps its file value
        assert settings_after(tmp_path, monkeypatch, SETTINGS_FILE, flags) == expected

    def test_unset_flags_keep_the_file_values(self, tmp_path, monkeypatch):
        # an absent --no-roles / --no-external must not turn a file's false back to true
        file_cfg = {**SETTINGS_FILE, "use_roles": False, "use_external": False}
        assert settings_after(tmp_path, monkeypatch, file_cfg, []) == flat_settings(file_cfg)

    def test_readme_config_table_matches_the_config_classes(self):
        # every key the CLI derives, plus cache_dir, with the JSON type it requires
        type_names = {str: "string", int: "integer", float: "number", bool: "`true` or `false`"}
        expected = {key: type_names[kind] for key, kind in cli.config_keys(hallmark.pipeline.PipelineConfig).items()}
        expected.update(
            (f"provider.{key}", type_names[kind]) for key, kind in cli.config_keys(hallmark.llm.ProviderConfig).items()
        )
        expected["cache_dir"] = "string"
        section = README.read_text(encoding="utf-8").split("### Config file")[1].split("\n## ")[0]
        documented = dict(re.findall(r"^\| `([a-z_.]+)` \| ([^|]+?) \|", section, re.MULTILINE))
        assert documented == expected

    @pytest.mark.parametrize(
        "fixture",
        [
            "{bad",
            '["a"]',
            '{"sample-en-1": {"spans": [[0, "x"]]}}',
            '{"sample-en-1": {"spans": [[0]]}}',
            '{"sample-en-1": {"spans": [[40, 10]]}}',
            '{"sample-en-1": {"spans": [[0, 100000]]}}',
            '{"sample-en-1": {"spans": [[0, 10], [5, 15]]}}',
            '{"sample-en-1": {"per_run": {"run-0": [[-1, 3]]}}}',
            '{"sample-en-1": {"spans": [[0, "3"]]}}',
            '{"sample-en-1": {"spans": [[0, 2.5]]}}',
            '{"sample-en-1": {"spans": [[true, 3]]}}',
            '{"sample-en-l": {"spans": [[25, 31]]}}',
            '{"sample-en-1": {"span": [[25, 31]]}}',
            '{"sample-en-2": {"per_run": {"run_0": [], "run-12": []}}}',
        ],
        ids=[
            "not-json", "list", "span-str", "span-short", "span-reversed", "span-past-end",
            "spans-overlap", "per-run-negative", "span-digit-str", "span-fraction", "span-bool", "unknown-id",
            "unknown-entry-key", "per-run-tag-of-no-run",
        ],
    )
    def test_bad_mock_fixture_exits_1_with_error_line(self, tmp_path, capsys, fixture):
        path = tmp_path / "fixture.json"
        path.write_text(fixture, encoding="utf-8")
        args = annotate_args(tmp_path, "pred.jsonl")
        args[args.index("--mock-fixture") + 1] = str(path)
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad mock fixture {path}: ")
        assert "Traceback" not in err
        assert not (tmp_path / "pred.jsonl").exists()

    def test_out_of_range_fixture_span_names_the_item(self, tmp_path, capsys):
        path = tmp_path / "fixture.json"
        path.write_text('{"sample-en-1": {"spans": [[40, 10]]}}', encoding="utf-8")
        args = annotate_args(tmp_path, "pred.jsonl")
        args[args.index("--mock-fixture") + 1] = str(path)
        assert cli.main(args) == 1
        assert "item 'sample-en-1': span [40, 10)" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_self_comparison_all_ones(self, tmp_path, capsys):
        cli.main(annotate_args(tmp_path))
        gold_path = tmp_path / "gold.jsonl"
        gold_from_predictions(tmp_path / "pred.jsonl", SAMPLE_ITEMS, gold_path)
        report_path = tmp_path / "report.json"
        code = cli.main([
            "evaluate",
            "--pred", str(tmp_path / "pred.jsonl"),
            "--gold", str(gold_path),
            "--report", str(report_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        all_line = next(line for line in out.splitlines() if line.startswith("ALL"))
        assert all_line.split() == ["ALL", "1.0000", "1.0000", "10"]
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["overall"] == {"mean_iou": 1.0, "mean_cor": 1.0}
        assert all(entry["n"] >= 1 for entry in report["per_lang"].values())

    def test_id_mismatch_exits_4(self, tmp_path, capsys):
        cli.main(annotate_args(tmp_path))
        gold_path = tmp_path / "gold.jsonl"
        gold_from_predictions(tmp_path / "pred.jsonl", SAMPLE_ITEMS, gold_path)
        with open(gold_path, "a", encoding="utf-8") as fh:
            fh.write('{"id":"extra","lang":"EN","model_input":"q","model_output_text":"a"}\n')
        code = cli.main([
            "evaluate", "--pred", str(tmp_path / "pred.jsonl"), "--gold", str(gold_path),
        ])
        assert code == 4
        assert "extra" in capsys.readouterr().err

    def test_duplicated_prediction_id_exits_4(self, tmp_path, capsys):
        cli.main(annotate_args(tmp_path))
        gold_path = tmp_path / "gold.jsonl"
        gold_from_predictions(tmp_path / "pred.jsonl", SAMPLE_ITEMS, gold_path)
        pred_path = tmp_path / "pred.jsonl"
        first = pred_path.read_text(encoding="utf-8").splitlines()[0]
        with open(pred_path, "a", encoding="utf-8") as fh:
            fh.write(first + "\n")
        code = cli.main(["evaluate", "--pred", str(pred_path), "--gold", str(gold_path)])
        assert code == 4
        assert "duplicated prediction ids" in capsys.readouterr().err


    def test_answer_mismatch_exits_4(self, tmp_path, capsys):
        cli.main(annotate_args(tmp_path))
        gold_path = tmp_path / "gold.jsonl"
        gold_from_predictions(tmp_path / "pred.jsonl", SAMPLE_ITEMS, gold_path)
        lines = gold_path.read_text(encoding="utf-8").splitlines()
        first = json.loads(lines[0])
        first["model_output_text"] += " (edited)"
        lines[0] = json.dumps(first, ensure_ascii=False)
        gold_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = cli.main([
            "evaluate", "--pred", str(tmp_path / "pred.jsonl"), "--gold", str(gold_path),
        ])
        assert code == 4
        assert first["id"] in capsys.readouterr().err

    def test_label_past_the_gold_answer_exits_4(self, tmp_path, capsys):
        pred, gold = label_past_the_gold_answer(tmp_path)
        assert cli.main(["evaluate", "--pred", str(pred), "--gold", str(gold)]) == 4
        assert capsys.readouterr().err == "error: prediction label past the gold answer: ['a']\n"

    def test_answer_drifted_from_gold_exits_4(self, tmp_path, capsys):
        pred, gold = answer_drifted_from_gold(tmp_path)
        assert cli.main(["evaluate", "--pred", str(pred), "--gold", str(gold)]) == 4
        assert capsys.readouterr().err == "error: prediction answer differs from gold answer: ['a']\n"

    def test_empty_files_exit_4(self, tmp_path, capsys):
        pred, gold = tmp_path / "pred.jsonl", tmp_path / "gold.jsonl"
        pred.write_text("", encoding="utf-8")
        gold.write_text("", encoding="utf-8")
        assert cli.main(["evaluate", "--pred", str(pred), "--gold", str(gold)]) == 4
        assert capsys.readouterr().err == "error: nothing to score: the prediction and gold files hold no items\n"


def label_past_the_gold_answer(tmp_path):
    """A prediction without its answer whose label ends past the 3-character gold answer."""
    pred, gold = tmp_path / "pred.jsonl", tmp_path / "gold.jsonl"
    pred.write_text('{"id":"a","lang":"EN","hard_labels":[[0,10]],"soft_labels":[],"runs_used":3}\n', encoding="utf-8")
    gold.write_text('{"id":"a","lang":"EN","model_output_text":"abc","hard_labels":[],"soft_labels":[]}\n', encoding="utf-8")
    return pred, gold


def answer_drifted_from_gold(tmp_path):
    """A prediction whose answer has gold's length but not gold's text."""
    pred, gold = tmp_path / "pred.jsonl", tmp_path / "gold.jsonl"
    record = {"id": "a", "lang": "EN", "soft_labels": []}
    pred.write_text(json.dumps({**record, "hard_labels": [[0, 2]], "runs_used": 3, "model_output_text": "xyz"}) + "\n", encoding="utf-8")
    gold.write_text(json.dumps({**record, "hard_labels": [], "model_output_text": "abc"}) + "\n", encoding="utf-8")
    return pred, gold


class TestInspectCommand:
    def annotate(self, tmp_path):
        cli.main(annotate_args(tmp_path))
        return tmp_path / "pred.jsonl"

    def test_renders_markers(self, tmp_path, capsys):
        pred = self.annotate(tmp_path)
        capsys.readouterr()
        code = cli.main(["inspect", "--pred", str(pred), "--id", "sample-en-1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "⟨⟨silver⟩⟩" in out
        assert "⟨⟨2008⟩⟩" in out
        assert "⟨⟨Beijing, China⟩⟩" in out

    def test_empty_labels_render_plain(self, tmp_path, capsys):
        pred = self.annotate(tmp_path)
        capsys.readouterr()
        code = cli.main(["inspect", "--pred", str(pred), "--id", "sample-en-2"])
        out = capsys.readouterr().out
        assert code == 0
        # only the 7-of-12 span reaches the hard threshold
        assert out.count("⟨⟨") == 1

    def test_soft_labels_show_their_votes(self, tmp_path, capsys):
        pred = self.annotate(tmp_path)
        capsys.readouterr()
        assert cli.main(["inspect", "--pred", str(pred), "--id", "sample-en-2"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "id=sample-en-2 lang=EN runs_used=12",
            "pred: Ivanhoe was written by Walter Scott and first published in ⟨⟨1820⟩⟩.",
            "soft: [59, 63) '1820' prob=0.5833 (7 of 12 runs)",
        ]

    def test_prob_that_counts_no_whole_votes_shows_alone(self, tmp_path, capsys):
        # a file from another tool: 0.3 of 12 runs is 3.6 votes
        pred = tmp_path / "pred.jsonl"
        soft = [{"start": 0, "end": 1, "prob": 0.3}, {"start": 1, "end": 2, "prob": 0.25}]
        record = {"id": "a", "lang": "EN", "hard_labels": [], "soft_labels": soft, "runs_used": 12}
        pred.write_text(json.dumps({**record, "model_output_text": "xy"}) + "\n", encoding="utf-8")
        assert cli.main(["inspect", "--pred", str(pred), "--id", "a"]) == 0
        assert capsys.readouterr().out.splitlines()[2:] == [
            "soft: [0, 1) 'x' prob=0.3000",
            "soft: [1, 2) 'y' prob=0.2500 (3 of 12 runs)",
        ]

    def test_with_gold_prints_iou(self, tmp_path, capsys):
        pred = self.annotate(tmp_path)
        gold_path = tmp_path / "gold.jsonl"
        gold_from_predictions(pred, SAMPLE_ITEMS, gold_path)
        capsys.readouterr()
        code = cli.main([
            "inspect", "--pred", str(pred), "--gold", str(gold_path), "--id", "sample-en-1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "gold:" in out
        assert "IoU: 1.0000" in out

    def test_label_past_the_answer_exits_1_naming_the_line(self, tmp_path, capsys):
        pred = tmp_path / "pred.jsonl"
        pred.write_text(json.dumps({
            "id": "a", "lang": "EN", "hard_labels": [[0, 10]], "soft_labels": [{"start": 0, "end": 10, "prob": 1}],
            "runs_used": 3, "model_output_text": "abc",
        }) + "\n", encoding="utf-8")
        assert cli.main(["inspect", "--pred", str(pred), "--id", "a"]) == 1
        assert capsys.readouterr().err == f"error: {pred}:1: span [0, 10) exceeds text length 3\n"

    def test_id_missing_from_gold_exits_4(self, tmp_path, capsys):
        pred, gold = tmp_path / "pred.jsonl", tmp_path / "gold.jsonl"
        record = {"id": "a", "lang": "EN", "model_output_text": "abc", "hard_labels": [], "soft_labels": []}
        pred.write_text(json.dumps({**record, "runs_used": 3}) + "\n", encoding="utf-8")
        gold.write_text(json.dumps({**record, "id": "b"}) + "\n", encoding="utf-8")
        assert cli.main(["inspect", "--pred", str(pred), "--gold", str(gold), "--id", "a"]) == 4
        assert capsys.readouterr() == ("", f"error: id 'a' not found in {gold}\n")

    @pytest.mark.parametrize("repeated", ["pred", "gold"])
    def test_repeated_id_exits_4_naming_the_file(self, tmp_path, capsys, repeated):
        # as in evaluate: inspect shows no one of two records that share the id
        files = {"pred": tmp_path / "pred.jsonl", "gold": tmp_path / "gold.jsonl"}
        record = {"id": "a", "lang": "EN", "model_output_text": "abc", "hard_labels": [], "soft_labels": []}
        for side, path in files.items():
            line = json.dumps({**record, "runs_used": 3} if side == "pred" else record) + "\n"
            path.write_text(line * (2 if side == repeated else 1), encoding="utf-8")
        args = ["inspect", "--pred", str(files["pred"]), "--gold", str(files["gold"]), "--id", "a"]
        assert cli.main(args) == 4
        assert capsys.readouterr() == ("", f"error: id 'a' occurs 2 times in {files[repeated]}\n")

    def test_no_answer_text_and_no_gold_exits_1(self, tmp_path, capsys):
        pred = tmp_path / "pred.jsonl"
        pred.write_text(
            json.dumps({"id": "a", "lang": "EN", "hard_labels": [], "soft_labels": [], "runs_used": 3}) + "\n",
            encoding="utf-8",
        )
        assert cli.main(["inspect", "--pred", str(pred), "--id", "a"]) == 1
        assert capsys.readouterr() == ("", "error: prediction file carries no answer text; pass --gold to supply it\n")

    def test_negative_runs_used_exits_1_naming_the_line(self, tmp_path, capsys):
        pred = tmp_path / "pred.jsonl"
        pred.write_text(
            json.dumps({"id": "a", "lang": "EN", "hard_labels": [], "soft_labels": [], "runs_used": -3,
                        "model_output_text": "abc"}) + "\n",
            encoding="utf-8",
        )
        assert cli.main(["inspect", "--pred", str(pred), "--id", "a"]) == 1
        assert capsys.readouterr() == ("", f"error: {pred}:1: runs_used -3 must be >= 0\n")

    def test_label_past_the_gold_answer_exits_4_before_printing(self, tmp_path, capsys):
        pred, gold = label_past_the_gold_answer(tmp_path)
        assert cli.main(["inspect", "--pred", str(pred), "--gold", str(gold), "--id", "a"]) == 4
        assert capsys.readouterr() == ("", "error: prediction label past the gold answer: ['a']\n")

    def test_answer_drifted_from_gold_exits_4_before_printing(self, tmp_path, capsys):
        pred, gold = answer_drifted_from_gold(tmp_path)
        assert cli.main(["inspect", "--pred", str(pred), "--gold", str(gold), "--id", "a"]) == 4
        assert capsys.readouterr() == ("", "error: prediction answer differs from gold answer: ['a']\n")

    def test_overlapping_gold_labels_render_each_character_once(self, tmp_path, capsys):
        pred, gold = tmp_path / "pred.jsonl", tmp_path / "gold.jsonl"
        record = {"id": "a", "lang": "EN", "model_output_text": "abc", "soft_labels": []}
        pred.write_text(json.dumps({**record, "hard_labels": [[0, 2]], "runs_used": 3}) + "\n", encoding="utf-8")
        gold.write_text(json.dumps({**record, "hard_labels": [[0, 2], [1, 3]]}) + "\n", encoding="utf-8")
        assert cli.main(["inspect", "--pred", str(pred), "--gold", str(gold), "--id", "a"]) == 0
        out = capsys.readouterr().out
        assert "gold: ⟨⟨abc⟩⟩\n" in out
        assert "IoU: 0.6667" in out

    def test_unknown_id_exits_4(self, tmp_path, capsys):
        pred = self.annotate(tmp_path)
        assert cli.main(["inspect", "--pred", str(pred), "--id", "nope"]) == 4


def test_readme_library_example_runs(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("## Library use")[1].split("\n## ")[0]
    code = section.split("```python\n")[1].split("```")[0]
    shutil.copytree(SAMPLE_DIR, tmp_path / "data" / "sample")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(code, namespace)
    records = read_predictions(tmp_path / "pred.jsonl")
    assert [r.id for r in records] == [item.id for item in read_items(SAMPLE_ITEMS)]
    assert (records[0].runs_used, records[0].hard_labels) == (12, (SpanLabel(25, 31),))
    with pytest.raises(CacheError):  # the example closes the cache it opened
        namespace["cache"].get("k")


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("## Quick start")[1].split("\n## ")[0]
    block = section.split("```bash\n")[1].split("```")[0].replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("hallmark ")]
    assert [command[0] for command in commands] == ["annotate", "inspect", "evaluate"]
    shutil.copytree(SAMPLE_DIR, tmp_path / "data" / "sample")
    monkeypatch.chdir(tmp_path)
    for command in commands:
        if command[0] == "evaluate":  # the user's own reference file; here, one agreeing with pred.jsonl
            gold_from_predictions("pred.jsonl", SAMPLE_ITEMS, "gold.jsonl")
        assert cli.main(command) == 0, command


def test_readme_aggregate_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library use")[1].split("\n## ")[0]
    namespace = {}
    exec(section.split("```python\n")[2].split("```")[0], namespace)
    assert namespace["probs"] == [0.0, 0.0, 0.5, 0.5, 0.0, 0.0]


def test_readme_run_outcomes_match_the_constants():
    # the outcome table lists every outcome constant of voting.py, once
    module = importlib.import_module("hallmark.voting")
    constants = [value for name, value in vars(module).items() if name.isupper() and isinstance(value, str)]
    section = README.read_text(encoding="utf-8").split("### Run outcomes")[1].split("\n## ")[0]
    documented = re.findall(r"^\| `([a-z_]+)` \|", section, re.MULTILINE)
    assert sorted(documented) == sorted(constants)
    assert len(constants) == 5
