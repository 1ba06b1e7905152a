from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
from jsonschema import validate as validate_schema

import hallmark.cli as cli
from hallmark import MockProvider, read_items, read_predictions

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
    monkeypatch.setattr(cli, "annotate_dataset", lambda items, cfg, *a, **kw: seen.append(cfg) or [])
    code = cli.main([
        "annotate", "--input", str(SAMPLE_ITEMS), "--output", str(tmp_path / "p.jsonl"),
        "--cache-dir", str(tmp_path / "cache"), "--config", str(path), *flags,
    ])
    assert code == 0
    return flat_settings(seen[0])


class RecordingMock(MockProvider):
    instances: list["RecordingMock"] = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        RecordingMock.instances.append(self)


@pytest.fixture(autouse=True)
def fresh_recorder():
    RecordingMock.instances = []
    yield


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

    def test_rerun_hits_cache(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MockProvider", RecordingMock)
        assert cli.main(annotate_args(tmp_path)) == 0
        assert RecordingMock.instances[0].call_count > 0
        assert cli.main(annotate_args(tmp_path)) == 0
        assert RecordingMock.instances[1].call_count == 0

    def test_integer_temperature_hits_the_cache_of_its_float(self, tmp_path, monkeypatch):
        # a config file's 1 and the default 1.0 are one temperature: same cache keys
        monkeypatch.setattr(cli, "MockProvider", RecordingMock)
        assert cli.main(annotate_args(tmp_path)) == 0
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"temperature": 1}), encoding="utf-8")
        assert cli.main(annotate_args(tmp_path, "pred.jsonl", "--config", str(config))) == 0
        assert RecordingMock.instances[1].call_count == 0

    def test_runs_flag_controls_vote_granularity(self, tmp_path):
        cli.main(annotate_args(tmp_path, "pred4.jsonl", "--runs", "4"))
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

    def test_partial_failure_exits_2(self, tmp_path, capsys):
        items = tmp_path / "items.jsonl"
        items.write_text(
            '{"id":"ok","lang":"EN","model_input":"q","model_output_text":"fine answer"}\n'
            '{"id":"broken","lang":"EN","model_input":"q","model_output_text":""}\n',
            encoding="utf-8",
        )
        code = cli.main([
            "annotate",
            "--input", str(items),
            "--output", str(tmp_path / "p.jsonl"),
            "--provider", "mock",
            "--cache-dir", str(tmp_path / "cache"),
            "--no-external",
        ])
        assert code == 2
        assert "1 failures" in capsys.readouterr().out

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

        monkeypatch.setattr(cli, "WikipediaClient", CountingWiki)
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

        monkeypatch.setattr(cli, "WikipediaClient", StubWiki)
        args = [a for a in annotate_args(tmp_path) if a != "--no-external"]
        assert cli.main(args) == 0
        assert sum(w.calls for w in StubWiki.instances) > 0

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
        cli.main(annotate_args(tmp_path, "pred.jsonl", "--config", str(config), "--runs", "2"))
        for record in read_predictions(tmp_path / "pred.jsonl"):
            assert record.runs_used == 2  # CLI flag beats config file

    @pytest.mark.parametrize(
        "extra, config",
        [
            (["--runs", "0"], None),
            (["--threshold", "2"], None),
            ([], {"runs_n": "x"}),
            ([], {"use_external": "false"}),
            ([], {"use_roles": 0}),
            ([], {"provider": {"name": "mock", "requests_per_minute": 0}}),
            ([], {"provider": {"name": "mock", "max_retries": None}}),
            ([], {"cache_dir": 5}),
            ([], {"temperature": -1}),
            ([], {"max_tokens": 0}),
            (["--model", "m"], {"provider": {"name": "x", "base_url": 5, "api_key_env": "HOME"}}),
            ([], {"provider": {"name": 5}}),
            ([], {"provider": {"name": "mock", "max_retries": -4}}),
        ],
        ids=[
            "runs-0", "threshold-2", "runs_n-str", "use_external-str", "use_roles-int",
            "rpm-0", "retries-null", "cache_dir-int", "temperature-negative", "max_tokens-0",
            "base_url-int", "name-int", "retries-negative",
        ],
    )
    def test_invalid_setting_exits_1_with_error_line(self, tmp_path, capsys, extra, config):
        if config is not None:
            path = tmp_path / "conf.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            extra = [*extra, "--config", str(path)]
        assert cli.main(annotate_args(tmp_path, "pred.jsonl", *extra)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
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
        expected = {key: type_names[kind] for key, kind in cli.config_keys(cli.PipelineConfig).items()}
        expected.update(
            (f"provider.{key}", type_names[kind]) for key, kind in cli.config_keys(cli.ProviderConfig).items()
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
        ],
        ids=[
            "not-json", "list", "span-str", "span-short", "span-reversed", "span-past-end",
            "spans-overlap", "per-run-negative", "span-digit-str", "span-fraction", "span-bool",
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

    def test_unknown_id_exits_4(self, tmp_path, capsys):
        pred = self.annotate(tmp_path)
        assert cli.main(["inspect", "--pred", str(pred), "--id", "nope"]) == 4
