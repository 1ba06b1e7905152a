"""Each entry point loads only the modules it runs. Commands that send nothing
never load ``requests``: it and its urllib3 stack cost more than the rest of
``import hallmark`` together. No command loads a test extra, since
``requests`` is the one runtime dependency. Each check runs in a fresh
interpreter, since this one has loaded them already."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys

import pytest
import requests

from .conftest import SRC
from .test_cli import GOLDEN_PREDICTIONS, SAMPLE_ITEMS, annotate_args, gold_from_predictions

NETWORK = ("requests", "urllib3")
TEST_EXTRAS = ("numpy", "hypothesis", "jsonschema", "pytest")
# What only annotate runs: the response cache, the provider and Wikipedia clients, the batch and alignment.
ANNOTATE_ONLY = (
    "sqlite3",
    "concurrent.futures",
    "hallmark.llm",
    "hallmark.knowledge",
    "hallmark.pipeline",
    "hallmark.cache",
    "hallmark.alignment",
)


def run_fresh(code: str, *args: str, env: dict[str, str] | None = None, watch: tuple[str, ...] = NETWORK) -> list:
    """``result`` after ``code`` runs in a fresh interpreter with ``args`` as ``sys.argv[1:]``,
    and which of the ``watch`` modules it loaded."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps([result, [m for m in {watch!r} if m in sys.modules]]))"
    out = subprocess.run(
        [sys.executable, "-c", probe, *args],
        env={**os.environ, "PYTHONPATH": str(SRC.parent), **(env or {})},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


CLI_MAIN = "import sys, hallmark.cli\nresult = hallmark.cli.main(sys.argv[1:])"


@pytest.mark.parametrize("module", ["hallmark", "hallmark.cli"])
def test_import_leaves_the_network_stack_out(module):
    assert run_fresh(f"import {module}\nresult = None") == [None, []]


def test_quick_start_leaves_the_network_stack_out(tmp_path):
    # README quick start: mock provider, no Wikipedia
    assert run_fresh(CLI_MAIN, *annotate_args(tmp_path), watch=NETWORK + TEST_EXTRAS) == [0, []]
    assert (tmp_path / "pred.jsonl").read_bytes() == GOLDEN_PREDICTIONS.read_bytes()


SCORING_COMMANDS = pytest.mark.parametrize(
    "command", [["evaluate"], ["inspect", "--id", "sample-en-1"]], ids=["evaluate", "inspect"]
)


def scoring_argv(tmp_path, command: list[str]) -> list[str]:
    gold = tmp_path / "gold.jsonl"
    gold_from_predictions(GOLDEN_PREDICTIONS, SAMPLE_ITEMS, gold)
    return [*command, "--pred", str(GOLDEN_PREDICTIONS), "--gold", str(gold)]


@SCORING_COMMANDS
def test_scoring_commands_leave_the_network_stack_out(tmp_path, command):
    assert run_fresh(CLI_MAIN, *scoring_argv(tmp_path, command), watch=NETWORK + TEST_EXTRAS) == [0, []]


def test_import_loads_no_submodule():
    code = "import sys, hallmark\nresult = sorted(m for m in sys.modules if m.startswith('hallmark.'))"
    assert run_fresh(code) == [[], []]


@SCORING_COMMANDS
def test_scoring_commands_load_no_annotate_layer(tmp_path, command):
    assert run_fresh(CLI_MAIN, *scoring_argv(tmp_path, command), watch=ANNOTATE_ONLY) == [0, []]


def test_quick_start_loads_no_scoring_layer(tmp_path):
    assert run_fresh(CLI_MAIN, *annotate_args(tmp_path), watch=("statistics", "hallmark.scoring")) == [0, []]


def test_chat_provider_loads_requests():
    code = (
        "from hallmark import OpenAIChatProvider, ProviderConfig\n"
        "cfg = ProviderConfig('openai', base_url='http://localhost:1/v1', api_key_env='HALLMARK_TEST_KEY')\n"
        "result = type(OpenAIChatProvider(cfg)._session).__module__"
    )
    assert run_fresh(code, env={"HALLMARK_TEST_KEY": "sk-test"}) == ["requests.sessions", list(NETWORK)]


def test_default_wikipedia_client_loads_requests():
    code = "from hallmark import WikipediaClient\nresult = WikipediaClient()._session.headers['User-Agent']"
    user_agent, loaded = run_fresh(code)
    assert user_agent.startswith("hallmark/") and user_agent.endswith(requests.utils.default_user_agent())
    assert loaded == list(NETWORK)


def import_time_imports(node: ast.AST):
    """Modules that ``import`` statements run at import time name, outside ``if TYPE_CHECKING:``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, ast.If) and isinstance(child.test, ast.Name) and child.test.id == "TYPE_CHECKING":
            for stmt in child.orelse:
                yield from import_time_imports(ast.Module(body=[stmt], type_ignores=[]))
            continue
        if isinstance(child, ast.Import):
            yield from (alias.name for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            yield child.module
        yield from import_time_imports(child)


def test_import_time_imports_sees_past_functions_and_type_checking():
    source = (
        "import os.path\n"
        "if TYPE_CHECKING:\n    import requests\nelse:\n    import json\n"
        "try:\n    from urllib3 import util\nexcept ImportError:\n    pass\n"
        "class C:\n    import re\n    def f(self):\n        import requests\n"
    )
    assert list(import_time_imports(ast.parse(source))) == ["os.path", "json", "urllib3", "re"]


def test_no_module_imports_requests_at_import_time():
    # keeps `requests` behind the three places that open a session or catch its errors
    offenders = {
        f"{path.name}:{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in import_time_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name.split(".")[0] in NETWORK
    }
    assert offenders == set()
