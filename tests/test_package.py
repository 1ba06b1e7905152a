"""The package surface: every exported name resolves on first use to its home module's object, and no
exported name is also the name of a submodule, whose import would bind the module over it."""

from __future__ import annotations

import pkgutil
import types

import pytest

import hallmark

from .test_network_stack import run_fresh


@pytest.mark.parametrize(
    "imports",
    ["import hallmark.pipeline\nfrom hallmark import aggregate", "from hallmark import aggregate\nimport hallmark.pipeline"],
    ids=["submodule-first", "function-first"],
)
def test_aggregate_is_the_function_in_either_import_order(imports):
    # pipeline imports the voting submodule, where the function lives
    code = (
        f"{imports}\nimport sys, hallmark\nfunction = sys.modules['hallmark.voting'].aggregate\n"
        "result = [aggregate is function, hallmark.aggregate is function]"
    )
    assert run_fresh(code, watch=()) == [[True, True], []]


def test_no_exported_name_is_a_submodule_name():
    submodules = {module.name for module in pkgutil.iter_modules(hallmark.__path__)}
    assert sorted(set(hallmark.__all__) & submodules) == []


def test_every_exported_name_is_its_home_modules_object():
    # in a fresh interpreter, so that each name goes through the first-use import
    code = (
        "import sys, hallmark\n"
        "values = {name: getattr(hallmark, name) for name in hallmark.__all__}\n"
        "result = [len(values), sorted(name for name, value in values.items()\n"
        "    if not value.__module__.startswith('hallmark.') or getattr(sys.modules[value.__module__], name) is not value)]"
    )
    assert run_fresh(code, watch=()) == [[41, []], []]


def test_unknown_names_are_refused():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        getattr(hallmark, "nope")
    with pytest.raises(ImportError, match="cannot import name 'nope'"):
        exec("from hallmark import nope", {})


def test_submodules_still_import_by_name():
    from hallmark import cache, llm

    assert isinstance(cache, types.ModuleType) and cache.JsonFileCache is hallmark.JsonFileCache
    assert isinstance(llm, types.ModuleType) and llm.LLMClient is hallmark.LLMClient


def test_dir_lists_every_exported_name():
    assert set(hallmark.__all__) <= set(dir(hallmark))
