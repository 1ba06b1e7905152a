from __future__ import annotations

import pytest

from hallmark import prompts
from hallmark.errors import ConfigError
from hallmark.prompts import REQUIRED_PLACEHOLDERS, load_template, validate_templates


@pytest.fixture
def require(monkeypatch):
    """Sets the placeholders each bundled template must hold, with no template loaded before or after."""
    load_template.cache_clear()
    yield lambda required: monkeypatch.setattr(prompts, "REQUIRED_PLACEHOLDERS", required)
    load_template.cache_clear()


def test_missing_template_is_a_config_error(require):
    require({**REQUIRED_PLACEHOLDERS, "no_such_template": frozenset()})
    with pytest.raises(ConfigError, match="^prompt template 'no_such_template' not found$"):
        validate_templates()


def test_template_without_a_required_placeholder_is_a_config_error(require):
    require({**REQUIRED_PLACEHOLDERS, "extract_keyword": frozenset({"question", "role", "answer"})})
    with pytest.raises(ConfigError, match="^template 'extract_keyword' is missing placeholders: answer, role$"):
        validate_templates()
