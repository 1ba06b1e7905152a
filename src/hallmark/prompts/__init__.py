"""Prompt templates, placeholder substitution, and language naming.

Templates live next to this module as plain text files with ``{name}``
placeholders. Substitution is plain string replacement, not str.format,
so literal braces elsewhere in a template are harmless. Templates are
validated eagerly so a broken file fails at startup, not mid-batch.
"""

from __future__ import annotations

import re
from functools import lru_cache
from importlib.resources import files
from typing import Mapping

from ..errors import ConfigError

DEFAULT_ROLE = "fact-checking expert"
NO_KNOWLEDGE_SENTINEL = "No external knowledge is available for this item."

REQUIRED_PLACEHOLDERS: dict[str, frozenset[str]] = {
    "main_annotation": frozenset({"role", "lang", "question", "answer", "knowledge", "example"}),
    "assign_roles": frozenset({"lang", "question", "answer"}),
    "extract_keyword": frozenset({"question"}),
    "summarize_knowledge": frozenset({"lang", "question", "answer", "knowledge"}),
}

# English names for the task languages; prompts are always written in
# English, only the language name is substituted. Unknown codes pass
# through unchanged.
LANGUAGE_NAMES: dict[str, str] = {
    "ar": "Arabic",
    "ca": "Catalan",
    "cs": "Czech",
    "de": "German",
    "en": "English",
    "es": "Spanish",
    "eu": "Basque",
    "fa": "Farsi",
    "fi": "Finnish",
    "fr": "French",
    "hi": "Hindi",
    "it": "Italian",
    "sv": "Swedish",
    "zh": "Chinese",
}

_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")


def primary_subtag(code: str) -> str:
    """The primary language subtag, lower-cased: ``en`` for ``EN``, ``en-US`` or ``en_GB``."""
    return code.split("-")[0].split("_")[0].lower()


def language_name(code: str) -> str:
    return LANGUAGE_NAMES.get(primary_subtag(code), code)


@lru_cache(maxsize=None)
def load_template(name: str) -> str:
    """Load and validate a bundled template by stem name."""
    resource = files(__name__) / f"{name}.txt"
    try:
        text = resource.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise ConfigError(f"prompt template {name!r} not found") from exc
    required = REQUIRED_PLACEHOLDERS.get(name, frozenset())
    present = set(_PLACEHOLDER_RE.findall(text))
    missing = required - present
    if missing:
        raise ConfigError(
            f"template {name!r} is missing placeholders: {', '.join(sorted(missing))}"
        )
    return text


def validate_templates() -> None:
    """Eagerly load every known template; raises ConfigError on defects."""
    for name in REQUIRED_PLACEHOLDERS:
        load_template(name)


def render(template: str, values: Mapping[str, str]) -> str:
    # single pass: placeholders inside substituted values stay literal
    pattern = re.compile(r"\{(" + "|".join(map(re.escape, values)) + r")\}")
    return pattern.sub(lambda m: values[m.group(1)], template)


@lru_cache(maxsize=None)
def example() -> str:
    """Worked example embedded in the annotation prompt; English for every language."""
    return (files(__name__) / "examples" / "en.txt").read_text(encoding="utf-8").strip()
