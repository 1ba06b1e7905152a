"""Ensemble LLM annotation of hallucination spans in multilingual QA data.

The package runs several role-conditioned annotator calls per item, parses
the in-place span markers each one returns, aligns every rewrite back onto
the original answer, and aggregates the surviving runs into per-character
probabilities, soft labels, and majority-vote hard labels. A scorer for
the character-IoU and Spearman metrics is included.

Each exported name is imported from its submodule on first use (PEP 562),
so ``import hallmark`` loads only what it must.
"""

__version__ = "0.1.0"  # first, so that any submodule may import it at its top

from importlib import import_module

# ``aggregate`` names both a function and its submodule. The first import of the submodule binds the module to
# this attribute, past ``__getattr__``, so bind the function here: later imports find the submodule loaded.
from .aggregate import aggregate

# Each exported name and the submodule it lives in.
_HOMES = {
    "aggregate": ("AnnotationRun", "aggregate", "to_hard_labels", "to_soft_labels"),
    "alignment": ("AlignmentResult", "align", "project_spans", "validate_run"),
    "cache": ("JsonFileCache",),
    "core": ("GoldRecord", "PredictionRecord", "QAItem", "SpanLabel", "coverage", "runs_of"),
    "jsonl": ("read_gold", "read_items", "read_predictions", "write_predictions"),
    "knowledge": ("KnowledgeBundle", "KnowledgeService", "WikipediaClient"),
    "llm": (
        "CompletionRequest",
        "LLMClient",
        "MarkingRule",
        "MockProvider",
        "OpenAIChatProvider",
        "ProviderConfig",
        "RateLimiter",
    ),
    "marking": ("ParsedMarking", "insert_markers", "parse_marked"),
    "pipeline": ("PipelineConfig", "annotate_dataset", "annotate_item", "build_main_prompt"),
    "scoring": ("evaluate", "expand_soft", "iou", "spearman"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
