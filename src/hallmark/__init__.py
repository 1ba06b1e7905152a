"""Ensemble LLM annotation of hallucination spans in multilingual QA data.

The package runs several role-conditioned annotator calls per item, parses
the in-place span markers each one returns, aligns every rewrite back onto
the original answer, and aggregates the surviving runs into per-character
probabilities, soft labels, and majority-vote hard labels. A scorer for
the character-IoU and Spearman metrics is included.
"""

from .aggregate import AnnotationRun, aggregate, to_hard_labels, to_soft_labels
from .alignment import AlignmentResult, align, project_spans, validate_run
from .cache import JsonFileCache
from .core import (
    GoldRecord,
    PredictionRecord,
    QAItem,
    SpanLabel,
    coverage,
    runs_of,
)
from .jsonl import read_gold, read_items, read_predictions, write_predictions
from .knowledge import KnowledgeBundle, KnowledgeService, WikipediaClient
from .llm import (
    CompletionRequest,
    LLMClient,
    MarkingRule,
    MockProvider,
    OpenAIChatProvider,
    ProviderConfig,
    RateLimiter,
)
from .marking import ParsedMarking, insert_markers, parse_marked
from .pipeline import PipelineConfig, annotate_dataset, annotate_item, build_main_prompt
from .scoring import evaluate, expand_soft, iou, spearman

__version__ = "0.1.0"

__all__ = [
    "AlignmentResult",
    "AnnotationRun",
    "CompletionRequest",
    "GoldRecord",
    "JsonFileCache",
    "KnowledgeBundle",
    "KnowledgeService",
    "LLMClient",
    "MarkingRule",
    "MockProvider",
    "OpenAIChatProvider",
    "ParsedMarking",
    "PipelineConfig",
    "PredictionRecord",
    "ProviderConfig",
    "QAItem",
    "RateLimiter",
    "SpanLabel",
    "WikipediaClient",
    "aggregate",
    "align",
    "annotate_dataset",
    "annotate_item",
    "build_main_prompt",
    "coverage",
    "evaluate",
    "expand_soft",
    "insert_markers",
    "iou",
    "parse_marked",
    "project_spans",
    "read_gold",
    "read_items",
    "read_predictions",
    "runs_of",
    "spearman",
    "to_hard_labels",
    "to_soft_labels",
    "validate_run",
    "write_predictions",
]
