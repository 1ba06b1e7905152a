from __future__ import annotations

import ast
import json
import math
import random
import re
import sqlite3
import threading
from contextlib import closing
from pathlib import Path
from typing import Mapping

import pytest
import requests
from hypothesis import strategies as st

import hallmark.llm
from hallmark import JsonFileCache, MarkingRule, MockProvider, QAItem, SpanLabel
from hallmark.knowledge import JSON_ATTEMPTS
from hallmark.llm import Batch

SWIMMER_QUESTION = "What did Petra van Staveren win a gold medal for?"
SWIMMER_ANSWER = (
    "Petra van Stoveren won a silver medal in the 2008 Summer Olympics in Beijing, China."
)
SWIMMER_HALLUCINATED = ("silver", "2008", "Beijing, China")

# Character pools for multilingual random-text generation. Marker
# delimiter characters are deliberately absent.
SCRIPT_POOLS = {
    "latin": "abcdefghijklmnopqrstuvwxyz ,.",
    "cjk": "的一是不了人我在有他这中大来上国个到说们为子和你地出道也时年得就那要下",
    "devanagari": "अआइईउऊएऐओऔकखगघचछजझटठडढणतथदधनपफबभमयरलवशषसह ",
    "arabic": "ابتثجحخدذرزسشصضطظعغفقكلمنهوي ",
}


def swimmer_spans() -> list[SpanLabel]:
    return [
        SpanLabel(SWIMMER_ANSWER.index(sub), SWIMMER_ANSWER.index(sub) + len(sub))
        for sub in SWIMMER_HALLUCINATED
    ]


@pytest.fixture
def swimmer_item() -> QAItem:
    return QAItem(
        id="swimmer-1", lang="EN", question=SWIMMER_QUESTION, answer=SWIMMER_ANSWER
    )


@pytest.fixture
def swimmer_rule() -> MarkingRule:
    return MarkingRule(answer=SWIMMER_ANSWER, spans=tuple(swimmer_spans()))


@pytest.fixture
def open_cache():
    """``open_cache(directory)`` opens a JsonFileCache there; the test's teardown closes each one it opened."""
    opened = []

    def open_(directory) -> JsonFileCache:
        opened.append(JsonFileCache(directory))
        return opened[-1]

    yield open_
    for cache in opened:
        cache.close()


@pytest.fixture
def cache(tmp_path, open_cache) -> JsonFileCache:
    return open_cache(tmp_path / "cache")


def cache_rows(directory: Path) -> dict:
    """Every entry of the response cache in ``directory``, read from its SQLite file directly."""
    with closing(sqlite3.connect(directory / "cache.sqlite3")) as db:
        return {key: json.loads(value) for key, value in db.execute("SELECT key, value FROM entries")}


def wire_response(body: bytes) -> requests.Response:
    """An HTTP 200 response carrying ``body`` as its raw bytes."""
    response = requests.Response()
    response.status_code = 200
    response._content = body
    return response


SRC = Path(__file__).resolve().parent.parent / "src" / "hallmark"


def call_sites(pattern):
    """``file:function`` of each line in ``src/hallmark`` that matches ``pattern``."""
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        functions = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)]
        for line_no, line in enumerate(source.splitlines(), start=1):
            if re.search(pattern, line):
                around = [f for f in functions if f.lineno <= line_no <= f.end_lineno]
                sites.add(f"{path.name}:{max(around, key=lambda f: f.lineno).name if around else None}")
    return sites


def batch_with(**fields) -> Batch:
    """An unbounded ``Batch`` that holds the given ``chat``, ``wiki`` or ``stopped`` object in place of its own."""
    batch = Batch(math.inf)
    assert fields.keys() <= vars(batch).keys()
    vars(batch).update(fields)
    return batch


def nested(depth: int) -> bytes:
    """A JSON array nested ``depth`` deep."""
    return b"[" * depth + b"]" * depth


JSON_TEXT = st.text(max_size=6) | st.sampled_from(["length", "stop", "\udcff"])  # finish reasons; a lone surrogate
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def json_bodies(shape) -> st.SearchStrategy:
    """JSON values of ``shape`` (dicts, lists of ``shape[0]``, and None where a string goes), any part of
    which may be any JSON value instead, so that examples reach every level a reader looks at."""
    if isinstance(shape, dict):
        shaped = st.fixed_dictionaries({key: json_bodies(inner) for key, inner in shape.items()})
    elif isinstance(shape, list):
        shaped = st.lists(json_bodies(shape[0]), min_size=1, max_size=2)
    else:
        shaped = JSON_TEXT
    return st.one_of(shaped, shaped, shaped, JSON_VALUES)  # mostly the shape, so that the deep levels come up


def random_text(rng: random.Random, pool: str, min_len: int = 1, max_len: int = 60) -> str:
    n = rng.randint(min_len, max_len)
    return "".join(rng.choice(pool) for _ in range(n))


def random_nonadjacent_spans(
    rng: random.Random, length: int, max_spans: int = 4
) -> list[tuple[int, int]]:
    """Random sorted spans separated by at least one character."""
    spans: list[tuple[int, int]] = []
    pos = 0
    for _ in range(rng.randint(0, max_spans)):
        if pos >= length:
            break
        start = rng.randint(pos, length - 1)
        end = rng.randint(start + 1, min(length, start + 8))
        spans.append((start, end))
        pos = end + 1
    return spans


STOCK_MOCK = MockProvider()  # no rules: the knowledge chain's stock replies, and MockError for anything else


class FakeProvider:
    """A provider for tests: it records each request in ``calls`` and answers it from ``reply``.

    ``reply`` is a function of the request, a mapping from prompt to reply,
    or one reply for every request. A prompt the mapping lacks goes to
    ``STOCK_MOCK``. A reply that is an exception is raised instead.
    """

    def __init__(self, reply, name: str = "fake"):
        self.reply = reply
        self.name = name
        self.calls = []
        self._lock = threading.Lock()

    @property
    def call_count(self) -> int:
        return len(self.calls)

    def send(self, req):
        with self._lock:
            self.calls.append(req)
        if isinstance(self.reply, Mapping):
            reply = self.reply[req.user_prompt] if req.user_prompt in self.reply else STOCK_MOCK.send(req)
        else:
            reply = self.reply(req) if callable(self.reply) else self.reply
        if isinstance(reply, Exception):
            raise reply
        return reply


def by_tag(replies: Mapping, otherwise=STOCK_MOCK.send):
    """A reply function: ``replies[seed_tag]`` for a seed tag the table holds, else ``otherwise(req)``."""
    return lambda req: replies[req.seed_tag] if req.seed_tag in replies else otherwise(req)


def roles_replies(*roles: str) -> dict:
    """A seed-tag table naming ``roles`` in reply to each roles attempt."""
    reply = json.dumps({"Identities": list(roles), "Reason": "scripted"})
    return {f"roles-attempt-{attempt}": reply for attempt in range(JSON_ATTEMPTS)}


@pytest.fixture
def built_mocks(monkeypatch) -> list:
    """Each mock provider ``hallmark annotate`` builds, as a FakeProvider over it that records its requests."""
    built = []

    def build(rules):
        built.append(FakeProvider(MockProvider(rules=rules).send))
        return built[-1]

    monkeypatch.setattr(hallmark.llm, "MockProvider", build)
    return built
