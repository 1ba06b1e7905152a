"""Seeded workload generator.

A workload is a list of QA items plus, for every item, a plan: the reply
the simulated annotator gives on each run, what the simulated Wikipedia
holds for the item, and the hard and soft labels a correct pipeline must
derive from those replies. The planned labels are computed here, with no
help from hallmark, so the benchmark can check the program against them.

Structure (answer lengths, run kinds, which items are clean, which carry
guillemets, which miss on Wikipedia) follows the stated settings exactly,
so every seed exercises the same amount of each kind of work. The seed
drives the content: the words, the spans, the votes, the run order and
where drift falls.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass

from hallmark.core import QAItem

MARK_OPEN, MARK_CLOSE = "⟨⟨", "⟩⟩"
RUNS_N = 12
THRESHOLD = 0.5
MIN_SIMILARITY = 0.7
REPLY_SENTINEL = "Revised answer:"

# The languages of the shipped 10-item sample.
LANGS = ("EN", "ES", "FR", "DE", "HI", "ZH", "AR", "FI", "CS")

# Characters hallmark's parser may take for delimiters when they appear in
# an answer (ROADMAP 3a). Items containing them are scored, but left out of
# the exact-label correctness check.
MARKER_LIKE = frozenset("«»<>⟨⟩")

# Share of the FR and ES answers that quote a title in « », spread evenly.
GUILLEMET_SHARE = 0.5

RUN_KINDS = ("verbatim", "drift", "heavy", "unbalanced")
# Every CLEAN_EVERY-th item has no hallucination at all.
CLEAN_EVERY = 4
VALID_KINDS = frozenset({"verbatim", "drift"})

# Share of items per Wikipedia outcome, laid out by item index: a hit in
# the item's language, a miss there and a hit on English, a miss on both.
WIKI_PATTERN = ("primary",) * 7 + ("fallback",) * 2 + ("none",)


@dataclass(frozen=True)
class Settings:
    """Everything a workload's inputs are generated from, except the seed."""

    name: str
    why: str
    # (target answer length in chars, number of items)
    classes: tuple[tuple[int, int], ...]
    # runs of each kind per item; sums to RUNS_N. Every workload uses
    # DRIFT_MIX; the tests also check the planned labels on a verbatim-only mix
    run_mix: tuple[tuple[str, int], ...]
    items_in_flight: int
    # set-up fills the cache by running the program cold on every item,
    # and every batch starts from that cache; otherwise from an empty one
    warm: bool
    # (fault, share of chat requests): http429, http503, null, malformed
    faults: tuple[tuple[str, float], ...] = ()

    def describe(self) -> dict:
        d = asdict(self)
        d["classes"] = {str(length): n for length, n in self.classes}
        d["run_mix"] = dict(self.run_mix)
        d["faults"] = dict(self.faults)
        d["languages"] = list(LANGS)
        d["guillemet_share"] = GUILLEMET_SHARE
        d["runs_n"] = RUNS_N
        d["clean_every"] = CLEAN_EVERY
        d["wiki_outcomes"] = {k: WIKI_PATTERN.count(k) / len(WIKI_PATTERN) for k in set(WIKI_PATTERN)}
        return d


DRIFT_MIX = (("verbatim", 8), ("drift", 2), ("heavy", 1), ("unbalanced", 1))
SHORT = 120
LONG_CLASSES = ((SHORT, 8), (500, 4), (2000, 2), (5000, 1))

WORKLOADS = {
    s.name: s
    for s in (
        Settings(
            name="resume-long",
            why=(
                "A resume or threshold sweep over long answers: the cache is warm, so "
                "cache reads, marking, alignment and aggregation do nearly all the work."
            ),
            classes=LONG_CLASSES,
            run_mix=DRIFT_MIX,
            items_in_flight=1,
            warm=True,
        ),
        Settings(
            name="cold-short",
            why=(
                "A first pass over short answers: wall time is endpoint wait divided by "
                "concurrency, cache writes replace reads, and alignment costs under 1 ms."
            ),
            classes=((SHORT, 36),),
            run_mix=DRIFT_MIX,
            items_in_flight=2,
            warm=False,
        ),
        Settings(
            name="cold-long",
            why=(
                "A first pass over long answers: the user waits on the endpoint and on "
                "alignment, which grows with answer length, so CPU work shows in wall time."
            ),
            classes=LONG_CLASSES,
            run_mix=DRIFT_MIX,
            items_in_flight=2,
            warm=False,
        ),
        Settings(
            name="flaky-endpoint",
            why=(
                "The cold-short shape against an endpoint that rate-limits, fails and "
                "returns null or malformed payloads: exercises retry, backoff and failure paths."
            ),
            classes=((SHORT, 36),),
            run_mix=DRIFT_MIX,
            items_in_flight=2,
            warm=False,
            faults=(("http429", 0.04), ("http503", 0.03), ("null", 0.01), ("malformed", 0.01)),
        ),
    )
}


@dataclass(frozen=True)
class ItemPlan:
    item: QAItem
    roles: tuple[str, ...]
    run_kinds: tuple[str, ...]
    replies: tuple[str, ...]
    hard: tuple[tuple[int, int], ...]
    soft: tuple[tuple[int, int, float], ...]
    keyword: str
    wiki: str
    extract: str
    summary: str

    @property
    def valid_runs(self) -> int:
        return sum(kind in VALID_KINDS for kind in self.run_kinds)

    @property
    def marker_like(self) -> bool:
        return any(c in MARKER_LIKE for c in self.item.answer)


@dataclass(frozen=True)
class Workload:
    settings: Settings
    seed: int
    plans: tuple[ItemPlan, ...]


# --- text --------------------------------------------------------------

_LATIN = {
    "EN": ("bcdfghklmnprstvw", "aeiou"),
    "ES": ("bcdfglmnñprstvz", "aeiouáéó"),
    "FR": ("bcdfglmnprstvz", "aeiouéèà"),
    "DE": ("bdfghklmnprstwz", "aeiouäöü"),
    "FI": ("hjklmnprstv", "aeiouyäö"),
    "CS": ("bcčdhklmnprřsštvz", "aeiouyáíě"),
}
_HI_CONS = "कखगचजटडतदनपबमयरलवसह"
_HI_MATRA = ("", "ा", "ि", "ी", "ु", "े", "ो")
_ZH = "的一是不了人我在有他这中大来上国个到说们为子和你地出道也时年得就那要下以生会自着去之过家学对可里后小么心多天而能好都然没日于起还发成事只作当想看文无开手十用主行方又如前所本见经头面公同三已老从动两长"
_AR = "ابتثجحخدذرزسشصضطعغفقكلمنهوي"
_GREEK = "αβγδεζηθικλμνξοπρστυφχψω"

_SENTENCE_END = {"HI": "।", "ZH": "。"}
_QUESTION = {
    "EN": "What is {} known for?",
    "ES": "¿Por qué es conocido {}?",
    "FR": "Pourquoi {} est-il connu ?",
    "DE": "Wofür ist {} bekannt?",
    "HI": "{} किस लिए जाना जाता है?",
    "ZH": "{}以什么闻名？",
    "AR": "بماذا يشتهر {}؟",
    "FI": "Mistä {} tunnetaan?",
    "CS": "Čím je známý {}?",
}
_ROLE_POOL = (
    "historian",
    "geographer",
    "sports journalist",
    "linguist",
    "physicist",
    "film critic",
    "biologist",
    "economist",
    "librarian",
    "political scientist",
)


def _letters(lang: str) -> str:
    """The characters light drift may substitute in ``lang`` text."""
    if lang in _LATIN:
        cons, vowels = _LATIN[lang]
        return cons + vowels
    return {"HI": _HI_CONS, "ZH": _ZH, "AR": _AR}[lang]


def _word(rng: random.Random, lang: str) -> str:
    if lang in _LATIN:
        cons, vowels = _LATIN[lang]
        parts = []
        for _ in range(rng.randint(1, 3)):
            parts.append(rng.choice(cons) + rng.choice(vowels))
            if rng.random() < 0.3:
                parts.append(rng.choice(cons))
        return "".join(parts)
    if lang == "HI":
        return "".join(rng.choice(_HI_CONS) + rng.choice(_HI_MATRA) for _ in range(rng.randint(2, 3)))
    if lang == "ZH":
        return "".join(rng.choice(_ZH) for _ in range(rng.randint(1, 3)))
    return "".join(rng.choice(_AR) for _ in range(rng.randint(3, 6)))


def _name(rng: random.Random, lang: str) -> str:
    words = [_word(rng, lang) for _ in range(2)]
    if lang in _LATIN:
        words = [w.capitalize() for w in words]
    return ("" if lang == "ZH" else " ").join(words)


class _Text:
    """An answer under construction, with the offsets of every word."""

    def __init__(self, lang: str):
        self.lang = lang
        self.sep = "" if lang == "ZH" else " "
        self.parts: list[str] = []
        self.length = 0
        self.words: list[tuple[int, int, bool]] = []  # (start, end, may be marked)

    def add(self, s: str, word: bool = False, markable: bool = True) -> None:
        if word:
            self.words.append((self.length, self.length + len(s), markable))
        self.parts.append(s)
        self.length += len(s)

    def text(self) -> str:
        return "".join(self.parts)


def _answer(rng: random.Random, lang: str, target: int, quote: bool) -> _Text:
    """Sentences of random words until ``target`` chars; with ``quote``, the
    first sentence quotes a title in guillemets, as FR and ES answers do."""
    t = _Text(lang)
    end = _SENTENCE_END.get(lang, ".")
    while t.length < target:
        first_sentence = t.length == 0
        if not first_sentence:
            t.add(t.sep)
        for w in range(rng.randint(5, 12)):
            if w:
                t.add(t.sep)
            if quote and first_sentence and w == 2:
                title = " ".join(_word(rng, lang).capitalize() for _ in range(2))
                t.add(f"« {title} »" if lang == "FR" else f"«{title}»", word=True, markable=False)
                continue
            word = _word(rng, lang)
            if w == 0 and lang in _LATIN:
                word = word.capitalize()
            elif rng.random() < 0.05:
                word = str(rng.randint(1200, 2024))
            t.add(word, word=True)
            if t.length >= target and w >= 1:
                break
        t.add(end)
    return t


def _pick_spans(rng: random.Random, t: _Text, n_spans: int) -> list[tuple[int, int]]:
    """Choose up to ``n_spans`` spans of 1-3 whole words with a word between them."""
    words = t.words
    spans: list[tuple[int, int]] = []
    taken: set[int] = set()
    for _ in range(n_spans * 20):
        if len(spans) == n_spans:
            break
        first = rng.randrange(len(words))
        last = min(len(words) - 1, first + rng.randint(0, 2))
        idx = range(first, last + 1)
        if any(not words[i][2] for i in idx):
            continue
        if any(i in taken for i in range(first - 1, last + 2)):
            continue
        taken.update(idx)
        spans.append((words[first][0], words[last][1]))
    return sorted(spans)


def insert_marks(text: str, spans) -> str:
    out, pos = [], 0
    for s, e in sorted(spans):
        out += [text[pos:s], MARK_OPEN, text[s:e], MARK_CLOSE]
        pos = e
    out.append(text[pos:])
    return "".join(out)


def _drift(rng: random.Random, answer: str, lang: str, spans, quote_span) -> tuple[str, list[tuple[int, int]]]:
    """Typo-level edits outside the planned spans: letter substitutions and,
    in longer answers, one dropped sentence end. Returns the drifted text and
    the spans moved to its offsets."""
    margin = 3
    blocked = set()
    for s, e in list(spans) + ([quote_span] if quote_span else []):
        blocked.update(range(s - margin, e + margin))
    pool = _letters(lang)
    candidates = [i for i, c in enumerate(answer) if c in pool and i not in blocked]
    chars = list(answer)
    for i in rng.sample(candidates, min(len(candidates), max(1, len(answer) // 100))):
        chars[i] = rng.choice(pool.replace(chars[i], ""))
    new_spans = list(spans)
    end = _SENTENCE_END.get(lang, ".")
    drops = [i for i, c in enumerate(chars[:-1]) if c == end and i not in blocked]
    if len(answer) >= 500 and drops:
        d = rng.choice(drops)
        del chars[d]
        new_spans = [(s - (s > d), e - (e > d)) for s, e in spans]
    return "".join(chars), new_spans


def _reply(rng: random.Random, lang: str, marked: str) -> str:
    reference = " ".join(_word(rng, lang) for _ in range(6))
    return (
        f"Reference answer: {reference}\n"
        f"Analysis: compared with the reference and the external knowledge.\n"
        f"{REPLY_SENTINEL} {marked}"
    )


def _plan_item(rng: random.Random, index: int, s: Settings, target: int, lang: str, quote: bool, names: set) -> ItemPlan:
    name = _name(rng, lang)
    while name in names:
        name = _name(rng, lang)
    names.add(name)
    t = _answer(rng, lang, target, quote)
    answer = t.text()
    quote_span = next(((a, b) for a, b, markable in t.words if not markable), None)

    clean = index % CLEAN_EVERY == CLEAN_EVERY - 1
    n_spans = 0 if clean else 1 + rng.randrange(max(1, target // 400))
    spans = _pick_spans(rng, t, n_spans)

    kinds = [k for k, n in s.run_mix for _ in range(n)]
    if len(kinds) != RUNS_N or not set(kinds) <= set(RUN_KINDS):
        raise ValueError(f"run mix of {s.name} must be {RUNS_N} runs of the kinds {RUN_KINDS}")
    rng.shuffle(kinds)
    valid = [i for i, k in enumerate(kinds) if k in VALID_KINDS]
    # One valid run dissents and marks nothing; the first span is marked by
    # every other valid run, the rest by a random number of them.
    dissent = rng.choice(valid) if valid else None
    markers = [i for i in valid if i != dissent]
    votes: dict[int, list[tuple[int, int]]] = {i: [] for i in range(RUNS_N)}
    soft = []
    for j, span in enumerate(spans):
        count = len(markers) if j == 0 else rng.randint(1, len(markers))
        for i in rng.sample(markers, count):
            votes[i].append(span)
        if count:
            soft.append((span[0], span[1], count / len(valid)))
    hard = tuple((a, b) for a, b, p in soft if p >= THRESHOLD)

    replies = []
    for i, kind in enumerate(kinds):
        run_spans = sorted(votes[i]) if kind in VALID_KINDS else spans[: rng.randint(0, len(spans))]
        if kind == "verbatim":
            marked = insert_marks(answer, run_spans)
        elif kind == "drift":
            text, moved = _drift(rng, answer, lang, run_spans, quote_span)
            marked = insert_marks(text, moved)
        elif kind == "heavy":
            # Keep a third of the answer and rewrite the rest in letters the
            # answer does not use, so similarity stays below the gate.
            keep = len(answer) // 3
            tail = ""
            while len(tail) < len(answer) - keep:
                tail += " " + "".join(rng.choice(_GREEK) for _ in range(rng.randint(3, 7)))
            first_start, first_end = t.words[0][:2]
            marked = insert_marks(answer[:keep] + tail[: len(answer) - keep], [(first_start, min(first_end, keep))])
        else:  # unbalanced: one opening marker too many
            marked = insert_marks(answer, run_spans)
            at = rng.choice([i for i, c in enumerate(marked) if c == " "] or [0])
            marked = marked[:at] + MARK_OPEN + marked[at:]
        replies.append(_reply(rng, lang, marked))

    roles = tuple(rng.sample(_ROLE_POOL, 4))
    wiki = WIKI_PATTERN[index % len(WIKI_PATTERN)]
    extract_lang = "EN" if wiki == "fallback" else lang
    extract = _answer(rng, extract_lang, 800, False).text()
    summary = _answer(rng, "EN", 200, False).text()
    return ItemPlan(
        item=QAItem(
            id=f"{s.name}-{index:04d}",
            lang=lang,
            question=_QUESTION[lang].format(name),
            answer=answer,
        ),
        roles=roles,
        run_kinds=tuple(kinds),
        replies=tuple(replies),
        hard=hard,
        soft=tuple(soft),
        keyword=name,
        wiki=wiki,
        extract=extract,
        summary=summary,
    )


def generate(settings: Settings, seed: int) -> Workload:
    """Build the workload's items and plans; the same seed gives the same inputs."""
    rng = random.Random(f"{settings.name}/{seed}")
    plans = []
    names: set[str] = set()
    quoted_seen = {"ES": 0, "FR": 0}
    index = 0
    for target, count in settings.classes:
        for _ in range(count):
            lang = LANGS[index % len(LANGS)]
            quote = False
            if lang in quoted_seen:
                k = quoted_seen[lang]
                quoted_seen[lang] += 1
                quote = int((k + 1) * GUILLEMET_SHARE) > int(k * GUILLEMET_SHARE)
            plans.append(_plan_item(rng, index, settings, target, lang, quote, names))
            index += 1
    return Workload(settings=settings, seed=seed, plans=tuple(plans))
