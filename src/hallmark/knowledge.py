"""Internal-knowledge diversification (expert roles) and external knowledge
(Wikipedia retrieval plus LLM refinement).

Every step degrades gracefully: a failed call or bad reply costs one of two
attempts, then roles fall back to one generic role and a summary to the raw
extract; any other failure along the keyword -> search -> extract chain just
leaves the item without external knowledge. Annotation never aborts for it.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

from .cache import JsonFileCache, make_key
from .core import QAItem
from .errors import KnowledgeError, ProviderError
from .jsonl import is_json_type, json_value, load_json
from .llm import CompletionRequest, LLMClient, transient_checked, with_retries
from .prompts import DEFAULT_ROLE, load_template, primary_subtag, render

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

KNOWLEDGE_TEMPERATURE = 0.0  # knowledge-chain calls should be reproducible
KNOWLEDGE_MAX_TOKENS = 1024
JSON_ATTEMPTS = 2  # tries per JSON-producing prompt, each with its own seed tag
MAX_RAW_CHARS = 8000  # Wikipedia extract kept, and part of its cache key
FALLBACK_CHARS = 2000  # raw text used when both summary attempts fail
WIKIPEDIA_TIMEOUT_S = 30.0
WIKIPEDIA_RETRIES = 2


@dataclass(frozen=True)
class KnowledgeBundle:
    """Everything attached to an item before annotation starts."""

    roles: tuple[str, ...]
    keyword: str | None = None
    refined_external: str | None = None
    provenance: str | None = None


def _extract_json(reply: str) -> dict:
    """Parse the first JSON object in an LLM reply, tolerating code fences."""
    start = reply.find("{")
    end = reply.rfind("}")
    if start == -1 or end <= start:
        raise ValueError("no JSON object in reply")
    obj = load_json(reply[start : end + 1])
    if not isinstance(obj, dict):
        raise ValueError("reply JSON is not an object")
    return obj


def _roles(identities: Any) -> list[str] | None:
    """Up to 5 distinct identities, stripped, from a list; entries that are not text are skipped."""
    if not isinstance(identities, list):
        return None
    return list(dict.fromkeys(e.strip() for e in identities if is_json_type(e, str) and e.strip()))[:5]


def _knowledge(knowledge: Any) -> str | None:
    return knowledge.strip() if is_json_type(knowledge, str) else None


class WikipediaClient:
    """Thin wrapper over the per-language Wikipedia query API."""

    def __init__(
        self,
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if session is None:
            import requests

            from . import __version__  # here, because the package imports this module before it sets its version

            session = requests.Session()  # a descriptive User-Agent, per the Wikimedia User-Agent policy
            session.headers["User-Agent"] = (
                f"hallmark/{__version__} (hallucination span annotator) {requests.utils.default_user_agent()}"
            )
        self._session = session
        self._sleep = sleep

    def _get_json(self, url: str, params: dict) -> dict:
        def get() -> requests.Response:
            return self._session.get(url, params=params, timeout=WIKIPEDIA_TIMEOUT_S)

        try:
            response = with_retries(lambda: transient_checked(get, "wikipedia"), WIKIPEDIA_RETRIES, 1.0, self._sleep)
            if response.status_code != 200:
                raise ValueError(f"HTTP {response.status_code}")
            return load_json(response.content)
        except (ProviderError, ValueError) as exc:
            raise KnowledgeError(f"wikipedia request failed: {exc}") from exc

    @staticmethod
    def _api_url(lang: str) -> str:
        return f"https://{lang}.wikipedia.org/w/api.php"

    def search_first_title(self, keyword: str, lang: str) -> str | None:
        data = self._get_json(
            self._api_url(lang),
            {
                "action": "query",
                "list": "search",
                "srsearch": keyword,
                "srlimit": 1,
                "format": "json",
            },
        )
        try:
            hits = data.get("query", {}).get("search", [])
            return json_value(hits[0]["title"], str) if hits else None
        except (AttributeError, KeyError, TypeError) as exc:
            raise KnowledgeError(f"malformed search payload from {lang} wikipedia: {exc!r}") from exc

    def fetch_extract(self, title: str, lang: str) -> str | None:
        data = self._get_json(
            self._api_url(lang),
            {
                "action": "query",
                "prop": "extracts",
                "explaintext": 1,
                "redirects": 1,
                "titles": title,
                "format": "json",
            },
        )
        try:
            pages = data.get("query", {}).get("pages", {})
            return next((json_value(page["extract"], str) for page in pages.values() if page.get("extract")), None)
        except (AttributeError, TypeError) as exc:
            raise KnowledgeError(f"malformed extract payload from {lang} wikipedia: {exc!r}") from exc


class KnowledgeService:
    """Produces KnowledgeBundles.

    The LLM steps rely on ``LLMClient``'s response cache and parse their
    replies deterministically, so a repeated call replays the same result;
    ``cache`` holds only Wikipedia fetches, the one step that goes to the
    network on its own. Retries of JSON-producing prompts use distinct seed
    tags, otherwise the response cache would replay the same malformed reply.
    """

    def __init__(
        self,
        llm: LLMClient,
        wiki: WikipediaClient | None,
        model: str,
        cache: JsonFileCache | None = None,
    ):
        self.llm = llm
        self.wiki = wiki
        self.model = model
        self.cache = cache

    def _ask(self, template: str, values: Mapping[str, str], tag: str) -> str:
        return self.llm.complete(
            CompletionRequest(
                model=self.model,
                user_prompt=render(load_template(template), values),
                temperature=KNOWLEDGE_TEMPERATURE,
                max_tokens=KNOWLEDGE_MAX_TOKENS,
                seed_tag=tag,
            )
        )

    def _ask_json(self, template: str, values: Mapping[str, str], tag: str, field: str, accept: Callable) -> Any:
        """The first non-empty ``accept(reply[field])`` of ``JSON_ATTEMPTS`` tries, or None.

        Try N has the seed tag ``<tag>-attempt-N``, and a ProviderError costs it like a bad reply.
        ``accept`` gets None for a missing field, and returns None or an empty value to refuse.
        """
        for attempt in range(JSON_ATTEMPTS):
            try:
                value = accept(_extract_json(self._ask(template, values, f"{tag}-attempt-{attempt}")).get(field))
            except (ProviderError, ValueError) as exc:  # a failed call, no JSON object, or one nested too deep
                logger.warning("%s-attempt-%d failed (%s)", tag, attempt, exc)
                continue
            if value:
                return value
        return None

    def assign_roles(self, item: QAItem) -> list[str]:
        """Ask for up to 5 distinct expert identities for this QA pair.

        Falls back to the single default role when both attempts fail.
        """
        values = {"lang": item.lang, "question": item.question, "answer": item.answer}
        roles = self._ask_json("assign_roles", values, "roles", "Identities", _roles)
        if roles is None:
            logger.warning("item %s: role assignment failed, using fallback role", item.id)
            roles = [DEFAULT_ROLE]
        return roles

    def extract_keyword(self, item: QAItem) -> str:
        """Pull the Wikipedia query keyword out of the question."""
        reply = self._ask("extract_keyword", {"question": item.question}, "keyword")
        for line in reply.splitlines():
            stripped = line.strip()
            if stripped.lower().startswith("keyword:"):
                keyword = stripped[len("keyword:") :].strip()
                if keyword:
                    return keyword
        raise KnowledgeError(f"item {item.id}: reply contains no 'Keyword:' line")

    def fetch_wikipedia(self, keyword: str, lang: str) -> tuple[str, str]:
        """Fetch the plain-text extract of the first search hit.

        Searches the item-language wiki first and falls back to English;
        returns (text, provenance URL). Raises KnowledgeError when both
        wikis come up empty or the network gives out. Both wikis coming up
        empty is an answer too, and is cached like a hit; a failed request
        is not.
        """
        if not keyword:
            raise KnowledgeError("empty keyword")
        if self.wiki is None:
            raise KnowledgeError("no wikipedia client configured")
        wikis = list(dict.fromkeys([primary_subtag(lang) or "en", "en"]))
        key = make_key("fetch_wikipedia", {"keyword": keyword, "lang": lang, "max_chars": MAX_RAW_CHARS})
        found = self.cache.get(key) if self.cache is not None else None
        if found is None:
            found = {"text": None, "provenance": None}
            for wiki_lang in wikis:
                title = self.wiki.search_first_title(keyword, wiki_lang)
                extract = self.wiki.fetch_extract(title, wiki_lang) if title is not None else None
                if extract:
                    provenance = f"https://{wiki_lang}.wikipedia.org/wiki/{title.replace(' ', '_')}"
                    found = {"text": extract[:MAX_RAW_CHARS], "provenance": provenance}
                    break
            if self.cache is not None:
                self.cache.put(key, found)
        if found["text"] is None:
            raise KnowledgeError(f"no wikipedia results for {keyword!r} in {wikis}")
        return found["text"], found["provenance"]

    def summarize_knowledge(self, item: QAItem, raw: str) -> str:
        """Refine a raw extract into a compact reference paragraph.

        Falls back to the truncated raw text when both attempts fail.
        """
        if not raw:
            raise KnowledgeError("nothing to summarize")
        values = {"lang": item.lang, "question": item.question, "answer": item.answer, "knowledge": raw}
        refined = self._ask_json("summarize_knowledge", values, "summary", "Knowledge", _knowledge)
        if refined is None:
            logger.warning("item %s: summarization failed, using truncated raw text", item.id)
            refined = raw[:FALLBACK_CHARS]
        return refined

    def build_bundle(self, item: QAItem, use_roles: bool = True, use_external: bool = True) -> KnowledgeBundle:
        """Run the full knowledge chain for one item."""
        roles = self.assign_roles(item) if use_roles else [DEFAULT_ROLE]
        keyword = refined = provenance = None
        if use_external:
            try:
                keyword = self.extract_keyword(item)
                raw, provenance = self.fetch_wikipedia(keyword, item.lang)
                refined = self.summarize_knowledge(item, raw)
            except (KnowledgeError, ProviderError) as exc:
                logger.warning("item %s: proceeding without external knowledge (%s)", item.id, exc)
        return KnowledgeBundle(roles=tuple(roles), keyword=keyword, refined_external=refined, provenance=provenance)
