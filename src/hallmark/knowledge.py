"""Internal-knowledge diversification (expert roles) and external knowledge
(Wikipedia retrieval plus LLM refinement).

Every step degrades gracefully: a failed role assignment falls back to a
single generic role, and any failure along the keyword -> search ->
extract -> summarize chain just leaves the item without external
knowledge. Annotation never aborts because knowledge retrieval failed.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from typing import Callable

import requests

from .cache import JsonFileCache, make_key
from .core import QAItem
from .errors import AuthError, KnowledgeError, ProviderError
from .llm import CompletionRequest, LLMClient
from .prompts import DEFAULT_ROLE, load_template, primary_subtag, render

logger = logging.getLogger(__name__)

KNOWLEDGE_TEMPERATURE = 0.0  # knowledge-chain calls should be reproducible
KNOWLEDGE_MAX_TOKENS = 1024
JSON_ATTEMPTS = 2  # tries per JSON-producing prompt, each with its own seed tag
MAX_RAW_CHARS = 8000  # Wikipedia extract kept, and part of its cache key
FALLBACK_CHARS = 2000  # raw text used when summarization does not parse
WIKIPEDIA_TIMEOUT_S = 30.0
WIKIPEDIA_RETRIES = 2


@dataclass(frozen=True)
class KnowledgeBundle:
    """Everything attached to an item before annotation starts."""

    roles: tuple[str, ...]
    keyword: str | None = None
    raw_external: str | None = None
    refined_external: str | None = None
    provenance: str | None = None


def _extract_json(reply: str) -> dict:
    """Parse the first JSON object in an LLM reply, tolerating code fences."""
    start = reply.find("{")
    end = reply.rfind("}")
    if start == -1 or end <= start:
        raise ValueError("no JSON object in reply")
    obj = json.loads(reply[start : end + 1])
    if not isinstance(obj, dict):
        raise ValueError("reply JSON is not an object")
    return obj


class WikipediaClient:
    """Thin wrapper over the per-language Wikipedia query API."""

    def __init__(
        self,
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self._session = session or requests.Session()
        self._sleep = sleep

    def _get_json(self, url: str, params: dict) -> dict:
        last_exc: Exception | None = None
        for attempt in range(WIKIPEDIA_RETRIES + 1):
            try:
                response = self._session.get(url, params=params, timeout=WIKIPEDIA_TIMEOUT_S)
                if response.status_code != 200:
                    raise ValueError(f"HTTP {response.status_code}")
                return response.json()
            except (requests.RequestException, ValueError) as exc:
                last_exc = exc
                if attempt < WIKIPEDIA_RETRIES:
                    self._sleep(1.0 * (attempt + 1))
        raise KnowledgeError(f"wikipedia request failed: {last_exc}")

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
        hits = data.get("query", {}).get("search", [])
        if not hits:
            return None
        return hits[0].get("title")

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
        pages = data.get("query", {}).get("pages", {})
        for page in pages.values():
            extract = page.get("extract")
            if extract:
                return extract
        return None


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
        self._roles_template = load_template("assign_roles")
        self._keyword_template = load_template("extract_keyword")
        self._summary_template = load_template("summarize_knowledge")

    def _complete(self, prompt: str, seed_tag: str) -> str:
        return self.llm.complete(
            CompletionRequest(
                model=self.model,
                user_prompt=prompt,
                temperature=KNOWLEDGE_TEMPERATURE,
                max_tokens=KNOWLEDGE_MAX_TOKENS,
                seed_tag=seed_tag,
            )
        )

    def assign_roles(self, item: QAItem) -> list[str]:
        """Ask for up to 5 distinct expert identities for this QA pair.

        Falls back to the single default role when the replies do not parse
        or the provider gives up; an authentication failure still raises.
        """
        prompt = render(
            self._roles_template,
            {"lang": item.lang, "question": item.question, "answer": item.answer},
        )
        roles: list[str] | None = None
        for attempt in range(JSON_ATTEMPTS):
            try:
                reply = self._complete(prompt, seed_tag=f"roles-attempt-{attempt}")
            except AuthError:
                raise
            except ProviderError as exc:
                logger.warning("item %s: role assignment call failed (%s)", item.id, exc)
                break
            try:
                obj = _extract_json(reply)
                identities = obj["Identities"]
                parsed = []
                for entry in identities:
                    if isinstance(entry, str) and entry.strip() and entry.strip() not in parsed:
                        parsed.append(entry.strip())
                if not parsed:
                    raise ValueError("no usable identities")
                roles = parsed[:5]
                break
            except (ValueError, KeyError, TypeError):
                continue
        if roles is None:
            logger.warning("item %s: role assignment failed, using fallback role", item.id)
            roles = [DEFAULT_ROLE]
        return roles

    def extract_keyword(self, item: QAItem) -> str:
        """Pull the Wikipedia query keyword out of the question."""
        prompt = render(self._keyword_template, {"question": item.question})
        reply = self._complete(prompt, seed_tag="keyword")
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
        wikis come up empty or the network gives out.
        """
        if not keyword:
            raise KnowledgeError("empty keyword")
        if self.wiki is None:
            raise KnowledgeError("no wikipedia client configured")
        payload = {"keyword": keyword, "lang": lang, "max_chars": MAX_RAW_CHARS}
        key = make_key("fetch_wikipedia", payload)
        hit = self.cache.get(key) if self.cache is not None else None
        if hit is not None:
            return hit["text"], hit["provenance"]

        primary = primary_subtag(lang) or "en"
        tried = []
        for wiki_lang in dict.fromkeys([primary, "en"]):
            tried.append(wiki_lang)
            title = self.wiki.search_first_title(keyword, wiki_lang)
            if title is None:
                continue
            extract = self.wiki.fetch_extract(title, wiki_lang)
            if not extract:
                continue
            text = extract[:MAX_RAW_CHARS]
            provenance = f"https://{wiki_lang}.wikipedia.org/wiki/{title.replace(' ', '_')}"
            if self.cache is not None:
                self.cache.put(key, {"text": text, "provenance": provenance})
            return text, provenance
        raise KnowledgeError(f"no wikipedia results for {keyword!r} in {tried}")

    def summarize_knowledge(self, item: QAItem, raw: str) -> str:
        """Refine a raw extract into a compact reference paragraph.

        Falls back to the truncated raw text when the model will not
        produce parseable JSON.
        """
        if not raw:
            raise KnowledgeError("nothing to summarize")
        prompt = render(
            self._summary_template,
            {
                "lang": item.lang,
                "question": item.question,
                "answer": item.answer,
                "knowledge": raw,
            },
        )
        refined: str | None = None
        for attempt in range(JSON_ATTEMPTS):
            reply = self._complete(prompt, seed_tag=f"summary-attempt-{attempt}")
            try:
                obj = _extract_json(reply)
                knowledge = obj["Knowledge"]
                if not isinstance(knowledge, str) or not knowledge.strip():
                    raise ValueError("empty Knowledge field")
                refined = knowledge.strip()
                break
            except (ValueError, KeyError, TypeError):
                continue
        if refined is None:
            logger.warning("item %s: summarization failed, using truncated raw text", item.id)
            refined = raw[:FALLBACK_CHARS]
        return refined

    def build_bundle(self, item: QAItem, use_roles: bool = True, use_external: bool = True) -> KnowledgeBundle:
        """Run the full knowledge chain for one item."""
        roles = self.assign_roles(item) if use_roles else [DEFAULT_ROLE]
        keyword = raw = refined = provenance = None
        if use_external:
            try:
                keyword = self.extract_keyword(item)
                raw, provenance = self.fetch_wikipedia(keyword, item.lang)
                refined = self.summarize_knowledge(item, raw)
            except AuthError:
                raise
            except (KnowledgeError, ProviderError) as exc:
                logger.warning("item %s: proceeding without external knowledge (%s)", item.id, exc)
        return KnowledgeBundle(
            roles=tuple(roles),
            keyword=keyword,
            raw_external=raw,
            refined_external=refined,
            provenance=provenance,
        )
