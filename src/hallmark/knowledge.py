"""Internal-knowledge diversification (expert roles) and external knowledge
(Wikipedia retrieval plus LLM refinement).

Every step degrades gracefully: a failed call or bad reply costs one of two
attempts, then roles fall back to one generic role and a summary to the raw
extract; any other failure along the keyword -> search -> extract chain just
leaves the item without external knowledge. Annotation never aborts for it;
asking for external knowledge with no Wikipedia client is a ConfigError.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping
from urllib.parse import quote

from . import __version__
from .cache import JsonFileCache, make_key
from .core import QAItem
from .errors import ConfigError, KnowledgeError, ProviderError
from .jsonl import is_json_type, json_value, load_json
from .llm import WIKI_SLOTS, CompletionRequest, LLMClient, backoff, environment_reader, transient_checked, with_retries
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
    return load_json(reply[start : end + 1])  # text from "{" to "}" parses only as an object


def _roles(identities: Any) -> list[str] | None:
    """Up to 5 distinct identities, stripped, from a list; entries that are not text are skipped."""
    if not isinstance(identities, list):
        return None
    return list(dict.fromkeys(e.strip() for e in identities if is_json_type(e, str) and e.strip()))[:5]


def _knowledge(knowledge: Any) -> str | None:
    return knowledge.strip() if is_json_type(knowledge, str) else None


def _names_a_wiki(lang: str) -> bool:
    """Whether ``lang`` has the form of a primary language subtag, 2 to 8 ASCII letters (RFC 5646 §2.2.1),
    and so may be the first label of a Wikipedia host."""
    return 2 <= len(lang) <= 8 and lang.isascii() and lang.isalpha()


class WikipediaClient:
    """Thin wrapper over the per-language Wikipedia query API.

    Like ``OpenAIChatProvider``, it reads proxy and CA-bundle settings from
    the environment once per wiki, not per request, and sends no ``~/.netrc``
    credentials.
    """

    def __init__(
        self,
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = backoff,
    ):
        if session is None:
            import requests

            session = requests.Session()  # a descriptive User-Agent, per the Wikimedia User-Agent policy
            session.headers["User-Agent"] = (
                f"hallmark/{__version__} (hallucination span annotator) {requests.utils.default_user_agent()}"
            )
        self._session = session
        self._sleep = sleep
        # once per API URL: each language wiki is its own host, and NO_PROXY may name just one
        self._env_settings = functools.cache(environment_reader(session))

    def _query(self, lang: str, params: dict, read: Callable[[Any], Any]) -> Any:
        """``read`` applied to the ``query`` object of the Action API's reply to ``params`` on the
        ``lang`` wiki. A failed request is a KnowledgeError, and so are a reply ``read`` cannot read and a
        ``lang`` that is no primary language subtag, which is refused before any request."""
        if not _names_a_wiki(lang):
            raise KnowledgeError(f"no wikipedia for language {lang!r}")
        url = f"https://{lang}.wikipedia.org/w/api.php"
        params = {"action": "query", **params, "format": "json"}

        def get() -> requests.Response:
            return self._session.get(url, params=params, timeout=WIKIPEDIA_TIMEOUT_S, **self._env_settings(url))

        try:
            response = with_retries(
                lambda: transient_checked(get, "wikipedia"), WIKI_SLOTS.get(), WIKIPEDIA_RETRIES, 1.0, self._sleep
            )
            if response.status_code != 200:
                raise ValueError(f"HTTP {response.status_code}")
            data = load_json(response.content)
        except (ProviderError, ValueError) as exc:
            raise KnowledgeError(f"wikipedia request failed: {exc}") from exc
        try:
            return read(data.get("query", {}))
        except (AttributeError, KeyError, TypeError) as exc:
            kind = params.get("list", "extract")  # a search is a list query, an extract a page property
            raise KnowledgeError(f"malformed {kind} payload from {lang} wikipedia: {exc!r}") from exc

    def search_first_title(self, keyword: str, lang: str) -> str | None:
        def read(query: dict) -> str | None:
            hits = query.get("search", [])
            return json_value(hits[0]["title"], str) if hits else None

        return self._query(lang, {"list": "search", "srsearch": keyword, "srlimit": 1}, read)

    def fetch_extract(self, title: str, lang: str) -> str | None:
        def read(query: dict) -> str | None:
            pages = query.get("pages", {}).values()
            return next((json_value(page["extract"], str) for page in pages if page.get("extract")), None)

        return self._query(lang, {"prop": "extracts", "explaintext": 1, "redirects": 1, "titles": title}, read)


class KnowledgeService:
    """Produces KnowledgeBundles.

    The LLM steps rely on ``LLMClient``'s response cache and parse their
    replies deterministically, so a repeated call replays the same result.
    ``cache`` holds the answer to each Wikipedia request, the one step that
    goes to the network on its own. Each request reads through it
    (``JsonFileCache.read_through``), and each attempt takes one of
    ``WIKI_SLOTS`` (the batch's slots in its threads, an unbounded gate
    elsewhere) by the rule of ``with_retries``, so once the batch's
    ``STOPPED`` event is set, a backoff ends at once and nothing more is
    sent. Retries of JSON prompts use distinct seed tags, or the cache would
    replay a bad reply.
    """

    def __init__(
        self,
        llm: LLMClient,
        wiki: WikipediaClient | None,
        model: str,
        cache: JsonFileCache,
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

    def _wiki_request(self, operation: str, inputs: dict, send: Callable[[], Any]) -> Any:
        """``send()``'s answer to one Wikipedia request, read through the cache, where each request has its
        own entry, keyed by ``operation`` and ``inputs``. A failed request is not cached, and an entry that is
        not text or null is requested again. ``WikipediaClient`` takes the request's slots (see
        ``with_retries``)."""
        return self.cache.read_through(
            make_key(operation, inputs), "value", send, lambda value: value is None or is_json_type(value, str)
        )

    def fetch_wikipedia(self, keyword: str, lang: str) -> tuple[str, str]:
        """Fetch the plain-text extract of the first search hit.

        Searches the item-language wiki first and falls back to English;
        a ``lang`` whose primary subtag is not 2 to 8 ASCII letters asks
        English alone. Returns (text, provenance URL). Raises KnowledgeError
        when both wikis come up empty or the network gives out. Each search
        and each extract is cached as it comes back, an empty one too, so a
        rerun sends none of them again; a failed request is not cached.
        ``keyword`` is non-empty, as ``extract_keyword`` returns it, and
        ``self.wiki`` is set, as ``build_bundle`` checks first.
        """
        subtag = primary_subtag(lang)
        wikis = list(dict.fromkeys([subtag if _names_a_wiki(subtag) else "en", "en"]))
        for wiki_lang in wikis:
            title = self._wiki_request(
                "wikipedia_search",
                {"wiki": wiki_lang, "keyword": keyword},
                lambda: self.wiki.search_first_title(keyword, wiki_lang),
            )
            if title is None:
                continue
            extract = self._wiki_request(
                "wikipedia_extract",
                {"wiki": wiki_lang, "title": title, "max_chars": MAX_RAW_CHARS},
                lambda: (self.wiki.fetch_extract(title, wiki_lang) or "")[:MAX_RAW_CHARS],
            )
            if extract:
                # MediaWiki's own safe set: a title such as "Why?" or "100%" still links to its page
                path = quote(title.replace(" ", "_"), safe="/:;@$!*(),~")
                return extract, f"https://{wiki_lang}.wikipedia.org/wiki/{path}"
        raise KnowledgeError(f"no wikipedia results for {keyword!r} in {wikis}")

    def summarize_knowledge(self, item: QAItem, raw: str) -> str:
        """Refine a raw extract into a compact reference paragraph.

        Falls back to the truncated raw text when both attempts fail.
        ``raw`` is non-empty, as ``fetch_wikipedia`` returns it.
        """
        values = {"lang": item.lang, "question": item.question, "answer": item.answer, "knowledge": raw}
        refined = self._ask_json("summarize_knowledge", values, "summary", "Knowledge", _knowledge)
        if refined is None:
            logger.warning("item %s: summarization failed, using truncated raw text", item.id)
            refined = raw[:FALLBACK_CHARS]
        return refined

    def build_bundle(self, item: QAItem, use_roles: bool = True, use_external: bool = True) -> KnowledgeBundle:
        """Run the full knowledge chain for one item.

        ``use_external`` without a Wikipedia client is a ConfigError, raised before any request.
        """
        if use_external and self.wiki is None:
            raise ConfigError("use_external needs a Wikipedia client")
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
