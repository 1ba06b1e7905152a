"""Content-addressed response cache shared by the LLM and knowledge layers.

Entries are rows of one SQLite file, ``<directory>/cache.sqlite3``, keyed
by the SHA-256 of the operation name plus the canonical JSON of its inputs;
the value is the entry's JSON. Each ``put`` is one autocommit
``INSERT OR REPLACE``. Within one process ``read_through`` fetches a
missing key once: a second reader waits for the first one's fetch and
reads what it stored. Processes sharing a directory do not share work, so
their writers of the same key settle on last-writer-wins. For a sampled
completion (temperature > 0) the two processes may have fetched different
replies: each run uses the reply it fetched, and every later read of the
key gets the one stored last. Threads share one connection under a lock,
and processes sharing a directory meet through SQLite's own locking (WAL
mode, which needs a local filesystem). The table is the only layout read:
``<key>.json`` files left by the earlier one-file-per-entry layout are
neither read nor changed.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
from pathlib import Path
from typing import Any, Callable

from .errors import CacheError, ProviderError

CACHE_FILE = "cache.sqlite3"
BUSY_TIMEOUT_S = 30.0  # how long a statement waits on another process's write lock


def make_key(operation: str, payload: dict[str, Any]) -> str:
    canonical = json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    digest = hashlib.sha256()
    digest.update(operation.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(canonical.encode("utf-8"))
    return digest.hexdigest()


class JsonFileCache:
    """JSON values by key, in ``<directory>/cache.sqlite3``.

    Whoever opens a cache closes it, as ``cmd_annotate`` does in its ``finally``. Python 3.13 warns
    (``ResourceWarning: unclosed database``) about a cache that is collected while still open.
    """

    def __init__(self, directory: str | Path):
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.path = directory / CACHE_FILE
        self._lock = threading.Lock()
        self._fetching: dict[str, list] = {}  # key -> [its lock, readers using it], under _lock
        try:
            self._db = sqlite3.connect(
                self.path, timeout=BUSY_TIMEOUT_S, isolation_level=None, check_same_thread=False
            )
            try:
                self._db.execute("PRAGMA journal_mode=WAL")
                self._db.execute("PRAGMA synchronous=NORMAL")
                self._db.execute("CREATE TABLE IF NOT EXISTS entries (key TEXT PRIMARY KEY, value TEXT NOT NULL)")
            except sqlite3.Error:
                self._db.close()
                raise
        except sqlite3.Error as exc:
            raise CacheError(f"cannot open cache {self.path}: {exc}") from exc

    def _execute(self, sql: str, params: tuple) -> tuple | None:
        with self._lock:
            try:
                return self._db.execute(sql, params).fetchone()
            except sqlite3.Error as exc:
                raise CacheError(f"cache {self.path}: {exc}") from exc

    def get(self, key: str) -> dict[str, Any] | None:
        """The entry at ``key``, or None when there is none or its row is no JSON object, as a torn write leaves it."""
        row = self._execute("SELECT value FROM entries WHERE key = ?", (key,))
        try:
            value = None if row is None else json.loads(row[0])
        except (ValueError, RecursionError):
            return None
        return value if isinstance(value, dict) else None

    def put(self, key: str, value: dict[str, Any]) -> None:
        self._execute("INSERT OR REPLACE INTO entries VALUES (?, ?)", (key, json.dumps(value, ensure_ascii=False)))

    def read_through(self, key: str, field: str, fetch: Callable[[], Any], valid: Callable[[Any], bool]) -> Any:
        """``field`` of the entry at ``key``, if the entry has one that ``valid`` takes. Otherwise ``fetch()``,
        stored as ``{field: …}`` in place of the entry if ``valid`` takes it, and else a ProviderError.

        Each key is read, and fetched if missing, by one thread at a time. So a second reader of a key that
        another thread is fetching waits for that fetch, holding no request slot, and then reads what it
        stored; if it stored nothing, the second reader fetches.
        """
        with self._lock:
            flight = self._fetching.setdefault(key, [threading.Lock(), 0])
            flight[1] += 1
        try:
            with flight[0]:
                found = self.get(key)
                if found is not None and field in found and valid(found[field]):
                    return found[field]
                value = fetch()
                if not valid(value):
                    raise ProviderError(f"fetched {field} {value!r:.80} is not of the type its reader expects")
                self.put(key, {field: value})
                return value
        finally:
            with self._lock:
                flight[1] -= 1
                if not flight[1]:
                    del self._fetching[key]

    def close(self) -> None:
        """Close the connection; the last one to close folds the WAL back into the file."""
        with self._lock:
            self._db.close()
