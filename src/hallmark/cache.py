"""Content-addressed response cache shared by the LLM and knowledge layers.

Entries are rows of one SQLite file, ``<directory>/cache.sqlite3``, keyed
by the SHA-256 of the operation name plus the canonical JSON of its inputs;
the value is the entry's JSON. Each ``put`` is one autocommit
``INSERT OR REPLACE``, so concurrent writers of the same key settle on
last-writer-wins, which is safe because values are deterministic per key.
Threads share one connection under a lock, and processes sharing a
directory meet through SQLite's own locking (WAL mode, which needs a local
filesystem). A cache directory of the earlier one-``<key>.json``-per-entry
layout is imported once, when its table is created.
"""

from __future__ import annotations

import hashlib
import json
import re
import sqlite3
import threading
from pathlib import Path
from typing import Any, Iterator

from .errors import CacheError

CACHE_FILE = "cache.sqlite3"
BUSY_TIMEOUT_S = 30.0  # how long a statement waits on another process's write lock
_KEY = re.compile(r"[0-9a-f]{64}")


def make_key(operation: str, payload: dict[str, Any]) -> str:
    canonical = json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    digest = hashlib.sha256()
    digest.update(operation.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(canonical.encode("utf-8"))
    return digest.hexdigest()


def _dump(value: dict[str, Any]) -> str:
    return json.dumps(value, ensure_ascii=False)


def _legacy_entries(directory: Path) -> Iterator[tuple[str, str]]:
    """``(key, value)`` of each ``<key>.json`` file that parses; others are skipped."""
    for path in directory.glob("*.json"):
        if not _KEY.fullmatch(path.stem):
            continue
        try:
            value = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue  # a truncated write from a killed process, as ``get`` once skipped it
        yield path.stem, _dump(value)


class JsonFileCache:
    """JSON values by key, in ``<directory>/cache.sqlite3``."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / CACHE_FILE
        self._lock = threading.Lock()
        try:
            self._db = sqlite3.connect(
                self.path, timeout=BUSY_TIMEOUT_S, isolation_level=None, check_same_thread=False
            )
            self._db.execute("PRAGMA journal_mode=WAL")
            self._db.execute("PRAGMA synchronous=NORMAL")
            with self._db:  # the table and the import land together, once
                self._db.execute("BEGIN IMMEDIATE")
                if not self._db.execute("SELECT 1 FROM sqlite_master WHERE name = 'entries'").fetchone():
                    self._db.execute("CREATE TABLE entries (key TEXT PRIMARY KEY, value TEXT NOT NULL)")
                    self._db.executemany(
                        "INSERT OR IGNORE INTO entries VALUES (?, ?)", _legacy_entries(self.directory)
                    )
        except sqlite3.Error as exc:
            raise CacheError(f"cannot open cache {self.path}: {exc}") from exc

    def _execute(self, sql: str, params: tuple) -> tuple | None:
        with self._lock:
            try:
                return self._db.execute(sql, params).fetchone()
            except sqlite3.Error as exc:
                raise CacheError(f"cache {self.path}: {exc}") from exc

    def get(self, key: str) -> dict[str, Any] | None:
        row = self._execute("SELECT value FROM entries WHERE key = ?", (key,))
        return None if row is None else json.loads(row[0])

    def put(self, key: str, value: dict[str, Any]) -> None:
        self._execute("INSERT OR REPLACE INTO entries VALUES (?, ?)", (key, _dump(value)))

    def close(self) -> None:
        """Close the connection; the last one to close folds the WAL back into the file."""
        with self._lock:
            self._db.close()
