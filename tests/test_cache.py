from __future__ import annotations

import json
import re
import sqlite3
import sys
import threading
import time

import pytest

from hallmark import JsonFileCache, LLMClient
from hallmark.cache import make_key
from hallmark.errors import CacheError, ProviderError
from hallmark.llm import CompletionRequest

from .conftest import FakeProvider, cache_rows

KEY = make_key("op", {"x": 1})


class TestJsonFileCache:
    def test_round_trip(self, tmp_path, open_cache):
        cache = open_cache(tmp_path)
        cache.put(KEY, {"text": "héllo «x»", "n": [1, 2.5, None]})
        assert cache.get(KEY) == {"text": "héllo «x»", "n": [1, 2.5, None]}

    def test_miss(self, tmp_path, open_cache):
        assert open_cache(tmp_path).get(KEY) is None

    def test_overwrite_keeps_the_last_value(self, tmp_path, open_cache):
        cache = open_cache(tmp_path)
        cache.put(KEY, {"text": "first"})
        cache.put(KEY, {"text": "second"})
        assert cache.get(KEY) == {"text": "second"}
        assert cache_rows(tmp_path) == {KEY: {"text": "second"}}

    def test_one_file_instead_of_one_per_entry(self, tmp_path, open_cache):
        cache = open_cache(tmp_path)
        for i in range(20):
            cache.put(make_key("op", {"i": i}), {"text": str(i)})
        assert not list(tmp_path.glob("*.json"))
        assert len(cache_rows(tmp_path)) == 20

    def test_closed_cache_leaves_one_file(self, tmp_path, open_cache):
        cache = open_cache(tmp_path)
        cache.put(KEY, {"text": "kept"})
        cache.close()
        assert [p.name for p in tmp_path.iterdir()] == ["cache.sqlite3"]
        assert open_cache(tmp_path).get(KEY) == {"text": "kept"}

    def test_read_of_a_closed_cache_is_an_error_naming_its_file(self, tmp_path, open_cache):
        cache = open_cache(tmp_path)
        cache.close()
        with pytest.raises(CacheError, match=re.escape(f"cache {cache.path}: ")):
            cache.get(KEY)

    def test_file_that_is_no_database_is_refused_and_its_connection_closed(self, tmp_path, monkeypatch):
        (tmp_path / "cache.sqlite3").write_bytes(b"not a database, only text " * 40)
        opened, real_connect = [], sqlite3.connect

        def connect(*args, **kwargs):
            opened.append(real_connect(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr("hallmark.cache.sqlite3.connect", connect)
        with pytest.raises(CacheError, match="cannot open cache"):
            JsonFileCache(tmp_path)
        assert len(opened) == 1
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            opened[0].execute("SELECT 1")

    def test_two_caches_on_one_directory_share_entries(self, tmp_path, open_cache):
        first, second = open_cache(tmp_path), open_cache(tmp_path)
        first.put(KEY, {"text": "from first"})
        assert second.get(KEY) == {"text": "from first"}
        second.put(KEY, {"text": "from second"})
        assert first.get(KEY) == {"text": "from second"}

    @pytest.mark.concurrency
    def test_threads_share_one_cache(self, tmp_path, open_cache):
        cache = open_cache(tmp_path)
        errors = []

        def work(t):
            try:
                for i in range(200):
                    key = make_key("op", {"t": t, "i": i})
                    cache.put(key, {"text": f"{t}-{i}"})
                    assert cache.get(key) == {"text": f"{t}-{i}"}
            except Exception as exc:  # collected, so a failure in a thread fails the test
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so unguarded statements would interleave
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(cache_rows(tmp_path)) == 8 * 200


def test_old_file_layout_is_not_read_and_left_unchanged(tmp_path, open_cache):
    # a ``<key>.json`` entry of the one-file-per-entry layout that preceded the table
    request = CompletionRequest(model="m", user_prompt="p", temperature=1.0, max_tokens=2048, seed_tag="run-0")
    provider = FakeProvider({"p": "fresh"})
    client = LLMClient(provider, cache=open_cache(tmp_path))
    old = tmp_path / f"{client._cache_key(request)}.json"
    old.write_text(json.dumps({"text": "cached «r»"}, ensure_ascii=False), encoding="utf-8")
    before = old.read_bytes()
    assert client.complete(request) == "fresh"
    assert provider.call_count == 1
    assert old.read_bytes() == before


@pytest.mark.parametrize("reply", [5, None, "a\ud800b"])
def test_reply_that_is_no_text_costs_the_call_and_is_not_stored(tmp_path, open_cache, reply):
    request = CompletionRequest(model="m", user_prompt="p", temperature=1.0, max_tokens=2048, seed_tag="run-0")
    client = LLMClient(FakeProvider(reply), cache=open_cache(tmp_path))
    with pytest.raises(ProviderError, match="not of the type its reader expects"):
        client.complete(request)
    assert cache_rows(tmp_path) == {}


def is_text(value):
    return isinstance(value, str)


@pytest.mark.parametrize("first_fails", [False, True], ids=["first-stores", "first-fails"])
@pytest.mark.concurrency
def test_a_second_reader_of_a_missing_key_waits_for_the_first_fetch(tmp_path, open_cache, first_fails):
    # it gets what the first fetch stored, or, if that fetch failed, fetches itself
    cache = open_cache(tmp_path)
    fetches, results = [], {}

    def fetch(name):
        fetches.append(name)
        if name == "first":
            deadline = time.monotonic() + 10
            while cache._fetching[KEY][1] < 2:  # until the second reader waits on this fetch
                assert time.monotonic() < deadline, "the second reader never came"
                time.sleep(0.001)
            if first_fails:
                raise ProviderError("the first fetch failed")
        return f"fetched by {name}"

    def read(name):
        try:
            results[name] = cache.read_through(KEY, "text", lambda: fetch(name), is_text)
        except ProviderError as exc:
            results[name] = exc

    threads = {name: threading.Thread(target=read, args=(name,)) for name in ("first", "second")}
    threads["first"].start()
    deadline = time.monotonic() + 10
    while not fetches:
        assert time.monotonic() < deadline, "the first reader never fetched"
        time.sleep(0.001)
    threads["second"].start()
    for thread in threads.values():
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads.values())
    if first_fails:
        assert isinstance(results["first"], ProviderError)
        assert (results["second"], fetches) == ("fetched by second", ["first", "second"])
    else:
        assert results == {"first": "fetched by first", "second": "fetched by first"}
        assert fetches == ["first"]
    assert cache.get(KEY) == {"text": results["second"]}
    assert cache._fetching == {}


@pytest.mark.concurrency
def test_threads_reading_shared_keys_fetch_each_key_once(tmp_path, open_cache):
    cache = open_cache(tmp_path)
    keys = [make_key("op", {"k": k}) for k in range(50)]
    fetched, errors = [], []

    def work(t):
        try:
            for i in range(200):  # each key four times, from an offset of the thread's own
                key = keys[(i + 7 * t) % len(keys)]
                assert cache.read_through(key, "text", lambda: fetched.append(key) or key, is_text) == key
        except Exception as exc:  # collected, so a failure in a thread fails the test
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that readers of one key meet
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert sorted(fetched) == sorted(keys)
    assert cache._fetching == {}
