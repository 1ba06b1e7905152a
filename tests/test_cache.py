from __future__ import annotations

import json
import sys
import threading

from hallmark import JsonFileCache, LLMClient, MockProvider
from hallmark.cache import make_key
from hallmark.llm import CompletionRequest

from .conftest import cache_rows

KEY = make_key("op", {"x": 1})


class TestJsonFileCache:
    def test_round_trip(self, tmp_path):
        cache = JsonFileCache(tmp_path)
        cache.put(KEY, {"text": "héllo «x»", "n": [1, 2.5, None]})
        assert cache.get(KEY) == {"text": "héllo «x»", "n": [1, 2.5, None]}

    def test_miss(self, tmp_path):
        assert JsonFileCache(tmp_path).get(KEY) is None

    def test_overwrite_keeps_the_last_value(self, tmp_path):
        cache = JsonFileCache(tmp_path)
        cache.put(KEY, {"text": "first"})
        cache.put(KEY, {"text": "second"})
        assert cache.get(KEY) == {"text": "second"}
        assert cache_rows(tmp_path) == {KEY: {"text": "second"}}

    def test_one_file_instead_of_one_per_entry(self, tmp_path):
        cache = JsonFileCache(tmp_path)
        for i in range(20):
            cache.put(make_key("op", {"i": i}), {"text": str(i)})
        assert not list(tmp_path.glob("*.json"))
        assert len(cache_rows(tmp_path)) == 20

    def test_closed_cache_leaves_one_file(self, tmp_path):
        cache = JsonFileCache(tmp_path)
        cache.put(KEY, {"text": "kept"})
        cache.close()
        assert [p.name for p in tmp_path.iterdir()] == ["cache.sqlite3"]
        assert JsonFileCache(tmp_path).get(KEY) == {"text": "kept"}

    def test_two_caches_on_one_directory_share_entries(self, tmp_path):
        first, second = JsonFileCache(tmp_path), JsonFileCache(tmp_path)
        first.put(KEY, {"text": "from first"})
        assert second.get(KEY) == {"text": "from first"}
        second.put(KEY, {"text": "from second"})
        assert first.get(KEY) == {"text": "from second"}

    def test_threads_share_one_cache(self, tmp_path):
        cache = JsonFileCache(tmp_path)
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


def test_old_file_layout_is_not_read_and_left_unchanged(tmp_path):
    # a ``<key>.json`` entry of the one-file-per-entry layout that preceded the table
    request = CompletionRequest(model="m", user_prompt="p", seed_tag="run-0")
    old = tmp_path / f"{LLMClient(MockProvider())._cache_key(request)}.json"
    old.write_text(json.dumps({"text": "cached «r»"}, ensure_ascii=False), encoding="utf-8")
    before = old.read_bytes()
    provider = MockProvider(script={"p": "fresh"})
    client = LLMClient(provider, cache=JsonFileCache(tmp_path))
    assert client.complete(request) == "fresh"
    assert provider.call_count == 1
    assert old.read_bytes() == before
