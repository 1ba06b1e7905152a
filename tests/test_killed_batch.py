"""A batch killed with SIGKILL leaves an intact cache and the old output or the whole new one, with nothing
beside it, and its rerun asks the provider only what the killed run had not cached. Each batch runs in a
child process, which only this test signals."""

from __future__ import annotations

import os
import signal
import sqlite3
import subprocess
import sys
import time
from contextlib import closing

import pytest

from .conftest import SRC
from .test_cli import GOLDEN_PREDICTIONS, annotate_args

MAX_PARALLEL = 4
# The mock provider, but each reply takes 50 ms, and each request is logged as it arrives to sys.argv[1].
CHILD = """
import sys, time
import hallmark.cli, hallmark.llm

class SlowMock(hallmark.llm.MockProvider):
    def send(self, req):
        with open(sys.argv[1], "a") as log:
            log.write("request\\n")
        time.sleep(0.05)
        return super().send(req)

hallmark.llm.MockProvider = SlowMock
sys.exit(hallmark.cli.main(sys.argv[2:]))
"""
OLD_OUTPUT = b'{"old": "predictions"}\n'


def sent(log) -> int:
    return log.read_text().count("\n") if log.exists() else 0


def batch(tmp_path, log, kill_after: int | None = None) -> int:
    """Annotate the sample in a child process; with ``kill_after``, SIGKILL it once that many requests
    have arrived, or when it ends by itself. Its exit code."""
    argv = [sys.executable, "-c", CHILD, str(log), *annotate_args(tmp_path, "pred.jsonl", "--max-parallel", str(MAX_PARALLEL))]
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    with subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL) as child:
        if kill_after is not None:
            deadline = time.monotonic() + 60
            while sent(log) < kill_after and child.poll() is None and time.monotonic() < deadline:
                time.sleep(0.005)
            child.send_signal(signal.SIGKILL)  # a no-op once the child has ended
        return child.wait(timeout=60)


def cached(tmp_path) -> int:
    """The cache's entry count, after SQLite's own integrity check passed."""
    with closing(sqlite3.connect(tmp_path / "cache" / "cache.sqlite3")) as db:
        assert db.execute("PRAGMA integrity_check").fetchall() == [("ok",)]
        return db.execute("SELECT count(*) FROM entries").fetchone()[0]


@pytest.mark.parametrize("kill_after", [1, 65, 130], ids=lambda n: f"after-{n}-requests")
def test_killed_batch_resumes_where_it_stopped(tmp_path, kill_after):
    output = tmp_path / "pred.jsonl"
    output.write_bytes(OLD_OUTPUT)
    first_log, rerun_log = tmp_path / "first.log", tmp_path / "rerun.log"
    assert batch(tmp_path, first_log, kill_after) in (-signal.SIGKILL, 0)
    kept = cached(tmp_path)
    # each item thread has at most one request between its arrival and its cache entry
    assert sent(first_log) - (MAX_PARALLEL + 1) <= kept <= sent(first_log)
    assert output.read_bytes() in (OLD_OUTPUT, GOLDEN_PREDICTIONS.read_bytes())
    assert list(tmp_path.glob(".pred.jsonl.*")) == []  # the new file exists only while the lines are written

    assert batch(tmp_path, rerun_log) == 0
    assert output.read_bytes() == GOLDEN_PREDICTIONS.read_bytes()
    assert kept + sent(rerun_log) == cached(tmp_path)  # the rerun sent only what the killed run had not cached
