"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import json
import threading
from pathlib import Path

import pytest

from hallmark.pipeline import build_main_prompt

from perfbench import bench
from perfbench.bench import Harness, end_to_end, failed_items, per_layer, unit_of
from perfbench.sim import CHAT_URL, ChatEndpoint, session_for
from perfbench.trace import Tracer
from perfbench.workload import DRIFT_MIX, WORKLOADS, generate

MANIFEST = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

SMALL = dataclasses.replace(
    WORKLOADS["cold-short"],
    name="small",
    classes=((120, 6), (500, 2)),
    items_in_flight=1,
)


class RecordingChat(ChatEndpoint):
    """Logs every request body with the status, payload and delay it got."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []
        self._log_lock = threading.Lock()

    def handle(self, request):
        response, delay = super().handle(request)
        with self._log_lock:
            self.log.append((request.body, response.status_code, response.content, delay))
        return response, delay


def _exchanges(seed: int, threads: int) -> dict:
    """Send every annotation prompt of a faulty workload three times, from
    ``threads`` threads, and group what came back by request body."""
    settings = dataclasses.replace(SMALL, faults=(("http429", 0.2), ("http503", 0.1), ("null", 0.1), ("malformed", 0.1)))
    workload = generate(settings, seed)
    endpoint = RecordingChat(workload, latency=False, faults=settings.faults)
    session = session_for(endpoint)
    bodies = [
        {"model": "m", "messages": [{"role": "user", "content": build_main_prompt(p.item, role, None)}]}
        for p in workload.plans
        for role in p.roles
    ]

    def send(share):
        for body in share:
            for _ in range(3):
                session.post(CHAT_URL + "/chat/completions", json=body, timeout=5)

    workers = [threading.Thread(target=send, args=(bodies[i::threads],)) for i in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=30)
    assert not any(w.is_alive() for w in workers)
    grouped: dict = {}
    for body, *outcome in endpoint.log:
        grouped.setdefault(body, []).append(tuple(outcome))
    return grouped


def test_simulator_is_deterministic_for_a_fixed_seed():
    first = _exchanges(seed=3, threads=1)
    assert _exchanges(seed=3, threads=1) == first
    assert _exchanges(seed=3, threads=2) == first
    statuses = {status for outcomes in first.values() for status, *_ in outcomes}
    assert {200, 429, 503} <= statuses
    assert _exchanges(seed=4, threads=1) != first


@pytest.mark.parametrize("mix", [(("verbatim", 12),), DRIFT_MIX], ids=["verbatim", "drift-mix"])
def test_planned_labels_match_annotate_dataset(tmp_path, mix):
    workload = generate(dataclasses.replace(SMALL, run_mix=mix), seed=11)
    harness = Harness(workload, tmp_path)
    batch = harness.run_batch(harness.new_cache_dir())
    assert batch.error is None
    for record, plan in zip(batch.records, workload.plans):
        if plan.marker_like:
            continue  # labels of these differ at seed (ROADMAP 3a); the check skips them too
        assert [(s.start, s.end) for s in record.hard_labels] == list(plan.hard)
        assert [(s.start, s.end, s.prob) for s in record.soft_labels] == list(plan.soft)
        assert record.runs_used == plan.valid_runs
    assert harness.check(batch) == []
    wrong = next(i for i, plan in enumerate(workload.plans) if plan.hard and not plan.marker_like)
    batch.records[wrong] = dataclasses.replace(batch.records[wrong], hard_labels=())
    assert harness.check(batch) == [f"{workload.plans[wrong].item.id}: labels differ from the plan"]


def test_batch_that_raises_counts_as_failed_items(tmp_path):
    workload = generate(dataclasses.replace(SMALL, faults=(("null", 1.0),)), seed=5)
    harness = Harness(workload, tmp_path)
    batch = harness.run_batch(harness.new_cache_dir())
    assert batch.records is None and batch.error
    assert harness.check(batch) == []  # planned faults: failed items, not a failed check
    items = len(workload.plans)
    assert failed_items([batch], items) == items
    metrics = end_to_end([batch], harness, setup_s=1.0)
    assert metrics["failed_item_share"] == 1.0
    assert metrics["items_per_s"] == 0.0


def test_batch_that_raises_without_planned_faults_fails_the_check(tmp_path, monkeypatch):
    def broken_write(records, path):
        raise OSError("disk full")

    monkeypatch.setattr(bench, "write_predictions", broken_write)
    harness = Harness(generate(SMALL, seed=6), tmp_path)
    batch = harness.run_batch(harness.new_cache_dir())
    assert batch.records is None
    assert harness.check(batch) == ["batch raised OSError: disk full"]


def test_every_listed_metric_is_computed_with_its_unit(tmp_path):
    harness = Harness(generate(SMALL, seed=2), tmp_path)
    untraced = harness.run_batch(harness.new_cache_dir())
    traced = harness.run_batch(harness.new_cache_dir(), Tracer())
    harness.time_evaluate(untraced)
    computed = {
        "end_to_end": end_to_end([untraced], harness, setup_s=1.0),
        "per_layer": per_layer([traced], [untraced]),
    }
    for kind, metrics in computed.items():
        for entry in MANIFEST[kind]:
            assert entry["name"] in metrics
            assert unit_of(entry["name"]) == entry["unit"]
