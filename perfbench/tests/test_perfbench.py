"""Tests of the benchmark itself: tiny runs, the checkers, the wrappers.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import asyncio
import copy
import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import campaign, checks, common, serving, speed, tracing  # noqa: E402
from perfbench.run import per_layer  # noqa: E402

with open(os.path.join(ROOT, "perfbench", "workloads.json"), encoding="utf-8") as _handle:
    WORKLOADS = json.load(_handle)["workloads"]


@pytest.fixture(autouse=True)
def _one_setup(monkeypatch):
    monkeypatch.setattr(common, "SETUP_REPS", 1)


def _tiny(name: str) -> dict:
    config = copy.deepcopy(WORKLOADS[name])
    if config["kind"] == "serving":
        config.update(prefill=300, miss_pool=200, fresh_pool=200, open_rate=50)
        config["service"]["shard_m"] = 1 << 18
    else:
        config.update(pollution_items=2, ghost_items=2, probe_queries=50)
        config["honest"].update(inserts=32, queries=32)
        config["service"]["shard_m"] = 1 << 12
    return config


# ----------------------------------------------------------------------
# Tiny-scale runs
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["point-lookups", "bulk-ingest"])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_serving_run_completes(tmp_path, name, trace):
    config = _tiny(name)
    outcome = asyncio.run(serving.run(config, 3, 1.0, trace, ROOT, str(tmp_path)))
    assert outcome["failures"] == []
    tallies = outcome["tallies"]
    assert set(tallies) == {"set-up and warm-up", "untraced"} | ({"traced"} if trace else set())
    assert all(tally.failed == 0 and tally.attempted > 0 for tally in tallies.values())
    metrics = outcome["metrics"]
    assert metrics["items_per_s"] > 0 and metrics["setup_s"] > 0
    assert metrics["checked_inserts"] > 0
    if trace:
        layer_metrics, _ = per_layer("serving", config, metrics)
        assert layer_metrics["service.cluster.ring.calls_per_item"][0] > 0
        assert (tmp_path / "server.spans.json").exists()


@pytest.mark.parametrize("trace", [False, True])
def test_tiny_campaign_run_completes(tmp_path, trace):
    config = _tiny("attack-campaign")
    outcome = campaign.run(config, 3, 0.5, trace, ROOT, str(tmp_path))
    assert outcome["failures"] == []
    tallies = outcome["tallies"]
    assert set(tallies) == {"untraced", "replay"} | ({"traced"} if trace else set())
    assert all(tally.failed == 0 and tally.attempted > 0 for tally in tallies.values())
    metrics = outcome["metrics"]
    assert metrics["counts.crafted"] == 4
    assert metrics["counts.ghost_hits"] == 2
    assert metrics["attack_trials_per_s"] > 0
    if trace:
        layer_metrics, _ = per_layer("campaign", config, metrics)
        assert layer_metrics["urlgen.candidates_per_trial"][0] >= 1
        assert layer_metrics["adversary.crafting.useful_ratio"][0] > 0
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            declared = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
        assert {name: unit for name, (_, unit) in layer_metrics.items()} == declared


def test_cli_prints_result_last(tmp_path):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "attack-campaign",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == declared


def test_cli_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point-lookups",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


# ----------------------------------------------------------------------
# Checkers
# ----------------------------------------------------------------------


def test_fabricated_false_negative_fails_the_check():
    inserts = [(1.0, "a"), (2.0, "b")]
    failures, checked = checks.check_inserts(
        inserts, [True, False], [(0.5, (0, 0))], 2, lambda item: 0
    )
    assert checked == 2
    assert len(failures) == 1 and "'b'" in failures[0]


def test_rotation_after_insert_excuses_a_negative():
    shard_of = {"old": 0, "new": 0, "other": 1}.get
    inserts = [(1.0, "old"), (3.0, "new"), (1.0, "other")]
    checkpoints = [(0.5, (0, 0)), (2.0, (1, 0)), (4.0, (1, 0))]
    failures, checked = checks.check_inserts(
        inserts, [False, True, True], checkpoints, 2, shard_of
    )
    assert failures == [] and checked == 2
    # The same negative after the last observed rotation is a failure.
    failures, _ = checks.check_inserts(
        inserts, [True, False, True], checkpoints, 2, shard_of
    )
    assert len(failures) == 1 and "'new'" in failures[0]


def _counts(**overrides) -> dict:
    counts = {
        "pollution_crafted": 4, "ghost_crafted": 4, "ghost_hits": 4,
        "missing_inserts": 0, "trials": 100,
    }
    counts.update(overrides)
    return counts


def test_short_crafted_count_fails_the_check():
    requested = {"pollution": 4, "ghost": 4}
    assert checks.check_campaign(requested, _counts(), None) == []
    assert checks.check_campaign(requested, _counts(pollution_crafted=3), None)
    assert checks.check_campaign(requested, _counts(ghost_crafted=3, ghost_hits=3), None)
    assert checks.check_campaign(requested, _counts(ghost_hits=3), None)
    assert checks.check_campaign(requested, _counts(missing_inserts=1), None)
    assert checks.check_campaign(requested, _counts(trials=101), _counts())


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def _owners():
    owners = set()
    for layers in (tracing.SERVER_LAYERS, tracing.CLIENT_LAYERS, tracing.ATTACK_LAYERS):
        for _, module_name, owner_name, *_ in layers:
            module = importlib.import_module(module_name)
            owners.add(getattr(module, owner_name) if owner_name else module)
    return owners


def test_install_and_remove_leave_namespaces_unchanged():
    owners = _owners()
    before = {owner: dict(vars(owner)) for owner in owners}
    for layers in (tracing.SERVER_LAYERS, tracing.CLIENT_LAYERS, tracing.ATTACK_LAYERS):
        installation = tracing.install(tracing.Tracer(), layers)
        assert any(
            vars(owner).get(name) is not value
            for owner in owners
            for name, value in before[owner].items()
        )
        installation.remove()
        for owner in owners:
            after = dict(vars(owner))
            assert after.keys() == before[owner].keys()
            assert all(after[name] is before[owner][name] for name in after)


def test_self_time_excludes_children_and_suspension():
    tracer = tracing.Tracer()

    def child(items):
        return len(items)

    traced_child = tracing._wrap_sync(child, tracer, "child", tracing._items_arg(0))

    async def parent(items):
        await asyncio.sleep(0.02)
        return traced_child(items)

    traced_parent = tracing._wrap_async(parent, tracer, "parent", tracing._items_arg(0))

    async def main():
        return await traced_parent([1, 2, 3])

    assert asyncio.run(main()) == 3
    parent_stats, child_stats = tracer.layer("parent"), tracer.layer("child")
    assert parent_stats["calls"] == 1 and parent_stats["items"] == 3
    assert child_stats["calls"] == 1 and child_stats["items"] == 3
    # The 20 ms sleep is suspension, not the parent's work.
    assert parent_stats["incl_ns"] < 10_000_000
    # Self time excludes the child span, what tracing the child cost the
    # parent, and the tracer's own work inside each span: one synchronous
    # span for the child, two resumed segments (before and after the
    # sleep) for the parent.
    assert child_stats["self_ns"] == child_stats["incl_ns"] - tracer.span_overhead_ns
    assert parent_stats["self_ns"] == (
        parent_stats["incl_ns"] - child_stats["incl_ns"] - tracer.child_overhead_ns
        - 2 * tracer.segment_overhead_ns
    )
    assert tracer.covered_ns == parent_stats["incl_ns"]


def test_spans_past_the_cap_are_counted_as_dropped(tmp_path):
    tracer = tracing.Tracer(keep=2, calibrate=False)
    noop = tracing._wrap_sync(lambda: None, tracer, "noop", tracing._one)
    for _ in range(5):
        noop()
    path = tmp_path / "spans.json"
    tracer.write(path)
    doc = json.loads(path.read_text())
    assert len(doc["spans"]) == 2 and doc["keep"] == 2 and doc["dropped"] == 3
    assert doc["layers"]["noop"]["calls"] == 5


def test_rates_scale_by_the_slowness_measured_in_their_segment():
    ref = speed.REFERENCE_S
    samples = [(0.0, ref), (1.0, 3 * ref), (2.0, 2 * ref)]
    assert speed.slowness(samples, 0.5, 1.5) == pytest.approx(3.0)
    # No sample inside the window: the mean of all of them.
    assert speed.slowness(samples, 5.0, 6.0) == pytest.approx(2.0)
    segments = [(0.0, 0.5, 100.0), (0.5, 1.5, 50.0), (1.5, 2.5, 60.0)]
    # Scaled rates 100, 150 and 120; their median.
    assert speed.scaled_rate(segments, [samples]) == pytest.approx(120.0)
    # Two processes: the mean of their slownesses, 1, 2 and 1.5.
    assert speed.scaled_rate(segments, [samples, [(0.0, ref)]]) == pytest.approx(100.0)
