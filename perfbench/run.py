"""Run one workload of the repository benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload point-lookups --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
measures the per-layer metrics (an untraced phase, then the same traffic
with span wrappers installed).  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when a
correctness check fails and 2 when the benchmark cannot run at all.
Workload configurations and the layer-to-metric map live in
``perfbench/workloads.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _load_program() -> None:
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    try:
        import repro.service.server  # noqa: F401 - the program under test
    except ImportError as exc:
        print(f"cannot import the program from {ROOT}/src: {exc}", file=sys.stderr)
        sys.exit(2)


def _us(layer: dict, denominator: float) -> float:
    return layer["self_ns"] / 1e3 / denominator if denominator else 0.0


def per_layer(kind: str, config: dict, m: dict) -> dict:
    """Per-layer metrics from a traced run's raw layer totals."""
    from repro.core.bloom import BloomFilter
    from perfbench.common import percentile

    empty = {"calls": 0, "incl_ns": 0, "self_ns": 0, "items": 0}
    layers = dict(m.get("_client_layers", {}))
    layers.update(m.get("_server_layers", m.get("_layers", {})))
    get = lambda name: layers.get(name, empty)  # noqa: E731
    attack = kind == "campaign"
    trials = m["_traced_counts"]["trials"] if attack else 0
    crafted = m["_traced_counts"]["crafted"] if attack else 0
    # Unit of work: a budget trial on the attack campaign, a membership
    # answer on the serving workloads.
    unit = trials if attack else m["_traced_items"]
    ring, urlgen, lifecycle = get("service.cluster.ring"), get("urlgen"), get("service.lifecycle")
    backends = get("service.backends")
    waits = sorted(m.get("_coalesce_waits_ns", []))
    service = config["service"]
    strategy = BloomFilter(service["shard_m"], service["shard_k"]).strategy
    return {
        "latency_p50_ms": (m["latency_p50_ms"], "ms"),
        "latency_p99_ms": (m["latency_p99_ms"], "ms"),
        "service.cluster.ring.us_per_item": (_us(ring, ring["calls"]), "us"),
        "service.cluster.ring.calls_per_item": (ring["calls"] / unit if unit else 0.0, "ratio"),
        "urlgen.us_per_candidate": (_us(urlgen, urlgen["items"]), "us"),
        "urlgen.candidates_per_trial": (urlgen["items"] / trials if trials else 0.0, "ratio"),
        "adversary.crafting.us_per_trial": (_us(get("adversary.crafting"), trials), "us"),
        "adversary.crafting.useful_ratio": (crafted / trials if trials else 0.0, "ratio"),
        "adversary.crafting.trials": (m.get("counts.trials", 0), "count"),
        "adversary.crafting.crafted": (m.get("counts.crafted", 0), "count"),
        "adversary.predicates.us_per_trial": (_us(get("adversary.predicates"), trials), "us"),
        "adversary.probe_false_positives": (m.get("counts.probe_false_positives", 0), "count"),
        "hashing.us_per_item": (_us(get("hashing"), get("hashing")["items"]), "us"),
        "hashing.calls_per_item": (strategy.hash_calls(service["shard_k"], service["shard_m"]), "count"),
        "core.bloom.self_us_per_item": (_us(get("core.bloom"), get("core.bloom")["items"]), "us"),
        "service.backends.self_us_per_item": (_us(backends, backends["items"]), "us"),
        "service.backends.items_per_call": (backends["items"] / backends["calls"] if backends["calls"] else 0.0, "ratio"),
        "service.lifecycle.rotations": (m.get("service.lifecycle.rotations", m.get("counts.rotations", 0)), "count"),
        "service.lifecycle.rotate_ms": (lifecycle["incl_ns"] / 1e6 / lifecycle["calls"] if lifecycle["calls"] else 0.0, "ms"),
        "service.coalesce.wait_us_p50": (percentile(waits, 0.50) / 1e3, "us"),
        "service.coalesce.wait_us_p99": (percentile(waits, 0.99) / 1e3, "us"),
        "service.coalesce.ratio": (m.get("service.coalesce.ratio", 0.0), "ratio"),
        "service.codec.decode_us_per_req": (_us(get("service.codec.decode"), get("service.codec.decode")["calls"]), "us"),
        "service.codec.encode_us_per_req": (_us(get("service.codec.encode"), get("service.codec.encode")["calls"]), "us"),
        "service.client.encode_us_per_req": (_us(get("service.client.encode"), get("service.client.encode")["calls"]), "us"),
        "service.client.decode_us_per_req": (_us(get("service.client.decode"), get("service.client.decode")["calls"]), "us"),
        "service.gateway.self_us_per_req": (_us(get("service.gateway"), get("service.gateway")["calls"]), "us"),
        "service.admission.us_per_req": (_us(get("service.admission"), get("service.admission")["calls"]), "us"),
        "service.admission.refused": (get("service.admission")["items"], "count"),
        "server.cpu_share": (m["server.cpu_share"], "ratio"),
        "server.cpu_us_per_item": (m["server.cpu_us_per_item"], "us"),
        # 0 on attack-campaign, which has no separate load process.
        "loadgen.cpu_share": (m.get("loadgen.cpu_share", 0.0), "ratio"),
        "loadgen.lag_ms_p99": (m.get("loadgen.lag_ms_p99", 0.0), "ms"),
        "unattributed.share": (m["unattributed.share"], "ratio"),
        "loadgen.unattributed.share": (m.get("loadgen.unattributed.share", 0.0), "ratio"),
        "trace.overhead": (m["trace.overhead"], "ratio"),
        "attack_trials_per_s": (m.get("attack_trials_per_s", 0.0), "1/s"),
        "attack_items_per_s": (m.get("attack_items_per_s", 0.0), "1/s"),
        "failed_ratio": (m["failed_ratio"], "ratio"),
    }, layers


END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as handle:
        workloads = json.load(handle)["workloads"]
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads)}", file=sys.stderr)
        return 2
    config = workloads[args.workload]
    out_dir = os.path.join(ROOT, ".perfbench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    trace = bool(args.trace)
    if config["kind"] == "campaign":
        from perfbench import campaign

        outcome = campaign.run(config, args.seed, args.seconds, trace, ROOT, out_dir)
    else:
        from perfbench import serving

        with asyncio.Runner(loop_factory=serving.precise_loop) as runner:
            outcome = runner.run(serving.run(config, args.seed, args.seconds, trace, ROOT, out_dir))
    m = outcome["metrics"]
    if trace:
        metrics, layers = per_layer(config["kind"], config, m)
        ranked = sorted(layers.items(), key=lambda kv: -kv[1]["self_ns"])
        print("layer self time (traced window):")
        for name, layer in ranked:
            print(f"  {name:28s} calls={layer['calls']:>9d} self={layer['self_ns'] / 1e6:10.1f} ms")
    else:
        metrics = {name: (m[name], unit) for name, unit in END_TO_END.items()}
        extra = {
            "latency_p50_ms": (m["latency_p50_ms"], "ms"),
            "latency_p99_ms": (m["latency_p99_ms"], "ms"),
            "latency_samples": (m["latency_samples"], "count"),
            "failed_ratio": (m["failed_ratio"], "ratio"),
            "raw_setup_s": (m["raw_setup_s"], "s"),
            "raw_items_per_s": (m["raw_items_per_s"], "1/s"),
            "slowness": (m["slowness"], "ratio"),
        }
        if config["kind"] == "serving":
            extra["checked_inserts"] = (m["checked_inserts"], "count")
            extra["service.lifecycle.rotations"] = (m["service.lifecycle.rotations"], "count")
            extra["service.coalesce.ratio"] = (m["service.coalesce.ratio"], "ratio")
        else:
            extra["attack_trials_per_s"] = (m["attack_trials_per_s"], "1/s")
            extra["attack_items_per_s"] = (m["attack_items_per_s"], "1/s")
            extra.update({k: (v, "count") for k, v in m.items() if k.startswith("counts.")})
        for name, (value, unit) in extra.items():
            print(f"{name} = {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    tallies = outcome["tallies"]
    for phase, tally in tallies.items():
        for kind, count in tally.by_kind.items():
            print(f"failed requests ({phase}): {count} x {kind}")
    for failure in outcome["failures"]:
        print(f"CHECK FAILED: {failure}")
    correct = not outcome["failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": sum(tally.attempted for tally in tallies.values()),
        "failed": sum(tally.failed for tally in tallies.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
