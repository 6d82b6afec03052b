"""The ``attack-campaign`` workload: the deployed white-box attacker.

An in-process gateway (the adversary reads shard state, so it shares the
process) is prefilled to fill ~0.5 once per set-up and snapshotted.  Each
round restores that snapshot into a fresh gateway and runs one seeded
campaign with ``AdversarialTrafficDriver`` under one ``AttackBudget``: a
pollution campaign beside two inserting honest clients, then a ghost
campaign beside two querying honest clients (who leave the filter state
alone, so the ghost search is exactly repeatable).  Round ``i`` of seed
``s`` is the same campaign in every run, so its counts repeat exactly;
rates are taken over all rounds, which averages out the luck of any one
campaign's brute force.
"""

from __future__ import annotations

import asyncio
import gc
import math
import os
import statistics
import time

from perfbench import checks, common, speed
from perfbench.common import REQUEST_FAILURES, Tally, proc_peak_rss_mb, windowed_percentile
from perfbench.tracing import ATTACK_LAYERS, Tracer, install
from repro.adversary.budget import AttackBudget
from repro.service.cluster.ring import HashShardPicker
from repro.service.config import ServiceConfig
from repro.service.driver import AdversarialTrafficDriver
from repro.service.gateway import MembershipGateway
from repro.urlgen.faker import UrlFactory


#: Items per prefill insert; bounds how far a shard overshoots its fill.
PREFILL_BATCH = 16


class TimedTransport:
    """Gateway-shaped carrier that times honest requests and remembers
    every acknowledged insert for the false-negative check."""

    def __init__(self, gateway: MembershipGateway, tally: Tally) -> None:
        self.gateway = gateway
        self.tally = tally
        self.latencies: list[float] = []
        self.inserted: list[str] = []

    async def _call(self, method, items, client):
        self.tally.attempted += 1
        start = time.perf_counter()
        try:
            answers = await method(items, client=client)
        except REQUEST_FAILURES as exc:
            self.tally.fail(type(exc).__name__)
            raise
        if client.startswith("honest"):
            self.latencies.append(time.perf_counter() - start)
        return answers

    async def insert_batch(self, items, client="anon"):
        answers = await self._call(self.gateway.insert_batch, items, client)
        self.inserted.extend(items)
        return answers

    async def query_batch(self, items, client="anon"):
        return await self._call(self.gateway.query_batch, items, client)


def prefill_pools(config: dict, seed: int) -> list[list[str]]:
    """Per-shard pools of URLs, each more than enough to fill its shard."""
    service = config["service"]
    per_shard = -service["shard_m"] * math.log(1 - config["prefill_fill"]) / service["shard_k"]
    picker = HashShardPicker()
    pools: list[list[str]] = [[] for _ in range(service["shards"])]
    for url in UrlFactory(seed=seed).urls(int(1.25 * per_shard * service["shards"])):
        pools[picker.pick(url, service["shards"])].append(url)
    return pools


async def _setup(config: dict, pools: list[list[str]]) -> tuple[float, float, bytes]:
    """Build the gateway and prefill every shard to ``prefill_fill``
    exactly (to within one small batch), so crafting costs the same for
    every seed: the timed set-up.  Returns its seconds, the machine's
    slowness meanwhile, and the snapshot."""
    sampler = speed.Sampler()
    start = time.perf_counter()
    gateway = MembershipGateway.from_config(ServiceConfig(**config["service"]))
    target = config["prefill_fill"]
    try:
        for shard, pool in enumerate(pools):
            for i in range(0, len(pool), PREFILL_BATCH):
                if gateway.shard_state(shard).fill_ratio >= target:
                    break
                await gateway.insert_batch(pool[i : i + PREFILL_BATCH], client="prefill")
            else:
                raise RuntimeError(f"prefill pool too small for shard {shard}")
        snapshot = gateway.export_snapshot()
    finally:
        gateway.close()
    elapsed = time.perf_counter() - start
    return elapsed, speed.slowness(await sampler.stop()), snapshot


async def _round(config: dict, snapshot: bytes, seed: int, tally: Tally, tracer: Tracer | None) -> dict:
    """One campaign on a fresh copy of the prefilled gateway."""
    gateway = MembershipGateway.from_config(ServiceConfig(**config["service"]))
    gateway.restore_snapshot(snapshot)
    transport = TimedTransport(gateway, tally)
    budget = AttackBudget()
    honest = config["honest"]
    target = config["target_shard"]
    shared = dict(honest_clients=honest["clients"], batch=honest["batch"], target_shard=target)
    installation = install(tracer, ATTACK_LAYERS) if tracer is not None else None
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        pollution = await AdversarialTrafficDriver(
            gateway, seed=seed, transport=transport, budget=budget,
            craft_chunk=config["craft_chunk"],
        ).run(
            honest_inserts=honest["inserts"], honest_queries=honest["queries"],
            pollution_inserts=config["pollution_items"], ghost_queries=0,
            probe_queries=0, **shared,
        )
        ghosts = await AdversarialTrafficDriver(
            gateway, seed=seed + 1, transport=transport, budget=budget,
            craft_chunk=config["craft_chunk"],
        ).run(
            honest_inserts=0, honest_queries=honest["queries"],
            pollution_inserts=0, ghost_queries=config["ghost_items"],
            ghost_min_fill=0.3, probe_queries=0, **shared,
        )
    finally:
        if installation is not None:
            installation.remove()
    cpu_s, wall_s = time.process_time() - cpu0, time.perf_counter() - wall0
    # Probe and checker, outside the campaign clock and the trace.
    probe = UrlFactory(seed=seed ^ 0xF0F0).urls(config["probe_queries"])
    probe_fp = sum(await gateway.query_batch(probe, client="probe"))
    present = await gateway.query_batch(transport.inserted, client="checker")
    rotations = gateway.rotations
    gateway.close()
    spend = budget.spend_by_label()
    elapsed = pollution.elapsed_s + ghosts.elapsed_s
    crafted = pollution.pollution_crafted + ghosts.ghost_crafted
    trials = sum(s.trials for s in spend.values())
    return {
        "elapsed_s": elapsed,
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "operations": pollution.operations + ghosts.operations,
        "latencies": transport.latencies,
        "counts": {
            "pollution_crafted": pollution.pollution_crafted,
            "pollution_trials": spend["pollution"].trials if "pollution" in spend else 0,
            "ghost_crafted": ghosts.ghost_crafted,
            "ghost_trials": spend["ghost"].trials if "ghost" in spend else 0,
            "ghost_hits": ghosts.ghost_hits,
            "trials": trials,
            "crafted": crafted,
            "probe_false_positives": probe_fp,
            "rotations": rotations,
            "missing_inserts": len(present) - sum(present),
        },
    }


def _rates(rounds: list[dict]) -> dict:
    """Rates over all rounds' totals: each round draws its own campaign,
    so the totals average out how lucky one seed's brute force is.  Each
    round's time is scaled to the reference machine speed by the
    yardstick samples taken while it ran."""
    elapsed = sum(r["elapsed_s"] / r["slowness"] for r in rounds)
    trials = sum(r["counts"]["trials"] for r in rounds)
    return {
        "attack_trials_per_s": trials / elapsed,
        "attack_items_per_s": sum(r["counts"]["crafted"] for r in rounds) / elapsed,
        # Every budget trial is one candidate item hashed and tested
        # against the filters' state, the attacker's membership answer.
        "items_per_s": trials / elapsed,
        "raw_items_per_s": trials / sum(r["elapsed_s"] for r in rounds),
        "slowness": sum(r["elapsed_s"] for r in rounds) / elapsed,
    }


def _campaign_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + 2 * index


async def _rounds_for(seconds, config, snapshot, seed, first, tally, tracer) -> list[dict]:
    rounds: list[dict] = []
    sampler = speed.Sampler()
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        index = first + len(rounds)
        began = time.perf_counter()
        rounds.append(await _round(config, snapshot, _campaign_seed(seed, index), tally, tracer))
        last = rounds[-1]
        last["slowness"], last["yardstick_s"] = sampler.window(began, time.perf_counter())
        # The program's CPU time, without the yardstick's.
        last["cpu_s"] -= last["yardstick_s"]
    await sampler.stop()
    return rounds


def run(config: dict, seed: int, seconds: float, trace: bool, root: str, out_dir: str) -> dict:
    pools = prefill_pools(config, seed)
    setups, raw_setups = [], []
    for _ in range(1 if trace else common.SETUP_REPS):
        elapsed, slowness, snapshot = asyncio.run(_setup(config, pools))
        raw_setups.append(elapsed)
        setups.append(elapsed / slowness)
    # Set-up objects stay out of the measured collections.
    gc.collect()
    gc.freeze()
    # failed_ratio covers the untraced rounds only.
    tallies = {"untraced": Tally()}
    requested = {"pollution": config["pollution_items"], "ghost": config["ghost_items"]}
    share = 0.5 if trace else 1.0
    rounds = asyncio.run(_rounds_for(seconds * share, config, snapshot, seed, 0, tallies["untraced"], None))
    windows = [r["latencies"] for r in rounds]
    cpu_s = sum(r["cpu_s"] for r in rounds)
    result = {
        "setup_s": statistics.median(setups),
        "raw_setup_s": statistics.median(raw_setups),
        **_rates(rounds),
        # Per-round percentiles, then the median over rounds.
        "latency_p50_ms": windowed_percentile(windows, 0.50) * 1e3,
        "latency_p99_ms": windowed_percentile(windows, 0.99) * 1e3,
        "latency_samples": sum(len(w) for w in windows),
        "rounds": len(rounds),
        # One process holds the filters, the attacker and the honest
        # clients; its CPU time over the campaigns' wall time.
        "server.cpu_share": cpu_s / sum(r["wall_s"] for r in rounds),
        "server.cpu_us_per_item": cpu_s * 1e6 / sum(r["operations"] for r in rounds),
    }
    if trace:
        tracer = Tracer()
        tallies["traced"] = Tally()
        cpu0 = time.process_time()
        traced = asyncio.run(
            _rounds_for(seconds * share, config, snapshot, seed, len(rounds), tallies["traced"], tracer)
        )
        cpu_ns = (time.process_time() - cpu0 - sum(r["yardstick_s"] for r in traced)) * 1e9
        tracer.write(os.path.join(out_dir, "campaign.spans.json"))
        traced_rates = _rates(traced)
        rounds += traced
        result.update({
            "trace.overhead": 1.0 - traced_rates["attack_trials_per_s"] / result["attack_trials_per_s"],
            "unattributed.share": 1.0 - tracer.covered_ns / max(cpu_ns, 1),
            "_layers": tracer.summary()["layers"],
            "_traced_counts": {
                key: sum(r["counts"][key] for r in traced) for key in ("trials", "crafted")
            },
            "_traced_items": sum(r["operations"] for r in traced),
        })
    result["peak_rss_mb"] = proc_peak_rss_mb()
    # The first round once more: a seeded campaign must repeat its counts.
    tallies["replay"] = Tally()
    replay = asyncio.run(_round(config, snapshot, _campaign_seed(seed, 0), tallies["replay"], None))
    first = rounds[0]["counts"]
    failures = checks.check_campaign(requested, replay["counts"], first)
    for r in rounds:
        failures += checks.check_campaign(requested, r["counts"], None)
    result.update({f"counts.{key}": value for key, value in first.items()})
    result["failed_ratio"] = tallies["untraced"].ratio
    return {"metrics": result, "tallies": tallies, "failures": failures}
