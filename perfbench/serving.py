"""The serving workloads: ``point-lookups`` and ``bulk-ingest``.

One load process drives a spawned server process (``MembershipServer``
over ``MembershipGateway.from_config``) through one pipelined v2
``MembershipClient`` connection.  Each run has a closed loop (a fixed
number of requests in flight, for capacity) and an open loop (requests
due at a fixed rate, each timed from its due time, for latency).
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import statistics
import subprocess
import selectors
import sys
import time

from perfbench import checks, common, speed
from perfbench.common import (
    REQUEST_FAILURES,
    Tally,
    percentile,
    proc_cpu_seconds,
    windowed_percentile,
    proc_peak_rss_mb,
)
from perfbench.tracing import CLIENT_LAYERS, Tracer, install
from repro.service.client import MembershipClient
from repro.service.cluster.ring import HashShardPicker
from repro.urlgen.faker import UrlFactory

#: Requests still unanswered this long after a phase ends count as timed out.
GRACE_S = 5.0
#: Share of a run's seconds spent in the closed loop; the open loop gets
#: the rest, because its latency percentiles need the samples.
CLOSED_SHARE = 0.6
#: Segments of the closed loop and time windows of the open loop; both
#: report the median over them.
WINDOWS = 9
#: Seconds between rotation checkpoints while traffic runs.  The
#: false-negative check excuses a negative only on a shard that rotated
#: after the insert was sent, so on a rotating workload the checkpoints
#: must be close enough to keep most inserts checkable.
CHECKPOINT_EVERY_S = 5.0


#: On a machine with two or more CPUs the server and the load process run
#: pinned to different CPUs, so neither migrates onto the other's core.
_CPUS = sorted(os.sched_getaffinity(0))
_SERVER_CPU, _LOAD_CPU = (_CPUS[-1], _CPUS[0]) if len(_CPUS) > 1 else (None, None)


def _pin(pid: int, cpu: int | None) -> None:
    if cpu is not None:
        os.sched_setaffinity(pid, {cpu})


class ServerProcess:
    """The spawned server: start, command channel, /proc accounting."""

    def __init__(self, service: dict, root: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([root, os.path.join(root, "src")])
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.server_main", json.dumps(service)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=root,
            env=env,
        )
        _pin(self.proc.pid, _SERVER_CPU)
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("server process exited before it was ready")
        self.port = json.loads(line)["port"]

    def command(self, **command) -> dict:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        if not reply.get("ok"):
            raise RuntimeError(f"server command {command} failed: {reply}")
        return reply

    def cpu_seconds(self) -> float:
        return proc_cpu_seconds(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(json.dumps({"cmd": "quit"}) + "\n")
                self.proc.stdin.flush()
            except (BrokenPipeError, OSError):
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


class Traffic:
    """Seeded request stream over URL pools generated during set-up.

    Queries draw each item from the prefilled keys with probability
    ``hit_share`` and from never-inserted keys otherwise; inserts take
    fresh keys in order (past the end of the fresh pool, pool keys with a
    numbered suffix, still unique).
    """

    def __init__(self, config: dict, seed: int) -> None:
        factory = UrlFactory(seed=seed)
        self.prefill = factory.urls(config["prefill"])
        self.misses = factory.urls(config["miss_pool"])
        self.fresh = factory.urls(config["fresh_pool"])
        self._rng = random.Random(seed ^ 0x51A7)
        self._size = config["request_items"]
        self._insert_share = config["insert_share"]
        self._hit_share = config["hit_share"]
        self._inserted = 0

    def _fresh_key(self) -> str:
        index = self._inserted
        self._inserted += 1
        base = self.fresh[index % len(self.fresh)]
        rounds = index // len(self.fresh)
        return base if rounds == 0 else f"{base}/r{rounds}"

    def next(self) -> tuple[bool, list[str]]:
        """(is_insert, items) of the next request."""
        rng = self._rng
        if rng.random() < self._insert_share:
            return True, [self._fresh_key() for _ in range(self._size)]
        items = []
        for _ in range(self._size):
            pool = self.prefill if rng.random() < self._hit_share else self.misses
            items.append(pool[rng.randrange(len(pool))])
        return False, items


class Recorder:
    """What the load process observed: answers, failures, inserts.

    ``tally`` counts the current phase's requests; :func:`run` swaps in a
    fresh one for each phase."""

    def __init__(self) -> None:
        self.tally = Tally()
        #: (send time, item) of acknowledged inserts, for the checker.
        self.inserts: list[tuple[float, str]] = []
        self.checkpoints: list[checks.Checkpoint] = []

    async def request(self, client: MembershipClient, insert: bool, items: list[str]) -> bool:
        self.tally.attempted += 1
        sent = time.perf_counter()
        try:
            if insert:
                answers = await client.insert_batch(items, client="load")
            else:
                answers = await client.query_batch(items, client="load")
        except REQUEST_FAILURES as exc:
            self.tally.fail(type(exc).__name__)
            return False
        if len(answers) != len(items):
            self.tally.fail("ShortAnswer")
            return False
        if insert:
            self.inserts.extend((sent, item) for item in items)
        return True


async def _settle(tasks, tally: Tally, grace: float) -> None:
    """Wait for a phase's tasks; cancel and count those past the grace."""
    if not tasks:
        return
    _, pending = await asyncio.wait(tasks, timeout=grace)
    for task in pending:
        task.cancel()
        tally.fail("Timeout")
    await asyncio.gather(*tasks, return_exceptions=True)
    for task in tasks:
        if not task.cancelled() and task.exception() is not None:
            raise task.exception()


async def closed_loop(client, traffic: Traffic, rec: Recorder, seconds: float, inflight: int) -> dict:
    """``inflight`` requests kept in flight for ``seconds``; capacity."""
    start = time.perf_counter()
    stop = start + seconds
    done: list[tuple[float, float]] = []

    async def worker() -> None:
        while time.perf_counter() < stop:
            insert, items = traffic.next()
            if await rec.request(client, insert, items):
                done.append((time.perf_counter(), len(items)))

    loop = asyncio.get_running_loop()
    tasks = [loop.create_task(worker()) for _ in range(inflight)]
    await _settle(tasks, rec.tally, seconds + GRACE_S)
    # Median rate over consecutive segments of the completions: one burst
    # of interference on a shared machine moves one segment, not the
    # reported figure.
    edges = [start] + [when for when, _ in done]
    step = len(done) / WINDOWS
    segments = []
    for w in range(WINDOWS):
        lo, hi = int(w * step), int((w + 1) * step)
        if hi == lo:
            continue
        items = sum(n for _, n in done[lo:hi])
        segments.append((edges[lo], edges[hi], items / (edges[hi] - edges[lo])))
    return {
        "items_per_s": statistics.median(rate for _, _, rate in segments),
        "segments": segments,
        "items": sum(n for _, n in done),
    }


async def measured_closed_loop(client, server, traffic, rec: Recorder, seconds: float, inflight: int) -> dict:
    """:func:`closed_loop` with machine-speed samples taken in both
    processes, so ``items_per_s`` is scaled to the reference speed;
    ``raw_items_per_s`` is the rate as measured."""
    server.command(cmd="speed_on")
    sampler = speed.Sampler()
    closed = await closed_loop(client, traffic, rec, seconds, inflight)
    samples = [await sampler.stop(), server.command(cmd="speed_off")["samples"]]
    closed["raw_items_per_s"] = closed["items_per_s"]
    closed["items_per_s"] = speed.scaled_rate(closed["segments"], samples)
    closed["slowness"] = statistics.mean(speed.slowness(s) for s in samples)
    # Yardstick seconds each process spent, for its CPU accounting.
    closed["load_yardstick_s"], closed["server_yardstick_s"] = (
        sum(seconds for _, seconds in s) for s in samples
    )
    return closed


async def open_loop(client, traffic: Traffic, rec: Recorder, seconds: float, rate: float) -> dict:
    """Requests due every ``1/rate`` s for ``seconds``; each is timed from
    its due time, so a stall also delays every request queued behind it.
    Percentiles are per time window, then the median over windows.  Run
    it on a :func:`precise_loop`, whose timers wake when due."""
    loop = asyncio.get_running_loop()
    tasks: list[asyncio.Task] = []
    latencies: list[tuple[float, float]] = []
    lateness: list[float] = []
    answered = 0

    async def one(due: float, insert: bool, items: list[str]) -> None:
        nonlocal answered
        lateness.append(time.perf_counter() - due)
        if await rec.request(client, insert, items):
            latencies.append((due, time.perf_counter() - due))
            answered += len(items)

    start = time.perf_counter() + 0.01
    for i in range(int(seconds * rate)):
        due = start + i / rate
        wait = due - time.perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
        insert, items = traffic.next()
        tasks.append(loop.create_task(one(due, insert, items)))
    await _settle(tasks, rec.tally, GRACE_S)
    width = seconds / WINDOWS
    windows: list[list[float]] = [[] for _ in range(WINDOWS)]
    for due, latency in latencies:
        windows[min(int((due - start) / width), WINDOWS - 1)].append(latency)
    return {
        "latency_p50_ms": windowed_percentile(windows, 0.50) * 1e3,
        "latency_p99_ms": windowed_percentile(windows, 0.99) * 1e3,
        "latency_samples": len(latencies),
        "items": answered,
        "lag_ms_p99": percentile(sorted(lateness), 0.99) * 1e3,
    }


def precise_loop() -> asyncio.AbstractEventLoop:
    """An event loop over ``select()``, whose timeout has microsecond
    resolution: epoll rounds every timer up to the next millisecond,
    which would add generator lateness to every open-loop latency."""
    return asyncio.SelectorEventLoop(selectors.SelectSelector())


async def checkpoint(client: MembershipClient, rec: Recorder) -> None:
    stats = await client.stats(client="checker")
    rotations = tuple(entry["rotations"] for entry in sorted(stats, key=lambda e: e["shard_id"]))
    rec.checkpoints.append((time.perf_counter(), rotations))


async def _checkpoints_every(client, rec: Recorder, every: float) -> None:
    while True:
        await asyncio.sleep(every)
        await checkpoint(client, rec)


async def prefill(client: MembershipClient, items: list[str], rec: Recorder, batch: int = 1024) -> None:
    """Insert the prefill keys, four batches in flight."""
    chunks = [items[i : i + batch] for i in range(0, len(items), batch)]
    for i in range(0, len(chunks), 4):
        results = await asyncio.gather(
            *(rec.request(client, True, chunk) for chunk in chunks[i : i + 4])
        )
        if not all(results):
            raise RuntimeError("prefill insert failed")


async def verify(client: MembershipClient, rec: Recorder, shards: int) -> tuple[list[str], int]:
    """Query every acknowledged insert and run the false-negative check."""
    items = [item for _, item in rec.inserts]
    replies = await asyncio.gather(*(
        client.query_batch(items[i : i + 1024], client="checker")
        for i in range(0, len(items), 1024)
    ))
    answers = [answer for reply in replies for answer in reply]
    await checkpoint(client, rec)
    picker = HashShardPicker()
    return checks.check_inserts(
        rec.inserts, answers, rec.checkpoints, shards,
        lambda item: picker.pick(item, shards),
    )


async def _setup(config: dict, traffic: Traffic, root: str):
    """Spawn the server, connect, prefill: the timed set-up.  Also
    returns the machine's slowness meanwhile, from the samples of both
    processes."""
    sampler = speed.Sampler()
    start = time.perf_counter()
    server = ServerProcess(config["service"], root)
    try:
        client = MembershipClient("127.0.0.1", server.port, pipeline=config["inflight"])
        rec = Recorder()
        await prefill(client, traffic.prefill, rec)
        await checkpoint(client, rec)
        elapsed = time.perf_counter() - start
        samples = [await sampler.stop(), server.command(cmd="speed_off")["samples"]]
    except BaseException:
        server.close()
        raise
    slowness = statistics.mean(speed.slowness(s) for s in samples)
    return elapsed, slowness, server, client, rec


async def run(config: dict, seed: int, seconds: float, trace: bool, root: str, out_dir: str) -> dict:
    """One run; returns the metrics dict plus attempted/failed/correct."""
    _pin(0, _LOAD_CPU)
    traffic = Traffic(config, seed)
    setups, raw_setups = [], []
    for _ in range(1 if trace else common.SETUP_REPS):
        if setups:
            await client.aclose()
            server.close()
        elapsed, slowness, server, client, rec = await _setup(config, traffic, root)
        raw_setups.append(elapsed)
        setups.append(elapsed / slowness)
    shards = config["service"]["shards"]
    rate = config["open_rate"]
    # The load process's own bookkeeping (a tuple per request) would make
    # its full collections stall every request in flight, so the
    # collector stays off while traffic runs.
    gc.collect()
    gc.disable()
    try:
        ticker = asyncio.get_running_loop().create_task(
            _checkpoints_every(client, rec, CHECKPOINT_EVERY_S)
        )
        # Warm-up: connection, caches and lazy imports, untimed.
        await closed_loop(client, traffic, rec, 0.5, config["inflight"])
        # failed_ratio covers the untraced closed and open loops only.
        tallies = {"set-up and warm-up": rec.tally, "untraced": Tally()}
        rec.tally = tallies["untraced"]
        closed_s, open_s = seconds * CLOSED_SHARE, seconds * (1 - CLOSED_SHARE)
        if trace:
            closed_s, open_s = closed_s / 2, open_s / 2
        cpu0, load0, wall0 = server.cpu_seconds(), time.process_time(), time.perf_counter()
        closed = await measured_closed_loop(client, server, traffic, rec, closed_s, config["inflight"])
        cpu1, load1, wall1 = server.cpu_seconds(), time.process_time(), time.perf_counter()
        opened = await open_loop(client, traffic, rec, open_s, rate)
        result = {
            "setup_s": statistics.median(setups),
            "raw_setup_s": statistics.median(raw_setups),
            "items_per_s": closed["items_per_s"],
            "raw_items_per_s": closed["raw_items_per_s"],
            "slowness": closed["slowness"],
            "latency_p50_ms": opened["latency_p50_ms"],
            "latency_p99_ms": opened["latency_p99_ms"],
            "latency_samples": opened["latency_samples"],
            # CPU time of the program and the load, without the yardstick's.
            "server.cpu_share": (cpu1 - cpu0 - closed["server_yardstick_s"]) / (wall1 - wall0),
            "server.cpu_us_per_item": (cpu1 - cpu0 - closed["server_yardstick_s"]) * 1e6 / max(closed["items"], 1),
            "loadgen.cpu_share": (load1 - load0 - closed["load_yardstick_s"]) / (wall1 - wall0),
            "loadgen.lag_ms_p99": opened["lag_ms_p99"],
        }
        if trace:
            rec.tally = tallies["traced"] = Tally()
            result.update(await _traced(client, server, traffic, rec, config, closed_s, open_s, closed, out_dir))
        ticker.cancel()
        await asyncio.gather(ticker, return_exceptions=True)
        await checkpoint(client, rec)
        gc.enable()
        # The filters' process at its peak, before the checker's queries.
        result["peak_rss_mb"] = server.peak_rss_mb()
        failures, checked = await verify(client, rec, shards)
        stats = await client.server_stats(client="checker")
        final = rec.checkpoints[-1][1]
        result.update({
            "failed_ratio": tallies["untraced"].ratio,
            "checked_inserts": checked,
            "service.lifecycle.rotations": sum(final) - sum(rec.checkpoints[0][1]),
            "service.coalesce.ratio": stats["coalesce"]["coalesce_ratio"],
        })
    finally:
        gc.enable()
        await client.aclose()
        server.close()
    return {"metrics": result, "tallies": tallies, "failures": failures}


async def _traced(client, server, traffic, rec, config, closed_s, open_s, untraced, out_dir) -> dict:
    """Traced closed and open loops, after the untraced ones."""
    tracer = Tracer()
    server.command(cmd="trace_on")
    load_cpu0 = time.process_time()
    with install(tracer, CLIENT_LAYERS):
        closed = await measured_closed_loop(client, server, traffic, rec, closed_s, config["inflight"])
        opened = await open_loop(client, traffic, rec, open_s, config["open_rate"])
    load_cpu_ns = (time.process_time() - load_cpu0 - closed["load_yardstick_s"]) * 1e9
    items = closed["items"] + opened["items"]
    remote = server.command(cmd="trace_off", path=os.path.join(out_dir, "server.spans.json"))
    tracer.write(os.path.join(out_dir, "loadgen.spans.json"))
    return {
        "trace.overhead": 1.0 - closed["items_per_s"] / untraced["items_per_s"],
        "unattributed.share": 1.0 - remote["covered_ns"] / max(remote["cpu_ns"] - closed["server_yardstick_s"] * 1e9, 1),
        "loadgen.unattributed.share": 1.0 - tracer.covered_ns / max(load_cpu_ns, 1),
        "_server_layers": remote["layers"],
        "_client_layers": tracer.summary()["layers"],
        "_coalesce_waits_ns": remote["coalesce_waits_ns"],
        "_traced_items": items,
    }
