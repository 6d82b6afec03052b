"""In-memory span tracing around the program's public entry points.

The program is not modified: :func:`install` replaces a named function
or method *where its caller looks it up* (a class attribute, or a module
global imported by name, such as ``encode_request_frame`` in
``repro.service.client``) with a wrapper that records a span, and the
returned :class:`Installation` puts every original back.

Spans nest on one stack per process.  A layer's self time is its span
minus the part its child spans cover, minus the tracer's own calibrated
cost inside the span; the tracer accumulates that online per layer, and
also keeps the first ``keep`` raw spans in memory so they can be written
out, with the number dropped past the cap, when the run ends.
Coroutines are traced per resumed segment (each ``send`` into the
coroutine is one synchronous span), so interleaved requests on one event
loop never corrupt the stack and time spent suspended is not charged to
the layer.  Nothing traced here runs off the main thread.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import deque
from time import perf_counter_ns

__all__ = [
    "Tracer",
    "Installation",
    "install",
    "SERVER_LAYERS",
    "CLIENT_LAYERS",
    "ATTACK_LAYERS",
]


class Tracer:
    """Per-process span recorder with online self-time accounting."""

    def __init__(self, keep: int = 20_000, calibrate: bool = True) -> None:
        #: The tracer's own cost, in ns, charged to no layer: what one
        #: child span costs its parent outside the child's span, and what
        #: tracing costs inside one synchronous span and inside one resumed
        #: coroutine or generator segment.
        self.child_overhead_ns, self.span_overhead_ns, self.segment_overhead_ns = (
            _calibrate() if calibrate else (0, 0, 0)
        )
        #: layer -> [calls, inclusive ns, self ns, items]
        self.stats: dict[str, list[int]] = {}
        #: Wall time covered by root spans (no enclosing span).
        self.covered_ns = 0
        self.spans: list[tuple[str, int, int, str | None]] = []
        self.keep = keep
        self.dropped = 0
        self._stack: list[list] = []
        #: Coalescer submissions waiting for their merged backend call:
        #: (shard, op) -> deque of [submit ns, items still unserved].
        self._submitted: dict[tuple[int, str], deque] = {}
        #: Submit-to-backend-call waits, ns, one per submission.
        self.coalesce_waits: list[int] = []

    def begin(self, name: str, overhead_ns: int) -> None:
        """Open a span; ``overhead_ns`` of it is the tracer's own work and
        is left out of the layer's self time."""
        self._stack.append([name, perf_counter_ns(), overhead_ns])

    def end(self, calls: int = 1, items: int = 0) -> None:
        name, start, child = self._stack.pop()
        now = perf_counter_ns()
        duration = now - start
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0, 0, 0]
        entry[0] += calls
        entry[1] += duration
        entry[2] += duration - child
        entry[3] += items
        stack = self._stack
        if stack:
            stack[-1][2] += duration + self.child_overhead_ns
            parent = stack[-1][0]
        else:
            self.covered_ns += duration
            parent = None
        if len(self.spans) < self.keep:
            self.spans.append((name, start, now, parent))
        else:
            self.dropped += 1

    def _charge_parent(self, since: int) -> None:
        """Leave tracer bookkeeping since ``since`` out of the enclosing
        span's self time."""
        if self._stack:
            self._stack[-1][2] += perf_counter_ns() - since

    # -- coalescer queue wait -------------------------------------------

    def note_submit(self, shard: int, op: str, items: int) -> None:
        now = perf_counter_ns()
        queue = self._submitted.get((shard, op))
        if queue is None:
            queue = self._submitted[(shard, op)] = deque()
        queue.append([now, items])
        self._charge_parent(now)

    def note_backend_call(self, shard: int, op: str, items: int) -> None:
        """A merged backend call starts: settle the submissions it serves
        (the coalescer flushes each (shard, op) queue in FIFO order)."""
        now = perf_counter_ns()
        queue = self._submitted.get((shard, op))
        while items > 0 and queue:
            head = queue[0]
            served = min(head[1], items)
            head[1] -= served
            items -= served
            if head[1] == 0:
                queue.popleft()
                self.coalesce_waits.append(now - head[0])
        self._charge_parent(now)

    # -- output ---------------------------------------------------------

    def layer(self, name: str) -> dict:
        calls, incl, self_ns, items = self.stats.get(name, (0, 0, 0, 0))
        return {"calls": calls, "incl_ns": incl, "self_ns": self_ns, "items": items}

    def summary(self) -> dict:
        return {
            "layers": {name: self.layer(name) for name in sorted(self.stats)},
            "covered_ns": self.covered_ns,
            "coalesce_waits_ns": list(self.coalesce_waits),
        }

    def write(self, path) -> None:
        """Write the per-layer summary, the kept raw spans
        ``[layer, start ns, end ns, parent layer]`` and how many spans
        past ``keep`` were counted in the summary but not kept, as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {**self.summary(), "spans": self.spans, "keep": self.keep, "dropped": self.dropped},
                handle,
            )


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


class _TracedAwaitable:
    """Drive a coroutine, recording one span per resumed segment."""

    __slots__ = ("coro", "tracer", "name", "items")

    def __init__(self, coro, tracer: Tracer, name: str, items: int) -> None:
        self.coro = coro
        self.tracer = tracer
        self.name = name
        self.items = items

    def __await__(self):
        tracer, name = self.tracer, self.name
        cost = tracer.segment_overhead_ns
        inner = self.coro.__await__()
        value = None
        error: BaseException | None = None
        while True:
            tracer.begin(name, cost)
            try:
                if error is not None:
                    yielded = inner.throw(error)
                else:
                    yielded = inner.send(value)
            except StopIteration as stop:
                tracer.end(1, self.items)
                return stop.value
            except BaseException:
                tracer.end(1, self.items)
                raise
            tracer.end(0, 0)
            try:
                value = yield yielded
                error = None
            except BaseException as exc:  # delivered into the coroutine
                value = None
                error = exc


def _items_arg(position: int):
    def count(args, kwargs) -> int:
        try:
            return len(args[position])
        except (IndexError, TypeError):
            return 0

    return count


def _one(args, kwargs) -> int:
    return 1


def _wrap_sync(fn, tracer: Tracer, name: str, count):
    begin, end, cost = tracer.begin, tracer.end, tracer.span_overhead_ns

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        begin(name, cost)
        try:
            return fn(*args, **kwargs)
        finally:
            end(1, count(args, kwargs))

    return wrapper


def _wrap_admit(fn, tracer: Tracer, name: str, count):
    """``ClientRateLimiter.admit``: the layer's items are its refusals."""
    begin, end, cost = tracer.begin, tracer.end, tracer.span_overhead_ns

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        begin(name, cost)
        admitted = True
        try:
            admitted = fn(*args, **kwargs)
            return admitted
        finally:
            end(1, 0 if admitted else 1)

    return wrapper


def _wrap_async(fn, tracer: Tracer, name: str, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _TracedAwaitable(fn(*args, **kwargs), tracer, name, count(args, kwargs))

    return wrapper


def _traced_iter(inner, tracer: Tracer, name: str):
    step = inner.__next__
    begin, end, cost = tracer.begin, tracer.end, tracer.segment_overhead_ns
    while True:
        begin(name, cost)
        try:
            item = step()
        except StopIteration:
            end(0, 0)
            return
        except BaseException:
            end(0, 0)
            raise
        end(1, 1)
        yield item


def _wrap_gen(fn, tracer: Tracer, name: str, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _traced_iter(fn(*args, **kwargs), tracer, name)

    return wrapper


def _wrap_submit(fn, tracer: Tracer, name: str, count):
    """``MicroBatchCoalescer.submit(self, shard_id, op, items)``."""
    sync = _wrap_sync(fn, tracer, name, count)

    @functools.wraps(fn)
    def wrapper(self, shard_id, op, items):
        tracer.note_submit(shard_id, op, len(items))
        return sync(self, shard_id, op, items)

    return wrapper


def _wrap_backend(op: str):
    """``LocalBackend.{insert,query}_batch(self, shard_id, items)``: also
    settles the coalescer submissions this call serves."""

    def make(fn, tracer: Tracer, name: str, count):
        traced = _wrap_async(fn, tracer, name, count)

        @functools.wraps(fn)
        def wrapper(self, shard_id, items):
            tracer.note_backend_call(shard_id, op, len(items))
            return traced(self, shard_id, items)

        return wrapper

    return make


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------


class _Suspend:
    """Awaitable that suspends once, as a coroutine awaiting I/O does."""

    def __await__(self):
        yield


def _noop(arg) -> None:
    return None


async def _noop_coro(arg) -> None:
    await _Suspend()


def _drive(awaitables) -> None:
    """Run each two-segment awaitable to completion, one send a segment."""
    for awaitable in awaitables:
        send = awaitable.__await__().send
        send(None)
        try:
            send(None)
        except StopIteration:
            pass


def _bare_ns(arg, calls: int) -> tuple[int, int]:
    """Summed durations, each bracketed by two clock reads as a span is,
    of ``calls`` bare no-op calls and of ``2 * calls`` bare coroutine
    segments."""
    call_ns = 0
    for _ in range(calls):
        start = perf_counter_ns()
        _noop(arg)
        call_ns += perf_counter_ns() - start
    segment_ns = 0
    for coro in [_noop_coro(arg) for _ in range(calls)]:
        send = coro.send
        start = perf_counter_ns()
        send(None)
        segment_ns += perf_counter_ns() - start
        start = perf_counter_ns()
        try:
            send(None)
        except StopIteration:
            pass
        segment_ns += perf_counter_ns() - start
    return call_ns, segment_ns


def _calibrate(rounds: int = 5, calls: int = 2000) -> tuple[int, int, int]:
    """The tracer's own cost in ns, each the median over ``rounds``:

    * outside a span, charged to the parent: wall time of calls to a
      wrapped no-op, minus the loop and their recorded spans;
    * inside a synchronous span: the recorded span of a wrapped no-op
      minus the same call timed bare;
    * inside a coroutine segment: the same for the segments of a wrapped
      coroutine that suspends once.
    """
    arg = [None]
    outside, inside, segment = [], [], []
    for _ in range(rounds):
        call_ns, segment_ns = _bare_ns(arg, calls)
        probe = Tracer(keep=0, calibrate=False)
        wrapped = _wrap_sync(_noop, probe, "probe", _items_arg(0))
        start = perf_counter_ns()
        for _ in range(calls):
            wrapped(arg)
        wall = perf_counter_ns() - start
        start = perf_counter_ns()
        for _ in range(calls):
            pass
        wall -= perf_counter_ns() - start
        outside.append((wall - probe.covered_ns) // calls)
        inside.append((probe.covered_ns - call_ns) // calls)
        probe = Tracer(keep=0, calibrate=False)
        wrapped_coro = _wrap_async(_noop_coro, probe, "probe", _items_arg(0))
        _drive([wrapped_coro(arg) for _ in range(calls)])
        segment.append((probe.covered_ns - segment_ns) // (2 * calls))
    middle = rounds // 2
    return tuple(max(sorted(costs)[middle], 0) for costs in (outside, inside, segment))


# (layer, module, owner attribute or None for a module global, name,
#  wrapper factory, item counter)
_GATEWAY = [
    ("service.gateway", "repro.service.gateway", "MembershipGateway", "query_batch", _wrap_async, _items_arg(1)),
    ("service.gateway", "repro.service.gateway", "MembershipGateway", "insert_batch", _wrap_async, _items_arg(1)),
    ("service.admission", "repro.service.admission", "ClientRateLimiter", "admit", _wrap_admit, None),
    ("service.cluster.ring", "repro.service.cluster.ring", "HashShardPicker", "pick", _wrap_sync, _one),
    ("service.coalesce", "repro.service.coalesce", "MicroBatchCoalescer", "submit", _wrap_submit, _items_arg(3)),
    ("service.backends", "repro.service.backends", "LocalBackend", "insert_batch", _wrap_backend("insert"), _items_arg(2)),
    ("service.backends", "repro.service.backends", "LocalBackend", "query_batch", _wrap_backend("query"), _items_arg(2)),
    ("service.lifecycle", "repro.service.backends", "LocalBackend", "rotate", _wrap_async, _one),
    ("core.bloom", "repro.core.bloom", "BloomFilter", "add_batch", _wrap_sync, _items_arg(1)),
    ("core.bloom", "repro.core.bloom", "BloomFilter", "contains_batch", _wrap_sync, _items_arg(1)),
    ("hashing", "repro.hashing.recycling", "RecyclingStrategy", "flat_batch_indexes", _wrap_sync, _items_arg(1)),
    ("hashing", "repro.hashing.recycling", "RecyclingStrategy", "indexes", _wrap_sync, _one),
]

#: Layers of the server process (gateway and below, plus its codec).
SERVER_LAYERS = _GATEWAY + [
    ("service.codec.decode", "repro.service.server", None, "decode_request_envelope", _wrap_sync, _one),
    ("service.codec.encode", "repro.service.server", None, "encode_answers_frame", _wrap_sync, _one),
]

#: Layers of the load process on the serving workloads (client codec).
CLIENT_LAYERS = [
    ("service.client.encode", "repro.service.client", None, "encode_request_frame", _wrap_sync, _one),
    ("service.client.decode", "repro.service.client", None, "decode_response_envelope", _wrap_sync, _one),
]

#: Layers of the attack-campaign process: the in-process gateway plus the
#: white-box attacker's candidate generation, crafting and predicates.
ATTACK_LAYERS = _GATEWAY + [
    ("urlgen", "repro.urlgen.faker", "UrlFactory", "candidate_stream", _wrap_gen, _one),
    ("urlgen", "repro.urlgen.faker", "UrlFactory", "candidate_batch", _wrap_sync, lambda a, k: a[1] if len(a) > 1 else 0),
    ("adversary.crafting", "repro.adversary.crafting", "CraftingEngine", "craft", _wrap_sync, _one),
    ("adversary.predicates", "repro.adversary.predicates", "StatePredicate", "mask", _wrap_sync, _items_arg(1)),
    ("adversary.predicates", "repro.adversary.predicates", "StatePredicate", "snapshot", _wrap_sync, lambda a, k: 0),
]


class Installation:
    """Installed wrappers; :meth:`remove` restores every original."""

    def __init__(self, originals: list[tuple[object, str, object]]) -> None:
        self._originals = originals

    def remove(self) -> None:
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals = []

    def __enter__(self) -> "Installation":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.remove()


def install(tracer: Tracer, layers) -> Installation:
    """Wrap every entry point in ``layers`` where its caller finds it."""
    originals = []
    for layer, module_name, owner_name, attr, factory, count in layers:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        # The owner's own dict, not getattr: a wrapper must replace the
        # definition callers resolve, and removal must put back exactly it.
        original = vars(owner)[attr]
        originals.append((owner, attr, original))
        setattr(owner, attr, factory(original, tracer, layer, count))
    return Installation(originals)
