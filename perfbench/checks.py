"""Correctness checks; a run whose checks fail reports ``correct: false``.

The checks are pure functions over what the load process observed, so
the benchmark's tests can feed them fabricated observations.
"""

from __future__ import annotations

from typing import Callable, Sequence

#: One rotation checkpoint: (load-process time the stats reply arrived,
#: rotations per shard in shard-id order), from ``MembershipClient.stats()``.
Checkpoint = tuple[float, tuple[int, ...]]


def safe_after(checkpoints: Sequence[Checkpoint], shards: int) -> list[float]:
    """Per shard, the time after which no rotation happened.

    Checkpoints are in arrival order; a fresh gateway starts with zero
    rotations, which stands as a checkpoint at minus infinity.  An insert
    *sent* after the returned time cannot have been retired by a
    rotation, because the shard's count never moved again.
    """
    points = [(float("-inf"), (0,) * shards), *checkpoints]
    final = points[-1][1]
    out = []
    for shard in range(shards):
        since = points[-1][0]
        for when, counts in reversed(points):
            if counts[shard] != final[shard]:
                break
            since = when
        out.append(since)
    return out


def check_inserts(
    inserts: Sequence[tuple[float, str]],
    answers: Sequence[bool],
    checkpoints: Sequence[Checkpoint],
    shards: int,
    shard_of: Callable[[str], int],
) -> tuple[list[str], int]:
    """No false negative for an acknowledged insert unless its shard
    rotated after it was sent.

    ``inserts`` are (send time, item) of acknowledged inserts and
    ``answers`` the membership answers a final query gave for them.
    Returns the failures and the number of inserts checked.
    """
    if len(answers) != len(inserts):
        return [f"{len(answers)} answers for {len(inserts)} inserts"], 0
    horizon = safe_after(checkpoints, shards)
    earliest, latest = min(horizon), max(horizon)
    failures: list[str] = []
    checked = 0
    for (sent, item), present in zip(inserts, answers):
        # Routing is only needed between the earliest and latest horizon.
        if sent <= earliest or (sent <= latest and sent <= horizon[shard_of(item)]):
            continue
        checked += 1
        if not present:
            failures.append(f"false negative on shard {shard_of(item)}: {item!r}")
    return failures, checked


def check_campaign(
    requested: dict[str, int], observed: dict[str, int], first: dict[str, int] | None
) -> list[str]:
    """Attack-campaign outputs: crafted counts equal requested counts,
    every crafted ghost is answered present, and every round repeats the
    first round's exact counts (the campaign is deterministic per seed)."""
    failures = []
    for kind in ("pollution", "ghost"):
        if observed[f"{kind}_crafted"] != requested[kind]:
            failures.append(
                f"{kind}: crafted {observed[f'{kind}_crafted']} of "
                f"{requested[kind]} requested"
            )
    if observed["ghost_hits"] != observed["ghost_crafted"]:
        failures.append(
            f"ghosts: {observed['ghost_hits']} of {observed['ghost_crafted']} "
            "crafted ghosts answered present"
        )
    if observed["missing_inserts"]:
        failures.append(
            f"{observed['missing_inserts']} acknowledged inserts answered absent"
        )
    if first is not None and observed != first:
        failures.append(f"round counts {observed} differ from the first round's {first}")
    return failures
