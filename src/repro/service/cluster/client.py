"""The routing client: batches to owning gateways, redirects followed.

:class:`ClusterClient` is gateway-shaped on the outside (``insert`` /
``query`` / ``insert_batch`` / ``query_batch``) and a router on the
inside: it splits every batch by the global shard each item hashes to,
looks the shard's owner up in its *local* copy of the
:class:`~repro.service.cluster.ownership.OwnershipMap`, and sends each
sub-batch to that node's transport (an in-process
:class:`~repro.service.gateway.MembershipGateway` or a
:class:`~repro.service.client.MembershipClient` over TCP -- anything
with the serving API).

The local map may be stale: shards move.  A gateway answering
:class:`~repro.exceptions.NotOwner` costs the client one retry round --
the redirect carries the new owner and epoch, the map applies it only
if *strictly newer* (a replayed or reordered redirect cannot roll the
view backwards), and the affected items go back into the next round.
Rounds are bounded by ``max_redirects``: a routing view that does not
converge (gateways disagreeing about ownership, a redirect loop) fails
loudly with :class:`~repro.exceptions.ProtocolError` instead of
spinning.
"""

from __future__ import annotations

import asyncio
from typing import Mapping, Sequence

from repro.exceptions import NotOwner, ParameterError, ProtocolError
from repro.service.cluster.ownership import OwnershipMap
from repro.service.cluster.ring import ShardPicker

__all__ = ["ClusterClient"]


class ClusterClient:
    """Route batches across a cluster of membership gateways.

    Parameters
    ----------
    transports:
        Node name -> transport (gateway-shaped: ``insert_batch`` /
        ``query_batch`` coroutines).  Must cover every owner the
        ownership map can name.
    ownership:
        The client's *own* view of shard ownership (take
        ``OwnershipMap.copy()`` of the authoritative map; redirects
        mutate it).
    picker:
        The item router -- must match the gateways' picker, or routed
        batches bounce forever.
    max_redirects:
        Redirect rounds one logical batch may consume before the client
        declares the routing view non-convergent.
    retry_backoff_s:
        Sleep before retrying when a redirect taught the map nothing
        new (the move's epoch has not reached the gateway yet); keeps a
        tight in-process race from busy-spinning.
    """

    def __init__(
        self,
        transports: Mapping[str, object],
        ownership: OwnershipMap,
        picker: ShardPicker,
        max_redirects: int = 8,
        retry_backoff_s: float = 0.005,
    ) -> None:
        if not transports:
            raise ParameterError("a cluster client needs at least one transport")
        if max_redirects < 0:
            raise ParameterError("max_redirects must be non-negative")
        if retry_backoff_s < 0:
            raise ParameterError("retry_backoff_s must be non-negative")
        missing = [
            node for node in ownership.nodes() if node not in transports
        ]
        if missing:
            raise ParameterError(
                f"ownership names nodes with no transport: {missing}"
            )
        self.transports = dict(transports)
        self.ownership = ownership
        self.picker = picker
        self.max_redirects = max_redirects
        self.retry_backoff_s = retry_backoff_s
        #: Redirect rounds taken over the client's lifetime (telemetry).
        self.redirects_followed = 0

    # ------------------------------------------------------------------
    # Serving API (gateway-shaped)
    # ------------------------------------------------------------------

    async def insert(self, item: str | bytes, client: str = "anon") -> bool:
        """Insert one item on its owning gateway."""
        return (await self._run("insert", [item], client))[0]

    async def query(self, item: str | bytes, client: str = "anon") -> bool:
        """Membership query on the item's owning gateway."""
        return (await self._run("query", [item], client))[0]

    async def insert_batch(
        self, items: Sequence[str | bytes], client: str = "anon"
    ) -> list[bool]:
        """Insert a batch, split per owning gateway."""
        if not items:
            return []
        return await self._run("insert", list(items), client)

    async def query_batch(
        self, items: Sequence[str | bytes], client: str = "anon"
    ) -> list[bool]:
        """Query a batch, split per owning gateway."""
        if not items:
            return []
        return await self._run("query", list(items), client)

    # ------------------------------------------------------------------
    # Routing core
    # ------------------------------------------------------------------

    def _transport_of(self, node: str):
        transport = self.transports.get(node)
        if transport is None:
            raise ProtocolError(
                f"redirect names node {node!r} but the client has no "
                "transport for it"
            )
        return transport

    async def _run(
        self, op: str, items: list, client: str
    ) -> list[bool]:
        """Route one logical batch, following redirects until it lands.

        Item positions are tracked through every round so the reply
        order matches the caller's batch whatever sub-batches it split
        into (the same contract as the gateway's ``_fan_out``).
        """
        total = self.ownership.total_shards
        results: list[bool] = [False] * len(items)
        pending = list(range(len(items)))
        for round_no in range(self.max_redirects + 1):
            # Group the still-unanswered positions by owning node under
            # the *current* view (it may have learned from redirects).
            by_node: dict[str, list[int]] = {}
            shards = self.picker.pick_batch([items[p] for p in pending], total)
            for position, shard in zip(pending, shards):
                by_node.setdefault(
                    self.ownership.owner_of(shard), []
                ).append(position)
            retry: list[int] = []
            learned = False
            for node, positions in by_node.items():
                transport = self._transport_of(node)
                batch = [items[p] for p in positions]
                try:
                    if op == "insert":
                        answers = await transport.insert_batch(batch, client=client)
                    else:
                        answers = await transport.query_batch(batch, client=client)
                except NotOwner as exc:
                    # The gateway refuses before mutating anything, so
                    # the whole sub-batch retries under the new view.
                    self.redirects_followed += 1
                    learned = (
                        self.ownership.note(exc.shard_id, exc.owner, exc.epoch)
                        or learned
                    )
                    retry.extend(positions)
                    continue
                for position, answer in zip(positions, answers):
                    results[position] = answer
            if not retry:
                return results
            pending = retry
            if not learned and self.retry_backoff_s:
                # The redirect taught us nothing (stale epoch or no
                # ownership view attached): give the move a moment to
                # land instead of hammering the same gateway.
                await asyncio.sleep(self.retry_backoff_s)
        raise ProtocolError(
            f"shard routing did not converge after {self.max_redirects} "
            f"redirect rounds ({len(pending)} items still bouncing)"
        )

    async def aclose(self) -> None:
        """Close every transport that has an ``aclose`` (TCP clients);
        in-process gateways are left running (the harness owns them)."""
        for transport in self.transports.values():
            closer = getattr(transport, "aclose", None)
            if closer is not None:
                await closer()

    async def __aenter__(self) -> "ClusterClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ClusterClient nodes={sorted(self.transports)} "
            f"epoch={self.ownership.epoch} "
            f"redirects={self.redirects_followed}>"
        )
