"""The ``service_hot`` workload: a closed loop against ``LockService``.

The benchmark speaks the JSON-line protocol itself: it opens in-process
pipes with ``memory_pair``, serves each server end with
``LockService.handle_client`` and talks to it with ``encode``/``decode``.
Two connections (one actor each) each multiplex ``LOOPS`` transaction
loops; a loop sends its next request only after the previous one is
answered (a blocked acquire counts as answered at its ``wake``), so the
load is closed and a slow service receives less of it.

Every request has a deadline.  A request still unanswered when it passes
counts as failed, the unit stops, and ``drain()`` resolves whatever is
left, so the benchmark cannot hang — see the known defect in NOTES.md.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.service import LockService, decode, encode, memory_pair

from units import UnitResult
from workloads import sub_seed

ACTORS = ("alice", "bob")
#: Concurrent transaction loops per connection; kept at the service's
#: in-flight cap (``max_inflight``), never above it.
LOOPS = 32
TXNS_PER_LOOP = 10
HOT_ENTITIES = 8
COLD_ENTITIES = 4096
#: Seconds a request may wait for its reply (or a blocked acquire for its
#: wake) before it counts as failed.
DEADLINE_S = 10.0

#: The outcome each request kind must get; an acquire may also block and
#: then end in ``wake.granted`` or ``wake.victim``.
EXPECTED = {
    "begin": {"granted"},
    "acquire": {"granted", "blocked"},
    "wake": {"granted", "victim"},
    "release": {"granted"},
    "commit": {"granted"},
    "abort": {"granted"},
    "cross": {"denied"},
}


@dataclass(frozen=True)
class TxnScript:
    """One transaction of a loop."""

    name: str
    #: Distinct entities in request order, each with its mode.
    acquires: Tuple[Tuple[str, str], ...]
    #: Index into ``acquires`` before which a request for the *other*
    #: actor's transaction is sent (it must be denied), or None.
    cross_at: Optional[int]
    cross_op: str
    #: Release the first lock just before the final request.
    release_early: bool
    #: ``"commit"`` or ``"abort"``.
    end: str


def make_script(seed: int, j: int) -> List[List[List[TxnScript]]]:
    """``script[connection][loop]``: the transactions of unit ``j``."""
    rng = random.Random(sub_seed(seed, j))
    script = []
    for actor in ACTORS:
        conn = []
        for loop in range(LOOPS):
            txns_of_loop = []
            for t in range(TXNS_PER_LOOP):
                count = rng.choice((2, 3))
                entities: List[str] = []
                while len(entities) < count:
                    e = (f"h{rng.randrange(HOT_ENTITIES)}" if rng.random() < 0.5
                         else f"c{rng.randrange(COLD_ENTITIES)}")
                    if e not in entities:
                        entities.append(e)
                txns_of_loop.append(TxnScript(
                    name=f"{actor}.{loop}.{t}",
                    acquires=tuple((e, rng.choice("SX")) for e in entities),
                    cross_at=rng.randrange(count) if rng.random() < 0.25 else None,
                    cross_op=rng.choice(("locks", "release", "abort", "acquire")),
                    release_early=rng.random() < 0.2,
                    end="abort" if rng.random() < 0.1 else "commit",
                ))
            conn.append(txns_of_loop)
        script.append(conn)
    return script


def anchor(actor: str) -> str:
    """A transaction each actor owns before the loops start, so every
    cross-actor request addresses a transaction with a known owner."""
    return f"{actor}.anchor"


class Stalled(Exception):
    """A request passed its deadline."""


class _Client:
    """One connection: sends requests and routes replies and wake events
    to the futures of the requests they answer."""

    def __init__(self, service: LockService, actor: str, deadline: float) -> None:
        (self.reader, self.writer), (s_reader, s_writer) = memory_pair()
        self.server_task = asyncio.ensure_future(service.handle_client(s_reader, s_writer))
        self.actor = actor
        self.deadline = deadline
        self.replies: Dict[int, asyncio.Future] = {}
        self.wakes: Dict[int, asyncio.Future] = {}
        self.next_id = 0
        self.errors: List[str] = []
        self.pump_task: Optional[asyncio.Task] = None

    async def open(self) -> None:
        self.writer.write(encode({"op": "hello", "actor": self.actor, "id": -1}))
        reply = decode(await asyncio.wait_for(self.reader.readline(), self.deadline))
        if reply.get("outcome") != "granted":
            raise RuntimeError(f"hello refused for {self.actor}: {reply}")
        self.pump_task = asyncio.ensure_future(self._pump())

    async def _pump(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                return
            message = decode(line)
            kind = message.get("event")
            if kind == "drain":
                continue
            table = self.wakes if kind == "wake" else self.replies
            future = table.pop(message.get("id"), None)
            if future is None or future.done():
                self.errors.append(f"{self.actor}: unexpected {line!r}")
            else:
                future.set_result(message)

    async def _await(self, future: asyncio.Future, what: str) -> dict:
        try:
            return await asyncio.wait_for(future, self.deadline)
        except asyncio.TimeoutError:
            self.errors.append(f"{self.actor}: {what} unanswered after {self.deadline}s")
            raise Stalled(what) from None

    async def request(self, op: str, **fields) -> Tuple[dict, float, Optional[float]]:
        """Send one request; returns ``(final reply, latency s, park s)``
        where a blocked acquire's final reply is its wake and ``park`` is
        the time from the blocked reply to the wake."""
        loop = asyncio.get_running_loop()
        rid = self.next_id
        self.next_id += 1
        reply_future = self.replies[rid] = loop.create_future()
        wake_future = None
        if op == "acquire":
            wake_future = self.wakes[rid] = loop.create_future()
        t0 = time.perf_counter()
        self.writer.write(encode({"op": op, "id": rid, **fields}))
        reply = await self._await(reply_future, f"{op} #{rid}")
        if reply.get("outcome") != "blocked":
            if wake_future is not None:
                del self.wakes[rid]
            return reply, time.perf_counter() - t0, None
        t_blocked = time.perf_counter()
        wake = await self._await(wake_future, f"wake of acquire #{rid}")
        t1 = time.perf_counter()
        return wake, t1 - t0, t1 - t_blocked

    def leftovers(self) -> int:
        return len(self.replies) + len(self.wakes)

    async def close(self) -> None:
        self.writer.close()
        for task in (self.pump_task, self.server_task):
            if task is not None:
                await asyncio.wait_for(task, self.deadline)


class _Tally:
    def __init__(self) -> None:
        self.outcomes: Dict[str, int] = {}
        self.latencies_ms: List[float] = []
        self.park_ms: List[float] = []
        self.errors: List[str] = []
        self.requests = 0
        #: Transactions begun and not yet ended, as the clients see them;
        #: sampled before every acquire for the mean live population.
        self.live = 0
        self.live_sum = 0
        self.live_samples = 0

    def record(self, kind: str, reply: dict, latency: float, park: Optional[float]) -> str:
        self.requests += 1
        self.latencies_ms.append(1000.0 * latency)
        outcome = str(reply.get("outcome"))
        if park is not None:
            self.park_ms.append(1000.0 * park)
            self.outcomes["acquire.blocked"] = self.outcomes.get("acquire.blocked", 0) + 1
            kind = "wake"
        key = f"{kind}.{outcome}"
        self.outcomes[key] = self.outcomes.get(key, 0) + 1
        if outcome not in EXPECTED[kind]:
            self.errors.append(f"{kind} got {outcome}: {reply}")
        return outcome


async def _run_loop(client: _Client, other: str, txns: Sequence[TxnScript],
                    tally: _Tally) -> int:
    """One closed transaction loop; returns its committed count."""
    committed = 0
    for txn in txns:
        reply, dt, park = await client.request("begin", txn=txn.name)
        tally.live += tally.record("begin", reply, dt, park) == "granted"
        victim = False
        for i, (entity, mode) in enumerate(txn.acquires):
            if txn.cross_at == i:
                reply, dt, park = await client.request(
                    txn.cross_op, txn=anchor(other), entity="h0", mode="X")
                tally.record("cross", reply, dt, park)
            tally.live_sum += tally.live
            tally.live_samples += 1
            reply, dt, park = await client.request(
                "acquire", txn=txn.name, entity=entity, mode=mode)
            if tally.record("acquire", reply, dt, park) == "victim":
                victim = True  # the kernel already ended the transaction
                tally.live -= 1
                break
        if victim:
            continue
        if txn.release_early:
            reply, dt, park = await client.request(
                "release", txn=txn.name, entity=txn.acquires[0][0])
            tally.record("release", reply, dt, park)
        reply, dt, park = await client.request(txn.end, txn=txn.name)
        tally.live -= tally.record(txn.end, reply, dt, park) == "granted"
        committed += txn.end == "commit"
    return committed


async def _unit(script, max_inflight: int, deadline: float):
    service = LockService(max_inflight=max_inflight)
    clients = []
    for actor in ACTORS[:len(script)]:
        client = _Client(service, actor, deadline)
        await client.open()
        for op in ("begin", "commit"):
            reply, _, _ = await client.request(op, txn=anchor(actor))
            if reply.get("outcome") != "granted":
                raise RuntimeError(f"anchor {op} refused: {reply}")
        clients.append(client)
    tally = _Tally()
    audit_before = len(service.audit)
    t0 = time.perf_counter()
    tasks = [
        asyncio.ensure_future(_run_loop(
            client, ACTORS[(c + 1) % len(ACTORS)], txns, tally))
        for c, client in enumerate(clients)
        for txns in script[c]
    ]
    await asyncio.wait(tasks, return_when=asyncio.FIRST_EXCEPTION)
    wall = time.perf_counter() - t0
    for task in tasks:
        task.cancel()
    results = await asyncio.gather(*tasks, return_exceptions=True)
    audit_entries = len(service.audit) - audit_before
    drained = await service.drain()
    for client in clients:
        await client.close()
    committed = sum(r for r in results if isinstance(r, int))
    for r in results:
        if isinstance(r, BaseException) and not isinstance(
                r, (Stalled, asyncio.CancelledError)):
            tally.errors.append(f"loop crashed: {r!r}")
    for client in clients:
        tally.errors.extend(client.errors)
        if client.leftovers():
            tally.errors.append(f"{client.actor}: {client.leftovers()} requests never answered")
    if drained:
        tally.errors.append(f"drain found {len(drained)} live transactions")
    if service.kernel.state_fingerprint() != ((), (), (), ()):
        tally.errors.append("lock table or live set not empty after drain")
    return tally, wall, committed, audit_entries, len(service.kernel.victims)


def run_unit(script, max_inflight: int = LOOPS, deadline: float = DEADLINE_S) -> UnitResult:
    """Run one unit on a fresh service and event loop."""
    tally, wall, committed, audit_entries, victims = asyncio.run(
        _unit(script, max_inflight, deadline))
    outcomes = dict(sorted(tally.outcomes.items()))
    return UnitResult(
        wall=wall,
        work=committed,
        ops=max(tally.requests, 1),
        latencies_ms=tally.latencies_ms,
        fingerprint=" ".join(f"{k}={v}" for k, v in outcomes.items()),
        errors=tally.errors,
        counters={
            "requests": tally.requests,
            "audit_entries": audit_entries,
            "victims": victims,
            "denials": outcomes.get("cross.denied", 0),
            "acquire_granted": outcomes.get("acquire.granted", 0),
            "acquire_blocked": outcomes.get("acquire.blocked", 0),
            "live_sum": tally.live_sum,
            "live_samples": tally.live_samples,
        },
        park_ms=tally.park_ms,
    )


def service_setup(seed: int, units: int) -> list:
    """Generate the run's scripts and open one service to check that it
    accepts connections."""
    scripts = [make_script(seed, j) for j in range(units)]
    asyncio.run(_open_and_drain())
    return scripts


async def _open_and_drain() -> None:
    service = LockService(max_inflight=LOOPS)
    clients = [_Client(service, actor, DEADLINE_S) for actor in ACTORS]
    for client in clients:
        await client.open()
    await service.drain()
    for client in clients:
        await client.close()
