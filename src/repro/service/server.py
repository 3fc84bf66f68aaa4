"""The audited asyncio lock service: a front-end over the kernel.

:class:`LockService` serves concurrent client sessions speaking the
JSON-line protocol (:mod:`repro.service.protocol`) over either transport:
the in-process pipe (:func:`~repro.service.transport.memory_pair`, used
by tests, CI, and the bench) or real TCP (:meth:`LockService.serve_tcp`).
Every connection binds to an *actor* at handshake; every request is then

1. **authorized inline** — the owner-only policy
   (:class:`~repro.service.auth.Authorizer`) runs before the kernel is
   consulted, so a denied request provably changes no lock state and its
   denial is audited with the reason;
2. **executed on the shared kernel** — one
   :class:`~repro.kernel.core.LockKernel` behind one asyncio lock, so
   requests from all sessions apply in a single serializable order (the
   audit log's sequence numbers *are* that order);
3. **answered on the same connection** — one response line per request;
   a ``blocked`` acquire additionally produces one ``wake`` event line
   when the parked request resolves (grant, deadlock victim, client
   abort, or drain).

**Backpressure.**  Each connection has an in-flight cap (a semaphore):
a parked acquire holds a slot until its wake fires, and once a client
has ``max_inflight`` requests parked the service simply stops reading
from that connection — the client cannot flood the kernel's wait queues.

**Drain.**  :meth:`LockService.drain` refuses new work, cancels every
parked request through the kernel (blocked clients receive a terminal
``wake`` with outcome ``error``), aborts every live transaction, emits a
``drain`` event on every connection, and closes them.  No client is left
hanging on a response.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, Dict, Optional, Set, Tuple

from ..kernel import AuditLog, LockKernel, Outcome
from .auth import Authorizer
from .protocol import (
    MUTATING_OPS,
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    decode,
    encode,
    parse_mode,
    request_id,
    require_str,
)
from .transport import memory_pair


class _Connection:
    """Server-side per-connection state: the writer, the in-flight cap,
    and the actor bound at handshake."""

    def __init__(self, writer, max_inflight: int, seq: int) -> None:
        self.writer = writer
        self.actor: Optional[str] = None
        self.seq = seq
        self.inflight = asyncio.Semaphore(max_inflight)

    def send(self, message: Dict[str, object]) -> None:
        if not self.writer.is_closing():
            self.writer.write(encode(message))

    def close(self) -> None:
        self.writer.close()


class _Parked:
    """A blocked acquire's continuation: forwards the kernel's wake-up to
    the owning connection as a ``wake`` event and returns the in-flight
    slot.  The kernel fires it exactly once (single-delivery contract)."""

    __slots__ = ("conn", "rid")

    def __init__(self, conn: _Connection, rid: object) -> None:
        self.conn = conn
        self.rid = rid

    def __call__(self, txn: str, response) -> None:
        event: Dict[str, object] = {
            "event": "wake",
            "id": self.rid,
            "txn": txn,
            "outcome": response.outcome.value,
        }
        if response.reason is not None:
            event["reason"] = response.reason
        self.conn.send(event)
        self.conn.inflight.release()


class LockService:
    """The asyncio lock-manager service (see module docstring)."""

    def __init__(
        self,
        *,
        max_inflight: int = 8,
        max_live: int = 0,
        audit: Optional[AuditLog] = None,
    ) -> None:
        self.audit = audit if audit is not None else AuditLog()
        self.kernel = LockKernel(audit=self.audit, max_live=max_live)
        self.auth = Authorizer()
        self.max_inflight = max_inflight
        self._draining = False
        self._kernel_lock = asyncio.Lock()
        self._conns: Set[_Connection] = set()
        self._conn_seq = 0
        self._conn_tasks: Set["asyncio.Task"] = set()
        self._tcp_server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # Transports
    # ------------------------------------------------------------------

    async def connect(self, actor: str) -> "ServiceClient":
        """Open an in-process connection, complete the handshake, and
        return the client handle."""
        (c_reader, c_writer), (s_reader, s_writer) = memory_pair()
        task = asyncio.ensure_future(self.handle_client(s_reader, s_writer))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)
        client = ServiceClient(c_reader, c_writer, actor)
        await client.hello()
        return client

    async def serve_tcp(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Start the optional TCP listener; returns ``(host, port)``."""
        self._tcp_server = await asyncio.start_server(
            self.handle_client, host, port
        )
        sockname = self._tcp_server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def handle_client(self, reader, writer) -> None:
        conn = _Connection(writer, self.max_inflight, self._conn_seq)
        self._conn_seq += 1
        self._conns.add(conn)
        try:
            if not await self._handshake(conn, reader):
                return
            while True:
                line = await reader.readline()
                if not line:
                    break
                await self._handle_request(conn, line)
        except asyncio.CancelledError:
            pass  # drain cancels reader tasks after notifying the client
        finally:
            self._conns.discard(conn)
            conn.close()

    async def _handshake(self, conn: _Connection, reader) -> bool:
        """First line must be ``{"op": "hello", "actor": <name>}``."""
        line = await reader.readline()
        if not line:
            return False
        try:
            message = decode(line)
            if message.get("op") != "hello":
                raise ProtocolError("first request must be 'hello'")
            actor = require_str(message, "actor")
        except ProtocolError as exc:
            self.audit.append("hello", "<unauthenticated>", "error",
                              reason=str(exc))
            conn.send({
                "id": None, "op": "hello",
                "outcome": Outcome.ERROR.value, "reason": str(exc),
            })
            return False
        conn.actor = actor
        self.audit.append("hello", actor, Outcome.GRANTED.value)
        conn.send({
            "id": request_id(message), "op": "hello", "actor": actor,
            "outcome": Outcome.GRANTED.value, "protocol": PROTOCOL_VERSION,
        })
        return True

    async def _handle_request(self, conn: _Connection, line: bytes) -> None:
        actor = conn.actor
        # rid survives the except clause whenever the line decoded far
        # enough to carry one, so even a malformed request (bad op,
        # missing txn) gets a reply the client can correlate — an
        # uncorrelatable ``id: null`` error would strand a waiter.
        rid = None
        try:
            message = decode(line)
            rid = request_id(message)
            op = message.get("op")
            if op not in OPS:
                raise ProtocolError(f"unknown op {op!r}")
            txn = require_str(message, "txn")
        except ProtocolError as exc:
            self.audit.append("protocol", actor, Outcome.ERROR.value,
                              reason=str(exc))
            conn.send({
                "id": rid, "op": "protocol",
                "outcome": Outcome.ERROR.value, "reason": str(exc),
            })
            return

        if self._draining:
            self.audit.append(op, actor, Outcome.ERROR.value, txn=txn,
                              reason="service draining")
            conn.send({
                "id": rid, "op": op, "txn": txn,
                "outcome": Outcome.ERROR.value, "reason": "service draining",
            })
            return

        # Inline authorization: the owner-only check runs before the
        # kernel sees the request.  A denial is audited here — the kernel
        # was never consulted, so no lock state can have changed.
        denial = self.auth.check(op, actor, txn)
        if denial is not None:
            self.audit.append(op, actor, Outcome.DENIED.value, txn=txn,
                              reason=denial)
            conn.send({
                "id": rid, "op": op, "txn": txn,
                "outcome": Outcome.DENIED.value, "reason": denial,
            })
            return

        if op == "locks":
            await self._op_locks(conn, rid, actor, txn)
            return
        await self._op_mutating(conn, message, rid, op, actor, txn)

    async def _op_locks(
        self, conn: _Connection, rid: object, actor: str, txn: str
    ) -> None:
        """Holder-only visibility: an owner sees its own holdings and
        nothing else (non-owners were already denied above; unknown
        transactions read as holding nothing)."""
        async with self._kernel_lock:
            held = self.kernel.held(txn)
        self.audit.append("locks", actor, Outcome.GRANTED.value, txn=txn)
        conn.send({
            "id": rid, "op": "locks", "txn": txn,
            "outcome": Outcome.GRANTED.value,
            "locks": sorted(
                [str(e), m.value] for e, m in held.items()
            ),
        })

    async def _op_mutating(
        self,
        conn: _Connection,
        message: Dict[str, object],
        rid: object,
        op: str,
        actor: str,
        txn: str,
    ) -> None:
        assert op in MUTATING_OPS
        if op == "acquire":
            try:
                entity = require_str(message, "entity")
                mode = parse_mode(message.get("mode"))
            except ProtocolError as exc:
                self.audit.append(op, actor, Outcome.ERROR.value, txn=txn,
                                  reason=str(exc))
                conn.send({
                    "id": rid, "op": op, "txn": txn,
                    "outcome": Outcome.ERROR.value, "reason": str(exc),
                })
                return
            # Backpressure: a parked acquire owns an in-flight slot until
            # its wake fires; at the cap, the connection's read loop stops
            # here and the client is simply not read from.
            await conn.inflight.acquire()
            parked = _Parked(conn, rid)
            async with self._kernel_lock:
                response = self.kernel.acquire(
                    txn, entity, mode, on_wake=parked, actor=actor
                )
            if response.outcome is not Outcome.BLOCKED:
                # Never parked (or resolved synchronously during deadlock
                # resolution, in which case the wake already released it).
                conn.inflight.release()
            reply: Dict[str, object] = {
                "id": rid, "op": op, "txn": txn, "entity": entity,
                "mode": mode.value, "outcome": response.outcome.value,
            }
            if response.reason is not None:
                reply["reason"] = response.reason
            if response.blockers:
                # Visibility: a client learns how *many* conflicts park
                # it, never which transactions hold them.
                reply["conflicts"] = len(response.blockers)
            conn.send(reply)
            return

        if op == "release":
            try:
                entity = require_str(message, "entity")
            except ProtocolError as exc:
                self.audit.append(op, actor, Outcome.ERROR.value, txn=txn,
                                  reason=str(exc))
                conn.send({
                    "id": rid, "op": op, "txn": txn,
                    "outcome": Outcome.ERROR.value, "reason": str(exc),
                })
                return
            async with self._kernel_lock:
                response = self.kernel.release(txn, entity, actor=actor)
            reply = {
                "id": rid, "op": op, "txn": txn, "entity": entity,
                "outcome": response.outcome.value,
            }
            if response.reason is not None:
                reply["reason"] = response.reason
            conn.send(reply)
            return

        async with self._kernel_lock:
            if op == "begin":
                response = self.kernel.begin(txn, actor=actor)
                if response.ok:
                    self.auth.register(txn, actor)
            elif op == "commit":
                response = self.kernel.commit(txn, actor=actor)
            else:  # abort
                response = self.kernel.abort(txn, actor=actor)
        reply = {
            "id": rid, "op": op, "txn": txn,
            "outcome": response.outcome.value,
        }
        if response.reason is not None:
            reply["reason"] = response.reason
        conn.send(reply)

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------

    async def drain(self) -> Tuple[str, ...]:
        """Graceful shutdown (idempotent); returns the names of the live
        transactions the kernel aborted."""
        self._draining = True
        if self._tcp_server is not None:
            self._tcp_server.close()
        async with self._kernel_lock:
            # Parked callbacks fire here: blocked clients get their
            # terminal wake events before the connections close.
            drained = self.kernel.drain()
        for conn in sorted(self._conns, key=lambda c: c.seq):
            conn.send({"event": "drain"})
            conn.close()
        for task in tuple(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._tcp_server is not None:
            await self._tcp_server.wait_closed()
        return drained


class ServiceClient:
    """Client-side handle: sends requests, matches responses by id, and
    buffers unsolicited ``wake``/``drain`` events arriving in between."""

    def __init__(self, reader, writer, actor: str) -> None:
        self.actor = actor
        self._reader = reader
        self._writer = writer
        self._events: Deque[Dict[str, object]] = deque()
        self._responses: Dict[object, Dict[str, object]] = {}
        self._next_id = 0

    # -- plumbing -------------------------------------------------------

    async def _pump_once(self) -> None:
        """Read one message off the wire into the right buffer (events
        and responses interleave freely: a wake for an old request may
        arrive while a newer response is awaited, and vice versa)."""
        line = await self._reader.readline()
        if not line:
            raise ConnectionError(
                f"connection closed (actor {self.actor!r})"
            )
        message = decode(line)
        if "event" in message:
            self._events.append(message)
        else:
            self._responses[message.get("id")] = message

    async def _send(self, message: Dict[str, object]) -> None:
        self._writer.write(encode(message))
        await self._writer.drain()

    # -- protocol -------------------------------------------------------

    async def hello(self) -> Dict[str, object]:
        await self._send({"op": "hello", "actor": self.actor})
        while not self._responses:
            await self._pump_once()
        (_, reply), = self._responses.items()
        self._responses.clear()
        return reply

    def send_raw(self, op: str, **fields: object) -> object:
        """Fire a request without awaiting its response (the response id
        is returned; collect it later with :meth:`response_for`)."""
        rid = self._next_id
        self._next_id += 1
        self._writer.write(encode({"op": op, "id": rid, **fields}))
        return rid

    async def request(self, op: str, **fields: object) -> Dict[str, object]:
        """Send one request and return its response, buffering any events
        that arrive first (fetch them with :meth:`next_event`)."""
        rid = self._next_id
        self._next_id += 1
        await self._send({"op": op, "id": rid, **fields})
        return await self.response_for(rid)

    async def response_for(self, rid: object) -> Dict[str, object]:
        while rid not in self._responses:
            await self._pump_once()
        return self._responses.pop(rid)

    async def next_event(self) -> Dict[str, object]:
        """The next unsolicited event (buffered or read fresh)."""
        while not self._events:
            await self._pump_once()
        return self._events.popleft()

    async def wait_wake(self, rid: object) -> Dict[str, object]:
        """Block until the wake event for request ``rid`` arrives."""
        while True:
            event = await self.next_event()
            if event.get("event") == "wake" and event.get("id") == rid:
                return event

    async def close(self) -> None:
        self._writer.close()
        if hasattr(self._writer, "wait_closed"):
            await self._writer.wait_closed()
