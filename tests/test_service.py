"""The audited asyncio lock service (``repro.service``): the
boundary-enforcement-integrity invariants — every denied mutation leaves
lock state unchanged and writes an audit entry with the reason; the
holder-only visibility view; per-client backpressure; concurrent-session
stress with a serializable audit order; graceful drain; and the wire
protocol's error handling (including over real TCP)."""

import asyncio
import json

import pytest

from repro.kernel import Outcome
from repro.service import LockService, ProtocolError, decode, encode, parse_mode
from repro.service.protocol import MUTATING_OPS


def run(coro):
    return asyncio.run(coro)


async def make_service(**kwargs):
    return LockService(**kwargs)


class TestProtocol:
    def test_encode_decode_round_trip(self):
        message = {"op": "acquire", "txn": "t1", "entity": "a", "id": 7}
        line = encode(message)
        assert line.endswith(b"\n")
        assert decode(line) == message

    def test_decode_rejects_non_object_and_junk(self):
        with pytest.raises(ProtocolError, match="malformed"):
            decode(b"not json\n")
        with pytest.raises(ProtocolError, match="JSON object"):
            decode(b"[1,2]\n")

    def test_parse_mode(self):
        from repro.kernel import LockMode

        assert parse_mode(None) is LockMode.EXCLUSIVE
        assert parse_mode("S") is LockMode.SHARED
        assert parse_mode("exclusive") is LockMode.EXCLUSIVE
        with pytest.raises(ProtocolError, match="unknown lock mode"):
            parse_mode("Z")

    def test_field_error_reply_keeps_the_request_id(self):
        """A request that decodes but fails validation (missing ``txn``,
        unknown op) must be answered under its own id — an ``id: null``
        error would strand the client waiting on its rid forever."""

        async def scenario():
            svc = await make_service()
            client = await svc.connect("alice")
            reply = await client.request("locks")  # no txn field
            assert reply["outcome"] == Outcome.ERROR.value
            assert reply["op"] == "protocol"
            assert "txn" in reply["reason"]
            reply = await client.request("mystery", txn="t1")
            assert reply["outcome"] == Outcome.ERROR.value
            assert "unknown op" in reply["reason"]
            # The connection survives the malformed requests.
            assert (await client.request("begin", txn="t1"))["outcome"] == \
                Outcome.GRANTED.value
            await svc.drain()

        run(scenario())


class TestAuthorizationBoundary:
    """A denied mutating op: no lock-state change + one audit entry with
    the decision reason — checked for every mutating op."""

    def test_every_mutating_op_denied_without_state_change(self):
        async def scenario():
            svc = await make_service()
            owner = await svc.connect("owner")
            intruder = await svc.connect("intruder")
            assert (await owner.request("begin", txn="t1"))["outcome"] == "granted"
            granted = await owner.request(
                "acquire", txn="t1", entity="a", mode="X"
            )
            assert granted["outcome"] == "granted"
            for op in sorted(MUTATING_OPS - {"begin"}):
                fingerprint = svc.kernel.state_fingerprint()
                audit_len = len(svc.audit)
                fields = {"txn": "t1"}
                if op in ("acquire", "release"):
                    fields["entity"] = "a"
                reply = await intruder.request(op, **fields)
                assert reply["outcome"] == "denied", (op, reply)
                assert "does not own" in reply["reason"]
                assert svc.kernel.state_fingerprint() == fingerprint, (
                    f"denied {op} changed lock state"
                )
                entry = svc.audit.entries()[-1]
                assert len(svc.audit) == audit_len + 1
                assert entry.op == op
                assert entry.actor == "intruder"
                assert entry.decision == "denied"
                assert entry.reason and "does not own" in entry.reason
            # The owner's holdings survived every denied attempt.
            locks = await owner.request("locks", txn="t1")
            assert locks["locks"] == [["a", "X"]]
            await svc.drain()

        run(scenario())

    def test_finished_txn_name_cannot_be_hijacked(self):
        async def scenario():
            svc = await make_service()
            owner = await svc.connect("owner")
            intruder = await svc.connect("intruder")
            await owner.request("begin", txn="t1")
            await owner.request("commit", txn="t1")
            reply = await intruder.request("begin", txn="t1")
            assert reply["outcome"] == "denied"
            assert "does not own" in reply["reason"]
            await svc.drain()

        run(scenario())

    def test_holder_only_visibility(self):
        """A client sees its own holdings through ``locks`` and is denied
        (audited) on anyone else's — the lock_owner_only view."""

        async def scenario():
            svc = await make_service()
            alice = await svc.connect("alice")
            bob = await svc.connect("bob")
            await alice.request("begin", txn="a1")
            await alice.request("acquire", txn="a1", entity="x", mode="X")
            await bob.request("begin", txn="b1")
            await bob.request("acquire", txn="b1", entity="y", mode="S")
            mine = await alice.request("locks", txn="a1")
            assert mine["locks"] == [["x", "X"]]
            other = await alice.request("locks", txn="b1")
            assert other["outcome"] == "denied"
            assert "locks" not in other
            denial = svc.audit.entries()[-1]
            assert (denial.op, denial.decision) == ("locks", "denied")
            await svc.drain()

        run(scenario())


class TestBlockingAndWake:
    def test_blocked_acquire_wakes_with_grant(self):
        async def scenario():
            svc = await make_service()
            alice = await svc.connect("alice")
            bob = await svc.connect("bob")
            await alice.request("begin", txn="a1")
            await bob.request("begin", txn="b1")
            await alice.request("acquire", txn="a1", entity="x")
            blocked = await bob.request("acquire", txn="b1", entity="x")
            assert blocked["outcome"] == "blocked"
            # Visibility: a count of conflicts, never holder names.
            assert blocked["conflicts"] == 1
            assert "blockers" not in blocked
            await alice.request("commit", txn="a1")
            wake = await bob.wait_wake(blocked["id"])
            assert wake["outcome"] == "granted"
            locks = await bob.request("locks", txn="b1")
            assert locks["locks"] == [["x", "X"]]
            await svc.drain()

        run(scenario())

    def test_deadlock_victim_wakes_with_victim_outcome(self):
        async def scenario():
            svc = await make_service()
            alice = await svc.connect("alice")
            bob = await svc.connect("bob")
            await alice.request("begin", txn="a1")
            await bob.request("begin", txn="b1")
            await alice.request("acquire", txn="a1", entity="x")
            await bob.request("acquire", txn="b1", entity="y")
            first = await alice.request("acquire", txn="a1", entity="y")
            assert first["outcome"] == "blocked"
            second = await bob.request("acquire", txn="b1", entity="x")
            # The cycle resolved synchronously inside the kernel call:
            # a1 (tie-broken by name) was sacrificed, b1 was granted.
            wake_a = await alice.wait_wake(first["id"])
            assert wake_a["outcome"] == "victim"
            wake_b = await bob.wait_wake(second["id"])
            assert wake_b["outcome"] == "granted"
            assert svc.kernel.victims == ["a1"]
            await svc.drain()

        run(scenario())

    def test_backpressure_stops_reading_at_the_inflight_cap(self):
        async def scenario():
            svc = await make_service(max_inflight=2)
            holder = await svc.connect("holder")
            flooder = await svc.connect("flooder")
            await holder.request("begin", txn="h")
            for entity in ("e0", "e1", "e2"):
                await holder.request("acquire", txn="h", entity=entity)
            for i, entity in enumerate(("e0", "e1", "e2")):
                await flooder.request("begin", txn=f"f{i}")
            # Two parked acquires fill the cap...
            parked_ids = []
            for i, entity in enumerate(("e0", "e1")):
                reply = await flooder.request(
                    "acquire", txn=f"f{i}", entity=entity
                )
                assert reply["outcome"] == "blocked"
                parked_ids.append(reply["id"])
            # ...so the third request is written but NOT answered: the
            # service has stopped reading this connection.
            rid = flooder.send_raw("acquire", txn="f2", entity="e2")
            await asyncio.sleep(0.05)
            assert len(svc.kernel.blocked_txns()) == 2  # f2 never reached the kernel
            # Releasing one entity resolves a parked request, freeing a
            # slot; the stalled third request now completes.
            await holder.request("release", txn="h", entity="e0")
            wake = await flooder.wait_wake(parked_ids[0])
            assert wake["outcome"] == "granted"
            third = await flooder.response_for(rid)
            assert third["outcome"] == "blocked"
            await svc.drain()

        run(scenario())


class TestStress:
    def test_concurrent_sessions_serializable_audit(self):
        """≥8 concurrent clients mixing authorized and unauthorized ops:
        denied ops leave no trace in lock state, every mutation is
        audited, and the audit log is one gap-free serializable order."""

        async def client_loop(svc, i, clients):
            me = await svc.connect(f"actor{i}")
            for r in range(6):
                txn = f"c{i}-r{r}"
                assert (await me.request("begin", txn=txn))["outcome"] == "granted"
                await me.request("acquire", txn=txn, entity=f"p{i}", mode="X")
                got = await me.request(
                    "acquire", txn=txn,
                    entity=f"hot{(i + r) % 3}", mode="S",
                )
                if got["outcome"] == "blocked":
                    got = await me.wait_wake(got["id"])
                # Unauthorized probe at a peer's transaction.
                probe = await me.request(
                    "release", txn=f"c{(i + 1) % clients}-r0", entity="p0"
                )
                assert probe["outcome"] in ("denied", "error")
                assert (await me.request("commit", txn=txn))["outcome"] == "granted"
            await me.close()

        async def scenario():
            clients = 8
            svc = await make_service()
            await asyncio.gather(
                *(client_loop(svc, i, clients) for i in range(clients))
            )
            drained = await svc.drain()
            assert drained == ()  # every transaction committed
            entries = svc.audit.entries()
            # Serializable order: sequence numbers are the positions —
            # gap-free, strictly increasing, assigned under one kernel.
            assert [e.seq for e in entries] == list(range(len(entries)))
            denied = [e for e in entries if e.decision == "denied"]
            assert denied, "stress produced no unauthorized denials"
            assert all(e.reason for e in denied)
            # Every mutating grant traces to an audit entry: commits per
            # transaction, begins per transaction.
            begins = [e for e in entries
                      if e.op == "begin" and e.decision == "granted"]
            commits = [e for e in entries
                       if e.op == "commit" and e.decision == "granted"]
            assert len(begins) == len(commits) == clients * 6
            # No lock state survives the run.
            assert svc.kernel.state_fingerprint()[0] == ()

        run(scenario())


class TestDrain:
    def test_drain_unblocks_parked_clients_and_closes(self):
        async def scenario():
            svc = await make_service()
            alice = await svc.connect("alice")
            bob = await svc.connect("bob")
            await alice.request("begin", txn="a1")
            await bob.request("begin", txn="b1")
            await alice.request("acquire", txn="a1", entity="x")
            blocked = await bob.request("acquire", txn="b1", entity="x")
            assert blocked["outcome"] == "blocked"
            drained = await svc.drain()
            assert drained == ("a1", "b1")
            # The parked client got a terminal wake, not a hang.
            wake = await bob.wait_wake(blocked["id"])
            assert wake["outcome"] == "error"
            assert "draining" in wake["reason"]
            # Then the drain event and EOF.
            assert (await bob.next_event())["event"] == "drain"
            with pytest.raises(ConnectionError):
                await bob.next_event()
            # Drain is idempotent and the service stays refusing.
            assert await svc.drain() == ()

        run(scenario())

    def test_requests_after_drain_are_refused_and_audited(self):
        async def scenario():
            svc = await make_service()
            client = await svc.connect("alice")
            svc._draining = True
            reply = await client.request("begin", txn="t1")
            assert reply["outcome"] == "error"
            assert reply["reason"] == "service draining"
            entry = svc.audit.entries()[-1]
            assert (entry.op, entry.decision) == ("begin", "error")

        run(scenario())


class TestTcpTransport:
    def test_full_round_trip_over_tcp(self):
        async def scenario():
            svc = await make_service()
            host, port = await svc.serve_tcp("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode({"op": "hello", "actor": "alice"}))
            await writer.drain()
            hello = json.loads(await reader.readline())
            assert hello["outcome"] == "granted"
            assert hello["protocol"] == 1
            writer.write(encode({"op": "begin", "txn": "t1", "id": 0}))
            writer.write(encode(
                {"op": "acquire", "txn": "t1", "entity": "a", "id": 1}
            ))
            await writer.drain()
            assert json.loads(await reader.readline())["outcome"] == "granted"
            assert json.loads(await reader.readline())["outcome"] == "granted"
            assert svc.kernel.held("t1")
            writer.close()
            await writer.wait_closed()
            await svc.drain()

        run(scenario())

    def test_malformed_first_line_is_rejected(self):
        async def scenario():
            svc = await make_service()
            host, port = await svc.serve_tcp("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"garbage\n")
            await writer.drain()
            reply = json.loads(await reader.readline())
            assert reply["outcome"] == "error"
            assert (await reader.readline()) == b""  # connection closed
            writer.close()
            await writer.wait_closed()
            await svc.drain()

        run(scenario())
