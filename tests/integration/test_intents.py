"""Intent-based locking and lock batching (PR 10, Lustre-style).

With ``intents=True`` the operation rides the lock request: open,
growth-setattr and batched range acquires each cost one round trip, and
close defers its census update onto the next batch.  With intents off
every wire message is bit-identical to the split protocol — these tests
pin both the savings and the off-path neutrality.
"""

import inspect

import pytest

from repro.analysis import ConsistencyAuditor
from repro.core.config import NetCacheConfig
from repro.locks import LockMode
from repro.net.message import Message, MsgKind, NackError
from repro.storage import BLOCK_SIZE

from tests.conftest import make_system, run_gen


def _setup_file(s, path="/f", blocks=8):
    c1 = s.client("c1")
    run_gen(s, c1.create(path, size=blocks * BLOCK_SIZE))
    return c1


#: The netcache tier off and on: with cache nodes, CREATE and SETATTR
#: run the invalidate-before-apply barrier and so defer.
TIERS = [pytest.param({}, id="no-cache"),
         pytest.param({"netcache": NetCacheConfig(enabled=True, n_nodes=2)},
                      id="netcache")]


# -- one round trip per op -------------------------------------------------

def test_intent_open_is_one_rpc():
    s = make_system(intents=True)
    c1 = _setup_file(s)
    before = dict(c1.rpc_by_kind())

    def work():
        fd = yield from c1.open_file("/f", "w")
        return fd
    run_gen(s, work())
    sent = {k: n - before.get(k, 0) for k, n in c1.rpc_by_kind().items()
            if n != before.get(k, 0)}
    assert sent == {MsgKind.LOCK_INTENT: 1}


def test_intent_open_carries_grant_and_attrs():
    s = make_system(intents=True)
    c1 = _setup_file(s)

    def work():
        fd = yield from c1.open_file("/f", "w")
        of = c1.fds.get(fd)
        # The single reply delivered the lock, the attrs and the extent
        # map: a write needs no further metadata round trip.
        assert of.lock == LockMode.EXCLUSIVE
        assert of.extents.size_bytes == 8 * BLOCK_SIZE
        tag = yield from c1.write(fd, 0, BLOCK_SIZE)
        got = yield from c1.read(fd, 0, BLOCK_SIZE)
        assert got[0][1] == tag
    run_gen(s, work())


def test_growth_write_folds_setattr_into_intent():
    s = make_system(intents=True)
    c1 = s.client("c1")
    run_gen(s, c1.create("/g", size=BLOCK_SIZE))

    def work():
        fd = yield from c1.open_file("/g", "w")
        before = dict(c1.rpc_by_kind())
        yield from c1.write(fd, 0, 4 * BLOCK_SIZE)  # grows the file
        sent = {k: n - before.get(k, 0) for k, n in c1.rpc_by_kind().items()
                if n != before.get(k, 0)}
        assert sent == {MsgKind.LOCK_INTENT: 1}
        assert MsgKind.SETATTR not in sent
        of = c1.fds.get(fd)
        assert of.extents.size_bytes == 4 * BLOCK_SIZE
    run_gen(s, work())


def test_close_defers_census_onto_next_batch():
    s = make_system(intents=True)
    c1 = _setup_file(s)
    srv = s.server_node("server")

    def work():
        fd = yield from c1.open_file("/f", "r")
        fid = c1.fds.get(fd).file_id
        yield from c1.close(fd)
        assert srv.closes_by_file.get(fid, 0) == 0  # no RPC yet
        # The deferred close rides the next open's LOCK_BATCH.
        fd2 = yield from c1.open_file("/f", "r")
        assert srv.closes_by_file.get(fid, 0) == 1
        yield from c1.close(fd2)
    run_gen(s, work())
    # Still pending — deferral is not loss; it drains on the next batch.
    assert s.server_node("server").closes_by_file[1] == 1


def test_batched_range_acquire_one_rpc_per_batch():
    s = make_system(intents=True)
    c1 = _setup_file(s)

    def work():
        fd = yield from c1.open_file("/f", "r")
        before = dict(c1.rpc_by_kind())
        yield from c1.read_ranges_locked(
            fd, [(0, BLOCK_SIZE), (BLOCK_SIZE, BLOCK_SIZE),
                 (2 * BLOCK_SIZE, BLOCK_SIZE)])
        sent = {k: n - before.get(k, 0) for k, n in c1.rpc_by_kind().items()
                if n != before.get(k, 0)}
        # One acquire batch + one release batch + the SAN reads; no
        # per-range RANGE_ACQUIRE/RANGE_RELEASE datagrams.
        assert sent[MsgKind.LOCK_BATCH] == 2
        assert MsgKind.RANGE_ACQUIRE not in sent
        assert MsgKind.RANGE_RELEASE not in sent
    run_gen(s, work())


# -- parity: both protocol variants compute the same thing -----------------

@pytest.mark.parametrize("intents", [False, True])
def test_ranges_api_parity(intents):
    s = make_system(intents=intents)
    c1 = _setup_file(s)

    def work():
        fd = yield from c1.open_file("/f", "w")
        tags = yield from c1.write_ranges_locked(
            fd, [(0, BLOCK_SIZE), (BLOCK_SIZE, BLOCK_SIZE)])
        got = yield from c1.read_ranges_locked(
            fd, [(0, BLOCK_SIZE), (BLOCK_SIZE, BLOCK_SIZE)])
        return tags, got
    tags, got = run_gen(s, work())
    assert len(tags) == 2
    assert [blk[0][1] for blk in got] == tags
    report = ConsistencyAuditor(s).audit()
    assert report.safe, report.summary()


def test_intents_cut_messages_per_op_at_least_2x():
    """The op cycle from E-intent: open(w), growth write, 4 contiguous
    locked ranges, close — ≥2× fewer client RPCs with intents on."""
    def cycle(sys_):
        c = sys_.client("c1")
        run_gen(sys_, c.create("/e", size=BLOCK_SIZE))

        def work():
            fd = yield from c.open_file("/e", "w")
            yield from c.write(fd, 0, 4 * BLOCK_SIZE)
            yield from c.write_ranges_locked(
                fd, [(i * BLOCK_SIZE, BLOCK_SIZE) for i in range(4)])
            yield from c.close(fd)
        run_gen(sys_, work())
        return c.messages_per_op()
    off = cycle(make_system(intents=False))
    on = cycle(make_system(intents=True))
    assert on > 0
    assert off / on >= 2.0


# -- server-side semantics -------------------------------------------------

def test_unknown_intent_op_nacked():
    s = make_system(intents=True)
    c1 = _setup_file(s)

    def probe(op):
        try:
            yield from c1._rpc(MsgKind.LOCK_INTENT,
                               {"op": op, "path": "/f"},
                               "server")
        except NackError as exc:
            return exc.nack.payload.get("error")
        return None
    # ``create`` and ``getattr`` were intent sub-ops no client ever sent;
    # they are gone, and get the same NACK as any other unknown op.
    for op in ("truncate-all", "create", "getattr"):
        assert "unknown intent op" in (run_gen(s, probe(op)) or ""), op


#: Each intent sub-op with a split twin: the twin's kind and the body
#: both envelopes carry (file 1 is ``_setup_file``'s 8-block ``/f``).
SPLIT_TWINS = {
    "open": (MsgKind.OPEN, {"path": "/f", "mode": "w", "have": [1, 0]}),
    "setattr": (MsgKind.SETATTR, {"file_id": 1, "size": 12 * BLOCK_SIZE}),
    "close": (MsgKind.CLOSE, {"file_id": 1}),
    "range_release": (MsgKind.RANGE_RELEASE,
                      {"file_id": 1, "start": 0, "end": BLOCK_SIZE}),
}

#: Reply keys outside an operation's result: the grant and the stamps
#: the dispatch layer adds to every ACK.
_ENVELOPE = ("lock", "__epoch__", "__mseq__")


def _run_op(op, as_intent, tier):
    """Run one operation on a fresh, identically seeded system; return
    its reply payload and the server state the operation touches."""
    s = make_system(intents=True, **tier)
    c1 = _setup_file(s)
    srv = s.server_node("server")
    kind, body = SPLIT_TWINS[op]

    def work():
        if op == "range_release":
            yield from c1._rpc(MsgKind.RANGE_ACQUIRE,
                               {"file_id": 1, "start": 0, "end": BLOCK_SIZE,
                                "mode": int(LockMode.EXCLUSIVE)}, "server")
        if as_intent:
            reply = yield from c1._rpc(MsgKind.LOCK_INTENT,
                                       {"op": op, **body}, "server")
        else:
            reply = yield from c1._rpc(kind, body, "server")
        return reply.payload
    payload = run_gen(s, work())
    mutations = [(r.node, r.detail)
                 for r in s.trace.select(kind="meta.mutate")]
    state = (dict(srv.closes_by_file), srv.range_locks.holdings("c1", 1),
             srv.metadata.inode(1).attrs.size)
    return payload, mutations, state


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("op", sorted(SPLIT_TWINS))
def test_intent_subop_matches_split_handler(op, tier):
    """The intent is the operation: a sub-op's reply, its namespace
    mutation record and its effect equal its split twin's, apart from
    the grant and the envelope stamps."""
    split, split_mut, split_state = _run_op(op, False, tier)
    intent, intent_mut, intent_state = _run_op(op, True, tier)

    def result(p):
        return {k: v for k, v in p.items() if k not in _ENVELOPE}
    assert result(intent) == result(split)
    assert intent_mut == split_mut
    assert intent_state == split_state
    if op == "setattr":
        # The only lock logic the intent adds: setattr's EXCLUSIVE grant.
        assert intent["lock"] == int(LockMode.EXCLUSIVE)
        assert "lock" not in split
        assert split["attrs"]["size"] == 12 * BLOCK_SIZE
        setattrs = [d for _, d in split_mut if d["op"] == "setattr"]
        assert len(setattrs) == (1 if tier else 0)
    if op == "open":
        assert intent["lock"] == split["lock"] == int(LockMode.EXCLUSIVE)


@pytest.mark.parametrize("tier", TIERS)
def test_handler_reply_shapes(tier):
    """Pin which handlers answer at once (a tuple) and which defer (a
    generator, after the transport's pending ACK).  CREATE and SETATTR
    defer only to run the mutation barrier against cache nodes."""
    s = make_system(**tier)
    _setup_file(s)
    srv = s.server_node("server")
    cached = bool(tier)

    def deferred(kind, handler, payload):
        result = handler(Message("c1", "server", kind, payload))
        if inspect.isgenerator(result):
            result.close()
            return True
        assert isinstance(result, tuple)
        return False
    assert deferred(MsgKind.CREATE, srv._h_create, {"path": "/new"}) is cached
    assert deferred(MsgKind.SETATTR, srv._h_setattr,
                    {"file_id": 1, "size": 9 * BLOCK_SIZE}) is cached
    assert deferred(MsgKind.OPEN, srv._h_open, {"path": "/f", "mode": "r"})
    assert not deferred(MsgKind.OPEN, srv._h_open,
                        {"path": "/f", "mode": "r", "nolock": True})
    assert deferred(MsgKind.UNLINK, srv._h_unlink, {"path": "/f"})
    assert deferred(MsgKind.LOCK_ACQUIRE, srv._h_lock_acquire,
                    {"file_id": 1, "mode": int(LockMode.SHARED)})


def test_batch_subop_failure_does_not_abort_batch():
    s = make_system(intents=True)
    c1 = _setup_file(s)

    def probe():
        reply = yield from c1._rpc(
            MsgKind.LOCK_BATCH,
            {"ops": [{"op": "open", "path": "/missing", "mode": "r"},
                     {"op": "open", "path": "/f", "mode": "r"}]},
            "server")
        return reply.payload["results"]
    results = run_gen(s, probe())
    assert [r["ok"] for r in results] == [False, True]
    assert results[1]["file_id"] == 1


def test_unknown_grant_policy_rejected():
    from repro.core.config import SystemConfig
    with pytest.raises(ValueError, match="intent_grant_policy"):
        SystemConfig(n_clients=1, intent_grant_policy="bogus")


def test_intents_require_storage_tank():
    from repro.core.config import SystemConfig
    with pytest.raises(ValueError, match="storage_tank"):
        SystemConfig(n_clients=1, intents=True, protocol="no_protocol")


# -- contention: the discipline still holds with intents on ---------------

def test_intent_open_respects_exclusive_holder():
    s = make_system(n_clients=2, intents=True)
    c1, c2 = s.client("c1"), s.client("c2")
    log = {}

    def holder():
        yield from c1.create("/f", size=2 * BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "w")
        log["tag"] = yield from c1.write(fd, 0, BLOCK_SIZE)
        yield s.sim.timeout(30.0)
        yield from c1.close(fd)

    def contender():
        yield s.sim.timeout(5.0)
        fd = yield from c2.open_file("/f", "r")   # waits for demand/downgrade
        log["t_open"] = s.sim.now
        log["read"] = yield from c2.read(fd, 0, BLOCK_SIZE)
    s.spawn(holder())
    s.spawn(contender())
    s.run(until=120.0)
    assert log["t_open"] > 5.0                    # actually blocked
    assert log["read"][0][1] == log["tag"]        # saw the flushed write
    report = ConsistencyAuditor(s).audit()
    assert report.safe, report.summary()


# -- observability ---------------------------------------------------------

def test_messages_per_op_in_metrics_snapshot():
    s = make_system(intents=True)
    c1 = _setup_file(s)

    def work():
        fd = yield from c1.open_file("/f", "w")
        yield from c1.write(fd, 0, BLOCK_SIZE)
        yield from c1.close(fd)
    run_gen(s, work())
    snap = s.metrics_snapshot()
    assert snap["client.messages_per_op"] > 0
    assert MsgKind.LOCK_INTENT in snap["client.rpc_by_kind"]
    # The idle client contributes no RPCs, so the fleet ratio reduces to
    # c1's own (keepalives excluded from the ratio by definition).
    assert snap["client.messages_per_op"] == \
        pytest.approx(c1.messages_per_op())
    over = c1.overhead_snapshot()
    assert over["messages_per_op"] == c1.messages_per_op()
