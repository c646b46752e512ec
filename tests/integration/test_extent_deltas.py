"""Extent-map deltas: a reply ships only the runs the client lacks.

Requests whose reply can carry extents name the client's known map as
``have: [file_id, n_runs]``; the server answers with runs ``[n:]`` and
``extents_base: n`` when that is a true prefix of the file's map, and
with the full map otherwise.  Shipped entries are counted the way the
end-to-end benchmark counts them: the length of every
``extents_to_payload`` result the server builds.
"""

import pytest

import repro.server.node as server_node
from repro.net.message import MsgKind
from repro.storage import BLOCK_SIZE
from repro.storage import blockmap

from tests.conftest import make_system, run_gen


@pytest.fixture
def shipped(monkeypatch):
    """Entries per serialized extent payload, in build order."""
    log = []

    def counting(extents):
        runs = blockmap.extents_to_payload(extents)
        log.append(len(runs))
        return runs
    monkeypatch.setattr(server_node, "extents_to_payload", counting)
    return log


def _server_map(s, path):
    return s.server.metadata.lookup(path).extents


def _open_close(c, path, mode):
    fd = yield from c.open_file(path, mode)
    yield from c.close(fd)


@pytest.mark.parametrize("intents", [False, True])
def test_second_open_by_same_client_ships_nothing(shipped, intents):
    s = make_system(n_clients=1, intents=intents, n_disks=2)
    c = s.client("c1")
    run_gen(s, c.create("/f", size=8 * BLOCK_SIZE))
    run_gen(s, _open_close(c, "/f", "w"))
    full = _server_map(s, "/f")
    assert shipped[-1] == len(full.extents) > 0
    del shipped[:]

    def reopen():
        fd = yield from c.open_file("/f", "r")
        return c.fds.get(fd)
    of = run_gen(s, reopen())
    assert shipped == [0]
    assert of.extents == full


@pytest.mark.parametrize("intents", [False, True])
def test_growth_setattr_ships_exactly_the_new_runs(shipped, intents):
    s = make_system(n_clients=1, intents=intents, n_disks=2)
    c = s.client("c1")
    run_gen(s, c.create("/f", size=2 * BLOCK_SIZE))
    fd = run_gen(s, c.open_file("/f", "w"))
    before = len(_server_map(s, "/f").extents)
    del shipped[:]
    # Three growths, each past the mapped end.
    for k in range(1, 4):
        run_gen(s, c.write(fd, (2 + 3 * k) * BLOCK_SIZE, BLOCK_SIZE))
    full = _server_map(s, "/f")
    assert sum(shipped) == len(full.extents) - before
    assert len(shipped) == 3 and all(n > 0 for n in shipped)
    of = c.fds.get(fd)
    assert of.extents == full
    assert [of.resolve(lb) for lb in range(full.block_count)] == \
        [full.resolve(lb) for lb in range(full.block_count)]


def test_recreated_path_gets_full_map_and_resolves(shipped):
    s = make_system(n_clients=1, n_disks=2)
    c = s.client("c1")
    run_gen(s, c.create("/f", size=3 * BLOCK_SIZE))
    run_gen(s, _open_close(c, "/f", "w"))
    old_fid = s.server.metadata.lookup("/f").file_id
    run_gen(s, c.unlink("/f"))
    run_gen(s, c.create("/other", size=5 * BLOCK_SIZE))
    run_gen(s, c.create("/f", size=6 * BLOCK_SIZE))
    full = _server_map(s, "/f")
    assert s.server.metadata.lookup("/f").file_id != old_fid
    del shipped[:]

    def reopen():
        fd = yield from c.open_file("/f", "r")
        return c.fds.get(fd)
    of = run_gen(s, reopen())
    assert shipped == [len(full.extents)]
    assert of.extents == full
    assert [of.resolve(lb) for lb in range(6)] == \
        [full.resolve(lb) for lb in range(6)]


def _open_with_have(s, c, path, have):
    def app():
        reply = yield from c.endpoint.request(
            "server", MsgKind.OPEN, {"path": path, "mode": "r",
                                     "have": have})
        return reply.payload
    return run_gen(s, app())


@pytest.mark.parametrize("forge", ["other_file", "beyond_map", "negative"])
def test_forged_have_gets_full_map(forge):
    s = make_system(n_clients=1, n_disks=2)
    c = s.client("c1")
    run_gen(s, c.create("/f", size=6 * BLOCK_SIZE))
    ino = s.server.metadata.lookup("/f")
    n = len(ino.extents.extents)
    have = {"other_file": [ino.file_id + 1, 0],
            "beyond_map": [ino.file_id, n + 1],
            "negative": [ino.file_id, -1]}[forge]
    payload = _open_with_have(s, c, "/f", have)
    assert "extents_base" not in payload
    assert payload["extents"] == blockmap.extents_to_payload(ino.extents)


def test_true_prefix_have_gets_the_tail():
    s = make_system(n_clients=1, n_disks=2)
    c = s.client("c1")
    run_gen(s, c.create("/f", size=6 * BLOCK_SIZE))
    ino = s.server.metadata.lookup("/f")
    runs = blockmap.extents_to_payload(ino.extents)
    for n in range(len(runs) + 1):
        payload = _open_with_have(s, c, "/f", [ino.file_id, n])
        assert payload["extents_base"] == n
        assert payload["extents"] == runs[n:]


def test_two_fds_of_one_file_keep_independent_maps():
    s = make_system(n_clients=1, n_disks=2)
    c = s.client("c1")
    run_gen(s, c.create("/f", size=4 * BLOCK_SIZE))
    fd1 = run_gen(s, c.open_file("/f", "w"))
    fd2 = run_gen(s, c.open_file("/f", "r"))
    of1, of2 = c.fds.get(fd1), c.fds.get(fd2)
    assert of1.extents == of2.extents
    assert of1.extents is not of2.extents
    view2 = list(of2.extents.extents)
    run_gen(s, c.write(fd1, 9 * BLOCK_SIZE, BLOCK_SIZE))
    assert of1.extents == _server_map(s, "/f")
    # fd2's view is untouched by fd1's growth.
    assert of2.extents.extents == view2
    assert of2.extents.block_count == 4


def test_known_maps_bounded_by_held_locks():
    s = make_system(n_clients=2)
    c1, c2 = s.client("c1"), s.client("c2")

    def loop():
        for i in range(1000):
            path = f"/d/f{i}"
            yield from c1.create(path, size=BLOCK_SIZE)
            yield from _open_close(c1, path, "r")
            # c2's exclusive open demands c1's lock: c1 releases it.
            yield from _open_close(c2, path, "w")
            assert len(c1._known_extents) <= len(c1.locks)
    run_gen(s, loop(), hard_limit=3600.0)
    assert len(c1._known_extents) == len(c1.locks) == 0
    assert len(c1._known_fid) == 0
    assert len(c2._known_extents) == len(c2.locks) == 1000
    c2.force_lease_expiry()
    assert not c2._known_extents and not c2._known_fid


def test_unlink_forgets_the_known_map():
    s = make_system(n_clients=1)
    c = s.client("c1")
    run_gen(s, c.create("/f", size=BLOCK_SIZE))
    run_gen(s, _open_close(c, "/f", "w"))
    assert set(c._known_fid) == {"/f"}
    run_gen(s, c.unlink("/f"))
    assert not c._known_extents and not c._known_fid
