"""The columnar trace store against a plain list-of-tuples reference.

``TraceRecorder`` keeps its stored records as four parallel columns and
builds :class:`TraceRecord` views only when read; ``select(kind=...)``
extends its kind index lazily.  Random sequences of emits, selects,
clears and subscriptions must read back exactly what a naive list of
``(time, kind, node, detail)`` tuples holds, under every storage option.
"""

import gc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import TraceRecord, TraceRecorder

KINDS = ("msg.send", "msg.recv", "lease.phase", "lock.steal", "x")
NODES = ("c1", "c2", "s0")
PREFIXES = ("msg", "msg.", "lease", "l", "x", "")


class RefTrace:
    """What the recorder should hold, kept the obvious way."""

    def __init__(self, keep_kinds, max_records, sample_stride):
        self.keep = tuple(keep_kinds) if keep_kinds else None
        self.max_records = max_records
        self.stride = sample_stride
        self.rows = []
        self.counts = {}
        self.seq = 0
        self.subscribers = []

    def emit(self, row):
        kind = row[1]
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if self.keep is not None and not kind.startswith(self.keep):
            return
        self.seq += 1
        if self.seq % self.stride:
            return
        self.rows.append(row)
        if self.max_records is not None:
            del self.rows[:-self.max_records]
        for got in self.subscribers:
            got.append(row)

    def select(self, kind, node, prefix):
        return [r for r in self.rows
                if (kind is None or r[1] == kind)
                and (prefix is None or r[1].startswith(prefix))
                and (node is None or r[2] == node)]

    def clear(self):
        self.rows.clear()
        self.counts.clear()
        self.seq = 0


emit_op = st.tuples(st.just("emit"), st.sampled_from(KINDS),
                    st.sampled_from(NODES), st.integers(0, 9))
select_op = st.tuples(st.just("select"),
                      st.none() | st.sampled_from(KINDS),
                      st.none() | st.sampled_from(NODES),
                      st.none() | st.sampled_from(PREFIXES))
ops = st.lists(
    st.one_of(emit_op, emit_op, emit_op, select_op,
              st.tuples(st.just("clear")), st.tuples(st.just("subscribe"))),
    max_size=60)
options = st.fixed_dictionaries({
    "keep_kinds": st.none() | st.lists(st.sampled_from(("msg", "lease", "x")),
                                       min_size=1, max_size=2),
    "max_records": st.none() | st.integers(1, 8),
    "sample_stride": st.integers(1, 3),
})


def assert_same(t, ref):
    assert [tuple(r) for r in t.records] == ref.rows
    assert all(type(r) is TraceRecord for r in t.records)
    assert [tuple(r) for r in t] == ref.rows
    assert len(t) == len(ref.rows)
    assert t.kinds() == ref.counts
    for kind in KINDS:
        assert t.count(kind) == ref.counts.get(kind, 0)
    for prefix in PREFIXES:
        assert t.count_prefix(prefix) == sum(
            c for k, c in ref.counts.items() if k.startswith(prefix))


@settings(max_examples=150, deadline=None)
@given(opts=options, seq=ops)
def test_recorder_matches_list_of_tuples(opts, seq):
    t = TraceRecorder(enabled=True, **opts)
    ref = RefTrace(**opts)
    subscribed = []
    clock = 0.0
    for op in seq:
        if op[0] == "emit":
            _, kind, node, i = op
            clock += 0.25
            t.emit(clock, kind, node, i=i)
            ref.emit((clock, kind, node, {"i": i}))
        elif op[0] == "select":
            _, kind, node, prefix = op
            got = t.select(kind=kind, node=node, prefix=prefix)
            assert [tuple(r) for r in got] == ref.select(kind, node, prefix)
        elif op[0] == "clear":
            t.clear()
            ref.clear()
        else:
            mine, theirs = [], []
            t.subscribe(mine.append)
            ref.subscribers.append(theirs)
            subscribed.append((mine, theirs))
        assert_same(t, ref)
    for kind in KINDS:
        assert [tuple(r) for r in t.select(kind=kind)] == \
            ref.select(kind, None, None)
    for mine, theirs in subscribed:
        assert [tuple(r) for r in mine] == theirs


def test_stored_trace_adds_no_gc_tracked_objects():
    t = TraceRecorder(enabled=True)
    emit = t.emit
    gc.collect()
    before = len(gc.get_objects())
    for i in range(10_000):
        emit(i * 0.001, "msg.send", "c1",
             msg_kind="fs.getattr", dst="s0", msg_id=i, seq=i)
    assert len(gc.get_objects()) - before < 50
    assert len(t) == 10_000
