"""Structured event tracing.

Simulation components emit trace records (message sends, lease phase
transitions, fences, lock steals...).  The trace is the ground truth
consumed by the offline consistency audit and by the experiment
harness, so records are plain data and cheap to filter.

Cost model (the recorder sits on every message/IO hot path):

- ``counting=False, enabled=False`` makes the recorder a true no-op;
  the precomputed ``_noop`` flag lets hot callsites skip even the
  keyword-argument packing of :meth:`TraceRecorder.emit`;
- stored records are four parallel columns (time, kind, node, detail):
  :meth:`TraceRecorder.emit` appends to each and builds no object, and a
  kwargs-built detail dict holding only atomic values is never tracked
  by the cyclic GC, so a long trace adds no GC-tracked objects;
- the read side (``records``, iteration, :meth:`TraceRecorder.select`,
  subscribers) gets :class:`TraceRecord` tuple views built on demand;
- ``max_records`` bounds storage with a ring buffer (oldest evicted),
  for long soak runs that only need the recent window;
- ``sample_stride=N`` stores every Nth record (counters stay exact);
- :meth:`TraceRecorder.select` with a ``kind`` filter reads a per-kind
  position index, extended lazily from the last indexed position.

Counters always update while ``counting`` is on, even when storage is
disabled or sampled — oracle and experiment code relies on exact counts.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import (Any, Callable, Deque, Dict, Iterator, List, NamedTuple,
                    Optional, Union)


class TraceRecord(NamedTuple):
    """One traced occurrence (a read-side view of one stored row).

    ``kind`` is a dotted category such as ``"msg.send"``, ``"lease.phase"``,
    ``"lock.steal"``, ``"disk.write"``; ``node`` the emitting component;
    ``detail`` free-form keyed data.
    """

    time: float
    kind: str
    node: str
    detail: Dict[str, Any]

    def get(self, key: str, default: Any = None) -> Any:
        """Convenience accessor into ``detail``."""
        return self.detail.get(key, default)


#: Builds a record view from one ``(time, kind, node, detail)`` row
#: without going through the generated ``__new__``.
_view = partial(tuple.__new__, TraceRecord)


class TraceRecorder:
    """Append-only columnar trace with cheap filtered views and counters."""

    def __init__(self, enabled: bool = True,
                 keep_kinds: Optional[List[str]] = None,
                 counting: bool = True,
                 max_records: Optional[int] = None,
                 sample_stride: int = 1) -> None:
        if sample_stride < 1:
            raise ValueError(f"sample_stride must be >= 1, got {sample_stride}")
        self.enabled = enabled
        self.counting = counting
        self.max_records = max_records
        self.sample_stride = sample_stride
        column: Callable[[], Union[List[Any], Deque[Any]]] = (
            partial(deque, maxlen=max_records) if max_records is not None
            else list)
        self._time = column()
        self._kind = column()
        self._node = column()
        self._detail = column()
        self._counts: Dict[str, int] = {}
        self._keep_prefixes = tuple(keep_kinds) if keep_kinds else None
        self._subscribers: List[Callable[[TraceRecord], None]] = []
        # Kind -> stored positions, for select(); only kept for unbounded
        # storage (ring-buffer eviction shifts every position).
        self._by_kind: Optional[Dict[str, List[int]]] = (
            {} if max_records is None else None)
        self._indexed = 0
        self._stride_seq = 0
        # True when emit() can return without doing any work at all;
        # hot callsites read this to skip kwargs packing entirely.
        self._noop = not enabled and not counting

    def emit(self, time: float, kind: str, node: str, **detail: Any) -> None:
        """Record one occurrence (counters always update, storage may filter)."""
        if self._noop:
            return
        if self.counting:
            counts = self._counts
            counts[kind] = counts.get(kind, 0) + 1
        if not self.enabled:
            return
        if self._keep_prefixes is not None and not kind.startswith(self._keep_prefixes):
            return
        if self.sample_stride > 1:
            self._stride_seq += 1
            if self._stride_seq % self.sample_stride:
                return
        self._time.append(time)
        self._kind.append(kind)
        self._node.append(node)
        self._detail.append(detail)
        if self._subscribers:
            rec = _view((time, kind, node, detail))
            for sub in self._subscribers:
                sub(rec)

    def subscribe(self, fn: Callable[[TraceRecord], None]) -> None:
        """Invoke ``fn`` on every stored record as it is emitted."""
        self._subscribers.append(fn)

    # -- queries --------------------------------------------------------
    def rows(self) -> Iterator[tuple]:
        """Stored ``(time, kind, node, detail)`` rows in emission order,
        as plain tuples (no record views are built)."""
        return zip(self._time, self._kind, self._node, self._detail)

    def __len__(self) -> int:
        return len(self._kind)

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(_view, self.rows())

    @property
    def records(self) -> List[TraceRecord]:
        """All stored records in emission order."""
        return list(map(_view, self.rows()))

    def count(self, kind: str) -> int:
        """Exact count of a kind (counted even when storage is filtered)."""
        return self._counts.get(kind, 0)

    def count_prefix(self, prefix: str) -> int:
        """Sum of counts over all kinds with the given dotted prefix."""
        return sum(c for k, c in self._counts.items() if k.startswith(prefix))

    def _kind_index(self) -> Optional[Dict[str, List[int]]]:
        """The kind index, first extended over rows emitted since the
        last call (None under a ring buffer)."""
        by_kind = self._by_kind
        if by_kind is None:
            return None
        kinds = self._kind
        for pos in range(self._indexed, len(kinds)):
            bucket = by_kind.get(kinds[pos])
            if bucket is None:
                by_kind[kinds[pos]] = [pos]
            else:
                bucket.append(pos)
        self._indexed = len(kinds)
        return by_kind

    def select(self, kind: Optional[str] = None, node: Optional[str] = None,
               prefix: Optional[str] = None) -> List[TraceRecord]:
        """Stored records matching the given filters."""
        by_kind = self._kind_index() if kind is not None else None
        if by_kind is not None:
            times, nodes, details = self._time, self._node, self._detail
            rows: Any = [(times[p], kind, nodes[p], details[p])
                         for p in by_kind.get(kind, ())]
        else:
            rows = self.rows()
        return [_view(r) for r in rows
                if (kind is None or r[1] == kind)
                and (prefix is None or r[1].startswith(prefix))
                and (node is None or r[2] == node)]

    def kinds(self) -> Dict[str, int]:
        """Mapping of every seen kind to its count."""
        return dict(self._counts)

    def clear(self) -> None:
        """Drop stored records and counters."""
        for col in (self._time, self._kind, self._node, self._detail):
            col.clear()
        self._counts.clear()
        if self._by_kind is not None:
            self._by_kind.clear()
        self._indexed = 0
        self._stride_seq = 0
