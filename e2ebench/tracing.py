"""Span tracing and profiling of the simulator from outside its source.

The traced run wraps public functions of each layer (found by import
path, never edited) with thin recorders.  Each wrapped call becomes a
span: its name (``layer.what``), its parent span, its host start and
end, its host time while active and its self time (active time minus
the active time of its child spans).

A wrapped generator function (a simulated process step such as a client
op, an RPC or a SAN transfer) is one span whose host time is the sum of
the slices during which the simulator resumes it.  The parent of a new
span is the span whose host slice is running when it starts.  A call
made while no span runs hangs off a root span for the simulated process
being resumed (``Simulator.active_process``), or off the ``kernel`` root
when the kernel fires an event callback outside any process.

A top-level client call (one that starts while no other client call of
the same process is open) is an *op span*: it also records its simulated
latency and whether it completed.

Spans are kept in memory and written out by :meth:`Tracer.write` when
the run ends.  Wrapping draws no randomness and schedules no events, so
a traced run simulates exactly what an untraced one does; the benchmark
checks that.
"""

from __future__ import annotations

import cProfile
import inspect
import json
import os
import pstats
import re
import sys
from collections import defaultdict
from time import perf_counter_ns
from typing import (Any, Callable, Dict, Iterator, List, Optional, Set,
                    Tuple)

#: Client API methods whose top-level calls are ops, by reported kind.
CLIENT_OPS: Dict[str, str] = {
    "create": "create",
    "open_file": "open",
    "read": "read",
    "write": "write",
    "close": "close",
    "write_ranges_locked": "write_ranges_locked",
    "lookup": "lookup",
    "getattr": "getattr",
    "readdir": "readdir",
    "unlink": "unlink",
    "flush": "flush",
    "read_range_locked": "read_range_locked",
    "write_range_locked": "write_range_locked",
    "read_ranges_locked": "read_ranges_locked",
}

#: Columns of one span row in the written span file.
SPAN_COLUMNS = ("id", "parent", "name", "start_ns", "end_ns", "active_ns",
                "self_ns")

_DIGITS = re.compile(r"\d+")


class _Span:
    __slots__ = ("id", "parent", "name", "start", "end", "active",
                 "self_ns")

    def __init__(self, sid: int, parent: Optional[int], name: str,
                 start: int) -> None:
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.active = 0
        self.self_ns = 0


class _Op:
    """Simulated-time record of one op span."""

    __slots__ = ("kind", "span", "sim_start", "process")

    def __init__(self, kind: str, span: _Span, sim_start: float,
                 process: Any) -> None:
        self.kind = kind
        self.span = span
        self.sim_start = sim_start
        self.process = process


class Tracer:
    """In-memory span recorder with per-name call and time totals."""

    def __init__(self) -> None:
        self.spans: List[_Span] = []
        # Open host slices: [span, slice start ns, child ns in slice].
        self._stack: List[List[Any]] = []
        self._roots: Dict[str, _Span] = {}
        self._op_of: Dict[int, _Op] = {}
        self.sim: Any = None
        self.calls: Dict[str, int] = defaultdict(int)
        self.active_ns: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        #: kind -> list of (sim latency s, host ns, completed)
        self.ops: Dict[str, List[Tuple[float, int, bool]]] = defaultdict(list)
        #: free-form exact counters kept at wrapped boundaries
        self.counts: Dict[str, int] = defaultdict(int)
        # (src, dst, seq) of every request datagram sent in this system.
        self._requests_sent: Set[Tuple[str, str, int]] = set()
        self._undo: List[Tuple[Any, str, Any]] = []

    def reset(self) -> None:
        """Forget everything recorded so far (called once set-up ends)."""
        assert not self._stack, "reset inside an open span"
        self.spans.clear()
        self._roots.clear()
        for table in (self.calls, self.active_ns, self.self_ns, self.ops,
                      self.counts):
            table.clear()

    # -- span bookkeeping ----------------------------------------------
    def _parent_id(self) -> int:
        stack = self._stack
        if stack:
            return stack[-1][0].id
        proc = self.sim.active_process if self.sim is not None else None
        key = "kernel" if proc is None else _DIGITS.sub("N", proc.name)
        root = self._roots.get(key)
        if root is None:
            root = _Span(len(self.spans), None, "root:" + key,
                         perf_counter_ns())
            self.spans.append(root)
            self._roots[key] = root
        return root.id

    def _open(self, name: str) -> _Span:
        span = _Span(len(self.spans), self._parent_id(), name,
                     perf_counter_ns())
        self.spans.append(span)
        self.calls[name] += 1
        return span

    def _enter(self, span: _Span) -> None:
        self._stack.append([span, perf_counter_ns(), 0])

    def _leave(self) -> None:
        t1 = perf_counter_ns()
        span, t0, child = self._stack.pop()
        dur = t1 - t0
        span.end = t1
        span.active += dur
        span.self_ns += dur - child
        self.active_ns[span.name] += dur
        self.self_ns[span.name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def call(self, name: str, fn: Callable[..., Any], args: Tuple[Any, ...],
             kwargs: Dict[str, Any]) -> Any:
        """Run a synchronous layer call as one span."""
        span = self._open(name)
        self._enter(span)
        try:
            return fn(*args, **kwargs)
        finally:
            self._leave()

    def generator(self, name: str, gen: Any, span: Optional[_Span] = None,
                  op_kind: Optional[str] = None) -> Iterator[Any]:
        """Drive ``gen`` transparently, timing each resume into one span.

        The span opens at the first resume, so its parent is whatever
        runs then.  With ``op_kind``, a call that starts while its
        process has no open op becomes an op span.
        """
        op: Optional[_Op] = None
        send: Any = None
        exc: Optional[BaseException] = None
        first = True
        while True:
            if first:
                first = False
                if span is None:
                    span = self._open(name)
                if op_kind is not None and self.sim is not None:
                    proc = self.sim.active_process
                    key = id(proc)
                    if key not in self._op_of:
                        op = _Op(op_kind, span, self.sim.now, proc)
                        self._op_of[key] = op
            self._enter(span)
            try:
                if exc is not None:
                    pending, exc = exc, None
                    item = gen.throw(pending)
                else:
                    item = gen.send(send)
            except StopIteration as stop:
                self._leave()
                self._close_op(op, True)
                return stop.value
            except BaseException:
                self._leave()
                self._close_op(op, False)
                raise
            self._leave()
            try:
                send = yield item
            except GeneratorExit:
                # Abandoned before it finished: neither completed nor
                # failed, so it leaves no op record.
                gen.close()
                if op is not None:
                    self._op_of.pop(id(op.process), None)
                raise
            except BaseException as thrown:  # delivered into the process
                exc = thrown
                send = None

    def _close_op(self, op: Optional[_Op], completed: bool) -> None:
        if op is None:
            return
        self._op_of.pop(id(op.process), None)
        self.ops[op.kind].append((self.sim.now - op.sim_start,
                                  op.span.active, completed))

    # -- installation --------------------------------------------------
    def patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        """Replace ``owner.attr``; :meth:`uninstall` restores it."""
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrapper(self, fn: Callable[..., Any], name: str,
                op_kind: Optional[str] = None) -> Callable[..., Any]:
        """A stand-in for ``fn`` that records each call as a span."""
        if inspect.isgeneratorfunction(fn):
            def wrapped(*args: Any, **kwargs: Any) -> Any:
                return self.generator(name, fn(*args, **kwargs),
                                      op_kind=op_kind)
        else:
            def wrapped(*args: Any, **kwargs: Any) -> Any:
                return self.call(name, fn, args, kwargs)
        wrapped.__name__ = fn.__name__
        wrapped.__doc__ = fn.__doc__
        return wrapped

    def wrap_function(self, owner: Any, attr: str, name: str,
                      op_kind: Optional[str] = None) -> None:
        """Wrap a function or method so each call is a span."""
        self.patch(owner, attr,
                   self.wrapper(owner.__dict__[attr], name, op_kind))

    def wrap_public_methods(self, cls: type, prefix: str) -> None:
        """Wrap every public plain method defined on ``cls`` itself."""
        for attr, fn in list(cls.__dict__.items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            self.wrap_function(cls, attr, f"{prefix}.{attr}")

    def patch_everywhere(self, module: Any, attr: str,
                         replacement: Any) -> None:
        """Replace a module-level function in ``module`` and in every
        ``repro`` module that imported it by name."""
        original = module.__dict__[attr]
        for mod in list(sys.modules.values()):
            if mod is module or (
                    getattr(mod, "__name__", "").startswith("repro.")
                    and mod.__dict__.get(attr) is original):
                self.patch(mod, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap the public boundaries of every layer the benchmark reports."""
        from repro.client.node import StorageTankClient
        from repro.fault.injector import FaultInjector
        from repro.lease.client_lease import ClientLeaseManager
        from repro.locks.manager import LockManager
        from repro.locks.ranges import RangeLockManager
        from repro.metadata.directory import Directory
        from repro.metadata.store import MetadataStore
        from repro.net.control import ControlNetwork, Endpoint
        from repro.net.san import SanFabric
        from repro.obs.registry import Metric
        from repro.sim.kernel import Simulator
        from repro.sim.trace import TraceRecorder
        from repro.simtest import oracles, runner
        from repro.storage import blockmap

        sim_init = Simulator.__dict__["__init__"]

        def init(sim: Any, *args: Any, **kwargs: Any) -> None:
            # A new installation: per-system bookkeeping starts afresh.
            sim_init(sim, *args, **kwargs)
            self.sim = sim
            self._op_of.clear()
            self._roots.clear()
            self._requests_sent.clear()
        self.patch(Simulator, "__init__", init)

        self._count_retries(ControlNetwork)
        self.wrap_function(ControlNetwork, "transmit", "net.transmit")
        self.wrap_function(Endpoint, "request", "net.request")
        self.wrap_function(SanFabric, "read", "net.san.read")
        self.wrap_function(SanFabric, "write", "net.san.write")
        self._wrap_handlers(Endpoint)
        self.wrap_function(ClientLeaseManager, "renew", "lease.renew")
        self.wrap_public_methods(LockManager, "locks")
        self.wrap_public_methods(RangeLockManager, "locks.range")
        self.wrap_public_methods(Directory, "metadata.dir")
        self.wrap_public_methods(MetadataStore, "metadata.store")
        self.wrap_function(blockmap.ExtentMap, "resolve", "storage.resolve")
        self.wrap_function(blockmap.ExtentMap, "resolve_range",
                           "storage.resolve_range")
        self.wrap_function(blockmap.ExtentMap, "append", "storage.append")
        self.patch_everywhere(blockmap, "extents_from_payload", self.wrapper(
            blockmap.extents_from_payload, "storage.extents_from_payload"))
        self._count_shipped(blockmap)
        self.wrap_function(TraceRecorder, "emit", "obs.trace_emit")
        self.wrap_function(Metric, "labels", "obs.registry_labels")
        for method, kind in CLIENT_OPS.items():
            self.wrap_function(StorageTankClient, method, f"client.{kind}",
                               op_kind=kind)
        self.wrap_function(FaultInjector, "apply_step", "fault.apply_step")
        for cls in _subclasses(oracles.Oracle):
            for attr in ("check_live", "check_final"):
                if attr in cls.__dict__:
                    self.wrap_function(cls, attr, f"simtest.oracle.{attr}")
        self.patch_everywhere(runner, "trace_hash", self.wrapper(
            runner.trace_hash, "simtest.trace_hash"))

    def _count_retries(self, net_cls: type) -> None:
        """Count request datagrams sent again under the same sequence."""
        from repro.net.message import MsgKind
        replies = {MsgKind.ACK, MsgKind.NACK}
        sent = self._requests_sent
        counts = self.counts
        inner = net_cls.__dict__["transmit"]

        def transmit(net: Any, msg: Any) -> None:
            if msg.kind not in replies:
                key = (msg.src, msg.dst, msg.seq)
                counts["net.request_datagrams"] += 1
                if key in sent:
                    counts["net.retransmits"] += 1
                else:
                    sent.add(key)
            inner(net, msg)
        self.patch(net_cls, "transmit", transmit)

    def _count_shipped(self, blockmap: Any) -> None:
        """Count extent entries serialized into replies."""
        original = blockmap.extents_to_payload
        counts = self.counts

        def to_payload(extents: Any) -> Any:
            runs = original(extents)
            counts["storage.extent_entries_shipped"] += len(runs)
            return runs
        self.patch_everywhere(blockmap, "extents_to_payload", to_payload)

    def _wrap_handlers(self, endpoint_cls: type) -> None:
        """Wrap handlers as endpoints register them, named by node role."""
        register = endpoint_cls.__dict__["register"]

        def wrapped_register(endpoint: Any, kind: str, handler: Any) -> None:
            owner = getattr(handler, "__qualname__", "")
            if "Server" in owner:
                role = "server"
            elif "CacheNode" in owner:
                role = "netcache"
            elif "Client" in owner:
                role = "client"
            else:
                role = "net"
            name = f"{role}.handler.{kind}"

            def traced(msg: Any) -> Any:
                span = self._open(name)
                self._enter(span)
                try:
                    result = handler(msg)
                finally:
                    self._leave()
                # A deferred transaction: its later resumes join the span.
                if hasattr(result, "send") and hasattr(result, "throw"):
                    return self.generator(name, result, span=span)
                return result
            register(endpoint, kind, traced)
        self.patch(endpoint_cls, "register", wrapped_register)

    # -- results ---------------------------------------------------------
    def self_ns_by_layer(self) -> Dict[str, int]:
        """Self time summed over every span name of each layer."""
        out: Dict[str, int] = defaultdict(int)
        for name, ns in self.self_ns.items():
            out[name.split(".", 1)[0]] += ns
        return dict(out)

    def write(self, path: str) -> None:
        """Write every span as one JSON array per line after a header."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"columns": SPAN_COLUMNS}) + "\n")
            for s in self.spans:
                fh.write(json.dumps([s.id, s.parent, s.name, s.start, s.end,
                                     s.active, s.self_ns]) + "\n")


def _subclasses(cls: type) -> List[type]:
    out: List[type] = []
    todo = [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def profile_call(fn: Callable[[], Any]) -> Tuple[Any, Dict[str, float]]:
    """Run ``fn`` under cProfile; return its result and self-time share
    per ``repro`` module (``net/control``), the rest pooled as ``other``."""
    prof = cProfile.Profile()
    result = prof.runcall(fn)
    stats = pstats.Stats(prof)
    by_module: Dict[str, float] = defaultdict(float)
    marker = os.sep + "repro" + os.sep
    for (filename, _line, _func), row in stats.stats.items():  # type: ignore[attr-defined]
        tottime = row[2]
        idx = filename.rfind(marker)
        if idx >= 0 and filename.endswith(".py"):
            module = filename[idx + len(marker):-3].replace(os.sep, "/")
        else:
            module = "other"
        by_module[module] += tottime
    total = sum(by_module.values()) or 1.0
    return result, {m: t / total for m, t in sorted(
        by_module.items(), key=lambda kv: -kv[1])}
