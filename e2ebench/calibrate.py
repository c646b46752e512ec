"""A fixed reference load that measures how fast this host runs Python now.

The benchmark's host-time metrics are reported in *reference seconds*:
the measured seconds scaled by how fast the host ran this fixed load
between the chunks of the same timed phase (see README.md, "Host
speed").  The load imports nothing from the simulator, so a change to
the simulator cannot move it.  It mimics what the simulator spends its
time on: a heap of timed events, generator processes resumed one step
at a time, small objects, dict routing and string keys.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter
from typing import Dict, Generator, List, Tuple

#: Seconds one ``measure()`` takes on the reference host (a 2.1 GHz
#: Xeon vCPU, Python 3.11): the time scale of reference seconds.
REFERENCE_S = 0.032

_NODES = 64
_PROCS = 48
_STEPS = 150


class _Msg:
    __slots__ = ("src", "dst", "kind", "size")

    def __init__(self, src: int, dst: int, kind: str, size: int) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.size = size


def _proc(pid: int, inbox: Dict[str, List[_Msg]],
          ) -> Generator[float, None, int]:
    state = pid * 2654435761 % 1000003
    sent = 0
    for _ in range(_STEPS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        dst = state % _NODES
        key = f"n{dst}:{'rw'[state & 1]}"
        inbox.setdefault(key, []).append(
            _Msg(pid, dst, key, state & 0xFFF))
        if len(inbox[key]) > 8:
            inbox[key] = [m for m in inbox[key] if m.size & 1]
        sent += 1
        yield ((state >> 8) & 0xFF) / 256.0 + 1e-3
    return sent


def load() -> int:
    """Run the fixed load once; return a checksum of what it did."""
    inbox: Dict[str, List[_Msg]] = {}
    procs = [_proc(i, inbox) for i in range(_PROCS)]
    heap: List[Tuple[float, int]] = [(0.0, i) for i in range(_PROCS)]
    done = 0
    while heap:
        now, pid = heapq.heappop(heap)
        try:
            delay = next(procs[pid])
        except StopIteration as stop:
            done += stop.value
            continue
        heapq.heappush(heap, (now + delay, pid))
    return done + sum(len(v) for v in inbox.values())


def measure() -> float:
    """Host seconds the fixed load takes right now.

    The cyclic collector is off meanwhile, so that the size of whatever
    else lives in the process cannot change the load's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        load()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
