"""Extents and file-offset → device-block resolution.

Storage Tank separates metadata from data (paper §1.1): servers keep the
location of each file's blocks on their private high-performance store;
the shared disks hold only data blocks.  An :class:`ExtentMap` is that
piece of metadata: an ordered list of :class:`Extent` runs mapping a
file's logical block space onto ``(device, lba)`` ranges.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator, List, Tuple

#: Bytes per data block on the shared disks.
BLOCK_SIZE = 4096


@dataclass(frozen=True)
class Extent:
    """A contiguous run of blocks on one device."""

    device: str
    start_lba: int
    length: int

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError(f"extent length must be positive, got {self.length}")
        if self.start_lba < 0:
            raise ValueError(f"negative start_lba {self.start_lba}")

    @property
    def end_lba(self) -> int:
        """One past the last lba of the run."""
        return self.start_lba + self.length

    def overlaps(self, other: "Extent") -> bool:
        """Whether two extents share any physical block."""
        return (self.device == other.device
                and self.start_lba < other.end_lba
                and other.start_lba < self.end_lba)


@dataclass
class ExtentMap:
    """Logical-block → physical-block mapping for one file.

    A live file's map only grows, one run at a time, through
    :meth:`append` (never by changing ``extents`` directly).  Alongside
    the runs the map keeps their running prefix sums (``_ends[i]`` is one
    past the last logical block of run ``i``), so :attr:`block_count` is
    O(1) and :meth:`resolve` bisects.
    """

    extents: List[Extent] = field(default_factory=list)
    _ends: List[int] = field(default_factory=list, init=False, repr=False,
                             compare=False)

    def __post_init__(self) -> None:
        self._ends = list(accumulate(e.length for e in self.extents))

    @property
    def block_count(self) -> int:
        """Total mapped logical blocks."""
        ends = self._ends
        return ends[-1] if ends else 0

    @property
    def size_bytes(self) -> int:
        """Mapped capacity in bytes."""
        return self.block_count * BLOCK_SIZE

    def append(self, extent: Extent) -> None:
        """Grow the file by one extent (allocator responsibility to avoid
        overlap with other files)."""
        total = self.block_count
        self.extents.append(extent)
        self._ends.append(total + extent.length)

    def tail(self, n: int) -> "ExtentMap":
        """A new map of the runs after the first ``n``."""
        return ExtentMap(self.extents[n:])

    def spliced(self, n: int, tail: "ExtentMap") -> "ExtentMap":
        """A new map of this map's first ``n`` runs followed by ``tail``'s.

        Neither input changes.  Inverse of :meth:`tail`: for every
        ``0 <= n <= len(m.extents)``, ``m.spliced(n, m.tail(n)) == m``.
        """
        ends = self._ends
        if not 0 <= n <= len(ends):
            raise ValueError(f"prefix of {n} runs, map has {len(ends)}")
        out = ExtentMap()
        out.extents = self.extents[:n] + tail.extents
        base = ends[n - 1] if n else 0
        out._ends = ends[:n] + [base + end for end in tail._ends]
        return out

    def resolve(self, logical_block: int) -> Tuple[str, int]:
        """Physical ``(device, lba)`` of a logical block index."""
        ends = self._ends
        i = bisect_right(ends, logical_block)
        if logical_block < 0 or i == len(ends):
            raise self._unmapped(logical_block)
        e = self.extents[i]
        return (e.device, e.start_lba + e.length - ends[i] + logical_block)

    def resolve_range(self, logical_start: int, count: int) -> List[Tuple[str, int, int]]:
        """Physical runs ``(device, lba, length)`` covering a logical range.

        Runs that are physically contiguous on one device are merged,
        also across extent boundaries."""
        if count <= 0:
            return []
        stop = logical_start + count
        total = self.block_count
        if logical_start < 0 or stop > total:
            # Named by the first block of the range that does not resolve.
            raise self._unmapped(logical_start if logical_start < 0
                                 else max(logical_start, total))
        ends = self._ends
        runs: List[Tuple[str, int, int]] = []
        lb = logical_start
        i = bisect_right(ends, lb)
        while lb < stop:
            e = self.extents[i]
            n = min(ends[i], stop) - lb
            lba = e.end_lba - (ends[i] - lb)
            if runs and runs[-1][0] == e.device and \
                    runs[-1][1] + runs[-1][2] == lba:
                dev0, lba0, len0 = runs[-1]
                runs[-1] = (dev0, lba0, len0 + n)
            else:
                runs.append((e.device, lba, n))
            lb += n
            i += 1
        return runs

    def _unmapped(self, logical_block: int) -> IndexError:
        if logical_block < 0:
            return IndexError(f"negative logical block {logical_block}")
        return IndexError(f"logical block {logical_block} beyond mapped "
                          f"extent ({self.block_count} blocks)")

    def iter_physical(self) -> Iterator[Tuple[str, int]]:
        """All (device, lba) pairs in logical order."""
        for e in self.extents:
            for lba in range(e.start_lba, e.end_lba):
                yield (e.device, lba)


def extents_to_payload(extents: "ExtentMap") -> List[Tuple[str, int, int]]:
    """Wire form of an extent map for control-network replies: one
    ``(device, start_lba, length)`` entry per run."""
    return [(e.device, e.start_lba, e.length) for e in extents.extents]


def extents_from_payload(runs: List[Tuple[str, int, int]]) -> "ExtentMap":
    """Parse the wire form back into an extent map."""
    return ExtentMap([Extent(device, int(start), int(length))
                      for device, start, length in runs])


def bytes_to_blocks(nbytes: int) -> int:
    """Blocks needed to hold ``nbytes`` (ceiling division)."""
    if nbytes < 0:
        raise ValueError(f"negative byte count {nbytes}")
    return (nbytes + BLOCK_SIZE - 1) // BLOCK_SIZE


def byte_range_to_blocks(offset: int, nbytes: int) -> Tuple[int, int]:
    """Logical ``(first_block, block_count)`` covering a byte range."""
    if offset < 0 or nbytes < 0:
        raise ValueError("negative offset or length")
    if nbytes == 0:
        return (offset // BLOCK_SIZE, 0)
    first = offset // BLOCK_SIZE
    last = (offset + nbytes - 1) // BLOCK_SIZE
    return (first, last - first + 1)
