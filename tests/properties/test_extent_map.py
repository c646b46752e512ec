"""Extent maps against a linear reference, and the delta splice.

``ExtentMap`` resolves by bisecting running prefix sums; the reference
here walks the runs one block at a time, the way the map resolved before
it kept them.  Both must agree on every random append sequence.  The
delta protocol's client half must rebuild exactly the server's map from
any known prefix plus the shipped tail.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.storage import Extent, ExtentMap
from repro.storage.blockmap import extents_from_payload, extents_to_payload


def ref_resolve(runs, lb):
    """Linear-walk resolution over a plain list of extents."""
    if lb < 0:
        raise IndexError(lb)
    for e in runs:
        if lb < e.length:
            return (e.device, e.start_lba + lb)
        lb -= e.length
    raise IndexError(lb)


def ref_resolve_range(runs, start, count):
    """Per-block resolution, merging physically contiguous blocks."""
    out = []
    for lb in range(start, start + count):
        dev, lba = ref_resolve(runs, lb)
        if out and out[-1][0] == dev and out[-1][1] + out[-1][2] == lba:
            out[-1] = (dev, out[-1][1], out[-1][2] + 1)
        else:
            out.append((dev, lba, 1))
    return out


#: Runs on up to three devices; a zero gap makes a run physically
#: continue its predecessor, so merges across run boundaries occur.
runs_st = st.lists(st.tuples(st.sampled_from(["d1", "d2", "d3"]),
                             st.integers(min_value=0, max_value=3),
                             st.integers(min_value=1, max_value=9)),
                   max_size=12)


def build(spec):
    """Append runs one at a time, as the server's allocator does."""
    em = ExtentMap()
    cursor = {}
    for dev, gap, length in spec:
        start = cursor.get(dev, 0) + gap
        em.append(Extent(dev, start, length))
        cursor[dev] = start + length
    return em


@settings(max_examples=200, deadline=None)
@given(spec=runs_st)
def test_map_agrees_with_linear_reference(spec):
    em = build(spec)
    runs = list(em.extents)
    total = sum(e.length for e in runs)
    assert em.block_count == total
    physical = [ref_resolve(runs, lb) for lb in range(total)]
    assert [em.resolve(lb) for lb in range(total)] == physical
    assert list(em.iter_physical()) == physical
    for bad in (-1, total, total + 3):
        with pytest.raises(IndexError):
            em.resolve(bad)


@settings(max_examples=200, deadline=None)
@given(spec=runs_st, data=st.data())
def test_resolve_range_agrees_with_reference(spec, data):
    em = build(spec)
    total = em.block_count
    start = data.draw(st.integers(min_value=0, max_value=total))
    count = data.draw(st.integers(min_value=0, max_value=total - start))
    assert em.resolve_range(start, count) == \
        ref_resolve_range(em.extents, start, count)
    with pytest.raises(IndexError):
        em.resolve_range(start, total - start + 1)
    if total:
        with pytest.raises(IndexError):
            em.resolve_range(-1, 1)


@settings(max_examples=200, deadline=None)
@given(spec=runs_st, data=st.data())
def test_splice_of_known_prefix_and_shipped_tail_is_the_full_map(spec, data):
    full = build(spec)
    # What a client adopted earlier: the map after its first k appends.
    k = data.draw(st.integers(min_value=0, max_value=len(spec)))
    known = build(spec[:k])
    shipped = extents_to_payload(full)
    for n in range(k + 1):
        tail = extents_from_payload(shipped[n:])
        got = known.spliced(n, tail)
        assert got == full
        assert got is not known and got.extents is not known.extents
        assert got.block_count == full.block_count
        assert [got.resolve(lb) for lb in range(got.block_count)] == \
            [full.resolve(lb) for lb in range(full.block_count)]
        assert full.spliced(n, full.tail(n)) == full
    # Neither input changed.
    assert known == build(spec[:k])


def test_splice_rejects_prefix_beyond_known_map():
    known = ExtentMap([Extent("d", 0, 2)])
    with pytest.raises(ValueError):
        known.spliced(2, ExtentMap())
    with pytest.raises(ValueError):
        known.spliced(-1, ExtentMap())

