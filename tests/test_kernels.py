"""Property tests for the fused batch kernel (DESIGN.md §11).

The kernel's contract is *bit-identical answers*: for every REncoder
variant, the fused batch path must return exactly what the scalar
``query_range``/``query_point`` loop returns — including on the edge
geometries (width-1 ranges, the whole domain, the top key, an empty
filter).  Hypothesis searches key sets and query batches on a 24-bit
domain; seeded full 64-bit cases drive the tile descent through every
group size, cross-group plans, the mirror-root gate and the expansion
budget.  Dedicated tests pin the no-false-negative invariant, per-filter
kernel caching, the fetch accounting and the descent's bounded memory.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decompose import decompose
from repro.core.kernels import get_kernel
from repro.core.rencoder import REncoder
from repro.core.variants import REncoderPO, REncoderSE, REncoderSS

KEY_BITS = 24
TOP = (1 << KEY_BITS) - 1

VARIANTS = [REncoder, REncoderSS, REncoderSE, REncoderPO]


def _build(cls, keys, group_bits=8, **extra):
    kwargs = dict(key_bits=KEY_BITS, group_bits=group_bits)
    if cls is REncoderSE:
        kwargs["sample_queries"] = [(1, 2), (100, 200)]
    kwargs.update(extra)
    return cls(
        np.array(sorted(keys), dtype=np.uint64), 12 * len(keys), **kwargs
    )


#: Deterministic edge ranges appended to every hypothesis batch.
EDGE_RANGES = [
    (0, 0),            # width-1 at the bottom
    (TOP, TOP),        # width-1 at the very top
    (0, TOP),          # the whole domain
    (TOP - 63, TOP),   # window butting the top
]

ranges_strategy = st.lists(
    st.tuples(st.integers(0, TOP), st.integers(0, 400)).map(
        lambda t: (t[0], min(t[0] + t[1], TOP))
    ),
    min_size=1,
    max_size=25,
)


def _scalar_ranges(filt, ranges):
    return [filt.query_range(lo, hi) for lo, hi in ranges]


# ----------------------------------------------------------------------
# fused == scalar
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", VARIANTS)
@given(
    keys=st.sets(st.integers(0, TOP), min_size=1, max_size=40),
    ranges=ranges_strategy,
)
@settings(max_examples=15, deadline=None)
def test_fused_range_matches_scalar(cls, keys, ranges):
    filt = _build(cls, keys)
    ranges = ranges + EDGE_RANGES
    batch = filt.query_range_many(ranges)
    assert [bool(a) for a in batch] == _scalar_ranges(filt, ranges)


@pytest.mark.parametrize("cls", [REncoder, REncoderPO])
@given(keys=st.sets(st.integers(0, TOP), min_size=1, max_size=40))
@settings(max_examples=15, deadline=None)
def test_fused_point_matches_scalar(cls, keys):
    filt = _build(cls, keys)
    points = sorted(keys)[:5] + [0, TOP, (min(keys) + 1) & TOP]
    batch = filt.query_point_many(points)
    assert [bool(a) for a in batch] == [filt.query_point(p) for p in points]


@pytest.mark.parametrize("group_bits", [3, 4, 8])
def test_fused_has_no_false_negatives(group_bits):
    rng = np.random.default_rng(7)
    keys = rng.integers(0, TOP, size=500, dtype=np.uint64)
    filt = _build(REncoder, set(map(int, keys)), group_bits=group_bits)
    ranges = [(int(k), min(int(k) + 8, TOP)) for k in keys]
    assert all(bool(a) for a in filt.query_range_many(ranges))


def test_empty_filter_fused_matches_scalar():
    filt = REncoder(
        np.array([], dtype=np.uint64), 2048, key_bits=KEY_BITS
    )
    ranges = EDGE_RANGES + [(5, 500)]
    batch = filt.query_range_many(ranges)
    assert [bool(a) for a in batch] == _scalar_ranges(filt, ranges)


# ----------------------------------------------------------------------
# kernel caching and accounting
# ----------------------------------------------------------------------
def test_kernel_cache_reused_and_invalidated():
    filt = _build(REncoder, set(range(64)))
    filt.query_range_many([(1, 2)])
    kernel = filt._kernel_cache
    assert kernel is not None and get_kernel(filt) is kernel
    filt.query_range_many([(3, 4)])
    assert filt._kernel_cache is kernel  # same kernel object
    filt._finalise_levels()  # the only operation that changes the plan
    assert filt._kernel_cache is None
    # and a rebuilt kernel still agrees with the scalar loop
    ranges = [(i, i + 3) for i in range(0, 120, 7)]
    batch = filt.query_range_many(ranges)
    assert [bool(a) for a in batch] == _scalar_ranges(filt, ranges)


def test_union_result_fused_matches_scalar():
    a = _build(REncoder, set(range(0, 50)))
    b = _build(REncoder, set(range(1000, 1050)))
    merged = a.union(b)
    assert getattr(merged, "_kernel_cache", None) is None
    ranges = [(i, i + 1) for i in range(0, 1100, 13)] + EDGE_RANGES
    batch = merged.query_range_many(ranges)
    assert [bool(x) for x in batch] == _scalar_ranges(merged, ranges)


def test_fetch_count_accounting_on_kernel_path():
    # Keys 256 apart share 15 prefix bits, so the SS plan's deepest level
    # is 16: a 256-aligned, 256-wide range is one sub-range at level 16.
    filt = REncoderSS(
        np.arange(256, dtype=np.uint64) << np.uint64(8),
        12 * 256,
        key_bits=KEY_BITS,
        group_bits=8,
    )
    assert filt.deepest_level == 16
    ancestors = [l for l in filt.stored_levels if l < 16]
    assert ancestors
    filt.reset_counters()
    lo = 5 << 8  # holds key 5 << 8, so every ancestor probe passes
    assert filt.query_range_many([(lo, lo + 255)])[0]
    # Each ancestor probe reads k windows, and so does the one tile (the
    # mini-tree holding level 16) the descent fetches.
    assert filt.rbf.fetch_count == filt.rbf.k * (len(ancestors) + 1)


# ----------------------------------------------------------------------
# full 64-bit domain
# ----------------------------------------------------------------------
FULL_TOP = (1 << 64) - 1
EDGE_KEYS = [0, (1 << 63) - 1, (1 << 63) + 1, FULL_TOP]


def _full_domain_case(cls, group_bits, rng):
    """A 64-bit filter with a budget of 64, ranges up to 2^20 wide and
    point keys (half of them stored).

    Close key pairs (2^9-2^10 apart) push the SS plan down to levels
    ~48-55 and SE's sampled queries (20 past a key) down to ~60; the
    base and PO filters store their bottom 11 levels (``rmax`` 2^10).
    So every plan spans groups with a covering level stored.
    """
    keys = {int(k) for k in rng.integers(0, FULL_TOP, size=100, dtype=np.uint64)}
    for key in sorted(keys)[:4]:
        keys.add(min(key + int(rng.integers(1 << 9, 1 << 10)), FULL_TOP))
    keys = sorted(keys | set(EDGE_KEYS))
    extra = {"rmax": 1 << 10}
    if cls is REncoderSE:
        extra["sample_queries"] = [(k + 20, k + 25) for k in keys[1:20:4]]
    filt = cls(
        np.array(keys, dtype=np.uint64),
        24 * len(keys),
        key_bits=64,
        group_bits=group_bits,
        k=2,
        max_expansion=64,
        **extra,
    )
    ranges = []
    for _ in range(200):
        width = int(2 ** rng.uniform(0, 20))
        if rng.random() < 0.5:  # around a key: real matches, deep paths
            lo = keys[rng.integers(len(keys))] - int(rng.integers(0, width))
        else:
            lo = int(rng.integers(0, FULL_TOP, dtype=np.uint64))
        lo = min(max(lo, 0), FULL_TOP)
        ranges.append((lo, min(lo + width - 1, FULL_TOP)))
    # An empty aligned 2^16 block, then the key's block up to the key:
    # wide pieces whose tiles die in one group before the key's deep
    # piece enters the next.
    ranges += [((k >> 16 << 16) - (1 << 16), k) for k in keys[5:15]]
    ranges += [
        (0, 0),
        (FULL_TOP, FULL_TOP),
        (0, FULL_TOP),
        ((1 << 63) - 1, (1 << 63) + 1),
        (FULL_TOP - (1 << 20), FULL_TOP),
    ]
    points = keys[:20] + [
        int(k) for k in rng.integers(0, FULL_TOP, size=20, dtype=np.uint64)
    ]
    return filt, ranges, points + EDGE_KEYS


@pytest.mark.parametrize("group_bits", [3, 4, 8, 9])
@pytest.mark.parametrize("cls", VARIANTS)
def test_fused_matches_scalar_full_domain(cls, group_bits):
    rng = np.random.default_rng(group_bits)
    filt, ranges, points = _full_domain_case(cls, group_bits, rng)
    scalar = _scalar_ranges(filt, ranges)
    batch = filt.query_range_many(ranges)
    assert [bool(a) for a in batch] == scalar
    # One-range batches: a group's tiles often all die while a later
    # group still has the range's deeper sub-ranges to walk.
    singles = [bool(filt.query_range_many([r])[0]) for r in ranges[-15:]]
    assert singles == scalar[-15:]
    batch = filt.query_point_many(points)
    assert [bool(a) for a in batch] == [filt.query_point(p) for p in points]

    # The case reaches the paths it is here for.
    t = get_kernel(filt).tables
    lengths = [
        length
        for lo, hi in ranges
        for _, length in decompose(lo, hi, 64)
        if 0 < length <= filt.deepest_level
    ]
    # Some sub-range can run out of budget partway down...
    assert any(t.unit[l] <= 64 < t.worst[l] for l in lengths)
    if cls is not REncoderSS:
        # ...and some exhaust it on their first expansion.
        assert any(t.unit[l] > 64 for l in lengths)
    if cls in (REncoderSS, REncoderSE) and group_bits in (3, 4):
        stored = filt.stored_levels
        assert len({(l - 1) // group_bits for l in stored}) > 1
        assert any(
            l % group_bits == 0 and l < filt.deepest_level for l in stored
        )


# ----------------------------------------------------------------------
# bounded memory
# ----------------------------------------------------------------------
def test_descent_memory_does_not_grow_with_the_batch():
    rng = np.random.default_rng(11)
    keys = np.unique(rng.integers(0, FULL_TOP, size=5_000, dtype=np.uint64))
    kernel = get_kernel(REncoder(keys, bits_per_key=12))

    def peak(n):
        widths = (2 ** rng.uniform(7, 18, size=n)).astype(np.uint64)
        los = rng.integers(0, FULL_TOP - (1 << 18), size=n, dtype=np.uint64)
        his = los + widths - np.uint64(1)
        # Grow the per-thread arena first (its buffers are sized by a
        # slice, not the batch), so the peak is the call's own memory.
        kernel.range_many(los, his)
        tracemalloc.start()
        try:
            kernel.range_many(los, his)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(20_000) <= 1.5 * peak(1_000)
