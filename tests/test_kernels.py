"""Property tests for the fused batch kernel (DESIGN.md §11).

The kernel's contract is *bit-identical answers*: for every REncoder
variant, the fused batch path must return exactly what the scalar
``query_range``/``query_point`` loop returns — including on the edge
geometries (width-1 ranges, the whole domain, the top key, an empty
filter).  Hypothesis searches key sets and query batches; dedicated
tests pin the no-false-negative invariant, per-filter kernel caching
and the probe accounting.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    filt = _build(REncoder, set(range(256)))
    filt.reset_counters()
    filt.query_range_many([(i, i + 7) for i in range(0, 256, 5)])
    # one fetch per (hash seed, probe); the kernel books k per probe
    assert filt.rbf.fetch_count > 0
    assert filt.rbf.fetch_count % filt.rbf.k == 0
