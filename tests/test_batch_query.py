"""Property tests for the vectorised batch query engine.

The batch engine's contract is *bit-identical answers*: for every
REncoder variant, geometry (``group_bits`` 4 and 8, sub-word
``block_bits``) and workload, ``query_range_many`` must return exactly
what a sequential ``query_range`` loop would, and likewise for the point
paths.  Hypothesis searches key sets and query batches; dedicated tests
pin the no-false-negative invariant on the batch path, the
``decompose_batch`` ≡ ``decompose`` equivalence, and the LSM batch reads
(results *and* I/O accounting).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decompose import decompose, decompose_batch
from repro.core.rencoder import REncoder
from repro.core.variants import REncoderPO, REncoderSE, REncoderSS
from repro.storage.env import StorageEnv
from repro.storage.lsm import LSMTree

KEY_BITS = 24
TOP = (1 << KEY_BITS) - 1

VARIANTS = [REncoder, REncoderSS, REncoderSE, REncoderPO]


def _build(cls, keys, group_bits):
    kwargs = dict(key_bits=KEY_BITS, group_bits=group_bits)
    if cls is REncoderSE:
        kwargs["sample_queries"] = [(1, 2), (100, 200)]
    return cls(np.array(sorted(keys), dtype=np.uint64), 12 * len(keys), **kwargs)


ranges_strategy = st.lists(
    st.tuples(st.integers(0, TOP), st.integers(0, 400)).map(
        lambda t: (t[0], min(t[0] + t[1], TOP))
    ),
    min_size=1,
    max_size=30,
)


@pytest.mark.parametrize("cls", VARIANTS)
@pytest.mark.parametrize("group_bits", [4, 8])
@given(
    keys=st.sets(st.integers(0, TOP), min_size=1, max_size=50),
    ranges=ranges_strategy,
)
@settings(max_examples=25, deadline=None)
def test_query_range_many_matches_scalar(cls, group_bits, keys, ranges):
    filt = _build(cls, keys, group_bits)
    batch = filt.query_range_many(ranges)
    scalar = [filt.query_range(lo, hi) for lo, hi in ranges]
    assert [bool(a) for a in batch] == scalar


@pytest.mark.parametrize("cls", VARIANTS)
@given(
    keys=st.sets(st.integers(0, TOP), min_size=1, max_size=50),
    points=st.lists(st.integers(0, TOP), min_size=1, max_size=30),
)
@settings(max_examples=25, deadline=None)
def test_query_point_many_matches_scalar(cls, keys, points):
    filt = _build(cls, keys, 8)
    batch = filt.query_point_many(np.array(points, dtype=np.uint64))
    scalar = [filt.query_point(p) for p in points]
    assert [bool(a) for a in batch] == scalar


@given(keys=st.sets(st.integers(0, TOP), min_size=1, max_size=60))
@settings(max_examples=25, deadline=None)
def test_batch_path_has_no_false_negatives(keys):
    filt = _build(REncoder, keys, 8)
    arr = np.array(sorted(keys), dtype=np.uint64)
    assert all(filt.query_point_many(arr))
    ranges = [(int(k), min(int(k) + 7, TOP)) for k in arr]
    assert all(filt.query_range_many(ranges))


@pytest.mark.parametrize("group_bits", [3, 4, 5])
def test_subword_block_bits_batch_matches_scalar(group_bits):
    # group_bits <= 5 gives sub-word (<= 64-bit) Bitmap Tree blocks.
    rng = np.random.default_rng(group_bits)
    keys = np.unique(rng.integers(0, TOP, 200, dtype=np.uint64))
    filt = _build(REncoder, keys.tolist(), group_bits)
    assert filt.rbf.block_bits <= 64
    los = rng.integers(0, TOP - 500, 300, dtype=np.uint64)
    ranges = [(int(lo), int(lo) + int(w)) for lo, w in
              zip(los, rng.integers(0, 500, 300))]
    batch = filt.query_range_many(ranges)
    assert [bool(a) for a in batch] == [
        filt.query_range(lo, hi) for lo, hi in ranges
    ]


@given(
    spans=st.lists(
        st.tuples(st.integers(0, TOP), st.integers(0, TOP)).map(
            lambda t: (min(t), max(t))
        ),
        min_size=1,
        max_size=20,
    ),
)
@settings(max_examples=50, deadline=None)
def test_decompose_batch_matches_scalar(spans):
    los = np.array([lo for lo, _ in spans], dtype=np.uint64)
    his = np.array([hi for _, hi in spans], dtype=np.uint64)
    qidx, prefixes, lengths = decompose_batch(los, his, KEY_BITS)
    for q, (lo, hi) in enumerate(spans):
        mine = [
            (int(p), int(l))
            for p, l in zip(prefixes[qidx == q], lengths[qidx == q])
        ]
        assert mine == decompose(lo, hi, KEY_BITS)


def test_decompose_batch_full_64bit_domain():
    qidx, prefixes, lengths = decompose_batch(
        np.array([0], dtype=np.uint64),
        np.array([(1 << 64) - 1], dtype=np.uint64),
        64,
    )
    assert list(zip(prefixes.tolist(), lengths.tolist())) == [(0, 0)]


def _fresh_tree(seed=11):
    env = StorageEnv()
    tree = LSMTree(
        lambda ks: REncoder(ks, 12 * len(ks), key_bits=KEY_BITS),
        memtable_capacity=128,
        env=env,
    )
    rng = np.random.default_rng(seed)
    for k in rng.integers(0, TOP, 1200, dtype=np.uint64):
        tree.put(int(k), int(k) + 1)
    for k in rng.integers(0, TOP, 30, dtype=np.uint64):
        tree.delete(int(k))
    return tree, env


def test_lsm_get_many_matches_scalar_with_identical_io():
    t1, e1 = _fresh_tree()
    t2, e2 = _fresh_tree()
    rng = np.random.default_rng(5)
    queries = [int(k) for k in rng.integers(0, TOP, 300, dtype=np.uint64)]
    queries += [int(k) for k, _ in t1.range_query(0, TOP)[:100]]
    e1.reset(); e2.reset()
    scalar = [t1.get(k) for k in queries]
    assert t2.get_many(queries) == scalar
    assert e1.stats == e2.stats


def test_lsm_range_query_many_matches_scalar_with_identical_io():
    t1, e1 = _fresh_tree()
    t2, e2 = _fresh_tree()
    rng = np.random.default_rng(6)
    ranges = []
    for _ in range(120):
        lo = int(rng.integers(0, TOP - 2000))
        ranges.append((lo, lo + int(rng.integers(0, 2000))))
    e1.reset(); e2.reset()
    scalar = [t1.range_query(lo, hi) for lo, hi in ranges]
    assert t2.range_query_many(ranges) == scalar
    assert e1.stats == e2.stats


class TestInsertThenQuery:
    """A key inserted between two batches must answer True in the second.

    The fused kernel is cached per filter, but it reads the RBF array at
    call time, so an insert can never leave a later batch looking at
    stale bits — which would be a false negative, the one error class
    this codebase forbids.  Covers the range and point paths on the base
    filter and on PO (whose point plan differs).
    """

    def _enc(self, cls, keys):
        return cls(
            np.array(sorted(keys), dtype=np.uint64),
            64 * len(keys),
            key_bits=KEY_BITS,
        )

    @pytest.mark.parametrize("cls", [REncoder, REncoderPO])
    def test_post_insert_key_visible_to_next_range_batch(self, cls):
        enc = self._enc(cls, [100])
        assert not enc.query_range_many([(200, 200), (100, 100)])[0]
        enc.insert(200)
        assert enc.query_range_many([(200, 200), (100, 100)]).all()
        assert enc.query_range(200, 200)

    @pytest.mark.parametrize("cls", [REncoder, REncoderPO])
    def test_post_insert_key_visible_to_next_point_batch(self, cls):
        enc = self._enc(cls, [100])
        assert not enc.query_point_many([300, 100])[0]
        enc.insert(300)
        assert enc.query_point_many([300, 100]).all()
        assert enc.query_point(300)
