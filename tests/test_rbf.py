"""Unit tests for the Range Bloom Filter."""

import numpy as np
import pytest

from repro.core.bitmap_tree import BitmapTreeCodec
from repro.core.rbf import RangeBloomFilter


def _bt(codec, suffix, nbits):
    return codec.encode_suffix(suffix, nbits)


class TestBasics:
    def test_fetch_of_inserted_bt_contains_it(self):
        codec = BitmapTreeCodec(8)
        rbf = RangeBloomFilter(1 << 16, k=3, group_bits=8)
        bt = _bt(codec, 0b10110011, 8)
        rbf.insert_bt(12345, bt)
        fetched = rbf.fetch_bt(12345)
        assert ((fetched & bt) == bt).all()

    def test_unrelated_key_mostly_empty(self):
        codec = BitmapTreeCodec(8)
        rbf = RangeBloomFilter(1 << 16, k=2, group_bits=8)
        rbf.insert_bt(1, _bt(codec, 0xAB, 8))
        fetched = rbf.fetch_bt(999999)
        # A sparse filter: the AND of k windows for a fresh key should be
        # (nearly) all zero.
        assert int(np.bitwise_count(fetched).sum()) <= 2

    def test_or_semantics_accumulate(self):
        codec = BitmapTreeCodec(8)
        rbf = RangeBloomFilter(1 << 16, k=2, group_bits=8)
        a, b = _bt(codec, 0x12, 8), _bt(codec, 0xEF, 8)
        rbf.insert_bt(7, a)
        rbf.insert_bt(7, b)
        fetched = rbf.fetch_bt(7)
        combined = a | b
        assert ((fetched & combined) == combined).all()

    def test_p1_monotone_under_inserts(self):
        codec = BitmapTreeCodec(8)
        rbf = RangeBloomFilter(1 << 14, k=2, group_bits=8)
        prev = rbf.p1
        assert prev == 0.0
        for key in range(50):
            rbf.insert_bt(key, _bt(codec, key % 256, 8))
            assert rbf.p1 >= prev
            prev = rbf.p1

    def test_counters(self):
        codec = BitmapTreeCodec(8)
        rbf = RangeBloomFilter(1 << 14, k=2, group_bits=8)
        rbf.insert_bt(1, _bt(codec, 3, 8))
        rbf.fetch_bt(1)
        rbf.fetch_bt(2)
        assert rbf.insert_count == 1
        assert rbf.fetch_count == 2 * rbf.k  # one probe per window read
        rbf.reset_counters()
        assert rbf.fetch_count == 0

    def test_copy_is_independent(self):
        codec = BitmapTreeCodec(8)
        rbf = RangeBloomFilter(1 << 14, k=2, group_bits=8)
        rbf.insert_bt(1, _bt(codec, 3, 8))
        clone = rbf.copy()
        assert clone.ones() == rbf.ones()
        clone.insert_bt(2, _bt(codec, 9, 8))
        assert clone.ones() >= rbf.ones()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            RangeBloomFilter(0)
        with pytest.raises(ValueError):
            RangeBloomFilter(1024, group_bits=11)


class TestUnalignedPlacement:
    def test_positions_are_bit_granular(self):
        rbf = RangeBloomFilter(64 * 100, k=1, group_bits=8)
        # 512-bit windows over 6400 bits: a window may start at ANY bit —
        # coarser placement would pin shallow-node bits to fixed in-word
        # offsets and saturate them.
        assert rbf.num_positions == 6400 - 512 + 1

    def test_small_bt_bit_granular(self):
        codec = BitmapTreeCodec(4)  # 32-bit BT placed at any bit offset
        rbf = RangeBloomFilter(64 * 10, k=2, group_bits=4)
        assert rbf.num_positions == 640 - 32 + 1
        bt = _bt(codec, 0b0100, 4)
        rbf.insert_bt(5, bt)
        fetched = rbf.fetch_bt(5)
        assert ((fetched & bt) == bt).all()

    def test_small_bt_word_straddle(self):
        # Force a position whose 32-bit window crosses a word boundary.
        codec = BitmapTreeCodec(4)
        for seed in range(40):
            rbf = RangeBloomFilter(64 * 4, k=1, group_bits=4, seed=seed)
            pos = rbf._family.positions(99)[0]
            if pos % 64 > 32:
                bt = _bt(codec, 0b1011, 4)
                rbf.insert_bt(99, bt)
                fetched = rbf.fetch_bt(99)
                assert ((fetched & bt) == bt).all()
                break
        else:  # pragma: no cover - seed search failed
            raise AssertionError("no straddling position found")

    def test_large_bt_word_straddle(self):
        # 512-bit BT at an unaligned bit offset round-trips exactly.
        codec = BitmapTreeCodec(8)
        for seed in range(40):
            rbf = RangeBloomFilter(64 * 40, k=1, group_bits=8, seed=seed)
            pos = rbf._family.positions(7)[0]
            if pos % 64:
                bt = _bt(codec, 0xC5, 8)
                rbf.insert_bt(7, bt)
                fetched = rbf.fetch_bt(7)
                assert (fetched == bt).all()  # only write: exact match
                break
        else:  # pragma: no cover - seed search failed
            raise AssertionError("no straddling position found")

    def test_shallow_bits_not_confined(self):
        # Depth-1 node bits (bit index 1 of each BT) must spread across
        # word offsets — the regression that motivated bit granularity.
        codec = BitmapTreeCodec(8)
        rbf = RangeBloomFilter(1 << 14, k=1, group_bits=8)
        bt = np.zeros(codec.words, dtype=np.uint64)
        codec.set_node(bt, 2)  # depth-1 node
        offsets = set()
        for key in range(200):
            pos = rbf._family.positions(key)[0]
            offsets.add((pos + 1) % 64)  # global offset of the node bit
        assert len(offsets) > 16


class TestBulkInsert:
    def test_bulk_matches_scalar(self):
        codec = BitmapTreeCodec(8)
        scalar = RangeBloomFilter(1 << 14, k=3, group_bits=8, seed=5)
        bulk = RangeBloomFilter(1 << 14, k=3, group_bits=8, seed=5)
        keys = np.arange(100, dtype=np.uint64) * 977
        nodes = (np.arange(100) % 511 + 1).astype(np.uint64)
        for key, node in zip(keys, nodes):
            bt = np.zeros(codec.words, dtype=np.uint64)
            codec.set_node(bt, int(node))
            scalar.insert_bt(int(key), bt)
        bulk.bulk_insert_nodes(keys, nodes)
        assert (scalar._array == bulk._array).all()

    def test_bulk_small_bt_matches_scalar(self):
        codec = BitmapTreeCodec(4)
        scalar = RangeBloomFilter(1 << 12, k=2, group_bits=4, seed=9)
        bulk = RangeBloomFilter(1 << 12, k=2, group_bits=4, seed=9)
        keys = np.arange(64, dtype=np.uint64) * 31
        nodes = (np.arange(64) % 31 + 1).astype(np.uint64)
        for key, node in zip(keys, nodes):
            bt = np.zeros(codec.words, dtype=np.uint64)
            codec.set_node(bt, int(node))
            scalar.insert_bt(int(key), bt)
        bulk.bulk_insert_nodes(keys, nodes)
        assert (scalar._array == bulk._array).all()

    def test_empty_bulk_is_noop(self):
        rbf = RangeBloomFilter(1 << 12, k=2)
        rbf.bulk_insert_nodes(np.zeros(0, dtype=np.uint64),
                              np.zeros(0, dtype=np.uint64))
        assert rbf.ones() == 0

    def test_length_mismatch_rejected(self):
        rbf = RangeBloomFilter(1 << 12, k=2)
        with pytest.raises(ValueError):
            rbf.bulk_insert_nodes(
                np.zeros(2, dtype=np.uint64), np.ones(3, dtype=np.uint64)
            )


class TestBatchFetch:
    def test_copy_preserves_block_bits(self):
        # Regression: copy() used to drop a custom block_bits, silently
        # rebuilding the clone with the group_bits-derived default.
        rbf = RangeBloomFilter(1 << 14, k=2, group_bits=4, block_bits=256)
        clone = rbf.copy()
        assert clone.block_bits == rbf.block_bits == 256
        assert clone.words_per_block == rbf.words_per_block
        assert clone.num_positions == rbf.num_positions
        rng = np.random.default_rng(0)
        for key in rng.integers(0, 1 << 20, 32, dtype=np.uint64):
            assert (clone.fetch_bt(int(key)) == rbf.fetch_bt(int(key))).all()

    def test_fetched_bt_is_not_a_view(self):
        # Mutating a fetched BT must never alter filter state, even for
        # the word-aligned fast path where the window starts as a view.
        codec = BitmapTreeCodec(8)
        hit_aligned = False
        for key in range(3000):
            rbf = RangeBloomFilter(1 << 13, k=1, group_bits=8, seed=7)
            pos = rbf._family.positions(key)[0]
            before = rbf._array.copy()
            fetched = rbf.fetch_bt(key)
            fetched |= np.uint64(0xFFFF_FFFF_FFFF_FFFF)
            assert (rbf._array == before).all()
            if pos % 64 == 0:
                hit_aligned = True
                break
        assert hit_aligned, "no word-aligned position found in 3000 keys"


class TestGenerationAndCounters:
    """Generation tracking + thread-safe counters (``generation`` is a
    telemetry gauge of structural age; the service's concurrent workers
    must never lose counter increments)."""

    def test_insert_bumps_generation(self):
        codec = BitmapTreeCodec(8)
        rbf = RangeBloomFilter(1 << 16, k=2, group_bits=8)
        assert rbf.generation == 0
        rbf.insert_bt(7, _bt(codec, 0x12, 8))
        assert rbf.generation == 1
        rbf.insert_bt(7, _bt(codec, 0x34, 8))
        assert rbf.generation == 2

    def test_bulk_insert_bumps_generation_once(self):
        codec = BitmapTreeCodec(8)
        rbf = RangeBloomFilter(1 << 16, k=2, group_bits=8)
        bt = _bt(codec, 0b1011, 4)
        nodes = np.nonzero(bt)[0].astype(np.int64)
        keys = np.array([11, 22, 33], dtype=np.uint64)
        hash_keys = np.repeat(keys, len(nodes))
        all_nodes = np.tile(nodes, len(keys))
        rbf.bulk_insert_nodes(hash_keys, all_nodes)
        assert rbf.generation == 1  # one structural change, one bump
        assert rbf.insert_count == len(hash_keys)

    def test_reset_counters_preserves_generation(self):
        codec = BitmapTreeCodec(8)
        rbf = RangeBloomFilter(1 << 16, k=2, group_bits=8)
        rbf.insert_bt(7, _bt(codec, 0x12, 8))
        rbf.fetch_bt(7)
        rbf.reset_counters()
        assert rbf.fetch_count == 0 and rbf.insert_count == 0
        assert rbf.generation == 1  # counters reset; structure age kept

    def test_copy_preserves_generation(self):
        codec = BitmapTreeCodec(8)
        rbf = RangeBloomFilter(1 << 16, k=2, group_bits=8)
        rbf.insert_bt(7, _bt(codec, 0x12, 8))
        clone = rbf.copy()
        assert clone.generation == rbf.generation == 1
        clone.insert_bt(9, _bt(codec, 0x56, 8))
        assert clone.generation == 2 and rbf.generation == 1

    def test_counters_exact_under_contention(self):
        """Concurrent fetches/inserts never lose counter increments."""
        import threading

        codec = BitmapTreeCodec(8)
        rbf = RangeBloomFilter(1 << 18, k=3, group_bits=8)
        bt = _bt(codec, 0xA5, 8)
        rbf.insert_bt(0, bt)
        per_thread, n_threads = 500, 6

        def fetcher(seed):
            for i in range(per_thread):
                rbf.fetch_bt(seed * per_thread + i)

        def inserter(seed):
            for i in range(per_thread):
                rbf.insert_bt(seed * per_thread + i, bt)

        threads = [
            threading.Thread(target=fetcher, args=(s,)) for s in range(3)
        ] + [
            threading.Thread(target=inserter, args=(s,)) for s in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert rbf.fetch_count == 3 * per_thread * rbf.k
        assert rbf.insert_count == 1 + 3 * per_thread
        assert rbf.generation == 1 + 3 * per_thread
