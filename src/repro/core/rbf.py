"""Range Bloom Filter (RBF) — a Bloom filter that inserts whole bitmaps.

The RBF is the paper's storage layer (Section III-A, Algorithm 2).  It is a
plain ``m``-bit array.  It differs from a standard Bloom filter in its unit
of work:

* **insert** hashes a *hash prefix* to ``k`` positions and ORs an entire
  Bitmap Tree into the array starting at each position
  (``*(array + pos) |= bt`` — the paper's single AVX-512 store);
* **fetch** hashes a hash prefix to the same ``k`` positions and returns
  the AND of the ``k`` BT-sized windows — a combined BT in which a node bit
  is 1 only if *all* ``k`` copies are 1, so one fetch answers membership
  for every node of the mini-tree (the locality the paper exploits).

Positions are *bit-granular and unaligned*: a BT may start at any bit
offset, so BTs from different hash prefixes overlap at arbitrary shifts
(the paper's ``*(array + pos) |= bt`` with the pointer read at its finest
granularity; SIMD realises it with one shift before the wide OR).  This
is essential for accuracy, not a detail — under any coarser aligned
placement, the couple of bit positions per window that hold each
mini-tree's shallow nodes saturate long before the deep-node positions,
destroying the discriminating power of the shallow levels.  Bit-granular
placement keeps the density uniform at the global load factor ``P1``,
which is what the Section IV analysis assumes (and what reproduces the
paper's accuracy results — see EXPERIMENTS.md).

Bit-for-bit, the ones written are the same prefixes Rosetta's per-level
Bloom filters would write (``k`` positions each), which is why the paper
argues REncoder's accuracy matches Rosetta while needing a fraction of the
memory accesses.

Implementation notes
--------------------
The array is ``numpy.uint64`` with one pad word, so an unaligned window
is two slice operations (shift low | shift high); both the multi-word
(``group_bits >= 6``) and sub-word (the worked example's 32-bit BTs)
layouts are exercised by the tests.

Bulk construction uses ``np.bitwise_or.at`` so inserting one segment-tree
level for the whole key set is a handful of vectorised calls.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.hashing.mix64 import HashFamily
from repro.telemetry.instrument import Instrumented
from repro.telemetry.tracing import current_span

__all__ = ["RangeBloomFilter"]


class RangeBloomFilter(Instrumented):
    """Bloom filter over Bitmap Trees with unaligned block placement.

    Parameters
    ----------
    total_bits:
        Memory budget ``m`` in bits; rounded down to whole words (at least
        one Bitmap Tree).
    k:
        Number of hash functions (window positions per insert/fetch).
    group_bits:
        ``B`` — levels per mini-tree; a Bitmap Tree is ``2^(B+1)`` bits.
    seed:
        Master seed for the hash family.
    """

    def __init__(
        self,
        total_bits: int,
        k: int = 2,
        group_bits: int = 8,
        seed: int = 0,
        block_bits: int | None = None,
    ) -> None:
        if total_bits < 1:
            raise ValueError(f"total_bits must be positive, got {total_bits}")
        if not 1 <= group_bits <= 9:
            raise ValueError(f"group_bits must be in [1, 9], got {group_bits}")
        self.group_bits = group_bits
        if block_bits is None:
            block_bits = 1 << (group_bits + 1)
        if block_bits < 8 or block_bits & (block_bits - 1):
            raise ValueError(
                f"block_bits must be a power of two >= 8, got {block_bits}"
            )
        self.block_bits = block_bits
        self.words_per_block = max(1, self.block_bits // 64)
        nwords = max(self.words_per_block, total_bits // 64)
        self.bits = nwords * 64
        self.k = k
        self.seed = seed
        # One zero pad word lets unaligned window reads/writes use plain
        # slices without bounds branches; it is never set and is not
        # counted in ``bits``.
        self._array = np.zeros(nwords + 1, dtype=np.uint64)
        self._nwords = nwords
        # Placement is BIT-granular: a BT may start at any bit offset, so
        # every node bit of every BT is uniformly distributed over the
        # array.  Granularity is load-bearing, not cosmetic: with coarser
        # (word/lane-aligned) placement, the couple of bits per window
        # that hold a mini-tree's depth-1 nodes would be confined to a few
        # fixed in-word offsets and would saturate long before the
        # deep-node bits, silently destroying the shallow levels'
        # discriminating power.  (A SIMD implementation realises the same
        # placement with one shift before the wide OR.)  Each of the k
        # windows lands independently anywhere in [0, bits - block_bits],
        # so a BT never straddles the array end.
        self._block_mask = (1 << self.block_bits) - 1
        self.num_positions = self.bits - self.block_bits + 1
        self._family = HashFamily(k, self.num_positions, seed)
        # Statistics used by the bench harness and the adaptive level
        # logic.  Guarded by a lock: service workers probe one shared
        # filter concurrently, and `+=` on a shared attribute is a
        # read-modify-write that would silently lose increments.
        self._stats_lock = threading.Lock()
        self.fetch_count = 0
        self.insert_count = 0
        #: Bumped on every mutation (insert_bt / bulk_insert_nodes) and
        #: exported as a telemetry gauge, so two observations of the
        #: filter show whether its bit array changed in between.
        self.generation = 0
        self._ones_dirty = True
        self._ones_cache = 0

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def placement_params(self) -> dict:
        """Placement constants the fused kernel folds into its tables."""
        return {
            "buckets": self.num_positions,
            "seeds": np.asarray(self._family._seeds_arr, dtype=np.uint64),
        }

    # ------------------------------------------------------------------
    # scalar path
    # ------------------------------------------------------------------
    def insert_bt(self, hash_key: int, bt: np.ndarray) -> None:
        """OR the BT into the ``k`` windows selected by ``hash_key``."""
        with self._stats_lock:
            self.insert_count += 1
            self.generation += 1
            self._ones_dirty = True
        arr = self._array
        w = self.words_per_block
        for pos in self._family.positions(hash_key):
            word, shift = divmod(pos, 64)
            if shift == 0:
                arr[word : word + w] |= bt
            else:
                sh = np.uint64(shift)
                co = np.uint64(64 - shift)
                arr[word : word + w] |= bt << sh
                arr[word + 1 : word + 1 + w] |= bt >> co

    def fetch_bt(self, hash_key: int) -> np.ndarray:
        """AND of the ``k`` windows selected by ``hash_key`` (combined BT).

        ``fetch_count`` advances by ``k`` — one per window read — so probe
        counts are comparable with the per-hash probes of the Bloom-based
        baselines.
        """
        with self._stats_lock:
            self.fetch_count += self.k
        sp = current_span()
        if sp is not None:
            sp.add("rbf_fetches", self.k)
        arr = self._array
        w = self.words_per_block
        combined: np.ndarray | None = None
        for pos in self._family.positions(hash_key):
            word, shift = divmod(pos, 64)
            if shift == 0:
                window = arr[word : word + w]
            else:
                sh = np.uint64(shift)
                co = np.uint64(64 - shift)
                window = (arr[word : word + w] >> sh) | (
                    arr[word + 1 : word + 1 + w] << co
                )
            if combined is None:
                # The aligned path's ``window`` is a *view* of ``_array``;
                # copy before it can escape (or be AND-ed in place below),
                # so no caller can mutate filter state through a fetched
                # BT.  The unaligned path already produced a fresh array.
                combined = window.copy() if shift == 0 else window
            else:
                combined &= window
        if self.block_bits < 64:
            combined[0] &= np.uint64(self._block_mask)
        return combined

    # ------------------------------------------------------------------
    # vectorised path
    # ------------------------------------------------------------------
    def bulk_insert_nodes(self, hash_keys: np.ndarray, nodes: np.ndarray) -> None:
        """Set one node bit per (hash_key, node) pair, vectorised.

        ``hash_keys`` selects windows (``k`` each); ``nodes`` are 1-based
        BFS node numbers inside the corresponding mini-tree.  This is the
        bulk equivalent of inserting single-bit BTs and is what the
        level-by-level adaptive construction uses: one call per (level,
        hash function) sets the bits for every key via
        ``np.bitwise_or.at``.
        """
        if len(hash_keys) != len(nodes):
            raise ValueError("hash_keys and nodes must have equal length")
        if len(hash_keys) == 0:
            return
        with self._stats_lock:
            self.insert_count += len(hash_keys)
            self.generation += 1
            self._ones_dirty = True
        bits = nodes.astype(np.uint64) - np.uint64(1)
        bitpos = self._family.positions_array(hash_keys) + bits[None, :]
        words = bitpos >> np.uint64(6)
        masks = np.uint64(1) << (bitpos & np.uint64(63))
        for i in range(self.k):
            np.bitwise_or.at(self._array, words[i], masks[i])

    # ------------------------------------------------------------------
    # load factor
    # ------------------------------------------------------------------
    def ones(self) -> int:
        """Number of set bits in the array."""
        with self._stats_lock:
            if self._ones_dirty:
                self._ones_cache = int(np.bitwise_count(self._array).sum())
                self._ones_dirty = False
            return self._ones_cache

    @property
    def p1(self) -> float:
        """``P1`` — the proportion of ones; FPR is near-minimal at ~0.5."""
        return self.ones() / self.bits

    def size_in_bits(self) -> int:
        """Occupied memory in bits (the figure used for BPK accounting)."""
        return self.bits

    #: Pull-based gauges for :meth:`Instrumented.telemetry` — the load
    #: factor the adaptive logic targets plus the probe/mutation tallies.
    _TELEMETRY = (
        "p1",
        "bits",
        "k",
        "group_bits",
        "fetch_count",
        "insert_count",
        "generation",
    )

    def reset_counters(self) -> None:
        """Zero the probe statistics (not the bit array or generation)."""
        with self._stats_lock:
            self.fetch_count = 0
            self.insert_count = 0

    def copy(self) -> "RangeBloomFilter":
        """Deep copy, sharing nothing with the original."""
        clone = RangeBloomFilter(
            self.bits,
            self.k,
            self.group_bits,
            self.seed,
            block_bits=self.block_bits,
        )
        clone._array[:] = self._array
        clone.generation = self.generation
        clone._ones_dirty = True
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RangeBloomFilter(bits={self.bits}, k={self.k}, "
            f"group_bits={self.group_bits}, p1={self.p1:.3f})"
        )
