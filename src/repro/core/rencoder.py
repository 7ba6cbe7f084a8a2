"""REncoder — the paper's core contribution (Section III).

REncoder answers range membership by storing the implicit prefix segment
tree of the key set in a :class:`~repro.core.rbf.RangeBloomFilter`:

* **Insertion** (Algorithms 1–2): each key's prefixes are grouped into
  mini-trees of ``group_bits`` consecutive levels, each mini-tree path is
  encoded as a Bitmap Tree, and the BT is OR-ed into the RBF at the ``k``
  positions selected by hashing the *hash prefix* (the key bits above the
  mini-tree).
* **Query** (Algorithms 3–4): the target range is dyadically decomposed
  into prefix-aligned sub-ranges; each sub-range is verified by (a)
  checking every *stored ancestor level* of its prefix and (b) a
  depth-first "doubting" traversal from the prefix down to the deepest
  stored level.  One RBF fetch serves every node probe that lands in the
  same mini-tree — the locality that makes REncoder fast.
* **Adaptive stored levels** (Section III-C): with a fixed memory budget,
  FPR is near-minimal when the RBF load factor ``P1`` is about 0.5, so
  construction inserts levels in rounds and stops at the round where ``P1``
  reaches the target.  The base REncoder always stores the mandatory bottom
  ``log2(Rmax) + 1`` levels (needed for the Section IV error bound) and
  grows upward; the SS/SE variants in :mod:`repro.core.variants` choose
  different starting levels and directions.

Implementation notes
--------------------
* Levels are numbered by prefix length: level ``l`` holds the length-``l``
  prefixes; level ``key_bits`` is the keys themselves.
* A prefix of length ``l`` lives in group ``g = ceil(l / B)`` at mini-tree
  node ``2^d | (last d bits)`` where ``d = l - (g-1)B``.
* Group-boundary levels (``l % B == 0``) are additionally mirrored into the
  *root bit* of the next group's mini-tree, exactly as in the paper's
  Figure 2 insertion example; queries use the mirror to zero out a fetched
  BT whose root proves the hash prefix was never inserted.
* Unstored levels answer "unknown": queries treat them as present and the
  doubting traversal skips straight to the next stored level (with a
  conservative expansion cap so adversarially wide gaps degrade to a
  harmless ``True`` rather than exponential work).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.bitmap_tree import BitmapTreeCodec
from repro.core import kernels
from repro.core.decompose import decompose
from repro.core.rbf import RangeBloomFilter
from repro.filters.base import RangeFilter, as_key_array
from repro.hashing.mix64 import seeds_for
from repro.telemetry.tracing import current_span

__all__ = ["REncoder", "DEFAULT_RMAX"]

#: The paper stores at most ``log2(64) + 1`` levels mandatorily because
#: "filters are more suitable for range queries of R <= 64" (Section III-C).
DEFAULT_RMAX = 64


class REncoder(RangeFilter):
    """The base REncoder (use case C: no sampling, bounded error).

    Parameters
    ----------
    keys:
        The key set (any iterable of non-negative ints; deduplicated).
    total_bits:
        Memory budget.  If ``None``, ``bits_per_key * len(keys)`` is used.
    bits_per_key:
        Budget expressed per key (the BPK axis of every figure).
    key_bits:
        Key width ``L`` (default 64, as in the paper).
    k:
        Hash functions of the RBF, or ``"auto"`` (default).  Auto applies
        the paper's Corollaries 3–4: prefer spending memory on more stored
        levels over more hash copies, so ``k = ln2 · bpk / (mandatory
        levels + 1)`` clamped to [1, 5] — 1–2 for the base REncoder (seven
        mandatory levels), higher for SS/SE whose plan starts from a
        single discriminating level.
    group_bits:
        ``B`` — prefix levels per Bitmap Tree.  8 reproduces the paper's
        512-bit AVX configuration; 4 reproduces the worked example.
    rmax:
        Maximum range size the filter must answer with full accuracy; the
        bottom ``log2(rmax) + 1`` levels are always stored.
    levels_per_round:
        ``n_r`` — how many optional levels each adaptive round inserts.
    target_p1:
        Load-factor target at which adaptive insertion stops (paper: 0.5).
    seed:
        Hash seed (reproducibility).
    max_expansion:
        Cap on how many skipped-level descendants a single sub-range
        verification may enumerate before conservatively answering True.
    ancestor_checks:
        Whether verification first probes every stored ancestor level of
        a sub-range prefix (Section III-C's "additional queries").  On by
        default; exposed for the ablation bench, which quantifies how
        much of REncoder's FPR comes from this step.
    """

    name = "REncoder"

    def __init__(
        self,
        keys: Iterable[int] | np.ndarray,
        total_bits: int | None = None,
        *,
        bits_per_key: float = 16.0,
        key_bits: int = 64,
        k: "int | str" = "auto",
        group_bits: int = 8,
        rmax: int = DEFAULT_RMAX,
        levels_per_round: int = 1,
        target_p1: float = 0.5,
        seed: int = 0,
        max_expansion: int = 4096,
        ancestor_checks: bool = True,
    ) -> None:
        super().__init__(key_bits)
        self.ancestor_checks = ancestor_checks
        if rmax < 1:
            raise ValueError(f"rmax must be positive, got {rmax}")
        if levels_per_round < 1:
            raise ValueError(
                f"levels_per_round must be positive, got {levels_per_round}"
            )
        if not 0.0 < target_p1 <= 1.0:
            raise ValueError(f"target_p1 must be in (0, 1], got {target_p1}")

        key_arr = as_key_array(keys)
        if key_arr.size and int(key_arr[-1]) >= (1 << key_bits):
            raise ValueError(
                f"key {int(key_arr[-1])} outside {key_bits}-bit domain"
            )
        self.n_keys = int(key_arr.size)
        if total_bits is None:
            total_bits = max(64, int(round(bits_per_key * max(1, self.n_keys))))
        self.rmax = rmax
        self.levels_per_round = levels_per_round
        self.target_p1 = target_p1
        self.max_expansion = max_expansion
        self.codec = BitmapTreeCodec(group_bits)
        self.group_bits = group_bits
        self.num_groups = (key_bits + group_bits - 1) // group_bits
        # Per-group tags decorrelate hash prefixes of different lengths
        # before they enter the shared hash family.
        self._group_tags = seeds_for(self.num_groups + 2, seed ^ 0x7461_6773)
        self._stored = np.zeros(key_bits + 1, dtype=bool)
        self._zero_bt = np.zeros(self.codec.words, dtype=np.uint64)
        # The zero BT is handed out through probe caches; freeze it so a
        # caller mutating a fetched BT raises instead of corrupting state.
        self._zero_bt.setflags(write=False)

        mandatory, optional = self._plan_levels(key_arr)
        if k == "auto":
            # Corollaries 3-4: favour stored levels over hash copies — but
            # never drop below two hashes, which Theorem 6 (queries close
            # to keys) still needs for correlated robustness.
            bpk = total_bits / max(1, self.n_keys)
            k = min(5, max(2, int(0.6931 * bpk / (len(mandatory) + 1))))
        elif not (isinstance(k, int) and k >= 1):
            raise ValueError(f'k must be a positive int or "auto", got {k!r}')
        self.rbf = RangeBloomFilter(total_bits, k, group_bits, seed)
        self._build(key_arr, mandatory, optional)
        self._finalise_levels()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _plan_levels(self, keys: np.ndarray) -> tuple[list[int], list[int]]:
        """Mandatory levels, then optional levels in insertion order.

        Base REncoder: the bottom ``log2(rmax) + 1`` levels are mandatory
        (deepest first), then optional levels continue upward toward the
        root.  Overridden by the SS/SE variants.
        """
        depth = min(self.key_bits, (self.rmax - 1).bit_length() + 1)
        lowest = self.key_bits - depth + 1
        mandatory = list(range(self.key_bits, lowest - 1, -1))
        optional = list(range(lowest - 1, 0, -1))
        return mandatory, optional

    def _build(
        self,
        keys: np.ndarray,
        mandatory: Sequence[int],
        optional: Sequence[int],
    ) -> None:
        for level in mandatory:
            self._insert_level_bulk(keys, level)
        if keys.size:
            pos = 0
            while pos < len(optional) and self.rbf.p1 < self.target_p1:
                for level in optional[pos : pos + self.levels_per_round]:
                    self._insert_level_bulk(keys, level)
                pos += self.levels_per_round
        else:
            # No keys: still mark the planned optional levels as stored so
            # queries prune on their (all-zero) bits.
            for level in optional:
                self._stored[level] = True
        self.final_p1 = self.rbf.p1

    def _insert_level_bulk(self, keys: np.ndarray, level: int) -> None:
        """Insert every key's length-``level`` prefix, vectorised."""
        if not 1 <= level <= self.key_bits:
            raise ValueError(f"level {level} outside [1, {self.key_bits}]")
        self._stored[level] = True
        if keys.size == 0:
            return
        prefixes = np.unique(keys >> np.uint64(self.key_bits - level))
        group, depth, hp_len = self._locate(level)
        hp = (
            prefixes >> np.uint64(depth)
            if hp_len
            else np.zeros(len(prefixes), dtype=np.uint64)
        )
        tagged = hp ^ np.uint64(self._group_tags[group])
        nodes = np.uint64(1 << depth) | (
            prefixes & np.uint64((1 << depth) - 1)
        )
        self.rbf.bulk_insert_nodes(tagged, nodes)
        # Mirror a group-boundary level into the next group's root bit
        # (the paper's BT always carries its mini-tree root).
        if depth == self.group_bits and level < self.key_bits:
            mirror_tag = np.uint64(self._group_tags[group + 1])
            ones = np.ones(len(prefixes), dtype=np.uint64)
            self.rbf.bulk_insert_nodes(prefixes ^ mirror_tag, ones)

    def insert(self, key: int) -> None:
        """Insert one key's stored-level prefixes (incremental updates).

        The stored-level plan is fixed at construction; the paper rebuilds
        filters on LSM merges, but single inserts are convenient for the
        memtable-flush path of the storage substrates.
        """
        if not 0 <= key < (1 << self.key_bits):
            raise ValueError(f"key {key} outside {self.key_bits}-bit domain")
        for level in self._stored_sorted:
            prefix = key >> (self.key_bits - level)
            group, depth, hp_len = self._locate(level)
            hp = prefix >> depth if hp_len else 0
            node = (1 << depth) | (prefix & ((1 << depth) - 1))
            bt = np.zeros(self.codec.words, dtype=np.uint64)
            self.codec.set_node(bt, node)
            self.rbf.insert_bt(hp ^ self._group_tags[group], bt)
            if depth == self.group_bits and level < self.key_bits:
                mirror = np.zeros(self.codec.words, dtype=np.uint64)
                self.codec.set_node(mirror, 1)
                self.rbf.insert_bt(prefix ^ self._group_tags[group + 1], mirror)
        self.n_keys += 1

    def _finalise_levels(self) -> None:
        stored = np.flatnonzero(self._stored)
        self._stored_sorted = [int(l) for l in stored if l >= 1]
        if not self._stored_sorted:
            raise RuntimeError("REncoder built with no stored levels")
        self._deepest = self._stored_sorted[-1]
        self._shallowest = self._stored_sorted[0]
        # next stored level strictly deeper than l, for the skip-DFS.
        self._next_stored = [0] * (self.key_bits + 1)
        nxt = 0
        for l in range(self.key_bits, -1, -1):
            self._next_stored[l] = nxt
            if self._stored[l]:
                nxt = l
        # The level plan is baked into any fused kernel's tables; drop it.
        self._kernel_cache = None

    def _locate(self, level: int) -> tuple[int, int, int]:
        """(group, depth-in-group, hash-prefix length) of a level."""
        group = (level + self.group_bits - 1) // self.group_bits
        hp_len = (group - 1) * self.group_bits
        return group, level - hp_len, hp_len

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query_range(self, lo: int, hi: int) -> bool:
        """One-sided range membership for ``[lo, hi]`` (Algorithm 3)."""
        self._check_range(lo, hi)
        cache: dict[tuple[int, int], np.ndarray] = {}
        return any(
            self._verify(prefix, length, cache)
            for prefix, length in decompose(lo, hi, self.key_bits)
        )

    def query_point(self, key: int) -> bool:
        """Point membership = degenerate range query on ``[key, key]``."""
        self._check_range(key, key)
        return self._verify(key, self.key_bits, {})

    def _verify(
        self,
        prefix: int,
        length: int,
        cache: dict[tuple[int, int], np.ndarray],
    ) -> bool:
        """Verification stage for one sub-range prefix.

        Checks every stored ancestor level first (the paper's "additional
        queries" optimisation), then runs the doubting DFS from the prefix
        down to the deepest stored level.
        """
        if length == 0:
            # Whole-domain query: non-empty iff any key was inserted.
            return self.n_keys > 0
        if self.ancestor_checks:
            for level in self._stored_sorted:
                if level >= length:
                    break
                if not self._probe(prefix >> (length - level), level, cache):
                    return False
        if length > self._deepest:
            # Nothing stored below; the surviving ancestors are our answer.
            return True
        return self._descend(prefix, length, cache)

    def _descend(
        self,
        prefix: int,
        length: int,
        cache: dict[tuple[int, int], np.ndarray],
    ) -> bool:
        """Doubting DFS from ``(prefix, length)`` to the deepest level."""
        budget = self.max_expansion
        stack: list[tuple[int, int]] = [(prefix, length)]
        while stack:
            node_prefix, level = stack.pop()
            if self._stored[level] and not self._probe(
                node_prefix, level, cache
            ):
                continue
            if level >= self._deepest:
                return True
            nxt = self._next_stored[level]
            gap = nxt - level
            budget -= 1 << gap
            if budget < 0:
                return True  # conservative: never a false negative
            base = node_prefix << gap
            for ext in range((1 << gap) - 1, -1, -1):
                stack.append((base | ext, nxt))
        return False

    # ------------------------------------------------------------------
    # batch queries
    # ------------------------------------------------------------------
    def query_range_many(self, ranges) -> np.ndarray:
        """Batch :meth:`query_range` — bit-identical, vectorised.

        Runs on the fused kernel (:mod:`repro.core.kernels`): dyadic
        decomposition, hash mixing and RBF bit tests in one pass over
        the whole batch.  Accepts any ``(n, 2)``-shaped sequence of
        ``(lo, hi)`` pairs and returns a boolean array.
        """
        los, his = self._split_ranges(ranges)
        if los.size == 0:
            return np.zeros(0, dtype=bool)
        top = (1 << self.key_bits) - 1
        if (los > his).any() or int(his.max()) > top:
            raise ValueError(
                f"invalid range in batch for {self.key_bits}-bit keys"
            )
        return kernels.get_kernel(self).range_many(los, his)

    def query_point_many(self, keys) -> np.ndarray:
        """Batch :meth:`query_point` — bit-identical, vectorised.

        Runs on the fused kernel like :meth:`query_range_many`; the
        kernel's point plan is variant-aware (see
        :class:`~repro.core.kernels.fused.KernelTables`).
        """
        keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        if self.key_bits < 64 and int(keys.max()) >= (1 << self.key_bits):
            raise ValueError(
                f"key outside {self.key_bits}-bit domain in batch"
            )
        return kernels.get_kernel(self).point_many(keys)

    @staticmethod
    def _split_ranges(ranges) -> tuple[np.ndarray, np.ndarray]:
        """Normalise a batch of ``(lo, hi)`` pairs to two uint64 arrays."""
        arr = np.asarray(ranges, dtype=np.uint64)
        if arr.size == 0:
            empty = np.zeros(0, dtype=np.uint64)
            return empty, empty
        if arr.ndim == 1 and arr.size == 2:
            arr = arr.reshape(1, 2)
        if arr.ndim != 2 or (arr.size and arr.shape[1] != 2):
            raise ValueError(
                f"expected an (n, 2) batch of ranges, got shape {arr.shape}"
            )
        return arr[:, 0].copy(), arr[:, 1].copy()

    def _probe(
        self,
        prefix: int,
        level: int,
        cache: dict[tuple[int, int], np.ndarray],
    ) -> bool:
        """Membership bit for a stored-level prefix (Algorithm 4)."""
        group, depth, hp_len = self._locate(level)
        sp = current_span()
        if sp is not None:
            sp.add("filter_probes", 1)
            sp.add(f"probes_l{level}", 1)
        hp = prefix >> depth if hp_len else 0
        key = (group, hp)
        bt = cache.get(key)
        if bt is not None and sp is not None:
            sp.add("cache_hits", 1)
        if bt is None:
            bt = self.rbf.fetch_bt(hp ^ self._group_tags[group])
            if (
                hp_len
                and self._stored[hp_len]
                and not self.codec.get_node(bt, 1)
            ):
                # Mirror root bit is 0: this hash prefix was never inserted,
                # so every node of the mini-tree is genuinely absent.
                bt = self._zero_bt
            cache[key] = bt
        node = (1 << depth) | (prefix & ((1 << depth) - 1))
        return self.codec.get_node(bt, node)

    # ------------------------------------------------------------------
    # self-checks
    # ------------------------------------------------------------------
    def verify_invariants(
        self,
        keys: "Iterable[int] | np.ndarray | None" = None,
        *,
        sample: int = 32,
    ) -> bool:
        """Deep structural self-check; raises on violation, returns True.

        Used by ``serialize.loads`` after reconstruction and by the
        SSTable recovery path after reloading a persisted filter, as
        defence in depth behind the CRC: a blob whose bytes verify but
        whose fields are mutually inconsistent (or a live filter damaged
        by a bug) is caught here.  Checks:

        * geometry — group count, hash-tag table, codec word width and
          the frozen zero-BT all agree with ``key_bits``/``group_bits``;
        * the RBF — array length matches its declared bit count, the pad
          word is untouched, and the load factor is a probability;
        * the stored-level bitmap — ``_stored_sorted`` (and the derived
          deepest/shallowest/next-stored tables) is exactly the set bits
          of ``_stored``;
        * optionally, the one-sided guarantee on ``sample`` evenly
          spaced source keys (see the base class).

        Raises :class:`~repro.core.errors.FilterCorruptionError` with a
        specific message on the first violation.
        """
        from repro.core.errors import FilterCorruptionError

        def fail(msg: str) -> None:
            raise FilterCorruptionError(
                f"{type(self).__name__} invariant violated: {msg}"
            )

        if self.n_keys < 0:
            fail(f"negative n_keys {self.n_keys}")
        expected_groups = (
            self.key_bits + self.group_bits - 1
        ) // self.group_bits
        if self.num_groups != expected_groups:
            fail(
                f"num_groups={self.num_groups}, expected {expected_groups} "
                f"for key_bits={self.key_bits}, group_bits={self.group_bits}"
            )
        if len(self._group_tags) != self.num_groups + 2:
            fail(
                f"{len(self._group_tags)} group tags for "
                f"{self.num_groups} groups (expected num_groups + 2)"
            )
        if self.codec.bt_bits != (1 << (self.group_bits + 1)):
            fail(
                f"codec encodes {self.codec.bt_bits}-bit BTs, geometry "
                f"implies {1 << (self.group_bits + 1)}"
            )
        if self._zero_bt.shape != (self.codec.words,) or self._zero_bt.any():
            fail("zero-BT template is not an all-zero codec-width array")
        # RBF consistency.
        rbf = self.rbf
        if rbf.bits != rbf._nwords * 64:
            fail(f"RBF bits={rbf.bits} != {rbf._nwords} words * 64")
        if rbf._array.shape != (rbf._nwords + 1,):
            fail(
                f"RBF array has {rbf._array.shape[0]} words, expected "
                f"{rbf._nwords} + 1 pad"
            )
        if int(rbf._array[-1]) != 0:
            fail("RBF pad word is non-zero")
        p1 = rbf.p1
        if not 0.0 <= p1 <= 1.0:
            fail(f"load factor P1={p1} is not a probability")
        # Stored-level bitmap vs the derived structures.
        if self._stored.shape != (self.key_bits + 1,):
            fail(
                f"stored bitmap has {self._stored.shape[0]} slots, "
                f"expected key_bits + 1 = {self.key_bits + 1}"
            )
        levels = [int(l) for l in np.flatnonzero(self._stored) if l >= 1]
        if self._stored_sorted != levels:
            fail(
                f"stored-level list {self._stored_sorted} does not match "
                f"bitmap {levels}"
            )
        if not levels:
            fail("no stored levels")
        if self._deepest != levels[-1] or self._shallowest != levels[0]:
            fail(
                f"deepest/shallowest ({self._deepest}/{self._shallowest}) "
                f"disagree with stored levels {levels}"
            )
        nxt = 0
        for l in range(self.key_bits, -1, -1):
            if self._next_stored[l] != nxt:
                fail(
                    f"next-stored table wrong at level {l}: "
                    f"{self._next_stored[l]} != {nxt}"
                )
            if self._stored[l]:
                nxt = l
        return super().verify_invariants(keys, sample=sample)

    # ------------------------------------------------------------------
    # set algebra
    # ------------------------------------------------------------------
    def union(self, other: "REncoder") -> "REncoder":
        """Filter for the union of two key sets, without the keys.

        Sound whenever both filters share geometry (key width, group size,
        hash family, array size): the bit arrays are OR-ed and the stored
        level set becomes the *intersection* — a level only one side
        stored cannot be trusted for the other side's keys, so the merged
        filter stops consulting it.  Never introduces false negatives;
        may be slightly less accurate than a rebuild (the paper's LSM
        integration rebuilds on merge; union is the cheap alternative
        when the source tables' filters are compatible).
        """
        if type(other) is not type(self):
            raise TypeError(
                f"cannot union {type(self).__name__} with "
                f"{type(other).__name__}"
            )
        same = (
            self.key_bits == other.key_bits
            and self.group_bits == other.group_bits
            and self.rbf.k == other.rbf.k
            and self.rbf.seed == other.rbf.seed
            and self.rbf.bits == other.rbf.bits
            and self.rmax == other.rmax
        )
        if not same:
            raise ValueError("filters have incompatible geometry")
        merged = type(self).__new__(type(self))
        for attr in (
            "key_bits", "rmax", "levels_per_round", "target_p1",
            "max_expansion", "ancestor_checks", "codec", "group_bits",
            "num_groups", "_group_tags", "_zero_bt",
        ):
            setattr(merged, attr, getattr(self, attr))
        merged.n_keys = self.n_keys + other.n_keys
        merged.rbf = self.rbf.copy()
        merged.rbf._array |= other.rbf._array
        merged.rbf._ones_dirty = True
        merged._stored = self._stored & other._stored
        if not merged._stored.any():
            raise ValueError(
                "filters share no stored levels; rebuild instead of union "
                f"({self.stored_levels} vs {other.stored_levels})"
            )
        merged._finalise_levels()
        merged.final_p1 = merged.rbf.p1
        for attr in ("l_kk", "l_kq", "_sample_queries"):
            if hasattr(self, attr):
                setattr(merged, attr, getattr(self, attr))
        return merged

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def size_in_bits(self) -> int:
        return self.rbf.size_in_bits()

    @property
    def probe_count(self) -> int:
        """RBF block fetches — the paper's memory-access count."""
        return self.rbf.fetch_count

    def reset_counters(self) -> None:
        self.rbf.reset_counters()

    @property
    def stored_levels(self) -> list[int]:
        """The levels the adaptive construction chose, ascending."""
        return list(self._stored_sorted)

    # Pull-based gauges (see repro.telemetry.instrument): the adaptive
    # construction's outcome plus the cumulative probe count.
    _TELEMETRY = (
        "size_in_bits",
        "n_keys",
        "final_p1",
        "stored_level_count",
        "deepest_level",
        "shallowest_level",
        "probe_count",
    )

    @property
    def stored_level_count(self) -> int:
        """How many levels the adaptive construction stored."""
        return len(self._stored_sorted)

    @property
    def deepest_level(self) -> int:
        """Deepest (longest-prefix) stored level."""
        return self._deepest

    @property
    def shallowest_level(self) -> int:
        """Shallowest (shortest-prefix) stored level."""
        return self._shallowest

    def predicted_fpr(self, range_size: int = 32) -> float:
        """Theorem 2's bound evaluated at this filter's own parameters.

        Uses the built filter's measured ``P1``, its stored-level count
        and hash count, and ``Lq = ceil(log2(range_size))``.  An upper
        bound on the FPR for empty queries of the given size — compare
        with measured FPR in EXPERIMENTS.md / the Table II bench.
        """
        from repro.analysis.bounds import fpr_bound

        if range_size < 1:
            raise ValueError(f"range_size must be >= 1, got {range_size}")
        l_query = max(1, (range_size - 1).bit_length())
        l_stored = max(l_query, len(self._stored_sorted))
        p1 = min(0.999, max(1e-6, self.final_p1))
        return fpr_bound(p1, l_stored, l_query, self.rbf.k)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        levels = self._stored_sorted
        span = f"[{levels[0]}..{levels[-1]}]" if levels else "[]"
        return (
            f"{type(self).__name__}(n={self.n_keys}, bits={self.size_in_bits()}, "
            f"levels={span} ({len(levels)}), p1={self.final_p1:.3f})"
        )
