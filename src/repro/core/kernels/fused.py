"""Fused decompose+probe batch kernel.

A probe never materialises a combined Bitmap Tree to read one bit out
of it; it computes that bit directly:

    probe(prefix, level)  =  AND_i  arr[pos_i + node - 1]           (node bit)
                          [ AND_i  arr[pos_i] ]                      (mirror root)

where ``pos_i`` is the ``i``-th window start of the prefix's mini-tree.
Hash mixing (splitmix64), position reduction, and the bit tests run
fused over preallocated uint64 arrays (:class:`Arena`), so one level of
one batch is ~``3k`` vectorised passes and ``k`` (or ``2k`` with the
mirror) single-word gathers — no BT materialisation, no sorting, no
per-level Python round-trips.

Bit-equivalence to the scalar descent (``tests/test_kernels.py``)
follows from the identity above: the scalar path ANDs ``k`` whole
windows and then reads bit ``node-1`` (zeroing the BT when the combined
root bit is absent); AND-then-read equals read-then-AND bit by bit.

The doubting traversal runs level-synchronously over the whole batch
(:meth:`NumpyKernel._descend`).  The scalar :meth:`REncoder._descend`
answers True iff some root-to-deepest path survives every stored-level
probe or the expansion budget runs out — both independent of traversal
order — so the breadth-first frontier with the same per-sub-range
budget gives the scalar DFS's answers.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.decompose import decompose_batch
from repro.telemetry.profiler import profile_phase
from repro.telemetry.tracing import current_span

__all__ = ["KernelTables", "NumpyKernel", "Arena"]

_U1 = np.uint64(1)
_U6 = np.uint64(6)
_U63 = np.uint64(63)
_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)

class KernelTables:
    """Per-filter constants flattened into plain arrays.

    Everything the kernel needs to probe without touching Python objects:
    per-level geometry (depth in group, group hash tag, mirror-root
    flag), the stored-level plan, and the RBF placement parameters.
    Built once per filter (lazily, via :func:`repro.core.kernels.get_kernel`).
    The RBF *array* is not captured — the kernel reads
    ``filt.rbf._array`` at call time, so in-place inserts are always
    visible.
    """

    __slots__ = (
        "key_bits", "group_bits", "k", "depth", "tag", "mirror",
        "stored", "next_stored", "deepest", "stored_levels",
        "point_levels", "max_expansion", "ancestor_checks", "seeds",
        "buckets",
    )

    def __init__(self, filt) -> None:
        kb = filt.key_bits
        gb = filt.group_bits
        self.key_bits = kb
        self.group_bits = gb
        self.k = filt.rbf.k
        self.depth = np.zeros(kb + 1, dtype=np.int64)
        self.tag = np.zeros(kb + 1, dtype=np.uint64)
        self.mirror = np.zeros(kb + 1, dtype=bool)
        stored = np.asarray(filt._stored, dtype=bool).copy()
        for level in range(1, kb + 1):
            group, depth, hp_len = filt._locate(level)
            self.depth[level] = depth
            self.tag[level] = np.uint64(filt._group_tags[group])
            self.mirror[level] = bool(hp_len and stored[hp_len])
        self.stored = stored
        self.next_stored = np.asarray(filt._next_stored, dtype=np.int64)
        self.deepest = int(filt._deepest)
        self.stored_levels = np.asarray(filt._stored_sorted, dtype=np.int64)
        self.point_levels = self._plan_point_levels(filt)
        self.max_expansion = int(filt.max_expansion)
        self.ancestor_checks = bool(filt.ancestor_checks)
        params = filt.rbf.placement_params()
        self.seeds = np.asarray(params["seeds"], dtype=np.uint64)
        self.buckets = np.uint64(params["buckets"])

    @staticmethod
    def _plan_point_levels(filt) -> np.ndarray:
        """Stored levels a point query probes, ascending.

        Mirrors the scalar paths: the base filter checks every stored
        ancestor (when ``ancestor_checks``) plus the key level itself;
        the PO variant probes only the levels inside the deepest
        mini-tree (its defining optimisation).
        """
        from repro.core.variants import REncoderPO

        kb = filt.key_bits
        if isinstance(filt, REncoderPO):
            deepest = filt._deepest
            group_start = ((deepest - 1) // filt.group_bits) * filt.group_bits
            levels = [
                l for l in filt._stored_sorted
                if group_start < l <= deepest
            ]
        elif filt.ancestor_checks:
            levels = [l for l in filt._stored_sorted if l <= kb]
        else:
            levels = [kb] if filt._stored[kb] else []
        return np.asarray(levels, dtype=np.int64)


class Arena:
    """Named, growable uint64/intp scratch buffers for one thread.

    The fused kernel's per-level temporaries (hash prefixes, positions,
    bit indices, accumulators) all come from here, so steady-state
    probing performs no allocations — the "preallocated uint64 arrays"
    the kernel contract promises.  Buffers grow geometrically and are
    never shared across threads (each kernel keeps one arena per thread
    via ``threading.local``).
    """

    __slots__ = ("_bufs",)

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}

    def u64(self, name: str, n: int) -> np.ndarray:
        """The named uint64 buffer, grown (1.5x headroom) only when the
        current one holds fewer than ``n`` elements."""
        buf = self._bufs.get(name)
        if buf is None or buf.size < n:
            buf = np.empty(max(n + n // 2, 64), dtype=np.uint64)
            self._bufs[name] = buf
        return buf[:n]


def _mix64_into(x: np.ndarray, t: np.ndarray) -> None:
    """In-place splitmix64 finalizer over ``x`` (``t`` is scratch)."""
    np.right_shift(x, _S30, out=t)
    np.bitwise_xor(x, t, out=x)
    np.multiply(x, _C1, out=x)
    np.right_shift(x, _S27, out=t)
    np.bitwise_xor(x, t, out=x)
    np.multiply(x, _C2, out=x)
    np.right_shift(x, _S31, out=t)
    np.bitwise_xor(x, t, out=x)


class NumpyKernel:
    """Fused vectorised batch kernel over a bound filter."""

    def __init__(self, filt) -> None:
        self.filt = filt
        self.tables = KernelTables(filt)
        self._local = threading.local()

    def _arena(self) -> Arena:
        arena = getattr(self._local, "arena", None)
        if arena is None:
            arena = self._local.arena = Arena()
        return arena

    # ------------------------------------------------------------------
    # fused probe
    # ------------------------------------------------------------------
    def _probe_bits(self, prefixes: np.ndarray, level: int) -> np.ndarray:
        """Membership bits for same-level prefixes — fused bit tests.

        Bit-identical to ``REncoder._probe``: the node bit ANDed over
        the ``k`` windows, ANDed with the mirror-root bit when the
        hash-prefix level is stored.
        """
        t = self.tables
        a = self._arena()
        arr = self.filt.rbf._array
        n = prefixes.size
        depth = np.uint64(t.depth[level])
        maskd = (_U1 << depth) - _U1
        mirror = bool(t.mirror[level])

        hp = a.u64("hp", n)
        np.right_shift(prefixes, depth, out=hp)
        np.bitwise_xor(hp, t.tag[level], out=hp)
        nodebit = a.u64("nodebit", n)
        np.bitwise_and(prefixes, maskd, out=nodebit)
        np.add(nodebit, maskd, out=nodebit)

        acc = a.u64("acc", n)
        pos = a.u64("pos", n)
        tmp = a.u64("tmp", n)
        scr = a.u64("scr", n)
        first = True
        for seed in t.seeds:
            np.bitwise_xor(hp, seed, out=pos)
            _mix64_into(pos, tmp)
            np.mod(pos, t.buckets, out=pos)
            # Node bit: arr[(pos + nodebit) >> 6] >> ((pos + nodebit) & 63).
            np.add(pos, nodebit, out=tmp)
            np.right_shift(tmp, _U6, out=scr)
            word = np.take(arr, scr.astype(np.intp, copy=False))
            np.bitwise_and(tmp, _U63, out=tmp)
            np.right_shift(word, tmp, out=word)
            if first:
                np.copyto(acc, word)
            else:
                np.bitwise_and(acc, word, out=acc)
            first = False
            if mirror:
                # Root bit of the same window: arr[pos >> 6] >> (pos & 63).
                np.right_shift(pos, _U6, out=scr)
                word = np.take(arr, scr.astype(np.intp, copy=False))
                np.bitwise_and(pos, _U63, out=tmp)
                np.right_shift(word, tmp, out=word)
                np.bitwise_and(acc, word, out=acc)
        np.bitwise_and(acc, _U1, out=acc)
        return acc != 0

    # ------------------------------------------------------------------
    # range queries
    # ------------------------------------------------------------------
    def range_many(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Batch range membership — fused pipeline, scalar-identical."""
        filt = self.filt
        t = self.tables
        n = los.size
        answers = np.zeros(n, dtype=bool)
        if n == 0:
            return answers
        probes = 0
        with profile_phase("kernel.decompose"):
            qidx, prefixes, lengths = decompose_batch(
                los, his, t.key_bits, ordered=False
            )
        whole = lengths == 0
        if whole.any():
            answers[qidx[whole]] = filt.n_keys > 0
            keep = ~whole
            qidx, prefixes, lengths = qidx[keep], prefixes[keep], lengths[keep]
        alive = np.ones(lengths.size, dtype=bool)
        if t.ancestor_checks and lengths.size:
            with profile_phase("kernel.ancestors"):
                max_len = int(lengths.max())
                for level in t.stored_levels:
                    if level >= max_len:
                        break
                    sel = np.flatnonzero(alive & (lengths > level))
                    if sel.size == 0:
                        continue
                    ancestors = prefixes[sel] >> (
                        lengths[sel] - level
                    ).astype(np.uint64)
                    ok = self._probe_bits(ancestors, int(level))
                    probes += sel.size
                    alive[sel[~ok]] = False
        deep = lengths > t.deepest
        answers[qidx[alive & deep]] = True
        undecided = np.flatnonzero(alive & ~deep)
        if undecided.size:
            with profile_phase("kernel.descend"):
                probes += self._descend(
                    qidx[undecided],
                    prefixes[undecided],
                    lengths[undecided],
                    answers,
                )
        self._account(probes)
        return answers

    def _descend(
        self,
        qidx: np.ndarray,
        prefixes: np.ndarray,
        lengths: np.ndarray,
        answers: np.ndarray,
    ) -> int:
        """Level-synchronous doubting traversal with fused probes.

        One fused probe per level for the whole frontier, expansion by
        ``gap`` bits to the next stored level, and a per-sub-range
        budget identical to the scalar :meth:`REncoder._descend`'s: an
        exhausted budget answers True, and a node's cost is clamped at
        ``max_expansion + 1`` so near-root gaps cannot overflow.
        Updates ``answers`` in place (True only — a sub-range can never
        veto its query) and returns the probe count for accounting.
        """
        t = self.tables
        m = qidx.size
        deepest = t.deepest
        probes = 0
        budget = np.full(m, t.max_expansion, dtype=np.int64)
        done = np.zeros(m, dtype=bool)
        pending: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        present = np.flatnonzero(
            np.bincount(lengths.astype(np.int64), minlength=t.key_bits + 1)
        )
        for level in present:
            sel = np.flatnonzero(lengths == level)
            pending[int(level)] = [(sel, prefixes[sel])]
        for level in range(int(present[0]), deepest + 1):
            bucket = pending.pop(level, None)
            if not bucket:
                continue
            if len(bucket) == 1:
                pid, pfx = bucket[0]
            else:
                pid = np.concatenate([b[0] for b in bucket])
                pfx = np.concatenate([b[1] for b in bucket])
            live = ~done[pid] & ~answers[qidx[pid]]
            pid, pfx = pid[live], pfx[live]
            if pid.size == 0:
                continue
            if t.stored[level]:
                ok = self._probe_bits(pfx, level)
                probes += pid.size
                pid, pfx = pid[ok], pfx[ok]
                if pid.size == 0:
                    continue
            if level >= deepest:
                done[pid] = True
                answers[qidx[pid]] = True
                continue
            nxt = int(t.next_stored[level])
            gap = nxt - level
            cost = min(1 << gap, t.max_expansion + 1)
            np.subtract.at(budget, pid, cost)
            exhausted = budget[pid] < 0
            if exhausted.any():
                hit = pid[exhausted]
                done[hit] = True
                answers[qidx[hit]] = True
                pid, pfx = pid[~exhausted], pfx[~exhausted]
                if pid.size == 0:
                    continue
            ext = np.arange(1 << gap, dtype=np.uint64)
            children = (pfx[:, None] << np.uint64(gap)) | ext[None, :]
            pending.setdefault(nxt, []).append(
                (np.repeat(pid, 1 << gap), children.ravel())
            )
        return probes

    # ------------------------------------------------------------------
    # point queries
    # ------------------------------------------------------------------
    def point_many(self, keys: np.ndarray) -> np.ndarray:
        """Batch point membership via the fused probe, scalar-identical."""
        t = self.tables
        n = keys.size
        alive = np.ones(n, dtype=bool)
        if n == 0:
            return alive
        kb = np.uint64(t.key_bits)
        probes = 0
        for level in t.point_levels:
            sel = np.flatnonzero(alive)
            if sel.size == 0:
                break
            ok = self._probe_bits(
                keys[sel] >> (kb - np.uint64(level)), int(level)
            )
            probes += sel.size
            alive[sel[~ok]] = False
        self._account(probes)
        return alive

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _account(self, probes: int) -> None:
        """Fold one batch's probe count into the filter's statistics.

        Each fused probe reads ``k`` windows (one word each), so it
        advances ``fetch_count`` by ``k`` exactly like a scalar
        ``fetch_bt`` — probe accounting stays comparable with the scalar
        path.
        """
        if not probes:
            return
        rbf = self.filt.rbf
        with rbf._stats_lock:
            rbf.fetch_count += rbf.k * probes
        sp = current_span()
        if sp is not None:
            sp.add("filter_probes", probes)
            sp.add("rbf_fetches", rbf.k * probes)
