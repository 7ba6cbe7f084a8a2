"""Fused decompose + tile-descent batch kernel.

A range batch runs in two vectorised stages over the whole batch.

**Ancestor probes** (:meth:`NumpyKernel._probe_path`).  A sub-range's
stored ancestor levels are tested one bit each, without building a
Bitmap Tree:

    probe(prefix, level)  =  AND_i  arr[pos_i + node - 1]           (node bit)
                          [ AND_i  arr[pos_i] ]                      (mirror root)

where ``pos_i`` is the ``i``-th window start of the prefix's mini-tree.
The scalar path ANDs ``k`` whole windows and then reads bit ``node - 1``
(zeroing the BT when the mirror root is absent); AND-then-read equals
read-then-AND bit by bit.  The levels of one group share the hash
prefix, so their window starts are hashed once.  Point queries use the
same probes.

**Tile descent** (:meth:`NumpyKernel._descend`).  Every node the
doubting traversal visits below one hash prefix lives in the same
mini-tree, so the descent works on *tiles*: one (sub-range, group, hash
prefix) each.  A tile hashes its prefix once per seed and reads the
``k`` windows' combined BT row by row.  Windows are read from
``pos - 1``, so bit ``n`` of the combined BT is node ``n`` and depth
``d`` occupies bits ``[2^d, 2^(d+1))``: word 0 holds depths 0-5 and
depth ``d >= 6`` fills ``2^(d-6)`` whole words.  The survivors of a
depth are one such row per tile; the next depth's row is the survivors
with every bit doubled (node ``n``'s children are ``2n`` and ``2n+1``),
ANDed with the BT row when that level is stored.  Survivors on a
group's bottom row become tiles of the next group.

The scalar :meth:`REncoder._descend` answers True iff some path to the
deepest stored level survives every stored-level probe, or the
expansion cost charged along the way exceeds ``max_expansion``.  Both
are independent of traversal order: a DFS that finds no path explores
every surviving node, so its budget runs out iff the *total* cost —
the first expansion plus ``2^gap`` per surviving stored-level node
above the deepest — exceeds the budget.  The tile descent charges the
same total (popcount of a stored row times ``2^gap``, terms clamped at
``max_expansion + 1``) and so returns the scalar answers exactly.
"""

from __future__ import annotations

import math
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

#: Survivor rows are read bytewise, so they are little-endian words.
_LE = np.dtype("<u8")


def _doubling_table() -> np.ndarray:
    """``t[h]``: the 16-bit ``h`` with every bit doubled (bit ``i`` ->
    bits ``2i`` and ``2i+1``).  Looked up per 16-bit half-word, it
    turns a survivor row into the row of their children."""
    h = np.arange(1 << 16, dtype=np.uint32)
    table = np.zeros(1 << 16, dtype="<u4")
    for i in range(16):
        table |= ((h >> i) & 1) * np.uint32(3 << (2 * i))
    return table


_SPREAD16 = _doubling_table()
#: Tiles one chunk of the descent may hold at once (raised to
#: ``max_expansion + 1`` for filters with a larger budget).  It bounds
#: the descent's memory independently of the batch size.
TILE_CHUNK = 8192
#: Dyadic pieces one slice of a range batch may decompose into; it
#: bounds the decomposition's memory independently of the batch size.
SLICE_PIECES = 49152


class KernelTables:
    """Per-filter constants flattened into plain arrays.

    Everything the kernel needs to probe without touching Python objects:
    per-level geometry (depth in group, group hash tag, mirror-root
    flag), the stored-level plan with its per-level expansion costs, and
    the RBF placement parameters.  Built once per filter (lazily, via
    :func:`repro.core.kernels.get_kernel`).  The RBF *array* is not
    captured — the kernel reads ``filt.rbf._array`` at call time, so
    in-place inserts are always visible.
    """

    __slots__ = (
        "key_bits", "group_bits", "depth", "mirror",
        "stored", "deepest", "deepest_group", "stored_levels",
        "point_levels", "max_expansion", "ancestor_checks", "seeds",
        "buckets", "group_tag", "unit", "worst", "tile_bound", "chunk",
    )

    def __init__(self, filt) -> None:
        kb = filt.key_bits
        gb = filt.group_bits
        self.key_bits = kb
        self.group_bits = gb
        self.depth = np.zeros(kb + 1, dtype=np.int64)
        self.mirror = np.zeros(kb + 1, dtype=bool)
        stored = np.asarray(filt._stored, dtype=bool).copy()
        for level in range(1, kb + 1):
            _, depth, hp_len = filt._locate(level)
            self.depth[level] = depth
            self.mirror[level] = bool(hp_len and stored[hp_len])
        self.stored = stored
        self.group_tag = np.asarray(filt._group_tags, dtype=np.uint64)
        self.deepest = int(filt._deepest)
        self.deepest_group = (self.deepest + gb - 1) // gb
        self.stored_levels = np.asarray(filt._stored_sorted, dtype=np.int64)
        self.point_levels = self._plan_point_levels(filt)
        self.max_expansion = int(filt.max_expansion)
        self.ancestor_checks = bool(filt.ancestor_checks)
        params = filt.rbf.placement_params()
        self.seeds = np.asarray(params["seeds"], dtype=np.uint64)
        self.buckets = np.uint64(params["buckets"])
        self._plan_costs(filt)

    def _plan_costs(self, filt) -> None:
        """Per-level expansion costs of the doubting descent.

        ``unit[l]`` is what one surviving node at level ``l`` charges the
        budget: ``2^gap`` to the next stored level, clamped at
        ``max_expansion + 1`` (0 at and below the deepest level).
        ``worst[l]`` is the most a sub-range entering at ``l`` can ever
        charge (every node surviving); a chunk whose sub-ranges all
        have ``worst <= max_expansion`` skips the budget bookkeeping.
        ``tile_bound[l]`` caps the tiles such a sub-range holds in one
        group.  A group's tiles are its nodes on the level just above
        the group: at most ``2^(top - l)`` (``top`` is the level just
        above the deepest group), and at most ``max_expansion`` before
        the budget runs out.
        """
        kb, cap = self.key_bits, self.max_expansion + 1
        deep_top = (self.deepest_group - 1) * self.group_bits
        nxt = filt._next_stored
        below = [l for l in filt._stored_sorted if l < self.deepest]
        unit = [0] * (kb + 1)
        for level in range(kb + 1):
            if level < self.deepest:
                unit[level] = min(1 << (nxt[level] - level), cap)
        worst = [0] * (kb + 1)
        bound = [1] * (kb + 1)
        for level in range(1, kb + 1):
            total = unit[level] + sum(
                (1 << (l - level)) * unit[l] for l in below if l > level
            )
            worst[level] = min(total, cap)
            if level < deep_top:
                bound[level] = min(1 << (deep_top - level), cap)
        self.unit = np.asarray(unit, dtype=np.int64)
        self.worst = np.asarray(worst, dtype=np.int64)
        self.tile_bound = np.asarray(bound, dtype=np.int64)
        self.chunk = max(TILE_CHUNK, cap)

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
    """Named, growable uint64 scratch buffers for one thread.

    Window hashing, the single-bit probes and the BT gathers write their
    temporaries into these with ``out=``: on a large batch, a fresh
    multi-megabyte temporary costs more in page faults than the
    arithmetic it holds.  Buffers grow geometrically and are never
    shared across threads (each kernel keeps one arena per thread via
    ``threading.local``).  The tiles' own state and every result still
    allocate.
    """

    __slots__ = ("_bufs",)

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}

    def u64(self, name: str, *shape: int) -> np.ndarray:
        """The named buffer viewed as ``shape``, grown (1.5x headroom)
        only when the current one is too small."""
        n = math.prod(shape)
        buf = self._bufs.get(name)
        if buf is None or buf.size < n:
            buf = np.empty(max(n + n // 2, 64), dtype=np.uint64)
            self._bufs[name] = buf
        return buf[:n].reshape(shape)


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


def _cuts(cum: np.ndarray, cap: int):
    """Consecutive ``(start, end)`` runs of items whose weights (given
    as their running sum ``cum``) sum to at most ``cap``; an item
    heavier than ``cap`` gets a run of its own."""
    start = 0
    while start < cum.size:
        base = int(cum[start - 1]) if start else 0
        end = max(start + 1, int(np.searchsorted(cum, base + cap, "right")))
        yield start, end
        start = end


def _bits_at(
    arr: np.ndarray, bitpos: np.ndarray, out: np.ndarray, scr: np.ndarray
) -> np.ndarray:
    """The words of ``arr`` holding each bit of ``bitpos``, shifted so
    that bit sits at bit 0, written to ``out`` (``scr`` is scratch)."""
    np.right_shift(bitpos, _U6, out=scr)
    # Every index is in range; "wrap" lets ``take`` fill ``out`` directly.
    np.take(arr, scr.view(np.int64), out=out, mode="wrap")
    np.bitwise_and(bitpos, _U63, out=scr)
    return np.right_shift(out, scr, out=out)


def _spread(surv: np.ndarray, depth: int) -> np.ndarray:
    """The children of survivor row ``depth - 1``: row ``depth``.

    Rows above depth 5 share word 0 (row ``depth - 1`` sits in its low
    half); row 5 is word 0's high half and row 6 is one whole word;
    deeper rows are whole words that double in number.
    """
    h = surv.view("<u2")
    if depth <= 5:
        h = h[:, :2]
    elif depth == 6:
        h = h[:, 2:]
    return _SPREAD16.take(h).view(_LE)


class _Tiles:
    """One group's tiles: parallel per-tile arrays, compacted together.

    ``sid`` indexes the chunk's sub-ranges, ``hp`` is the untagged hash
    prefix, ``d0``/``node`` the entry depth and node (depth 0, node 1
    for a tile continued from the group above; ``d0`` is ascending, so
    the tiles still to enter are a suffix), ``surv`` the survivor row.
    ``q``/``s``/``cs`` are the ``(k, T)`` window word offsets and bit
    shifts, ``w0`` the combined BT's word 0 and ``gate`` the mirror-root
    mask, all filled in lazily.
    """

    __slots__ = ("sid", "hp", "d0", "node", "surv", "q", "s", "cs", "w0",
                 "gate")
    _SEEDED = ("q", "s", "cs")

    def __init__(self, sid, hp, d0, node, surv) -> None:
        self.sid, self.hp, self.d0, self.node, self.surv = (
            sid, hp, d0, node, surv
        )
        self.q = self.s = self.cs = self.w0 = self.gate = None

    def keep(self, mask: np.ndarray) -> None:
        idx = np.flatnonzero(mask)
        for name in self.__slots__:
            arr = getattr(self, name)
            if arr is not None:
                setattr(
                    self, name,
                    arr.take(idx, axis=1 if name in self._SEEDED else 0),
                )


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
    # single-bit probes
    # ------------------------------------------------------------------
    def _window_starts(self, hp: np.ndarray, tag: np.uint64) -> np.ndarray:
        """Window starts ``pos_i`` of the untagged hash prefixes ``hp`` in
        the group tagged ``tag``: a ``(k, n)`` array, one hash per
        (prefix, seed).  It lives in the arena until the next call."""
        t = self.tables
        a = self._arena()
        k, n = t.seeds.size, hp.size
        pos = a.u64("pos", k, n)
        np.bitwise_xor(hp, (t.seeds ^ tag)[:, None], out=pos)
        _mix64_into(pos, a.u64("mix", k, n))
        np.mod(pos, t.buckets, out=pos)
        return pos

    def _probe_bits(
        self, prefixes: np.ndarray, level: int, pos: np.ndarray
    ) -> np.ndarray:
        """Membership bits of same-level prefixes whose windows start at
        ``pos`` — fused bit tests.

        Bit-identical to ``REncoder._probe``: the node bit ANDed over
        the ``k`` windows, ANDed with the mirror-root bit when the
        hash-prefix level is stored.
        """
        t = self.tables
        a = self._arena()
        arr = self.filt.rbf._array
        k, n = pos.shape
        maskd = (_U1 << np.uint64(t.depth[level])) - _U1
        # Node n is bit n - 1 of a window: array bit pos + maskd + suffix.
        node = a.u64("node", n)
        np.bitwise_and(prefixes, maskd, out=node)
        np.add(node, maskd, out=node)
        bitpos = a.u64("bitpos", k, n)
        np.add(pos, node, out=bitpos)
        scr = a.u64("scr", k, n)
        bits = _bits_at(arr, bitpos, a.u64("bits", k, n), scr)
        if t.mirror[level]:
            # The same windows' root bit.
            bits &= _bits_at(arr, pos, bitpos, scr)
        acc = np.bitwise_and.reduce(bits, axis=0)
        np.bitwise_and(acc, _U1, out=acc)
        return acc != 0

    def _probe_path(
        self,
        prefixes: np.ndarray,
        lengths: np.ndarray,
        reach: np.ndarray,
        levels: np.ndarray,
        alive: np.ndarray,
    ) -> int:
        """Probe each live piece's nodes on ``levels``, shallowest first.

        Piece ``i``'s node on ``level`` is ``prefixes[i] >> (lengths[i] -
        level)``.  It is probed while the piece is alive and ``level <
        reach[i]``; a miss clears ``alive[i]``.  The levels of one group
        share their hash prefix, so each group's windows are hashed
        once.  Returns the number of probes.
        """
        t = self.tables
        gb = t.group_bits
        probes = 0
        group = pos = sel = None
        for level in levels:
            level = int(level)
            if (level + gb - 1) // gb != group:
                group = (level + gb - 1) // gb
                sel = np.flatnonzero(alive & (reach > level))
                pos = None
            else:
                # Pieces only die, so the group's probed pieces shrink.
                still = np.flatnonzero(alive[sel] & (reach[sel] > level))
                sel = sel[still]
                if pos is not None:
                    pos = pos.take(still, axis=1)
            if sel.size == 0:
                continue
            nodes = prefixes[sel] >> (lengths[sel] - level).astype(np.uint64)
            if pos is None:
                depth = np.uint64(t.depth[level])
                pos = self._window_starts(nodes >> depth, t.group_tag[group])
            ok = self._probe_bits(nodes, level, pos)
            probes += sel.size
            alive[sel[~ok]] = False
        return probes

    # ------------------------------------------------------------------
    # range queries
    # ------------------------------------------------------------------
    def range_many(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Batch range membership — fused pipeline, scalar-identical.

        The batch runs in slices of at most ``SLICE_PIECES`` dyadic
        pieces (a range of width ``w`` has at most ``2 bit_length(w)``),
        so the kernel's memory does not grow with the batch.
        """
        n = los.size
        answers = np.zeros(n, dtype=bool)
        if n == 0:
            return answers
        bits = np.frexp((his - los).astype(np.float64) + 1.0)[1]
        cum = np.cumsum(bits, dtype=np.int64)
        del bits
        fetches = 0
        for start, end in _cuts(cum, SLICE_PIECES // 2):
            fetches += self._range_slice(
                los[start:end], his[start:end], answers[start:end]
            )
        self._account(fetches)
        return answers

    def _range_slice(
        self, los: np.ndarray, his: np.ndarray, answers: np.ndarray
    ) -> int:
        """Answer one slice into ``answers``; returns its fetch count."""
        t = self.tables
        fetches = 0
        with profile_phase("kernel.decompose"):
            qidx, prefixes, lengths = decompose_batch(
                los, his, t.key_bits, ordered=False
            )
        whole = lengths == 0
        if whole.any():
            answers[qidx[whole]] = self.filt.n_keys > 0
            keep = ~whole
            qidx, prefixes, lengths = qidx[keep], prefixes[keep], lengths[keep]
        alive = np.ones(lengths.size, dtype=bool)
        if t.ancestor_checks and lengths.size:
            with profile_phase("kernel.ancestors"):
                levels = t.stored_levels[t.stored_levels < lengths.max()]
                fetches += self._probe_path(
                    prefixes, lengths, lengths, levels, alive
                )
        # A piece deeper than every stored level stands on its ancestors;
        # one whose first expansion (from an unstored level, so unprobed)
        # already exceeds the budget is True without a tile.
        spent = np.where(t.stored[lengths], 0, t.unit[lengths])
        done = alive & ((lengths > t.deepest) | (spent > t.max_expansion))
        answers[qidx[done]] = True
        # The rest descend deepest (cheapest) first, so a query one of
        # them answers never expands its wider pieces.  (A small-int key
        # lets numpy radix-sort.)  Rebinding frees the full cover.
        todo = np.flatnonzero(alive & ~done)
        todo = todo[np.argsort(
            (t.key_bits - lengths[todo]).astype(np.uint8), kind="stable"
        )]
        qidx, prefixes = qidx[todo], prefixes[todo]
        lengths, spent = lengths[todo], spent[todo]
        if qidx.size:
            with profile_phase("kernel.descend"):
                fetches += self._descend(
                    qidx, prefixes, lengths, spent, answers
                )
        return fetches

    def _descend(
        self,
        qidx: np.ndarray,
        prefixes: np.ndarray,
        lengths: np.ndarray,
        spent: np.ndarray,
        answers: np.ndarray,
    ) -> int:
        """Tile descent of the sub-ranges that survived their ancestors.

        ``lengths`` is descending, and ``spent`` holds each sub-range's
        first expansion when its entry level is unstored (charged
        unprobed).  The sub-ranges are cut into chunks whose summed
        ``tile_bound`` stays within ``tables.chunk``, which bounds the
        tiles alive at once.  Updates ``answers`` in place (True only —
        a sub-range can never veto its query) and returns the number of
        tiles fetched, for accounting.
        """
        t = self.tables
        fetched = 0
        while qidx.size:
            for start, end in _cuts(np.cumsum(t.tile_bound[lengths]), t.chunk):
                sel = np.flatnonzero(~answers[qidx[start:end]])
                if sel.size == 0:
                    # A whole chunk was answered by earlier ones: drop
                    # every answered sub-range from the rest, re-cut it.
                    rest = np.flatnonzero(~answers[qidx[end:]]) + end
                    qidx, prefixes = qidx[rest], prefixes[rest]
                    lengths, spent = lengths[rest], spent[rest]
                    break
                # Ascending length inside the chunk: groups and entry
                # depths then come in order.
                sel = sel[::-1] + start
                fetched += self._descend_chunk(
                    qidx[sel], prefixes[sel], lengths[sel], spent[sel],
                    answers,
                )
            else:
                break
        return fetched

    def _descend_chunk(
        self,
        qidx: np.ndarray,
        prefixes: np.ndarray,
        lengths: np.ndarray,
        spent: np.ndarray,
        answers: np.ndarray,
    ) -> int:
        """Walk one chunk's tiles group by group, depth by depth.

        ``lengths`` is ascending and ``spent`` holds the first expansion
        already charged.  Returns the number of tiles fetched.
        """
        t = self.tables
        gb = t.group_bits
        n = qidx.size
        budget = (t.max_expansion - spent).astype(np.float64)
        account = bool((t.worst[lengths] > t.max_expansion).any())
        live_sub = np.ones(n, dtype=bool)
        groups = (lengths + (gb - 1)) // gb
        d0s = lengths - (groups - 1) * gb
        g_first = int(groups[0])
        bounds = np.searchsorted(
            groups, np.arange(g_first, t.deepest_group + 2)
        )
        carry_sid = np.zeros(0, dtype=np.int64)
        carry_hp = np.zeros(0, dtype=np.uint64)
        fetched = 0
        for g in range(g_first, t.deepest_group + 1):
            lo, hi = int(bounds[g - g_first]), int(bounds[g - g_first + 1])
            nc = carry_sid.size
            if nc + hi - lo == 0:
                continue
            d0 = d0s[lo:hi]
            pfx = prefixes[lo:hi]
            ud0 = d0.astype(np.uint64)
            surv = np.zeros((nc + hi - lo, 1), dtype=_LE)
            surv[:nc, 0] = 2  # node 1: continued from the group above
            tiles = _Tiles(
                sid=np.concatenate([carry_sid, np.arange(lo, hi)]),
                hp=np.concatenate([carry_hp, pfx >> ud0]),
                d0=np.concatenate([np.zeros(nc, dtype=np.int64), d0]),
                node=np.concatenate([
                    np.ones(nc, dtype=np.uint64),
                    (_U1 << ud0) | (pfx & ((_U1 << ud0) - _U1)),
                ]),
                surv=surv,
            )
            fetched += self._walk_group(
                g, tiles, qidx, budget, account, live_sub, answers
            )
            if g == t.deepest_group or tiles.sid.size == 0:
                carry_sid, carry_hp = carry_sid[:0], carry_hp[:0]
                continue
            carry_sid, carry_hp = self._continue(tiles, live_sub)
        return fetched

    def _walk_group(
        self,
        g: int,
        tiles: _Tiles,
        qidx: np.ndarray,
        budget: np.ndarray,
        account: bool,
        live_sub: np.ndarray,
        answers: np.ndarray,
    ) -> int:
        """Walk group ``g``'s depths over ``tiles`` (updated in place).

        Ends with ``tiles.surv`` holding each tile's survivors on the
        group's bottom row.  Returns the number of tiles fetched.
        """
        t = self.tables
        level0 = (g - 1) * t.group_bits
        last = t.group_bits if g < t.deepest_group else t.deepest - level0
        last_stored = max(
            (d for d in range(1, last + 1) if t.stored[level0 + d]), default=0
        )
        mirror = level0 > 0 and bool(t.stored[level0])
        d_first = int(tiles.d0[0])
        entered = int(np.searchsorted(tiles.d0, 0, side="right"))
        if d_first > 6:
            # No tile continues from above; the first row is all entries.
            tiles.surv = np.zeros((tiles.sid.size, 1 << (d_first - 6)), _LE)
        fetched = 0
        for d in range(d_first, last + 1):
            if d > d_first:
                tiles.surv = _spread(tiles.surv, d)
            if entered < tiles.sid.size and tiles.d0[entered] == d:
                now = int(np.searchsorted(tiles.d0, d, side="right"))
                self._enter(tiles, entered, now, d)
                entered = now
            level = level0 + d
            if d == 0 or not t.stored[level]:
                # Depth 0 is the group above's bottom row, probed there.
                continue
            if tiles.q is None:
                self._hash(tiles, g, mirror, mirror or d <= 5)
                fetched += int(
                    np.searchsorted(tiles.d0, last_stored, side="right")
                )
            # Only the tiles entered so far have survivors to probe.
            surv = tiles.surv[:entered]
            if d <= 5:
                surv &= tiles.w0[:entered]
            else:
                w = 1 << (d - 6)
                row = self._bt_words(tiles, w, w, entered)
                if mirror:
                    row &= tiles.gate[:entered, None]
                surv &= row
            if level == t.deepest:
                hit = surv.any(axis=1)
                answers[qidx[tiles.sid[:entered][hit]]] = True
                break
            keep = tiles.surv.any(axis=1)
            keep[entered:] = True
            if account:
                pc = np.bitwise_count(surv).sum(axis=1)
                budget -= np.bincount(
                    tiles.sid[:entered], weights=pc, minlength=budget.size
                ) * t.unit[level]
                out = live_sub & (budget < 0)
                if out.any():
                    answers[qidx[out]] = True
                    live_sub &= ~answers[qidx]
                    keep &= live_sub[tiles.sid]
            # Compacting costs a pass over every per-tile array: worth
            # it once a quarter of a sizeable wave has died.
            size = tiles.sid.size
            alive = int(np.count_nonzero(keep))
            if alive == 0 or (size >= 64 and 4 * alive <= 3 * size):
                tiles.keep(keep)
                if alive == 0:
                    break
                entered = int(np.searchsorted(tiles.d0, d, side="right"))
        return fetched

    @staticmethod
    def _enter(tiles: _Tiles, lo: int, hi: int, d: int) -> None:
        """Set the entry node of tiles ``lo:hi`` (entry depth ``d``)."""
        node = tiles.node[lo:hi]
        if d <= 5:
            tiles.surv[lo:hi, 0] = _U1 << node
        else:
            col = (node >> _U6).astype(np.intp) - (1 << (d - 6))
            tiles.surv[np.arange(lo, hi), col] = _U1 << (node & _U63)

    def _hash(
        self, tiles: _Tiles, g: int, mirror: bool, need_w0: bool
    ) -> None:
        """Window offsets of every tile: one hash per (tile, seed)."""
        t = self.tables
        x = self._window_starts(tiles.hp, t.group_tag[g])
        # Read from pos - 1 so that bit n is node n; pos = 0 reads the
        # zero pad word at index -1.
        x -= _U1
        tiles.q = x.view(np.int64) >> 6
        tiles.s = x & _U63
        tiles.cs = np.uint64(64) - tiles.s
        if need_w0:
            # Word 0 serves the tiles entering above depth 6, and every
            # tile's mirror gate.
            size = tiles.sid.size
            n = size if mirror else int(
                np.searchsorted(tiles.d0, 5, side="right")
            )
            w0 = np.zeros((size, 1), dtype=np.uint64)
            w0[:n] = self._bt_words(tiles, 0, 1, n)
            if mirror:
                # Mirror root (node 1) clear: the prefix was never
                # inserted and the whole BT reads as zero.
                tiles.gate = np.uint64(0) - ((w0[:, 0] >> _U1) & _U1)
                w0 &= tiles.gate[:, None]
            tiles.w0 = w0

    def _bt_words(
        self, tiles: _Tiles, j0: int, w: int, n: int
    ) -> np.ndarray:
        """Words ``j0 : j0 + w`` of the first ``n`` tiles' combined BTs,
        as an ``(n, w)`` array."""
        a = self._arena()
        k = tiles.q.shape[0]
        idx = a.u64("idx", w + 1, k, n).view(np.int64)
        np.add(tiles.q[:, :n], np.arange(j0, j0 + w + 1)[:, None, None],
               out=idx)
        words = a.u64("words", w + 1, k, n)
        # Index -1 (a window at bit 0) is the zero pad word either way.
        np.take(self.filt.rbf._array, idx, out=words, mode="wrap")
        win = a.u64("win", w, k, n)
        np.right_shift(words[:w], tiles.s[:, :n], out=win)
        hi = idx[1:].view(np.uint64)
        np.left_shift(words[1:], tiles.cs[:, :n], out=hi)
        win |= hi
        return np.bitwise_and.reduce(win, axis=1).T

    def _continue(
        self, tiles: _Tiles, live_sub: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Next group's tiles: one per survivor on the bottom row."""
        gb = self.tables.group_bits
        keep = live_sub[tiles.sid]
        rows = tiles.surv[keep]
        if gb < 6:
            rows = rows >> np.uint64(1 << gb)
        ti, wi = np.nonzero(rows)
        bits = np.unpackbits(
            rows[ti, wi].view(np.uint8).reshape(-1, 8),
            axis=1,
            bitorder="little",
        )
        pi, bi = np.nonzero(bits)
        tile = ti[pi]
        suffix = (wi[pi] * 64 + bi).astype(np.uint64)
        return (
            tiles.sid[keep][tile],
            (tiles.hp[keep][tile] << np.uint64(gb)) | suffix,
        )

    # ------------------------------------------------------------------
    # point queries
    # ------------------------------------------------------------------
    def point_many(self, keys: np.ndarray) -> np.ndarray:
        """Batch point membership via the fused probe, scalar-identical."""
        t = self.tables
        alive = np.ones(keys.size, dtype=bool)
        if keys.size:
            lengths = np.full(keys.size, t.key_bits, dtype=np.int64)
            self._account(
                self._probe_path(keys, lengths, lengths + 1, t.point_levels,
                                 alive)
            )
        return alive

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _account(self, fetches: int) -> None:
        """Fold one batch's BT fetches into the filter's statistics.

        A fetch is one single-bit probe (ancestor or point) or one tile
        of the descent; each reads ``k`` windows, so ``fetch_count``
        advances by ``k`` per fetch, as a scalar ``fetch_bt`` does.
        """
        if not fetches:
            return
        rbf = self.filt.rbf
        with rbf._stats_lock:
            rbf.fetch_count += rbf.k * fetches
        sp = current_span()
        if sp is not None:
            sp.add("filter_probes", fetches)
            sp.add("rbf_fetches", rbf.k * fetches)
