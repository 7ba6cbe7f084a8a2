"""Log-structured merge tree — the paper's primary use case (Use Case 1).

An LSM-tree with:

* a sorted memtable flushed to level 0 when full;
* two compaction policies:

  - ``"leveling"`` (default): a level that exceeds its capacity is merged
    *together with the next level* into a single run — few runs, cheap
    reads, write-amplified;
  - ``"tiering"``: a full level's runs are merged into **one new run
    appended to the next level**, which may therefore hold several
    overlapping runs — cheap writes, but every read must consult every
    run, which is exactly the regime where per-run range filters earn
    their keep (the ablation bench quantifies this);

* shadowed versions dropped on merge, tombstones dropped at the bottom;
* a range filter per SSTable, rebuilt on every flush/compaction exactly
  as the paper prescribes, via a pluggable ``filter_factory``.

Reads are filter-first: a point or range query consults each candidate
table's filter and pays a simulated second-level read (``StorageEnv``)
only on positives.  The tree exposes the counters the paper's Figures 3–4
plot: filter probes, total I/Os, and wasted (false-positive) I/Os.

Concurrency & epochs
--------------------
The tree is safe to *read from many threads while one mutates it* — the
contract the serving layer (:mod:`repro.service`) relies on:

* Every structural change (flush, compaction, recovery) happens under
  the tree's lock and bumps ``epoch``, a generation counter.
* Readers never iterate live structures: they take a :class:`ReadView` —
  an epoch-stamped snapshot of the memtable stack and the table list —
  under the lock (O(tables), no copying of data) and run against that.
  SSTables are immutable and a frozen memtable stops changing at flush,
  so a view stays internally consistent forever; at worst it is
  *slightly stale*, never torn.
* Flushes are two-phase: the active memtable is frozen and pushed onto
  the flushing stack (epoch bump), the SSTable (and its filter) is built
  *outside* the lock, then swapped into level 0 as the frozen memtable
  retires (second bump).  At every instant each key is visible through
  at least one structure in every view — the no-false-negative guarantee
  holds *through* the swap, which is what makes ``recover(deferred)``
  rebuilds safe to run concurrently with live traffic.
* :meth:`pin_epoch` registers a reader against the epoch its view came
  from; the pin table is observability for tests and the service's
  health endpoint (it proves no reader is stranded on an ancient epoch),
  not a reclamation barrier — Python's GC is the reclaimer.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from repro.storage.env import StorageEnv
from repro.storage.memtable import TOMBSTONE, MemTable
from repro.storage.sstable import FilterFactory, SSTable
from repro.telemetry.tracing import child_span

__all__ = ["LSMTree", "ReadView"]


@dataclass(frozen=True)
class ReadView:
    """Epoch-stamped snapshot of the readable structures.

    ``memtables`` is newest-first (active buffer, then frozen buffers
    awaiting flush); ``tables`` is newest-first across all levels.  Both
    are plain tuples of references — immutable-by-convention structures,
    so holding a view costs nothing and never blocks writers.
    """

    epoch: int
    memtables: tuple[MemTable, ...]
    tables: tuple[SSTable, ...]


class LSMTree:
    """Leveling LSM-tree with per-SSTable range filters."""

    def __init__(
        self,
        filter_factory: FilterFactory | None = None,
        *,
        memtable_capacity: int = 4096,
        base_capacity: int = 4,
        ratio: int = 4,
        policy: str = "leveling",
        env: StorageEnv | None = None,
        persist_filters: bool = False,
    ) -> None:
        if base_capacity < 1:
            raise ValueError(f"base_capacity must be >= 1, got {base_capacity}")
        if ratio < 2:
            raise ValueError(f"ratio must be >= 2, got {ratio}")
        if policy not in ("leveling", "tiering"):
            raise ValueError(
                f'policy must be "leveling" or "tiering", got {policy!r}'
            )
        self.policy = policy
        self.filter_factory = filter_factory
        self.persist_filters = persist_filters
        self.env = env if env is not None else StorageEnv()
        self.memtable = MemTable(memtable_capacity)
        #: levels[0] is newest-first and may overlap; deeper levels are
        #: sorted, non-overlapping runs.
        self.levels: list[list[SSTable]] = [[]]
        self.base_capacity = base_capacity
        self.ratio = ratio
        #: Structure-generation counter; bumped under the lock on every
        #: flush/compaction/recovery swap.  Readers stamp their views
        #: with it (see the module docstring).
        self.epoch = 0
        self._lock = threading.RLock()
        #: Frozen memtables between freeze and table swap, newest first.
        self._flushing: list[MemTable] = []
        #: epoch -> number of pinned readers currently holding it.
        self._pins: dict[int, int] = {}

    # ------------------------------------------------------------------
    # snapshots & epochs
    # ------------------------------------------------------------------
    def read_view(self) -> ReadView:
        """Snapshot the readable structures at the current epoch."""
        with self._lock:
            return ReadView(
                epoch=self.epoch,
                memtables=(self.memtable, *self._flushing),
                tables=tuple(self._iter_tables()),
            )

    @contextmanager
    def pin_epoch(self):
        """Pin the current epoch for the duration of a read.

        Yields the :class:`ReadView` the reader should query.  The pin
        count is bookkeeping (``active_pins`` / service health), proving
        which epochs still have in-flight readers; views stay valid
        after unpinning — pins expose reader lifetimes, they do not gate
        reclamation.
        """
        with self._lock:
            view = self.read_view()
            self._pins[view.epoch] = self._pins.get(view.epoch, 0) + 1
        try:
            yield view
        finally:
            with self._lock:
                left = self._pins.get(view.epoch, 0) - 1
                if left > 0:
                    self._pins[view.epoch] = left
                else:
                    self._pins.pop(view.epoch, None)

    def active_pins(self) -> dict[int, int]:
        """Epoch -> in-flight pinned readers (snapshot)."""
        with self._lock:
            return dict(self._pins)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def put(self, key: int, value: Any) -> None:
        """Insert or overwrite ``key`` (may trigger a flush)."""
        if value is TOMBSTONE:
            raise ValueError("use delete() to remove keys")
        with self._lock:
            self.memtable.put(key, value)
            needs_flush = self.memtable.full
        if needs_flush:
            self.flush()

    def delete(self, key: int) -> None:
        """Delete ``key`` via a tombstone (may trigger a flush)."""
        with self._lock:
            self.memtable.delete(key)
            needs_flush = self.memtable.full
        if needs_flush:
            self.flush()

    def flush(self) -> None:
        """Write the memtable as a new level-0 SSTable.

        Two-phase so concurrent readers never lose sight of a key: the
        active memtable is frozen (still readable via the flushing
        stack) and replaced, the table + filter are built off-lock from
        the frozen snapshot, then the table enters level 0 in the same
        critical section that retires the frozen memtable.
        """
        with self._lock:
            if not len(self.memtable):
                return
            frozen = self.memtable
            self.memtable = MemTable(frozen.capacity)
            self._flushing.insert(0, frozen)
            self.epoch += 1
        try:
            table = self._new_table(frozen.items())
        except BaseException:
            # Keep the frozen data readable and writable-on-retry rather
            # than losing it: fold it back into the active buffer.
            with self._lock:
                self._flushing.remove(frozen)
                for key, value in frozen.items():
                    self.memtable.put(key, value)
                self.epoch += 1
            raise
        with self._lock:
            self.levels[0].insert(0, table)
            self._flushing.remove(frozen)
            self.epoch += 1
            self._maybe_compact(0)

    def _new_table(self, items) -> SSTable:
        """Build one SSTable, persisting its filter when so configured."""
        return SSTable(
            items, self.filter_factory, self.env,
            persist=self.persist_filters,
        )

    def _capacity(self, level: int) -> int:
        if self.policy == "tiering":
            # Each tier holds up to `ratio` runs (level 0: base_capacity).
            return self.base_capacity if level == 0 else self.ratio
        return self.base_capacity * (self.ratio**level)

    def _maybe_compact(self, level: int) -> None:
        with self._lock:
            while level < len(self.levels) and (
                len(self.levels[level]) > self._capacity(level)
            ):
                self._compact(level)
                level += 1

    def _compact(self, level: int) -> None:
        """Merge a full level into the next, per the compaction policy.

        Runs under the tree lock: sources stay visible in old views
        (tables are immutable) while the replacement lists are swapped
        in, and the epoch advances once per merge.
        """
        with self._lock:
            if level + 1 >= len(self.levels):
                self.levels.append([])
            if self.policy == "tiering":
                # Merge only this level's runs; the result is a new
                # overlapping run of the next tier (newest first, like
                # level 0).
                sources = self.levels[level]
                merged = self._merge(
                    sources,
                    drop_tombstones=level + 2 == len(self.levels)
                    and not self.levels[level + 1],
                )
                self.levels[level] = []
                if merged:
                    self.levels[level + 1].insert(
                        0, self._new_table(merged)
                    )
                self.epoch += 1
                return
            sources = self.levels[level] + self.levels[level + 1]
            merged = self._merge(
                sources, drop_tombstones=level + 2 == len(self.levels)
            )
            self.levels[level] = []
            # Rebuild as a single run (one table; fine at simulation
            # scale).
            self.levels[level + 1] = (
                [self._new_table(merged)] if merged else []
            )
            self.epoch += 1

    def _merge(
        self, tables: list[SSTable], drop_tombstones: bool
    ) -> list[tuple[int, Any]]:
        """Newest-wins merge of whole tables, dropping shadowed versions."""
        latest: dict[int, Any] = {}
        # Oldest first so newer tables overwrite.
        for table in reversed(tables):
            for key, value in table.scan():
                latest[key] = value
        items = sorted(latest.items())
        if drop_tombstones:
            items = [(k, v) for k, v in items if v is not TOMBSTONE]
        return items

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _iter_tables(self) -> Iterator[SSTable]:
        """Newest-first over the live level lists (callers hold the lock
        or accept point-in-time semantics)."""
        for table in self.levels[0]:
            yield table
        for level in self.levels[1:]:
            yield from level

    def _tables_newest_first(self) -> Iterator[SSTable]:
        """Snapshot of all live tables, newest first."""
        return iter(self.read_view().tables)

    def get(
        self, key: int, *, view: "ReadView | None" = None
    ) -> tuple[bool, Any]:
        """Point lookup: ``(found, value)``; tombstones read as not found.

        ``view`` lets a caller (the service's epoch-pinned readers) run
        against a previously taken snapshot; omitted, a fresh one is
        taken — same answer, just a possibly newer epoch.
        """
        view = view if view is not None else self.read_view()
        with child_span("lsm.get") as sp:
            if sp is not None:
                sp.set(key=key, epoch=view.epoch, tables=len(view.tables))
            for memtable in view.memtables:
                found, value = memtable.get(key)
                if found:
                    return (
                        (False, None) if value is TOMBSTONE else (True, value)
                    )
            for table in view.tables:
                hit, value = table.query_point(key)
                if hit:
                    return (
                        (False, None) if value is TOMBSTONE else (True, value)
                    )
            return False, None

    def get_many(
        self,
        keys,
        *,
        view: "ReadView | None" = None,
    ) -> list[tuple[bool, Any]]:
        """Batch :meth:`get`: memtables first, then per-table key batches.

        Unresolved keys flow through the tables newest-first in one
        vectorised filter batch per table, so each key consults exactly
        the tables the scalar loop would (it stops at its first hit) and
        the ``env.read`` accounting matches query-for-query.  Tombstones
        read as not found, as in :meth:`get`.
        """
        view = view if view is not None else self.read_view()
        keys = [int(k) for k in keys]
        out: list[tuple[bool, Any] | None] = [None] * len(keys)
        unresolved: list[int] = []
        for i, key in enumerate(keys):
            for memtable in view.memtables:
                found, value = memtable.get(key)
                if found:
                    out[i] = (
                        (False, None) if value is TOMBSTONE else (True, value)
                    )
                    break
            else:
                unresolved.append(i)
        for table in view.tables:
            if not unresolved:
                break
            answers = table.query_point_many([keys[i] for i in unresolved])
            still: list[int] = []
            for i, (hit, value) in zip(unresolved, answers):
                if hit:
                    out[i] = (
                        (False, None) if value is TOMBSTONE else (True, value)
                    )
                else:
                    still.append(i)
            unresolved = still
        for i in unresolved:
            out[i] = (False, None)
        return out  # type: ignore[return-value]

    def range_query_many(
        self,
        ranges,
        *,
        view: "ReadView | None" = None,
    ) -> list[list[tuple[int, Any]]]:
        """Batch :meth:`range_query`: one filter batch per SSTable.

        Every range consults every table (as the scalar path does), but
        each table's filter sees the whole batch at once through its
        vectorised path.  Results and ``env.read`` accounting are
        identical to the scalar loop.
        """
        view = view if view is not None else self.read_view()
        pairs = [(int(lo), int(hi)) for lo, hi in ranges]
        for lo, hi in pairs:
            if lo > hi:
                raise ValueError(f"invalid range [{lo}, {hi}]")
        results: list[dict[int, Any]] = [{} for _ in pairs]
        with child_span("lsm.range_query_many") as sp:
            if sp is not None:
                sp.set(
                    batch=len(pairs),
                    epoch=view.epoch,
                    tables=len(view.tables),
                )
            # Oldest first so newer versions overwrite.
            for table in reversed(view.tables):
                table_rows = table.query_range_many(pairs)
                for acc, items in zip(results, table_rows):
                    acc.update(items)
            for memtable in reversed(view.memtables):
                for acc, (lo, hi) in zip(results, pairs):
                    for key, value in memtable.range_items(lo, hi):
                        acc[key] = value
            return [
                [(k, v) for k, v in sorted(acc.items()) if v is not TOMBSTONE]
                for acc in results
            ]

    def range_query(
        self, lo: int, hi: int, *, view: "ReadView | None" = None
    ) -> list[tuple[int, Any]]:
        """All live (key, value) pairs in ``[lo, hi]``, ascending."""
        if lo > hi:
            raise ValueError(f"invalid range [{lo}, {hi}]")
        view = view if view is not None else self.read_view()
        result: dict[int, Any] = {}
        with child_span("lsm.range_query") as sp:
            if sp is not None:
                sp.set(
                    lo=lo, hi=hi, epoch=view.epoch, tables=len(view.tables)
                )
            # Oldest first so newer versions overwrite.
            for table in reversed(view.tables):
                for key, value in table.query_range(lo, hi):
                    result[key] = value
            for memtable in reversed(view.memtables):
                for key, value in memtable.range_items(lo, hi):
                    result[key] = value
            return [
                (k, v) for k, v in sorted(result.items()) if v is not TOMBSTONE
            ]

    # ------------------------------------------------------------------
    # persistence & crash recovery
    # ------------------------------------------------------------------
    def manifest(self) -> "Manifest":
        """Manifest records for every live table with a persisted filter."""
        from repro.storage.manifest import Manifest

        return Manifest(
            [
                t.manifest_record
                for t in self.read_view().tables
                if t.manifest_record is not None
            ]
        )

    def recover(self, *, rebuild: str = "immediate") -> dict[str, int]:
        """Simulated crash restart: reload every persisted filter.

        Drops all in-memory filters (the "crash"), then brings each table
        back through :meth:`SSTable.reload_filter` — clean blobs load,
        torn/flipped blobs are detected and recovered per ``rebuild``
        ("immediate" rebuilds from the table's keys on the spot;
        "deferred" leaves the table all-positive until its
        ``rebuild_filter`` runs).  No query served during or after
        recovery can be a false negative: a table is only ever *more*
        permissive while its filter is missing, and each table's filter
        slot swaps atomically — so this is safe to run concurrently with
        live traffic (the chaos stress test exercises exactly that).

        Returns a summary ``{"tables", "loaded", "rebuilt", "degraded"}``;
        fault/retry totals live in ``env.stats``.
        """
        summary = {"tables": 0, "loaded": 0, "rebuilt": 0, "degraded": 0}
        for table in self.read_view().tables:
            if table.manifest_record is None:
                continue
            summary["tables"] += 1
            state = table.reload_filter(rebuild=rebuild)
            summary[state] += 1
        return summary

    def degraded_tables(self) -> list[SSTable]:
        """Tables currently serving all-positive (filter dropped)."""
        return [
            t
            for t in self.read_view().tables
            if t.filter_state == "degraded"
        ]

    def rebuild_degraded(self) -> int:
        """Rebuild every degraded table's filter; returns how many.

        The background-maintenance half of ``recover(rebuild="deferred")``
        — runs concurrently with live queries (per-table atomic swaps, no
        tree lock held while building).
        """
        rebuilt = 0
        for table in self.degraded_tables():
            table.rebuild_filter()
            rebuilt += 1
        return rebuilt

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Live key count (scans; simulation-scale only)."""
        view = self.read_view()
        seen: dict[int, Any] = {}
        for table in reversed(view.tables):
            for key, value in table.scan():
                seen[key] = value
        for memtable in reversed(view.memtables):
            for key, value in memtable.items():
                seen[key] = value
        return sum(1 for v in seen.values() if v is not TOMBSTONE)

    def table_count(self) -> int:
        """Number of live SSTables across all levels."""
        return len(self.read_view().tables)

    def filter_bits(self) -> int:
        """Total memory spent on filters across all tables."""
        # Walrus: one read of each filter slot, racing swaps can't tear
        # the None-check from the use.
        return sum(
            f.size_in_bits()
            for t in self.read_view().tables
            if (f := t.filter) is not None
        )

    def filter_probes(self) -> int:
        """Total probe count across all table filters."""
        return sum(
            f.probe_count
            for t in self.read_view().tables
            if (f := t.filter) is not None
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        with self._lock:
            shape = [len(level) for level in self.levels]
            return (
                f"LSMTree(levels={shape}, memtable={len(self.memtable)}, "
                f"epoch={self.epoch})"
            )
