"""Sorted String Table with an attached range filter.

An SSTable is an immutable sorted run of (key, value) pairs plus the
in-memory metadata an LSM-tree keeps per table: min/max fence keys and a
range filter built over the keys at creation time (the paper: "a REncoder
is constructed for each SSTable"; "whenever the LSM-tree performs a merge
operation, the REncoder needs to be rebuilt").

Reads go filter-first: ``query_point``/``query_range`` consult the filter
and touch the simulated second level (``env.read``) only on a positive —
the exact mechanism whose cost/benefit Figures 3–4 measure.  Second-level
reads go through the env's retry policy, so injected transient faults are
retried with capped exponential backoff instead of surfacing to queries.

Persistence and recovery
------------------------
With ``persist=True`` the table serializes its filter into the env's
blob store right after building it and keeps a
:class:`~repro.storage.manifest.ManifestRecord` of the intended bytes.
:meth:`reload_filter` is the restart path: it re-reads the blob (faults
and all), cross-checks it against the manifest, decodes it with the
strict checksummed ``serialize.loads``, and runs the filter's
``verify_invariants`` against the table's own keys.  Any corruption
degrades the table to *all-positive* (no false negative can ever be
served) and triggers a rebuild from the keys — immediately, or deferred
to :meth:`rebuild_filter` so the degraded window is observable.
``filter_state`` tracks the machine: ``live → persisted``,
``persisted → loaded | degraded``, ``degraded → rebuilt``.

Concurrency
-----------
The key/value payload is immutable, so reads need no lock; the only
mutable state is the *filter slot* (``filter`` / ``filter_state`` /
``filter_generation``), which recovery and background rebuilds swap
while queries are in flight.  Every query path therefore reads
``self.filter`` exactly once into a local (a torn "check then probe"
pair is the one way a swap could crash a reader), and every transition
happens atomically under ``_state_lock`` with ``filter_generation``
bumped — so an in-flight query sees either the old filter or the new
one, both of which answer one-sidedly, and never a half-swapped state.
A table whose slot is ``None`` (mid-``degraded``, or between drop and
rebuild) is all-positive: correct, just unfiltered.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.core.errors import FilterCorruptionError, TransientIOError
from repro.filters.base import RangeFilter
from repro.storage.env import StorageEnv
from repro.storage.manifest import ManifestRecord
from repro.storage.memtable import TOMBSTONE
from repro.telemetry.tracing import child_span

__all__ = ["SSTable", "FilterFactory"]

#: A filter factory takes the table's keys and returns a built filter (or
#: None for filterless tables).
FilterFactory = Callable[[np.ndarray], "RangeFilter | None"]


class SSTable:
    """Immutable sorted run with fence keys and an optional range filter."""

    _counter = 0

    def __init__(
        self,
        items: Iterable[tuple[int, Any]],
        filter_factory: FilterFactory | None = None,
        env: StorageEnv | None = None,
        *,
        persist: bool = False,
    ) -> None:
        pairs = list(items)
        keys = [k for k, _ in pairs]
        if any(keys[i] >= keys[i + 1] for i in range(len(keys) - 1)):
            raise ValueError("SSTable items must be sorted by unique key")
        self.keys = np.array(keys, dtype=np.uint64)
        self.values: list[Any] = [v for _, v in pairs]
        self.env = env if env is not None else StorageEnv()
        self.filter_factory = filter_factory
        self.min_key = int(self.keys[0]) if len(keys) else 0
        self.max_key = int(self.keys[-1]) if len(keys) else -1
        self.filter: RangeFilter | None = (
            filter_factory(self.keys) if filter_factory and len(keys) else None
        )
        self.filter_state = "live" if self.filter is not None else "none"
        #: Bumped on every atomic filter-slot swap (persist / degrade /
        #: reload / rebuild); epoch-pinned readers use it to tell which
        #: filter answered them.
        self.filter_generation = 0
        self._state_lock = threading.RLock()
        self.manifest_record: ManifestRecord | None = None
        SSTable._counter += 1
        self.table_id = SSTable._counter
        self.env.write(entries=len(self.keys))
        if persist and self.filter is not None:
            self.persist_filter()

    def __len__(self) -> int:
        return len(self.keys)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def overlaps(self, lo: int, hi: int) -> bool:
        """Do the fence keys intersect ``[lo, hi]``?"""
        return len(self.keys) > 0 and not (hi < self.min_key or lo > self.max_key)

    def query_point(self, key: int) -> tuple[bool, Any]:
        """Filter-guarded point read: ``(found, value)``."""
        if not self.overlaps(key, key):
            return False, None
        filt = self.filter  # one read: a concurrent swap can't tear it
        with child_span("sstable.probe") as sp:
            if sp is not None:
                sp.set(
                    table=self.table_id,
                    kind="point",
                    filter=type(filt).__name__ if filt else None,
                )
            if filt is not None and not filt.query_point(key):
                if sp is not None:
                    sp.set(verdict="negative")
                return False, None
            i = int(np.searchsorted(self.keys, np.uint64(key)))
            found = i < len(self.keys) and int(self.keys[i]) == key
            if sp is not None:
                sp.set(verdict="positive", useful=found)
            self.env.read_with_retry(
                useful=found, block=(self.table_id, i // 64)
            )
            return (True, self.values[i]) if found else (False, None)

    def query_range(self, lo: int, hi: int) -> list[tuple[int, Any]]:
        """Filter-guarded range read, ascending (may include tombstones)."""
        if not self.overlaps(lo, hi):
            return []
        filt = self.filter  # one read: a concurrent swap can't tear it
        with child_span("sstable.probe") as sp:
            if sp is not None:
                sp.set(
                    table=self.table_id,
                    kind="range",
                    filter=type(filt).__name__ if filt else None,
                )
            if filt is not None and not filt.query_range(lo, hi):
                if sp is not None:
                    sp.set(verdict="negative")
                return []
            left = int(np.searchsorted(self.keys, np.uint64(lo), side="left"))
            right = int(np.searchsorted(self.keys, np.uint64(hi), side="right"))
            if sp is not None:
                sp.set(verdict="positive", useful=right > left)
            self.env.read_with_retry(
                useful=right > left, block=(self.table_id, left // 64)
            )
            return [
                (int(self.keys[i]), self.values[i]) for i in range(left, right)
            ]

    def query_point_many(self, keys) -> list[tuple[bool, Any]]:
        """Batch :meth:`query_point` over an array of keys.

        The filter is consulted once for the whole batch via its
        vectorised ``query_point_many`` path; every key that passes the
        fence keys and the filter pays exactly the ``env.read`` the
        scalar path would (same ``useful`` flag, same block identity),
        so I/O accounting is identical query-for-query.
        """
        keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
        out: list[tuple[bool, Any]] = [(False, None)] * keys.size
        if len(self.keys) == 0 or keys.size == 0:
            return out
        cand = np.flatnonzero(
            (keys >= np.uint64(self.min_key))
            & (keys <= np.uint64(self.max_key))
        )
        filt = self.filter  # one read: a concurrent swap can't tear it
        if cand.size and filt is not None:
            answers = filt.query_point_many(keys[cand])
            cand = cand[np.asarray(answers, dtype=bool)]
        if cand.size == 0:
            return out
        idx = np.searchsorted(self.keys, keys[cand])
        safe = np.minimum(idx, len(self.keys) - 1)
        found = (idx < len(self.keys)) & (self.keys[safe] == keys[cand])
        for j in range(cand.size):
            i = int(idx[j])
            hit = bool(found[j])
            self.env.read_with_retry(useful=hit, block=(self.table_id, i // 64))
            if hit:
                out[int(cand[j])] = (True, self.values[i])
        return out

    def query_range_many(
        self, ranges: Sequence[tuple[int, int]]
    ) -> list[list[tuple[int, Any]]]:
        """Batch :meth:`query_range`: one filter batch, per-range reads.

        Returns one ascending item list per input range.  ``env.read``
        accounting matches the scalar loop exactly: ranges rejected by
        the fence keys or the filter cost nothing; the rest pay one read
        with the same ``useful`` flag and block identity.
        """
        pairs = [(int(lo), int(hi)) for lo, hi in ranges]
        out: list[list[tuple[int, Any]]] = [[] for _ in pairs]
        if len(self.keys) == 0 or not pairs:
            return out
        with child_span("sstable.probe") as sp:
            cand = [
                q
                for q, (lo, hi) in enumerate(pairs)
                if not (hi < self.min_key or lo > self.max_key)
            ]
            filt = self.filter  # one read: a concurrent swap can't tear it
            if sp is not None:
                sp.set(
                    table=self.table_id,
                    kind="range_batch",
                    filter=type(filt).__name__ if filt else None,
                    batch=len(pairs),
                    fence_passed=len(cand),
                )
            if cand and filt is not None:
                ok = filt.query_many([pairs[q] for q in cand])
                cand = [q for q, good in zip(cand, ok) if good]
            if sp is not None:
                sp.set(filter_passed=len(cand))
            if not cand:
                return out
            los = np.array([pairs[q][0] for q in cand], dtype=np.uint64)
            his = np.array([pairs[q][1] for q in cand], dtype=np.uint64)
            lefts = np.searchsorted(self.keys, los, side="left")
            rights = np.searchsorted(self.keys, his, side="right")
            for q, left, right in zip(cand, lefts, rights):
                left, right = int(left), int(right)
                self.env.read_with_retry(
                    useful=right > left, block=(self.table_id, left // 64)
                )
                out[q] = [
                    (int(self.keys[i]), self.values[i])
                    for i in range(left, right)
                ]
            return out

    # ------------------------------------------------------------------
    # filter persistence & recovery
    # ------------------------------------------------------------------
    def persist_filter(self) -> ManifestRecord:
        """Serialize the filter into the env's blob store; keep a manifest.

        The manifest records the length and CRC32 of the bytes *as
        intended* — the injector may tear or flip the stored copy, and
        exactly that gap is what :meth:`reload_filter` detects.
        """
        from repro.core.serialize import checksum, dumps

        with self._state_lock:
            filt = self.filter
            if filt is None:
                raise ValueError(
                    f"SSTable {self.table_id} has no filter to persist"
                )
            blob = dumps(filt)
            name = f"filter-{self.table_id}"
            self.env.put_blob(name, blob)
            self.manifest_record = ManifestRecord(
                table_id=self.table_id,
                blob_name=name,
                n_entries=len(self.keys),
                min_key=self.min_key,
                max_key=self.max_key,
                filter_class=type(filt).__name__,
                blob_len=len(blob),
                crc32=checksum(blob),
            )
            self.filter_state = "persisted"
            self.filter_generation += 1
            return self.manifest_record

    def reload_filter(self, *, rebuild: str = "immediate") -> str:
        """Restart path: re-read the persisted filter, recover from damage.

        Returns the resulting ``filter_state``:

        * ``"loaded"`` — the blob survived manifest cross-checks (length
          + CRC32), strict decoding, and an invariant self-check probing
          the table's own keys; the in-memory filter is replaced by it.
        * ``"rebuilt"`` — damage was detected (``rebuild="immediate"``);
          the filter was rebuilt in place from the table's keys and
          re-persisted, and ``stats.corruptions_detected`` /
          ``stats.filter_rebuilds`` advanced.
        * ``"degraded"`` — damage was detected (``rebuild="deferred"``);
          the filter is dropped, so every query treats the table as
          all-positive (correct, just slower) until
          :meth:`rebuild_filter` runs.

        Transient read faults are retried with backoff first; a read
        that stays transient beyond the retry budget is treated like
        corruption (the blob is unusable either way) but counted only as
        transient faults, not as a detected corruption.
        """
        from repro.core.serialize import checksum, loads

        if rebuild not in ("immediate", "deferred"):
            raise ValueError(
                f'rebuild must be "immediate" or "deferred", got {rebuild!r}'
            )
        record = self.manifest_record
        if record is None:
            raise ValueError(
                f"SSTable {self.table_id} has no persisted filter "
                "(persist_filter was never called)"
            )
        try:
            blob = self.env.get_blob_with_retry(record.blob_name)
            if len(blob) != record.blob_len:
                raise FilterCorruptionError(
                    f"blob {record.blob_name!r} is {len(blob)} bytes, "
                    f"manifest says {record.blob_len} (torn write)"
                )
            if checksum(blob) != record.crc32:
                raise FilterCorruptionError(
                    f"blob {record.blob_name!r} fails the manifest CRC32"
                )
            filt = loads(blob)
            if type(filt).__name__ != record.filter_class:
                raise FilterCorruptionError(
                    f"blob {record.blob_name!r} decodes to "
                    f"{type(filt).__name__}, manifest says "
                    f"{record.filter_class}"
                )
            filt.verify_invariants(self.keys)
        except TransientIOError:
            # Retries exhausted: the data may be fine but is unreachable;
            # recover the same way corruption does, without claiming a
            # corruption was *detected*.
            return self._recover(rebuild)
        except FilterCorruptionError:
            self.env.stats.bump(corruptions_detected=1)
            return self._recover(rebuild)
        with self._state_lock:
            self.filter = filt
            self.filter_state = "loaded"
            self.filter_generation += 1
        return self.filter_state

    def _recover(self, rebuild: str) -> str:
        """Degrade to all-positive; rebuild now or leave it deferred."""
        with self._state_lock:
            self.filter = None
            self.filter_state = "degraded"
            self.filter_generation += 1
        if rebuild == "immediate":
            self.rebuild_filter()
        return self.filter_state

    def rebuild_filter(self) -> None:
        """Rebuild the filter from this table's keys and re-persist it.

        The exit from the ``degraded`` state: queries were all-positive
        (correct but unfiltered) since the corruption was detected; after
        this they are filtered again.  Counted in
        ``stats.filter_rebuilds``.

        Safe to run concurrently with live queries: the new filter is
        built off to the side from the immutable keys and swapped into
        the slot atomically, so an in-flight reader sees either no
        filter (all-positive) or the finished rebuild — never a
        half-built structure.
        """
        if self.filter_factory is None or len(self.keys) == 0:
            raise ValueError(
                f"SSTable {self.table_id} cannot rebuild: no filter factory "
                "or no keys"
            )
        rebuilt = self.filter_factory(self.keys)
        with self._state_lock:
            self.filter = rebuilt
            self.env.stats.bump(filter_rebuilds=1)
            self.filter_state = "rebuilt"
            self.filter_generation += 1
            if self.manifest_record is not None:
                self.persist_filter()
                self.filter_state = "rebuilt"

    def scan(self) -> Iterable[tuple[int, Any]]:
        """Full scan (compaction path; not filter-guarded)."""
        for i in range(len(self.keys)):
            yield int(self.keys[i]), self.values[i]

    def live_fraction(self) -> float:
        """Share of entries that are not tombstones."""
        if not self.values:
            return 1.0
        live = sum(1 for v in self.values if v is not TOMBSTONE)
        return live / len(self.values)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SSTable(id={self.table_id}, n={len(self)}, "
            f"range=[{self.min_key}, {self.max_key}], "
            f"filter={type(self.filter).__name__ if self.filter else None})"
        )
