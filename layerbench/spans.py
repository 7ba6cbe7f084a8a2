"""In-memory span recorder that times the repro layers from outside.

The traced run wraps the public entry point of each layer (the table in
``WORKLOADS.md``) with a timing span, without editing the program:
:class:`Patch` swaps the class attribute for a wrapper while the traced
phase runs and restores it afterwards.

A span is one tuple ``(id, name, layer, start_ns, end_ns, parent, rid,
owner)``.  ``parent`` and ``rid`` (the request id) come from a
thread-local stack on the calling thread.  A span that starts on a
worker thread has no parent there; :meth:`Recorder.resolve` gives it the
innermost span whose interval contains it and whose ``owner`` matches
(a FilterService span owns the spans of its own LSM tree), which is
exact with one request in flight per service.

A layer's self time is its span's duration minus the union of its
children's intervals; a request root's self time is the part of the
request's wall time no layer span covers.
"""

from __future__ import annotations

import copy
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable

import numpy as np

ID, NAME, LAYER, T0, T1, PARENT, RID, OWNER = range(8)

class Recorder:
    """Thread-safe append-only span store (one per traced phase)."""

    def __init__(self) -> None:
        self.on = False
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        #: REncoder.query_range_many calls kept for the FPR check after
        #: the run: (table keys, ranges, answers).
        self.filter_calls: list[tuple[np.ndarray, list, np.ndarray]] = []
        #: Per-layer counters (ranges per kernel call, probes, ...).
        self.counts: dict[str, float] = defaultdict(float)
        #: LSMTree.range_query_many -> live table count at the call.
        self.lsm_tables: list[int] = []
        self.build_keys = 0
        self.build_ns = 0

    def reset(self) -> "Recorder":
        """Start a new phase; returns the finished phase's records."""
        done = copy.copy(self)
        self.spans, self.filter_calls, self.lsm_tables = [], [], []
        self.counts = defaultdict(float)
        self.build_keys = self.build_ns = 0
        return done

    # -- thread-local context ------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _rid(self) -> "int | None":
        return getattr(self._tls, "rid", None)

    @property
    def table_keys(self) -> "np.ndarray | None":
        """Keys of the SSTable whose filter this thread is querying."""
        return getattr(self._tls, "table_keys", None)

    @table_keys.setter
    def table_keys(self, keys: "np.ndarray | None") -> None:
        self._tls.table_keys = keys

    # -- recording -----------------------------------------------------
    def request(self, rid: int, kind: str):
        """Context manager: one client request, the root of its spans."""
        return _Request(self, rid, kind)

    def begin(self) -> tuple[int, "int | None", "int | None", int]:
        sid = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent, self._rid(), time.perf_counter_ns()

    def end(self, token, name: str, layer: str, owner: Any = None) -> int:
        """Close the span opened by :meth:`begin`; returns its length."""
        t1 = time.perf_counter_ns()
        sid, parent, rid, t0 = token
        self._stack().pop()
        self.spans.append((sid, name, layer, t0, t1, parent, rid, owner))
        return t1 - t0

    def add_closed(
        self, token, name: str, layer: str, t1: int, owner: Any = None
    ) -> None:
        """Close a span whose end is observed elsewhere (a future)."""
        sid, parent, rid, t0 = token
        self.spans.append((sid, name, layer, t0, t1, parent, rid, owner))

    # -- analysis ------------------------------------------------------
    def resolve(self) -> int:
        """Attach worker-thread root spans to the span that caused them.

        Returns how many spans end up in no request.
        """
        by_owner: dict[Any, list[tuple]] = defaultdict(list)
        for s in self.spans:
            if s[LAYER] == "service" and s[OWNER] is not None:
                by_owner[s[OWNER]].append(s)
        for group in by_owner.values():
            group.sort(key=lambda s: s[T0])
        fixed = []
        for s in self.spans:
            if s[RID] is None and s[PARENT] is None and s[OWNER] is not None:
                best = None
                for cand in by_owner.get(s[OWNER], ()):
                    if cand[T0] > s[T0]:
                        break
                    if cand[T1] >= s[T1]:
                        best = cand  # latest-starting container wins
                if best is not None:
                    s = s[:PARENT] + (best[ID], best[RID], s[OWNER])
            fixed.append(s)
        # Descendants of a re-parented root inherit its request id.
        rid_of = {s[ID]: s[RID] for s in fixed}
        changed = True
        while changed:
            changed = False
            for i, s in enumerate(fixed):
                if s[RID] is None and s[PARENT] is not None:
                    rid = rid_of.get(s[PARENT])
                    if rid is not None:
                        fixed[i] = s[:RID] + (rid, s[OWNER])
                        rid_of[s[ID]] = rid
                        changed = True
        self.spans = fixed
        return sum(1 for s in fixed if s[RID] is None)

    def self_times(self) -> dict[int, int]:
        """Span id -> self time in ns (duration minus covered children)."""
        children: dict[int, list[tuple]] = defaultdict(list)
        for s in self.spans:
            if s[PARENT] is not None:
                children[s[PARENT]].append(s)
        out = {}
        for s in self.spans:
            kids = children.get(s[ID])
            covered = _union_len(
                [(c[T0], c[T1]) for c in kids], s[T0], s[T1]
            ) if kids else 0
            out[s[ID]] = (s[T1] - s[T0]) - covered
        return out


class _Request:
    def __init__(self, rec: Recorder, rid: int, kind: str) -> None:
        self.rec, self.rid, self.kind = rec, rid, kind

    def __enter__(self):
        self.rec._tls.rid = self.rid
        self.token = self.rec.begin()
        return self

    def __exit__(self, *exc) -> None:
        self.rec.end(self.token, f"request.{self.kind}", "request")
        self.rec._tls.rid = None


def _union_len(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
class Patch:
    """Install timing wrappers on the layer classes; undo on exit."""

    def __init__(self, rec: Recorder, kernel_cls: type) -> None:
        from repro.cluster.cluster import FilterCluster
        from repro.cluster.router import ClusterRouter
        from repro.core.rencoder import REncoder
        from repro.service.service import FilterService
        from repro.storage.lsm import LSMTree
        from repro.storage.sstable import SSTable

        self.rec = rec
        self._saved: list[tuple[type, str, Callable]] = []
        self._targets = [
            (kernel_cls, "range_many", _kernel_call(rec, "range_many")),
            (kernel_cls, "point_many", _kernel_call(rec, "point_many")),
            (REncoder, "query_range_many", _filter_query(rec)),
            (SSTable, "query_range_many", _sstable_query(rec)),
            (LSMTree, "range_query_many", _lsm_query(rec)),
            (LSMTree, "put", _plain(rec, "lsm.put", "lsm")),
            (LSMTree, "flush", _plain(rec, "lsm.flush", "lsm")),
            (FilterService, "query_range_batch",
             _plain(rec, "service.query_range_batch", "service")),
            (FilterService, "submit_range_batch", _service_submit(rec)),
            (ClusterRouter, "query_range_many", _router_query(rec)),
            (FilterCluster, "put", _plain(rec, "cluster.put", "cluster")),
        ]

    def __enter__(self) -> "Patch":
        for cls, attr, make in self._targets:
            orig = cls.__dict__[attr]
            self._saved.append((cls, attr, orig))
            setattr(cls, attr, make(orig))
        self.rec.on = True
        return self

    def __exit__(self, *exc) -> None:
        self.rec.on = False
        for cls, attr, orig in reversed(self._saved):
            setattr(cls, attr, orig)
        self._saved.clear()


def traced_factory(rec: Recorder, factory: Callable) -> Callable:
    """Wrap a filter factory so REncoder construction is a span."""

    def build(keys):
        if not rec.on:
            return factory(keys)
        tok = rec.begin()
        try:
            return factory(keys)
        finally:
            rec.build_ns += rec.end(tok, "rencoder.build", "rencoder")
            rec.build_keys += len(keys)

    return build


def _plain(rec: Recorder, name: str, layer: str):
    def make(orig):
        def wrapper(self, *args, **kw):
            tok = rec.begin()
            try:
                return orig(self, *args, **kw)
            finally:
                rec.end(tok, name, layer)

        return wrapper

    return make


def _kernel_call(rec: Recorder, method: str):
    def make(orig):
        def wrapper(self, *args):
            tok = rec.begin()
            try:
                return orig(self, *args)
            finally:
                rec.end(tok, f"kernels.{method}", "kernels")
                rec.counts["kernel_calls"] += 1
                rec.counts["kernel_ranges"] += len(args[0])

        return wrapper

    return make


def _filter_query(rec: Recorder):
    def make(orig):
        def wrapper(self, ranges, **kw):
            before = self.probe_count
            tok = rec.begin()
            try:
                answers = orig(self, ranges, **kw)
            finally:
                rec.end(tok, "rencoder.query_range_many", "rencoder")
            rec.counts["filter_probes"] += self.probe_count - before
            keys = rec.table_keys
            if keys is not None:
                rec.filter_calls.append(
                    (keys, ranges, np.array(answers, dtype=bool))
                )
            return answers

        return wrapper

    return make


def _sstable_query(rec: Recorder):
    def make(orig):
        def wrapper(self, ranges, **kw):
            rec.counts["table_ranges"] += len(ranges)
            rec.table_keys = self.keys
            tok = rec.begin()
            try:
                return orig(self, ranges, **kw)
            finally:
                rec.end(tok, "sstable.query_range_many", "sstable")
                rec.table_keys = None

        return wrapper

    return make


def _lsm_query(rec: Recorder):
    def make(orig):
        def wrapper(self, ranges, **kw):
            view = kw.get("view")
            rec.lsm_tables.append(
                len(view.tables) if view is not None else self.table_count()
            )
            tok = rec.begin()
            try:
                return orig(self, ranges, **kw)
            finally:
                rec.end(tok, "lsm.range_query_many", "lsm", owner=id(self))

        return wrapper

    return make


def _service_submit(rec: Recorder):
    """The span runs from submit until the request's future resolves."""

    def make(orig):
        def wrapper(self, ranges, **kw):
            tok = rec.begin()
            try:
                fut = orig(self, ranges, **kw)
            finally:
                rec._stack().pop()
            owner = id(self.lsm)

            def done(f) -> None:
                t1 = time.perf_counter_ns()
                rec.add_closed(
                    tok, "service.submit_range_batch", "service", t1, owner
                )
                rec.counts["service_responses"] += 1
                if f.exception() is None and f.result().degraded:
                    rec.counts["service_degraded"] += 1

            fut.add_done_callback(done)
            return fut

        return wrapper

    return make


def _router_query(rec: Recorder):
    def make(orig):
        def wrapper(self, ranges, **kw):
            tok = rec.begin()
            try:
                resp = orig(self, ranges, **kw)
            finally:
                rec.end(tok, "router.query_range_many", "router")
            rec.counts["router_requests"] += 1
            rec.counts["router_subbatches"] += len(resp.shards)
            rec.counts["router_extra_attempts"] += sum(
                max(0, o.attempts - 1) for o in resp.shards
            )
            return resp

        return wrapper

    return make
