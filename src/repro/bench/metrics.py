"""Metric runners: FPR, filter throughput, overall throughput.

The three metrics of Section V-B:

* **FPR** — fraction of empty queries answered positive (every workload in
  the evaluation is all-empty, so positives are exactly false positives);
* **filter throughput** — queries per second against the filter alone.
  Because pure-Python absolute speed is meaningless next to the paper's
  C++/AVX numbers, :class:`FilterRun` also records *probes per query* —
  the architecture-independent memory-access count that drives the paper's
  throughput ordering (REncoder ≈ one fetch per mini-tree vs Rosetta's
  per-level re-hashing);
* **overall throughput** — queries per second through the simulated
  two-level store: measured filter time plus one second-level access per
  positive, at ``io_cost_ns`` each (the paper's simulation environment;
  see :mod:`repro.storage.env`).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Sequence

from repro.filters.base import RangeFilter

__all__ = [
    "DEFAULT_IO_COST_NS",
    "FilterRun",
    "RecoveryRun",
    "ServiceRun",
    "measure_fpr",
    "run_filter",
    "run_point_filter",
    "run_batch_filter",
    "run_recovery",
    "run_service_load",
]

#: Simulated second-level latency.  2 ms per I/O keeps the paper's rough
#: three-orders-of-magnitude gap over a (Python-scaled) filter probe;
#: override with the REPRO_IO_COST_NS environment variable.
DEFAULT_IO_COST_NS = int(os.environ.get("REPRO_IO_COST_NS", 2_000_000))


@dataclass
class FilterRun:
    """One (filter, workload) measurement."""

    name: str
    n_keys: int
    bits: int
    bits_per_key: float
    n_queries: int
    positives: int
    fpr: float
    filter_seconds: float
    filter_kqps: float
    probes_per_query: float
    overall_kqps: float
    build_seconds: float = 0.0
    #: "scalar" for the per-query loop, "batch" for the vectorised path.
    mode: str = "scalar"

    def as_row(self) -> dict:
        """Result-table row used by the figure benches."""
        return {
            "filter": self.name,
            "mode": self.mode,
            "bpk": round(self.bits_per_key, 1),
            "fpr": self.fpr,
            "filter_kqps": round(self.filter_kqps, 1),
            "probes/q": round(self.probes_per_query, 1),
            "batch_seconds": round(self.filter_seconds, 4),
            "overall_kqps": round(self.overall_kqps, 2),
        }


@dataclass
class RecoveryRun:
    """One crash-recovery measurement of an LSM tree (fault bench).

    ``recovery_seconds`` is wall-clock for the whole
    :meth:`~repro.storage.lsm.LSMTree.recover` pass;
    ``baseline_seconds`` is the same pass with no faults injected, so
    ``overhead`` isolates what the injected faults cost (corrupt-blob
    detection plus in-place rebuilds).  Fault/retry totals are copied out
    of :class:`~repro.storage.env.IoStats` at measurement time.
    """

    n_tables: int
    loaded: int
    rebuilt: int
    degraded: int
    recovery_seconds: float
    baseline_seconds: float
    faults: dict

    @property
    def overhead(self) -> float:
        """Recovery time relative to the fault-free baseline (>= 1.0-ish)."""
        if self.baseline_seconds <= 0:
            return float("inf") if self.recovery_seconds > 0 else 1.0
        return self.recovery_seconds / self.baseline_seconds

    def as_row(self) -> dict:
        """Result-table row used by the fault-recovery bench."""
        return {
            "tables": self.n_tables,
            "loaded": self.loaded,
            "rebuilt": self.rebuilt,
            "degraded": self.degraded,
            "recovery_s": round(self.recovery_seconds, 4),
            "baseline_s": round(self.baseline_seconds, 4),
            "overhead": round(self.overhead, 2),
            **self.faults,
        }


@dataclass
class ServiceRun:
    """One offered-load measurement of a :class:`FilterService`.

    ``goodput_qps`` counts only non-degraded (``ok``) answers — the
    quantity load shedding exists to protect; ``completed_qps`` counts
    every settled promise.  Latency percentiles are wall-clock
    submit→resolve over *completed* requests (rejected submissions never
    enter the pipeline and are excluded — they cost the client one
    exception, not a queue wait).
    """

    label: str
    offered_load: float  # multiple of the measured saturation capacity
    offered_qps: float
    n_requests: int
    duration_seconds: float
    completed: int
    ok: int
    goodput_qps: float
    completed_qps: float
    p50_ms: float
    p99_ms: float
    p999_ms: float
    max_ms: float
    degraded_rate: float
    deadline_expired: int
    breaker_denied: int
    shed: int
    rejected: int
    faults: int
    breaker_trips: int

    def as_row(self) -> dict:
        """Result-table row used by the overload bench (JSON-safe: an
        infinite offered load — a burst — renders as ``"burst"``)."""
        import math

        return {
            "config": self.label,
            "load": (
                round(self.offered_load, 2)
                if math.isfinite(self.offered_load)
                else "burst"
            ),
            "offered_qps": round(self.offered_qps, 1),
            "goodput_qps": round(self.goodput_qps, 1),
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "p999_ms": self.p999_ms,
            "degraded_rate": self.degraded_rate,
            "shed": self.shed,
            "rejected": self.rejected,
            "deadline": self.deadline_expired,
            "breaker": self.breaker_denied,
        }


def run_service_load(
    service,
    ranges: Sequence[tuple[int, int]],
    *,
    rate_qps: "float | None" = None,
    batch_size: "int | None" = None,
    label: str = "",
    offered_load: float = 0.0,
) -> ServiceRun:
    """Offer a range-query workload to a running service and measure it.

    ``rate_qps`` paces submissions open-loop (a request is offered on
    schedule whether or not earlier ones finished — the regime where
    backlogs actually build); ``None`` submits the whole workload as one
    burst, i.e. effectively infinite offered rate.  ``batch_size`` chunks
    the ranges into batch requests of that many ranges each (one
    submission, one response per chunk) — heavier requests make paced
    rates meaningful where scalar inter-arrival times would be below
    ``time.sleep`` resolution.  Rejected submissions
    (:class:`~repro.service.admission.ServiceOverloadError`) are counted
    and skipped.  Use a *fresh* service per run — its stats accumulate
    for life.
    """
    from repro.service.admission import ServiceOverloadError

    if not ranges:
        raise ValueError("need at least one request")
    if batch_size is not None and batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if batch_size is None:
        requests = list(ranges)
        submit = service.submit_range
    else:
        requests = [
            ranges[i : i + batch_size]
            for i in range(0, len(ranges), batch_size)
        ]
        submit = service.submit_range_batch
    futures = []
    start = time.perf_counter()
    next_at = start
    for req in requests:
        if rate_qps:
            next_at += 1.0 / rate_qps
            delay = next_at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        try:
            if batch_size is None:
                futures.append(submit(*req))
            else:
                futures.append(submit(req))
        except ServiceOverloadError:
            pass  # counted in service.stats.rejected
    for future in futures:
        future.result()
    duration = time.perf_counter() - start
    snap = service.stats.snapshot()
    n = len(requests)
    return ServiceRun(
        label=label,
        offered_load=offered_load,
        offered_qps=(rate_qps if rate_qps else n / duration),
        n_requests=n,
        duration_seconds=duration,
        completed=snap["completed"],
        ok=snap["ok"],
        goodput_qps=snap["ok"] / duration,
        completed_qps=snap["completed"] / duration,
        p50_ms=snap["p50_ms"],
        p99_ms=snap["p99_ms"],
        p999_ms=snap["p999_ms"],
        max_ms=snap["max_ms"],
        degraded_rate=snap["degraded_rate"],
        deadline_expired=snap["deadline_expired"],
        breaker_denied=snap["breaker_denied"],
        shed=snap["shed"],
        rejected=snap["rejected"],
        faults=snap["faults"],
        breaker_trips=service.breaker.snapshot()["trips"],
    )


def run_recovery(lsm, *, baseline_seconds: float = 0.0) -> RecoveryRun:
    """Time one :meth:`LSMTree.recover` pass and snapshot fault counters.

    The caller owns the injector configuration (and should
    ``env.stats.reset()`` beforehand if it wants this pass isolated);
    passing the fault-free ``baseline_seconds`` makes ``overhead``
    meaningful.
    """
    start = time.perf_counter()
    summary = lsm.recover()
    elapsed = time.perf_counter() - start
    return RecoveryRun(
        n_tables=summary["tables"],
        loaded=summary["loaded"],
        rebuilt=summary["rebuilt"],
        degraded=summary["degraded"],
        recovery_seconds=elapsed,
        baseline_seconds=baseline_seconds,
        faults=lsm.env.stats.fault_counts(),
    )


def measure_fpr(
    filt: RangeFilter, queries: Sequence[tuple[int, int]]
) -> float:
    """FPR over all-empty queries (positives / queries)."""
    if not queries:
        raise ValueError("need at least one query")
    positives = sum(filt.query_range(lo, hi) for lo, hi in queries)
    return positives / len(queries)


def _run(
    filt: RangeFilter,
    queries: Sequence[tuple[int, int]],
    point: bool,
    io_cost_ns: int,
    build_seconds: float,
) -> FilterRun:
    if not queries:
        raise ValueError("need at least one query")
    filt.reset_counters()
    positives = 0
    start = time.perf_counter()
    if point:
        for lo, _ in queries:
            positives += filt.query_point(lo)
    else:
        for lo, hi in queries:
            positives += filt.query_range(lo, hi)
    elapsed = time.perf_counter() - start
    n = len(queries)
    overall_seconds = elapsed + positives * io_cost_ns * 1e-9
    n_keys = getattr(filt, "n_keys", 0) or 1
    bits = filt.size_in_bits()
    return FilterRun(
        name=type(filt).name,
        n_keys=n_keys,
        bits=bits,
        bits_per_key=bits / n_keys,
        n_queries=n,
        positives=positives,
        fpr=positives / n,
        filter_seconds=elapsed,
        filter_kqps=n / elapsed / 1e3 if elapsed else float("inf"),
        probes_per_query=filt.probe_count / n,
        overall_kqps=n / overall_seconds / 1e3 if overall_seconds else float("inf"),
        build_seconds=build_seconds,
    )


def run_filter(
    filt: RangeFilter,
    queries: Sequence[tuple[int, int]],
    *,
    io_cost_ns: int = DEFAULT_IO_COST_NS,
    build_seconds: float = 0.0,
) -> FilterRun:
    """Run a range-query workload and collect all three metrics."""
    return _run(filt, queries, point=False, io_cost_ns=io_cost_ns,
                build_seconds=build_seconds)


def run_point_filter(
    filt: RangeFilter,
    queries: Sequence[tuple[int, int]],
    *,
    io_cost_ns: int = DEFAULT_IO_COST_NS,
    build_seconds: float = 0.0,
) -> FilterRun:
    """Run a point-query workload through ``query_point``."""
    return _run(filt, queries, point=True, io_cost_ns=io_cost_ns,
                build_seconds=build_seconds)


def run_batch_filter(
    filt: RangeFilter,
    queries: Sequence[tuple[int, int]],
    *,
    point: bool = False,
    io_cost_ns: int = DEFAULT_IO_COST_NS,
    build_seconds: float = 0.0,
) -> FilterRun:
    """Run a workload through the vectorised batch path.

    Same metrics as :func:`run_filter` / :func:`run_point_filter`, but
    the whole workload goes through ``query_many`` /
    ``query_point_many`` in one call, and the run additionally records
    ``mode="batch"`` and the batch wall time (``filter_seconds``).
    """
    if not queries:
        raise ValueError("need at least one query")
    filt.reset_counters()
    start = time.perf_counter()
    if point:
        answers = filt.query_point_many([lo for lo, _ in queries])
    else:
        answers = filt.query_many(queries)
    elapsed = time.perf_counter() - start
    positives = int(sum(bool(a) for a in answers))
    n = len(queries)
    overall_seconds = elapsed + positives * io_cost_ns * 1e-9
    n_keys = getattr(filt, "n_keys", 0) or 1
    bits = filt.size_in_bits()
    return FilterRun(
        name=type(filt).name,
        n_keys=n_keys,
        bits=bits,
        bits_per_key=bits / n_keys,
        n_queries=n,
        positives=positives,
        fpr=positives / n,
        filter_seconds=elapsed,
        filter_kqps=n / elapsed / 1e3 if elapsed else float("inf"),
        probes_per_query=filt.probe_count / n,
        overall_kqps=n / overall_seconds / 1e3 if overall_seconds else float("inf"),
        build_seconds=build_seconds,
        mode="batch",
    )
