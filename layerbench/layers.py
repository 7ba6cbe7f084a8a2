"""Per-layer metrics of a traced run, computed from the recorded spans."""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

import numpy as np

from spans import ID, LAYER, NAME, PARENT, RID, T0, T1

LAYERS = ("kernels", "rencoder", "sstable", "lsm", "service", "router",
          "cluster")


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _durations(rec, name: str) -> list[int]:
    return [s[T1] - s[T0] for s in rec.spans if s[NAME] == name]


def filter_fpr(rec) -> float:
    """Positives on (table, range) pairs with no key in that table."""
    fp = negatives = 0
    for keys, ranges, answers in rec.filter_calls:
        los = np.array([lo for lo, _ in ranges], dtype=np.uint64)
        his = np.array([hi for _, hi in ranges], dtype=np.uint64)
        empty = (np.searchsorted(keys, his, side="right")
                 <= np.searchsorted(keys, los, side="left"))
        negatives += int(empty.sum())
        fp += int((answers & empty).sum())
    return _ratio(fp, negatives)


def per_layer(w, rec, setup_rec, plain, traced) -> dict[str, float]:
    """Every per-layer metric; layers off ``w``'s path read 0."""
    unresolved = rec.resolve()
    selfs = rec.self_times()
    requests = [s for s in rec.spans if s[LAYER] == "request"]
    query_rids = {s[RID] for s in requests if s[NAME] == "request.query"}
    ranges = traced.ranges
    n_queries = len(traced.query_ns)

    layer_self: dict[str, int] = defaultdict(int)
    first_child: dict[int, int] = {}
    for s in rec.spans:
        if s[RID] in query_rids and s[LAYER] != "request":
            layer_self[s[LAYER]] += selfs[s[ID]]
        if s[PARENT] is not None:
            prev = first_child.get(s[PARENT])
            if prev is None or s[T0] < prev:
                first_child[s[PARENT]] = s[T0]
    request_ns = sum(s[T1] - s[T0] for s in requests)
    uncovered_ns = sum(selfs[s[ID]] for s in requests)
    waits = [
        first_child[s[ID]] - s[T0]
        for s in rec.spans
        if s[NAME] == "service.submit_range_batch" and s[ID] in first_child
    ]

    # The write path: the measured loop when the workload writes in it,
    # else the set-up load.
    writes = rec if _durations(rec, "lsm.put") else setup_rec
    flush_ns = _durations(writes, "lsm.flush")
    c = rec.counts
    build_keys = setup_rec.build_keys + rec.build_keys
    build_ns = setup_rec.build_ns + rec.build_ns

    def us_per_query(layer: str) -> float:
        return _ratio(layer_self[layer] / 1e3, ranges)

    def ms_per_request(layer: str) -> float:
        return _ratio(layer_self[layer] / 1e6, n_queries)

    values = {
        "kernels.self_us_per_query": us_per_query("kernels"),
        "kernels.ranges_per_call": _ratio(c["kernel_ranges"],
                                          c["kernel_calls"]),
        "rencoder.self_us_per_query": us_per_query("rencoder"),
        "rencoder.probes_per_query": _ratio(c["filter_probes"], ranges),
        "rencoder.fpr": filter_fpr(rec),
        "rencoder.build_ms_per_kkey": _ratio(build_ns / 1e6,
                                             build_keys / 1e3),
        "sstable.self_us_per_query": us_per_query("sstable"),
        "sstable.tables_per_query": _ratio(c["table_ranges"], ranges),
        "env.useful_read_share": _ratio(traced.io["useful_reads"],
                                        traced.io["reads"]),
        "env.read_retries": traced.io["retries"],
        "lsm.self_us_per_query": us_per_query("lsm"),
        "lsm.tables": _median(rec.lsm_tables),
        "lsm.put_us_p50": _median(_durations(writes, "lsm.put")) / 1e3,
        "lsm.flushes": len(flush_ns),
        "lsm.flush_ms_p50": _median(flush_ns) / 1e6,
        "service.self_ms_per_request": ms_per_request("service"),
        "service.queue_wait_ms_p50": _median(waits) / 1e6,
        "service.degraded_share": _ratio(c["service_degraded"],
                                         c["service_responses"]),
        "router.self_ms_per_request": ms_per_request("router"),
        "router.subbatches_per_request": _ratio(c["router_subbatches"],
                                                c["router_requests"]),
        "router.extra_attempts_per_request": _ratio(
            c["router_extra_attempts"], c["router_requests"]
        ),
        "cluster.put_us_p50": _median(_durations(writes, "cluster.put"))
        / 1e3,
        "cluster.hint_backlog_max": traced.hint_backlog_max,
        "process.cpu_s_per_kq": _ratio(plain.cpu_s, plain.ranges / 1e3),
        "trace.overhead": _ratio(traced.qps, plain.qps),
        "trace.uncovered_share": _ratio(uncovered_ns, request_ns),
        "failed_share": _ratio(plain.failed + traced.failed,
                               plain.attempted + traced.attempted),
    }
    query_ns = sum(traced.query_ns)
    print("layers: " + json.dumps({
        "share_of_query_time": {
            layer: round(_ratio(layer_self[layer], query_ns), 4)
            for layer in LAYERS
        },
        "spans": len(rec.spans),
        "unattributed_spans": unresolved,
        "write_path_from": "measured loop" if writes is rec else "set-up load",
        "traced_qps": round(traced.qps, 1),
        "untraced_qps": round(plain.qps, 1),
    }))
    return values
