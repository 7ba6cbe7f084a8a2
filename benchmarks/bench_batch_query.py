"""Batch query path: the fused kernel vs the per-query scalar loop.

Measures the batch path on the Fig. 6 uniform workload (10 BPK, 64-wide
ranges): the fused kernel (:mod:`repro.core.kernels`) against the
scalar ``query_range`` loop, plus the fused kernel's throughput on four
workloads — uniform, correlated (left bound near a key), adjacent
(runs of consecutive windows) and wide (widths log-uniform in
``[2^7, 2^18)``, run in batches of 1,000, where the tile descent rather
than the ancestor probes does the work).

The fused answers are asserted bit-identical to the scalar loop (on a
subset of every workload — the loop is the slow side) and at least 5×
faster on the headline workload.  The headline is appended to the
committed ``BENCH_trajectory.jsonl``, which
``scripts/check_perf_regression.py`` gates CI against.  With
``REPRO_PROFILE=1`` the kernel's own phase breakdown
(``kernel.decompose`` / ``kernel.ancestors`` / ``kernel.descend``)
lands in the JSON's profile block.

Run as a script (``python benchmarks/bench_batch_query.py --preset
smoke|full``) or via pytest-benchmark like the figure benches.  Both
write ``BENCH_batch_query.json`` at the repository root; ``--preset
smoke`` fits the CI perf job's 10-second budget.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from common import append_trajectory, batch_rows, publish

from repro.bench.metrics import run_batch_filter, run_filter
from repro.core.kernels import default_backend
from repro.core.rencoder import REncoder
from repro.telemetry.profiler import profile_phase
from repro.workloads.datasets import generate_keys
from repro.workloads.queries import (
    correlated_range_queries,
    uniform_range_queries,
)

#: ``smoke`` fits the CI perf job (<10 s end to end); ``full`` is the
#: acceptance configuration (1M keys, 10 BPK, 64-wide ranges).
PRESETS = {
    "smoke": dict(n_keys=60_000, n_queries=20_000, n_scalar=1_000,
                  n_workload=4_000),
    "full": dict(n_keys=1_000_000, n_queries=100_000, n_scalar=5_000,
                 n_workload=20_000),
}
BPK = 10
WIDTH = 64
#: The wide workload: widths log-uniform in [2^WIDE_LOG[0], 2^WIDE_LOG[1]),
#: sent as batches of WIDE_BATCH ranges.
WIDE_LOG = (7, 18)
WIDE_BATCH = 1_000
#: Scalar answers checked against the fused kernel per sweep workload.
N_WORKLOAD_CHECK = 200


def adjacent_range_queries(keys, n, *, run_length=16, seed=0):
    """Runs of consecutive ``WIDTH``-wide windows."""
    rng = np.random.default_rng(seed)
    top = (1 << 64) - 1
    out = []
    while len(out) < n:
        start = int(
            rng.integers(0, top - WIDTH * run_length, dtype=np.uint64)
        )
        for i in range(run_length):
            lo = start + i * WIDTH
            out.append((lo, lo + WIDTH - 1))
    return out[:n]


def wide_range_queries(n, *, seed=0):
    """``n`` ranges with widths log-uniform in ``[2^7, 2^18)``."""
    rng = np.random.default_rng(seed)
    widths = (2.0 ** rng.uniform(*WIDE_LOG, size=n)).astype(np.uint64)
    los = rng.integers(0, (1 << 64) - (1 << WIDE_LOG[1]), size=n,
                       dtype=np.uint64)
    return [(int(lo), int(lo + w) - 1) for lo, w in zip(los, widths)]


def time_wide(filt, queries) -> dict:
    """Fused throughput on ``queries`` sent in ``WIDE_BATCH``-range calls."""
    filt.query_range_many(queries[:WIDE_BATCH])  # warm
    filt.reset_counters()
    answers = []
    start = time.perf_counter()
    for i in range(0, len(queries), WIDE_BATCH):
        answers.append(filt.query_range_many(queries[i : i + WIDE_BATCH]))
    seconds = time.perf_counter() - start
    n = len(queries)
    return {
        "kqps": round(n / seconds / 1e3, 1),
        "probes_per_query": round(filt.probe_count / n, 2),
        "answers": np.concatenate(answers),
    }


def time_batch(filt, los: np.ndarray, his: np.ndarray, *,
               warmup: int = 256) -> dict:
    """Time the fused kernel over one query batch; returns a bench cell.

    Warms the kernel on a small prefix first (arena growth) so the
    measured pass sees steady-state cost, then runs the full batch once
    — the regression gate compares across commits, so single-pass
    variance is handled by its tolerance band, not by repeats here.
    """
    n = int(los.size)
    pairs = np.stack([los, his], axis=1)
    if warmup:
        filt.query_range_many(pairs[: min(warmup, n)])
    filt.reset_counters()
    start = time.perf_counter()
    answers = filt.query_range_many(pairs)
    seconds = time.perf_counter() - start
    return {
        "n_queries": n,
        "seconds": round(seconds, 4),
        "kqps": round(n / seconds / 1e3, 1),
        "probes_per_query": round(filt.probe_count / max(1, n), 2),
        "answers": answers,
    }


def _matches_scalar(filt, queries, answers) -> bool:
    scalar = [filt.query_range(lo, hi) for lo, hi in queries]
    return [bool(a) for a in answers[: len(queries)]] == scalar


def run_bench(preset: str, seed: int = 1) -> dict:
    """Build the filter, time fused vs scalar, return the JSON payload."""
    cfg = PRESETS[preset]
    keys = generate_keys(cfg["n_keys"], "uniform", seed=seed)
    with profile_phase("build"):
        t0 = time.perf_counter()
        filt = REncoder(keys, total_bits=BPK * len(keys))
        build_seconds = time.perf_counter() - t0
    queries = uniform_range_queries(
        keys, cfg["n_queries"], min_size=WIDTH, max_size=WIDTH, seed=seed + 1
    )
    los = np.array([lo for lo, _ in queries], dtype=np.uint64)
    his = np.array([hi for _, hi in queries], dtype=np.uint64)

    # Scalar baseline on a subset (the loop is the slow side); the
    # fused kernel runs the whole workload.
    subset = queries[: cfg["n_scalar"]]
    with profile_phase("scalar"):
        scalar_run = run_filter(filt, subset, build_seconds=build_seconds)
    with profile_phase("batch"):
        headline = time_batch(filt, los, his)
    equivalent = _matches_scalar(filt, subset, headline.pop("answers"))

    workloads: dict[str, float] = {}
    with profile_phase("workloads"):
        for name, wl in (
            ("uniform", queries[: cfg["n_workload"]]),
            (
                "correlated",
                correlated_range_queries(
                    keys, cfg["n_workload"], max_size=WIDTH, seed=seed + 2
                ),
            ),
            (
                "adjacent",
                adjacent_range_queries(
                    keys, cfg["n_workload"], seed=seed + 3
                ),
            ),
        ):
            run = run_batch_filter(filt, wl)
            workloads[name] = round(run.filter_kqps, 1)
            check = wl[:N_WORKLOAD_CHECK]
            equivalent &= _matches_scalar(filt, check, filt.query_many(check))
        wide_queries = wide_range_queries(cfg["n_workload"], seed=seed + 4)
        wide = time_wide(filt, wide_queries)
        workloads["wide"] = wide["kqps"]
        equivalent &= _matches_scalar(
            filt, wide_queries[:N_WORKLOAD_CHECK], wide.pop("answers")
        )

    batch_run = run_batch_filter(filt, queries, build_seconds=build_seconds)
    speedup = headline["kqps"] / round(scalar_run.filter_kqps, 1)

    payload = {
        "preset": preset,
        "n_keys": cfg["n_keys"],
        "bits_per_key": BPK,
        "range_width": WIDTH,
        "n_queries": cfg["n_queries"],
        "engine": default_backend(),
        "scalar": {
            "n_queries": len(subset),
            "seconds": round(scalar_run.filter_seconds, 4),
            "kqps": round(scalar_run.filter_kqps, 1),
            "probes_per_query": round(scalar_run.probes_per_query, 2),
        },
        "batch": headline,
        "workloads": workloads,
        "wide": {
            "widths_log2": list(WIDE_LOG),
            "batch": WIDE_BATCH,
            "n_queries": cfg["n_workload"],
            **wide,
        },
        "speedup": round(speedup, 2),
        "equivalent": bool(equivalent),
    }
    payload["_runs"] = (scalar_run, batch_run)
    return payload


def _finish(payload: dict, benchmark=None) -> dict:
    scalar_run, batch_run = payload.pop("_runs")
    publish(
        benchmark,
        "batch_query",
        batch_rows([scalar_run, batch_run]),
        "BENCH_batch_query.json",
        payload,
    )
    append_trajectory(
        "batch_query",
        payload["preset"],
        payload["batch"]["kqps"],
        engine=payload["engine"],
    )
    append_trajectory(
        "batch_query_wide",
        payload["preset"],
        payload["wide"]["kqps"],
        engine=payload["engine"],
    )
    assert payload["equivalent"], "fused kernel diverged from the scalar answers"
    assert payload["speedup"] >= 5.0, (
        f"batch speedup {payload['speedup']}x below the 5x target"
    )
    return payload


def test_batch_query(benchmark):
    """Pytest entry point: the smoke preset, timed by pytest-benchmark."""
    payload = run_bench("smoke")
    _finish(payload, benchmark)
    keys = generate_keys(20_000, "uniform", seed=1)
    filt = REncoder(keys, total_bits=BPK * len(keys))
    queries = uniform_range_queries(keys, 2_000, max_size=WIDTH, seed=2)
    benchmark.pedantic(lambda: filt.query_many(queries), rounds=3, iterations=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", choices=sorted(PRESETS), default="smoke")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    payload = run_bench(args.preset, seed=args.seed)
    _finish(payload)
    print(
        f"fused: {payload['batch']['kqps']} kq/s "
        f"({payload['speedup']}x over scalar {payload['scalar']['kqps']} kq/s)"
    )
    for name, kqps in payload["workloads"].items():
        print(f"  {name}: {kqps} kq/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
