"""Shared helpers for the figure/table benches.

Every bench (a) regenerates one paper artifact via its driver in
:mod:`repro.bench.experiments`, (b) prints and saves the resulting table
under ``results/``, (c) asserts the paper's qualitative shape, and
(d) feeds a representative operation to pytest-benchmark so the benchmark
table reports real per-operation timings.

Scale via environment: ``REPRO_N_KEYS`` (default 20000),
``REPRO_N_QUERIES`` (default 2000), ``REPRO_IO_COST_NS``.
"""

from __future__ import annotations

import json
import os
import subprocess
from pathlib import Path

from repro.bench.experiments import ExperimentConfig
from repro.telemetry.profiler import get_profiler

RESULTS_DIR = Path(__file__).resolve().parent / "results"
REPO_ROOT = Path(__file__).resolve().parent.parent

#: Bumped whenever the shape of a ``BENCH_*.json`` payload changes in a
#: way readers must care about; stamped into every file by
#: :func:`write_bench_json`.  v3: batch_query grew the engine × layout
#: × workload matrix and the headline moved to the fused kernels.
#: v4: cluster run_table rows grew cpu_s/rss_mb resource columns.
#: v5: batch_query is fused vs scalar only — the engine × layout matrix
#: and every cache_hit_rate field are gone.
BENCH_SCHEMA_VERSION = 5


def process_usage() -> dict:
    """CPU seconds and peak RSS of this process, from the stdlib.

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; normalised to MiB
    here so every bench stamps comparable columns.
    """
    import resource
    import sys

    ru = resource.getrusage(resource.RUSAGE_SELF)
    rss_kb = ru.ru_maxrss / 1024 if sys.platform == "darwin" else ru.ru_maxrss
    return {
        "cpu_s": round(ru.ru_utime + ru.ru_stime, 3),
        "rss_mb": round(rss_kb / 1024, 1),
    }

#: Append-only per-commit headline history; see :func:`append_trajectory`.
TRAJECTORY_NAME = "BENCH_trajectory.jsonl"


def default_config(**overrides) -> ExperimentConfig:
    kwargs = {
        "n_keys": int(os.environ.get("REPRO_N_KEYS", 20_000)),
        "n_queries": int(os.environ.get("REPRO_N_QUERIES", 2_000)),
    }
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def record(benchmark, name: str, text: str) -> None:
    """Print, persist and attach a result table."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")
    if benchmark is not None:
        benchmark.extra_info["table"] = text


def series(results: dict, metric: str) -> dict[str, list[float]]:
    """Extract a metric per filter from a sweep result."""
    return {
        fname: [getattr(r, metric) for r in runs]
        for fname, runs in results.items()
    }


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def batch_rows(runs) -> str:
    """Format FilterRun rows (scalar and batch modes side by side).

    Surfaces the batch path's counters — probes per query and per-batch
    wall time — next to throughput, so a bench table shows *why* the
    batch path is faster, not just that it is.
    """
    cols = [
        "filter", "mode", "bpk", "filter_kqps", "probes/q", "batch_seconds",
    ]
    rows = [c.ljust(15) for c in cols]
    lines = ["".join(rows)]
    for run in runs:
        row = run.as_row()
        lines.append("".join(str(row[c]).ljust(15) for c in cols))
    return "\n".join(lines)


def _git_rev() -> str:
    """Short git revision of the repo, or ``"unknown"`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=5,
        )
        rev = out.stdout.strip()
        return rev if out.returncode == 0 and rev else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def write_bench_json(name: str, payload: dict) -> Path:
    """Write a machine-readable bench result to the repository root.

    Used by the smoke benches (``BENCH_*.json``) so CI and the
    acceptance checks can read before/after numbers without parsing
    tables.  Every file is stamped with a ``meta`` block — schema
    version and git revision — and, when ``REPRO_PROFILE=1`` collected
    at least one phase, the profiler's per-phase breakdown.
    """
    out = dict(payload)
    meta = {"schema_version": BENCH_SCHEMA_VERSION, "git_rev": _git_rev()}
    profiler = get_profiler()
    if profiler.has_data():
        meta["profile"] = profiler.report()
    out["meta"] = meta
    path = REPO_ROOT / name
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return path


def append_trajectory(
    bench: str, preset: str, kqps: float, **extra
) -> Path:
    """Append one headline row to ``BENCH_trajectory.jsonl``.

    The trajectory file is the committed, append-only per-commit history
    of each bench's headline throughput: one JSON object per line with
    ``schema_version``, ``git_rev``, ``bench``, ``preset`` and ``kqps``
    (plus any bench-specific ``extra`` fields).
    ``scripts/check_perf_regression.py`` compares a fresh run against
    the newest row from a *different* commit, so a regression is caught
    in CI before the offending commit lands.  Re-running on the same
    commit replaces that commit's row instead of appending, keeping one
    row per (bench, preset, engine, commit) — the engine is part of the
    key so a faster backend landing at some commit never erases the
    older backend's baseline measured at the same commit.
    """
    row = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "git_rev": _git_rev(),
        "bench": bench,
        "preset": preset,
        "kqps": round(float(kqps), 1),
    }
    row.update(extra)
    path = REPO_ROOT / TRAJECTORY_NAME
    lines = []
    if path.exists():
        lines = [l for l in path.read_text().splitlines() if l.strip()]

    def _same_cell(line: str) -> bool:
        try:
            old = json.loads(line)
        except json.JSONDecodeError:
            return False
        return (
            old.get("bench") == bench
            and old.get("preset") == preset
            and old.get("git_rev") == row["git_rev"]
            and old.get("engine") == row.get("engine")
        )

    lines = [l for l in lines if not _same_cell(l)]
    lines.append(json.dumps(row, sort_keys=True))
    path.write_text("\n".join(lines) + "\n")
    return path


def publish(benchmark, table_name: str, table: str,
            json_name: str, payload: dict) -> Path:
    """Print/persist a bench's result table *and* its stamped JSON.

    The one call every bench ``_finish`` makes: :func:`record` for the
    human-readable table under ``results/`` plus :func:`write_bench_json`
    for the machine-readable ``BENCH_*.json`` at the repo root.
    """
    record(benchmark, table_name, table)
    return write_bench_json(json_name, payload)
