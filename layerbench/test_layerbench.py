"""Self-tests of the layer benchmark (tiny sizes; about a minute).

Run from the repository root::

    python3 -m pytest -q layerbench/test_layerbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_program()

from repro.core.rencoder import REncoder  # noqa: E402
from workloads import BPK, WORKLOADS, OracleError  # noqa: E402

TINY = 0.02


def bench(*args: str, cwd: Path = ROOT, env=None):
    cmd = [sys.executable, str(cwd / "layerbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180, env=env)


def result(out) -> dict:
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def report(out, tag: str) -> dict:
    for line in out.stdout.splitlines():
        if line.startswith(tag + ": "):
            return json.loads(line[len(tag) + 2:])
    raise AssertionError(f"no {tag} line in {out.stdout!r}")


def test_benchmark_json_matches_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "5",
                "--trace", "0", "--scale", str(TINY))
    res = result(out)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 11
    assert {k: m["unit"] for k, m in res["metrics"].items()} == run.END_TO_END
    for name, m in res["metrics"].items():
        assert m["value"] > 0, name
    ctx = report(out, "context")
    for key in ("git_rev", "kernel_backend", "numpy", "nproc"):
        assert key in ctx


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_on_the_path(workload):
    # Wide batches keep 1,000 ranges at any scale: give its untraced
    # slices time for the tail's 11 requests.
    out = bench("--workload", workload, "--seed", "3", "--seconds", "10",
                "--trace", "1", "--scale", str(TINY))
    res = result(out)
    assert res["correct"] is True
    assert {k: m["unit"] for k, m in res["metrics"].items()} == run.PER_LAYER
    values = {k: m["value"] for k, m in res["metrics"].items()}
    off_path = report(out, "off_path")
    assert off_path == WORKLOADS[workload].off_path
    time_metrics = {
        "kernels": "kernels.self_us_per_query",
        "rencoder": "rencoder.self_us_per_query",
        "sstable": "sstable.self_us_per_query",
        "lsm": "lsm.self_us_per_query",
        "service": "service.self_ms_per_request",
        "router": "router.self_ms_per_request",
    }
    for layer, metric in time_metrics.items():
        if layer in off_path:
            assert values[metric] == 0, metric
        else:
            assert values[metric] > 0, metric
    assert values["lsm.put_us_p50"] > 0
    assert values["latency_p99_ms"] > 0 and values["puts_per_s"] > 0
    assert values["rencoder.build_ms_per_kkey"] > 0
    assert 0 < values["trace.overhead"]
    assert 0 <= values["trace.uncovered_share"] < 1
    assert report(out, "layers")["unattributed_spans"] == 0


def _first_pinned_key(name: str, seed: int) -> int:
    twin = WORKLOADS[name](seed, scale=TINY)
    if name == "routed-rw":
        twin._pending = []
    _, batch = twin.next_request()
    lo, hi = batch[0]
    assert lo == hi
    return lo


@pytest.mark.parametrize("name", ["short", "routed-rw"])
def test_oracle_catches_a_filter_that_drops_one_key(name):
    seed = 5
    dropped = _first_pinned_key(name, seed)

    def lossy(keys: np.ndarray) -> REncoder:
        return REncoder(keys[keys != np.uint64(dropped)], bits_per_key=BPK)

    w = WORKLOADS[name](seed, scale=TINY, factory=lossy)
    w.setup()
    try:
        with pytest.raises(OracleError, match="false negative"):
            run.measure(w, 1.0)
    finally:
        w.teardown()


def test_refuses_to_run_with_program_profiling_on():
    env = dict(os.environ, REPRO_PROFILE="1")
    out = bench("--workload", "short", "--seed", "1", "--seconds", "1",
                "--scale", str(TINY), env=env)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "layerbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = bench("--workload", "short", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
