"""Tests for the bench harness: registry, metrics, tables, and tiny runs
of every experiment driver."""

import numpy as np
import pytest

from repro.bench.experiments import (
    ExperimentConfig,
    fig3_build_time,
    fig3_workload_time,
    fig4_overall_time,
    fig5_fpr_range,
    fig7_point_queries,
    fig8_point_optimised,
    table1_summary,
    table4_independence,
)
from repro.bench.metrics import measure_fpr, run_filter, run_point_filter
from repro.bench.registry import FILTER_NAMES, build_filter
from repro.bench.tables import format_series, format_table
from repro.filters.base import as_key_array
from repro.workloads.datasets import generate_keys
from repro.workloads.queries import uniform_range_queries

TINY = ExperimentConfig(n_keys=600, n_queries=80, bpks=(12, 20))


@pytest.fixture(scope="module")
def keys():
    return generate_keys(600, "uniform", seed=50)


@pytest.fixture(scope="module")
def queries(keys):
    return uniform_range_queries(keys, 100, seed=51)


class TestRegistry:
    @pytest.mark.parametrize("name", FILTER_NAMES)
    def test_build_every_filter(self, keys, queries, name):
        filt = build_filter(name, keys, 16.0, sample_queries=queries[:20])
        assert filt.size_in_bits() > 0
        # One-sidedness holds for each registered filter.
        for k in keys[:30]:
            assert filt.query_range(int(k), int(k))

    @pytest.mark.parametrize("name", ["REncoder", "Bloom", "Rosetta"])
    def test_python_int_keys_straddling_2_63(self, name):
        # numpy infers float64 for such a list; the keys must survive
        # exactly, not be rounded or rejected for their inferred dtype.
        keys = [3, 1, 2**63 - 1, 2**63 + 5, 2**64 - 1, 2**63 + 5]
        filt = build_filter(name, keys, 16.0)
        for k in keys:
            assert filt.query_point(k)
            assert filt.query_range(k, k)

    @pytest.mark.parametrize("bad", [[-1, 3], [2**64], [3, 2**64 + 7]])
    def test_out_of_domain_keys_raise_value_error(self, bad):
        with pytest.raises(ValueError, match=r"outside \[0, 2\^64\)"):
            as_key_array(bad)
        with pytest.raises(ValueError):
            build_filter("REncoder", bad, 16.0)
        if not any(k >= 2**64 for k in bad):
            with pytest.raises(ValueError):
                as_key_array(np.array(bad, dtype=np.int64))

    @pytest.mark.parametrize(
        "bad", [[1.5, 2], [2**63 + 5, 0.5], np.array([1.0, 2.0]), ["7"]]
    )
    def test_non_integer_keys_raise_type_error(self, bad):
        with pytest.raises(TypeError):
            as_key_array(bad)

    def test_unknown_filter(self, keys):
        with pytest.raises(ValueError):
            build_filter("Magic", keys, 16.0)


class TestMetrics:
    def test_measure_fpr(self, keys, queries):
        filt = build_filter("REncoder", keys, 18.0)
        fpr = measure_fpr(filt, queries)
        assert 0.0 <= fpr <= 1.0

    def test_run_filter_fields(self, keys, queries):
        filt = build_filter("REncoder", keys, 18.0)
        run = run_filter(filt, queries, io_cost_ns=1_000_000)
        assert run.n_queries == len(queries)
        assert run.positives == round(run.fpr * run.n_queries)
        assert run.filter_kqps > 0
        assert run.overall_kqps <= run.filter_kqps
        assert run.bits_per_key == pytest.approx(18.0, abs=1.5)
        assert run.as_row()["filter"] == "REncoder"

    def test_run_point_filter(self, keys):
        filt = build_filter("REncoder", keys, 18.0)
        run = run_point_filter(filt, [(1, 1), (2, 2)])
        assert run.n_queries == 2

    def test_empty_queries_rejected(self, keys):
        filt = build_filter("REncoder", keys, 18.0)
        with pytest.raises(ValueError):
            run_filter(filt, [])


class TestTables:
    def test_format_table(self):
        text = format_table(
            [{"a": 1, "b": 0.123456}, {"a": 20, "b": 1e-5}], title="T"
        )
        assert "T" in text and "a" in text and "1e-05" in text.replace(
            "1.0e-05", "1e-05"
        )

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="x")

    def test_format_series(self):
        text = format_series("bpk", [10, 20], {"f": [0.1, 0.2]})
        assert "bpk" in text and "f" in text

    def test_format_series_short_series(self):
        text = format_series("x", [1, 2], {"s": [0.5]})
        assert "nan" in text


class TestExperimentDrivers:
    def test_fig3_build(self):
        rows, text = fig3_build_time(TINY, n_keys_list=[300, 600])
        assert len(rows) == 2
        assert "Figure 3(a)" in text
        assert all(r["rencoder_ms"] > 0 for r in rows)

    def test_fig3_workload(self):
        rows, text = fig3_workload_time(TINY)
        assert len(rows) == len(TINY.bpks)
        # The headline claim — REncoder beats the Bloom baseline on range
        # workloads.  At this tiny test scale the lowest-BPK point is
        # noise-dominated, so assert at the top of the sweep (the full
        # benches check the whole curve).
        assert rows[-1]["speedup"] > 1

    def test_fig4_overall(self):
        rows, text = fig4_overall_time(TINY)
        assert {"bpk", "Bloom_s", "REncoder_s", "REncoderSS_s",
                "REncoderSE_s"} <= set(rows[0].keys())

    def test_fig5(self):
        results, text = fig5_fpr_range(TINY)
        assert set(results.keys()) >= {"REncoder", "Rosetta", "SuRF"}
        for runs in results.values():
            assert len(runs) == len(TINY.bpks)

    def test_fig7(self):
        results, text = fig7_point_queries(TINY)
        assert "Figure 7" in text

    def test_fig8(self):
        results, text = fig8_point_optimised(TINY)
        assert set(results.keys()) == {"Rosetta", "REncoder", "REncoderPO"}

    def test_table1(self):
        rows, text = table1_summary(TINY)
        cases = {r["use_case"] for r in rows}
        assert cases == {"A", "B", "C"}

    def test_table4(self):
        rows, text = table4_independence(TINY)
        patterns = {r["pattern"] for r in rows}
        assert {"(none)", "00", "01", "10", "11"} <= patterns
        for row in rows:
            assert row["p0"] + row["p1"] == pytest.approx(1.0)
