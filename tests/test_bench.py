"""Tests for the continuous benchmark harness (:mod:`repro.obs.bench`)."""

from __future__ import annotations

import copy
import json

import pytest

from repro.obs import bench


@pytest.fixture(scope="module")
def progressive_doc():
    """One real run of the progressive family (module-cached)."""
    return bench.run_family("progressive", seed=0)


class TestRunFamily:
    def test_document_shape(self, progressive_doc):
        doc = progressive_doc
        assert doc["schema"] == bench.SCHEMA
        assert doc["family"] == "progressive"
        assert set(doc["scenarios"]) == {
            "exact", "steps", "advance_vectorized", "advance_scalar",
        }

    def test_validates_clean(self, progressive_doc):
        assert bench.validate(progressive_doc) == []

    def test_counters_are_deterministic(self, progressive_doc):
        rerun = bench.run_family("progressive", seed=0)
        for name, result in progressive_doc["scenarios"].items():
            assert rerun["scenarios"][name]["counters"] == result["counters"]

    def test_exact_scenario_counts_the_master_list(self, progressive_doc):
        counters = progressive_doc["scenarios"]["exact"]["counters"]
        assert counters["retrievals"] == counters["master_keys"]
        assert counters["bytes_fetched"] == counters["retrievals"] * 8
        # Sharing helps: the shared master list beats per-query fetching.
        assert counters["unshared_retrievals"] > counters["retrievals"]

    def test_unknown_family_raises(self):
        with pytest.raises(KeyError):
            bench.run_family("nonexistent")


class TestValidate:
    def test_rejects_wrong_schema(self, progressive_doc):
        doc = copy.deepcopy(progressive_doc)
        doc["schema"] = "repro-bench/v999"
        problems = bench.validate(doc)
        assert problems and "schema" in problems[0]

    def test_rejects_non_integer_counter(self, progressive_doc):
        doc = copy.deepcopy(progressive_doc)
        doc["scenarios"]["exact"]["counters"]["retrievals"] = 1.5
        assert any("retrievals" in p for p in bench.validate(doc))

    def test_rejects_missing_scenarios(self, progressive_doc):
        doc = copy.deepcopy(progressive_doc)
        doc["scenarios"] = {}
        assert any("scenarios" in p for p in bench.validate(doc))

    def test_rejects_malformed_stage(self, progressive_doc):
        doc = copy.deepcopy(progressive_doc)
        doc["scenarios"]["exact"]["stages"]["fetch"]["calls"] = 0
        assert any("fetch" in p for p in bench.validate(doc))


class TestPersistence:
    def test_write_and_load_round_trip(self, progressive_doc, tmp_path):
        paths = bench.write_bench(tmp_path, {"progressive": progressive_doc})
        assert paths == [tmp_path / "BENCH_progressive.json"]
        loaded = bench.load_baseline(tmp_path, "progressive")
        assert loaded == json.loads(json.dumps(progressive_doc))

    def test_load_missing_baseline_returns_none(self, tmp_path):
        assert bench.load_baseline(tmp_path, "service") is None

    def test_committed_baselines_validate(self):
        """The baselines checked into the repo root stay schema-clean."""
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        for family in bench.BENCH_FILES:
            doc = bench.load_baseline(root, family)
            assert doc is not None, f"missing committed {family} baseline"
            assert bench.validate(doc) == []


class TestCompareGate:
    def test_identical_documents_pass(self, progressive_doc):
        assert bench.compare(progressive_doc, progressive_doc) == []

    def test_counter_drift_fails(self, progressive_doc):
        current = copy.deepcopy(progressive_doc)
        current["scenarios"]["exact"]["counters"]["retrievals"] += 1
        problems = bench.compare(current, progressive_doc)
        assert any("drifted" in p for p in problems)

    def test_missing_scenario_fails(self, progressive_doc):
        current = copy.deepcopy(progressive_doc)
        del current["scenarios"]["steps"]
        problems = bench.compare(current, progressive_doc)
        assert any("missing from current run" in p for p in problems)

    def test_schema_drift_requires_rebaseline(self, progressive_doc):
        current = copy.deepcopy(progressive_doc)
        current["schema"] = "repro-bench/v1"
        problems = bench.compare(current, progressive_doc)
        assert problems and "re-baseline" in problems[0]


class TestVectorizedGate:
    def test_real_run_passes(self, progressive_doc):
        assert bench.vectorized_gate(progressive_doc) == []

    def test_counter_divergence_fails(self, progressive_doc):
        doc = copy.deepcopy(progressive_doc)
        doc["scenarios"]["advance_vectorized"]["counters"]["retrievals"] += 1
        problems = bench.vectorized_gate(doc)
        assert any("counter" in p for p in problems)

    def test_chunk_counter_is_exempt(self, progressive_doc):
        # The two scenarios intentionally differ in "chunk"; only that key.
        vec = progressive_doc["scenarios"]["advance_vectorized"]["counters"]
        scalar = progressive_doc["scenarios"]["advance_scalar"]["counters"]
        assert vec["chunk"] != scalar["chunk"]

    def test_as_many_fetch_calls_as_scalar_fails(self, progressive_doc):
        doc = copy.deepcopy(progressive_doc)
        scalar = doc["scenarios"]["advance_scalar"]["stages"]["fetch"]["calls"]
        doc["scenarios"]["advance_vectorized"]["stages"]["fetch"]["calls"] = scalar
        problems = bench.vectorized_gate(doc)
        assert any("fetch calls" in p for p in problems)

    def test_missing_scenarios_fail(self, progressive_doc):
        doc = copy.deepcopy(progressive_doc)
        del doc["scenarios"]["advance_scalar"]
        assert bench.vectorized_gate(doc)
