"""Unit tests for the repro.obs tracing spans and Chrome-trace export."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro import obs


@pytest.fixture
def tracing():
    """Fresh 256-span ring, tracing on; everything restored afterwards."""
    previous = obs.set_tracing(True, capacity=256)
    yield obs.get_recorder()
    obs.set_tracing(previous)
    obs.get_recorder().clear()


class TestSpan:
    def test_span_records_name_duration_attrs(self, tracing):
        with obs.span("unit.work", items=3):
            time.sleep(0.002)
        records = tracing.records()
        assert len(records) == 1
        rec = records[0]
        assert rec.name == "unit.work"
        assert rec.attrs == {"items": 3}
        assert rec.dur_us >= 1000  # slept 2ms

    def test_nested_spans_are_time_contained(self, tracing):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        inner, outer = tracing.records()
        assert inner.name == "inner" and outer.name == "outer"
        assert outer.ts_us <= inner.ts_us
        assert outer.ts_us + outer.dur_us >= inner.ts_us + inner.dur_us

    def test_disabled_spans_record_nothing(self):
        previous = obs.set_tracing(False)
        try:
            before = len(obs.get_recorder())
            with obs.span("invisible"):
                pass
            assert len(obs.get_recorder()) == before
        finally:
            obs.set_tracing(previous)

    def test_span_survives_exceptions(self, tracing):
        with pytest.raises(RuntimeError):
            with obs.span("failing"):
                raise RuntimeError("boom")
        assert tracing.records()[0].name == "failing"

    def test_ring_is_bounded(self, tracing):
        for i in range(1000):
            with obs.span("tick", i=i):
                pass
        assert len(tracing) == 256
        # Oldest spans fell off: the ring holds the most recent ticks.
        assert tracing.records()[0].attrs["i"] == 1000 - 256


class TestChromeExport:
    def test_chrome_trace_schema(self, tracing):
        with obs.span("phase.a", n=1):
            with obs.span("phase.b"):
                pass
        trace = tracing.to_chrome_trace()
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in events} == {"phase.a", "phase.b"}
        for event in events:
            assert set(event) >= {"name", "ph", "ts", "dur", "pid", "tid", "args"}
            assert event["dur"] >= 0
        metadata = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert metadata and metadata[0]["name"] == "thread_name"

    def test_export_writes_parseable_json(self, tracing, tmp_path):
        with obs.span("exported"):
            pass
        out = tmp_path / "trace.json"
        count = tracing.export(out)
        assert count == 1
        trace = json.loads(out.read_text())
        assert any(e["name"] == "exported" for e in trace["traceEvents"])

    def test_threads_get_distinct_tracks(self, tracing):
        def work():
            with obs.span("threaded"):
                pass

        t = threading.Thread(target=work, name="worker-track")
        with obs.span("main-track"):
            pass
        t.start()
        t.join()
        tids = {r.tid for r in tracing.records()}
        assert len(tids) == 2
        trace = tracing.to_chrome_trace()
        names = {
            e["args"]["name"] for e in trace["traceEvents"] if e["ph"] == "M"
        }
        assert "worker-track" in names

    def test_set_tracing_capacity_swaps_ring(self):
        previous = obs.set_tracing(True, capacity=8)
        try:
            assert obs.get_recorder().capacity == 8
            for _ in range(20):
                with obs.span("x"):
                    pass
            assert len(obs.get_recorder()) == 8
        finally:
            obs.set_tracing(previous, capacity=65536)
            obs.get_recorder().clear()


class TestRingOverflowAccounting:
    def test_dropped_counts_evictions(self, tracing):
        for _ in range(300):
            with obs.span("tick"):
                pass
        assert tracing.dropped == 300 - 256
        assert len(tracing) == 256

    def test_clear_resets_dropped(self, tracing):
        for _ in range(300):
            with obs.span("tick"):
                pass
        tracing.clear()
        assert tracing.dropped == 0

    def test_drop_counter_metric_increments(self, tracing):
        counter = obs.REGISTRY.get("repro_trace_spans_dropped_total")
        before = counter.total()
        for _ in range(258):
            with obs.span("tick"):
                pass
        assert counter.total() - before == 2


class TestCrossProcessSpans:
    def test_portable_round_trip_preserves_pid_and_order(self, tracing):
        with obs.span("worker.side", task=1):
            pass
        portable = obs.export_portable()
        assert len(portable) == 1
        name, epoch_us, dur_us, pid, tid, attrs = portable[0]
        assert name == "worker.side" and attrs == {"task": 1}
        import os

        assert pid == os.getpid()
        tracing.clear()
        # Absorbing back into the same process keeps pid + timing.
        assert obs.absorb_portable(portable) == 1
        rec = tracing.records()[0]
        assert rec.pid == pid and rec.name == "worker.side"
        # Re-anchored timestamp lands near "now" on this timeline, not
        # at the epoch: a fresh local span must sit close to it.
        with obs.span("anchor"):
            pass
        anchor = tracing.records()[-1]
        assert abs(anchor.ts_us - rec.ts_us) < 60_000_000  # same minute

    def test_chrome_trace_names_foreign_processes(self, tracing):
        with obs.span("local"):
            pass
        obs.absorb_portable(
            [("remote.work", obs.trace._anchor_us(), 5.0, 99999, 0, {})]
        )
        trace = tracing.to_chrome_trace()
        metadata = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        # Existing contract: thread metadata stays first.
        assert metadata[0]["name"] == "thread_name"
        process_names = {
            e["pid"]: e["args"]["name"]
            for e in metadata
            if e["name"] == "process_name"
        }
        assert process_names[99999] == "repro-worker-99999"
        import os

        assert process_names[os.getpid()] == "repro"


class TestPipelineSpans:
    def test_batch_run_emits_expected_span_tree(self, tracing):
        from repro.core.batch import BatchBiggestB
        from repro.data.synthetic import uniform_dataset
        from repro.queries.workload import partition_count_batch
        from repro.storage.wavelet_store import WaveletStorage
        import numpy as np

        relation = uniform_dataset((16, 16), 500, seed=0)
        storage = WaveletStorage.build(relation.frequency_distribution())
        batch = partition_count_batch(
            (16, 16), (2, 2), rng=np.random.default_rng(1)
        )
        evaluator = BatchBiggestB(storage, batch)
        evaluator.run()
        names = {r.name for r in tracing.records()}
        assert {"rewrite.batch", "plan.from_factors", "batch.run"} <= names
