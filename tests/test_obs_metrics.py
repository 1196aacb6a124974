"""Unit tests for the repro.obs metric registry and its exposition."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import obs
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    MetricRegistry,
    snapshot_to_prometheus,
)

from tests.promparse import parse_prometheus


@pytest.fixture
def registry():
    return MetricRegistry()


@pytest.fixture
def telemetry_on():
    """Force the module switch on and restore afterwards."""
    previous = obs.set_enabled(True)
    yield
    obs.set_enabled(previous)


class TestCounter:
    def test_inc_and_value(self, registry, telemetry_on):
        c = registry.counter("widgets_total", "widgets")
        c.inc()
        c.inc(4)
        assert c.value() == 5
        assert c.total() == 5

    def test_labels_are_independent(self, registry, telemetry_on):
        c = registry.counter("hits_total", "", ("shard",))
        c.inc(shard="a")
        c.inc(2, shard="b")
        assert c.value(shard="a") == 1
        assert c.value(shard="b") == 2
        assert c.total() == 3

    def test_unknown_label_rejected(self, registry, telemetry_on):
        c = registry.counter("hits_total", "", ("shard",))
        with pytest.raises(ValueError):
            c.inc(other="x")
        with pytest.raises(ValueError):
            c.inc()  # missing the declared label

    def test_negative_increment_rejected(self, registry, telemetry_on):
        c = registry.counter("n_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_remove_zeroes_one_labelset(self, registry, telemetry_on):
        c = registry.counter("n_total", "", ("k",))
        c.inc(5, k="x")
        c.inc(7, k="y")
        c.remove(k="x")
        assert c.value(k="x") == 0
        assert c.value(k="y") == 7

    def test_threaded_increments_are_exact(self, registry, telemetry_on):
        """The registry's atomic ops lose no increments under contention."""
        c = registry.counter("stress_total", "", ("worker",))
        n_threads, n_incs = 8, 5000

        def worker(idx: int) -> None:
            for _ in range(n_incs):
                c.inc(worker=str(idx % 2))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.total() == n_threads * n_incs
        assert c.value(worker="0") == n_threads * n_incs / 2


class TestGauge:
    def test_set_inc_dec(self, registry, telemetry_on):
        g = registry.gauge("depth")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value() == 12


class TestHistogram:
    def test_default_buckets_are_log_scale(self, registry):
        h = registry.histogram("lat_seconds")
        assert h.buckets == DEFAULT_TIME_BUCKETS
        ratios = {
            round(b / a, 6)
            for a, b in zip(h.buckets, h.buckets[1:])
        }
        assert len(ratios) == 1  # constant multiplicative spacing

    def test_observe_counts_and_sum(self, registry, telemetry_on):
        h = registry.histogram("lat_seconds", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == pytest.approx(55.55)
        assert h.bucket_counts() == (1, 1, 1, 1)  # last slot = overflow

    def test_redeclare_mismatch_raises(self, registry):
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")
        registry.counter("y_total", "", ("a",))
        with pytest.raises(ValueError):
            registry.counter("y_total", "", ("b",))

    def test_redeclare_is_get_or_create(self, registry, telemetry_on):
        a = registry.counter("same_total", "", ("k",))
        b = registry.counter("same_total", "", ("k",))
        assert a is b


class TestDisableSwitch:
    def test_disabled_mutations_are_noops(self, registry):
        previous = obs.set_enabled(False)
        try:
            c = registry.counter("c_total")
            g = registry.gauge("g")
            h = registry.histogram("h_seconds")
            c.inc(100)
            g.set(5)
            h.observe(1.0)
            assert c.value() == 0
            assert g.value() == 0
            assert h.count() == 0
        finally:
            obs.set_enabled(previous)

    def test_set_enabled_returns_previous(self):
        previous = obs.set_enabled(True)
        try:
            assert obs.set_enabled(True) is True
            assert obs.set_enabled(False) is True
            assert obs.set_enabled(True) is False
            assert obs.enabled() is True
        finally:
            obs.set_enabled(previous)


class TestExposition:
    def _populate(self, registry):
        c = registry.counter("repro_test_hits_total", "hits", ("shard",))
        c.inc(3, shard="a")
        c.inc(9, shard="b")
        registry.gauge("repro_test_depth", "queue depth").set(7)
        h = registry.histogram(
            "repro_test_lat_seconds", "latency", buckets=(0.001, 0.1, 10.0)
        )
        h.observe(0.05)
        h.observe(2.0)

    def test_prometheus_round_trips_through_parser(self, registry, telemetry_on):
        self._populate(registry)
        types, samples = parse_prometheus(registry.render_prometheus())
        assert types["repro_test_hits_total"] == "counter"
        assert types["repro_test_depth"] == "gauge"
        assert types["repro_test_lat_seconds"] == "histogram"
        assert samples[("repro_test_hits_total", (("shard", "a"),))] == 3
        assert samples[("repro_test_hits_total", (("shard", "b"),))] == 9
        assert samples[("repro_test_depth", ())] == 7
        # Histogram exposition: cumulative buckets, +Inf == count.
        assert samples[("repro_test_lat_seconds_bucket", (("le", "0.1"),))] == 1
        assert samples[("repro_test_lat_seconds_bucket", (("le", "10"),))] == 2
        assert samples[("repro_test_lat_seconds_bucket", (("le", "+Inf"),))] == 2
        assert samples[("repro_test_lat_seconds_count", ())] == 2
        assert samples[("repro_test_lat_seconds_sum", ())] == pytest.approx(2.05)

    def test_to_json_is_json_serializable(self, registry, telemetry_on):
        self._populate(registry)
        snapshot = json.loads(registry.render_json())
        assert snapshot["repro_test_hits_total"]["kind"] == "counter"
        values = {
            s["labels"]["shard"]: s["value"]
            for s in snapshot["repro_test_hits_total"]["samples"]
        }
        assert values == {"a": 3, "b": 9}
        hist = snapshot["repro_test_lat_seconds"]["samples"][0]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(2.05)

    def test_numpy_scalars_round_trip_through_json(self, registry, telemetry_on):
        registry.counter("repro_test_np_total").inc(np.int64(3))
        gauge = registry.gauge("repro_test_np_gauge")
        gauge.set(np.float32(0.5))
        gauge.inc(np.int32(2))
        registry.histogram("repro_test_np_seconds").observe(np.float64(0.25))
        snapshot = json.loads(json.dumps(registry.to_json()))
        assert snapshot["repro_test_np_total"]["samples"][0]["value"] == 3
        assert snapshot["repro_test_np_gauge"]["samples"][0]["value"] == 2.5
        assert snapshot["repro_test_np_seconds"]["samples"][0]["sum"] == 0.25
        assert type(registry.counter("repro_test_np_total").value()) is int

    def test_reset_keeps_declarations(self, registry, telemetry_on):
        self._populate(registry)
        registry.reset()
        c = registry.get("repro_test_hits_total")
        assert c.total() == 0
        types, _ = parse_prometheus(registry.render_prometheus())
        assert "repro_test_hits_total" in types

    def test_label_escaping(self, registry, telemetry_on):
        c = registry.counter("esc_total", "", ("path",))
        c.inc(path='weird"\\value')
        types, samples = parse_prometheus(registry.render_prometheus())
        assert len(samples) == 1

    #: Every metric kind's exposition, byte for byte: a labelled counter
    #: with escaped label values, untouched unlabelled and labelled
    #: counters, a NaN and a negative gauge, and a labelled histogram with
    #: an overflow sample beside an untouched one.
    GOLDEN = (
        '# TYPE repro_golden_depth gauge\n'
        'repro_golden_depth -7\n'
        '# HELP repro_golden_hits_total hits\n'
        '# TYPE repro_golden_hits_total counter\n'
        'repro_golden_hits_total{shard="a",path="we\\"ird\\\\pa\\nth"} 1.5\n'
        'repro_golden_hits_total{shard="b",path="x"} 3\n'
        '# HELP repro_golden_idle_seconds no samples\n'
        '# TYPE repro_golden_idle_seconds histogram\n'
        '# HELP repro_golden_idle_total never touched\n'
        '# TYPE repro_golden_idle_total counter\n'
        'repro_golden_idle_total 0\n'
        '# TYPE repro_golden_labelled_idle_total counter\n'
        '# HELP repro_golden_ratio not a number\n'
        '# TYPE repro_golden_ratio gauge\n'
        'repro_golden_ratio NaN\n'
        '# HELP repro_golden_seconds latency\n'
        '# TYPE repro_golden_seconds histogram\n'
        'repro_golden_seconds_bucket{route="/a",le="0.001"} 0\n'
        'repro_golden_seconds_bucket{route="/a",le="0.1"} 1\n'
        'repro_golden_seconds_bucket{route="/a",le="10"} 2\n'
        'repro_golden_seconds_bucket{route="/a",le="+Inf"} 3\n'
        'repro_golden_seconds_sum{route="/a"} 62.05\n'
        'repro_golden_seconds_count{route="/a"} 3\n'
        'repro_golden_seconds_bucket{route="/b\\"",le="0.001"} 1\n'
        'repro_golden_seconds_bucket{route="/b\\"",le="0.1"} 1\n'
        'repro_golden_seconds_bucket{route="/b\\"",le="10"} 1\n'
        'repro_golden_seconds_bucket{route="/b\\"",le="+Inf"} 1\n'
        'repro_golden_seconds_sum{route="/b\\""} 0.0005\n'
        'repro_golden_seconds_count{route="/b\\""} 1\n'
    )

    def test_exposition_bytes_are_pinned(self, registry, telemetry_on):
        hits = registry.counter(
            "repro_golden_hits_total", "hits", ("shard", "path")
        )
        hits.inc(3, shard="b", path="x")
        hits.inc(1.5, shard="a", path='we"ird\\pa\nth')
        registry.counter("repro_golden_idle_total", "never touched")
        registry.counter("repro_golden_labelled_idle_total", "", ("shard",))
        registry.gauge("repro_golden_ratio", "not a number").set(float("nan"))
        registry.gauge("repro_golden_depth").set(-7)
        lat = registry.histogram(
            "repro_golden_seconds", "latency", ("route",),
            buckets=(0.001, 0.1, 10.0),
        )
        for value in (0.05, 2.0, 60.0):
            lat.observe(value, route="/a")
        lat.observe(0.0005, route='/b"')
        registry.histogram("repro_golden_idle_seconds", "no samples")
        text = registry.render_prometheus()
        assert text == self.GOLDEN
        assert text == snapshot_to_prometheus(registry.to_json())


class TestHTTPExposition:
    def test_metrics_endpoint_serves_registry(
        self, registry, telemetry_on, tmp_path
    ):
        """The asyncio edge exposes the registry its router was built on."""
        import urllib.error
        import urllib.request

        import numpy as np

        from repro.cluster import ClusterHttpServer, build_cluster
        from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
        from repro.storage.wavelet_store import WaveletStorage

        data = np.random.default_rng(5).poisson(2.0, size=(16, 16))
        storage = WaveletStorage.build(data.astype(np.float64), wavelet="haar")
        router = build_cluster(
            storage, tmp_path / "http.pages", 2,
            process_shards=False, buffer_pages=8, registry=registry,
        )
        server = ClusterHttpServer(router, port=0).start_in_thread()
        try:
            registry.counter("repro_http_test_total").inc(42)
            base = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(f"{base}/metrics", timeout=10) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
                types, samples = parse_prometheus(resp.read().decode())
            assert samples[("repro_http_test_total", ())] == 42
            with urllib.request.urlopen(
                f"{base}/metrics.json", timeout=10
            ) as resp:
                snapshot = json.loads(resp.read())
            assert snapshot["repro_http_test_total"]["samples"][0]["value"] == 42
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{base}/nope", timeout=10)
            assert excinfo.value.code == 404
            excinfo.value.close()
        finally:
            server.close()
