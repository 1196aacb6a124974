"""The asyncio HTTP edge: session API, backpressure, chaos over HTTP."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.cluster import (
    ClusterApiError,
    ClusterBusyError,
    ClusterClient,
    ClusterHttpServer,
    build_cluster,
)
from repro.cluster.http import RETRY_AFTER_S
from repro.queries.workload import partition_count_batch
from repro.storage.wavelet_store import WaveletStorage
from tests.promparse import validate_exposition


@pytest.fixture(scope="module")
def storage():
    rng = np.random.default_rng(88)
    data = rng.poisson(2.0, size=(32, 32)).astype(np.float64)
    return WaveletStorage.build(data, wavelet="db2")


def make_batch(seed: int):
    return partition_count_batch(
        (32, 32), (3, 3), rng=np.random.default_rng(seed)
    )


@pytest.fixture
def edge(storage, tmp_path):
    router = build_cluster(
        storage, tmp_path / "edge.pages", 2,
        process_shards=False, buffer_pages=16,
    )
    server = ClusterHttpServer(router, port=0).start_in_thread()
    client = ClusterClient("127.0.0.1", server.port, timeout=30.0)
    yield server, client
    client.close()
    server.close()


class TestSessionApi:
    def test_submit_advance_poll_cancel_round_trip(self, edge, storage):
        server, client = edge
        batch = make_batch(11)
        sid = client.submit(batch)
        assert sid in client.sessions()

        out = client.advance(sid, 20)
        assert out["gained"] == 20
        snap = client.poll(sid)
        assert snap["steps_taken"] == 20 and not snap["is_exact"]

        # The HTTP snapshot is bit-equal to the router's own poll —
        # JSON floats round-trip exactly.
        direct = server.router.poll(sid)
        np.testing.assert_array_equal(snap["estimates"], direct.estimates)
        assert snap["worst_case_bound"] == direct.worst_case_bound

        while not snap["is_exact"]:
            if client.advance(sid, 64)["gained"] == 0:
                break
            snap = client.poll(sid)
        assert snap["is_exact"] and snap["remaining"] == 0

        client.cancel(sid)
        assert client.sessions() == []
        with pytest.raises(ClusterApiError) as err:
            client.poll(sid)
        assert err.value.status == 404

    def test_penalty_switch_and_retry_endpoints(self, edge):
        _, client = edge
        sid = client.submit(make_batch(13), penalty={"kind": "lp", "p": 1.0})
        client.advance(sid, 10)
        snap = client.set_penalty(
            sid, {"kind": "cursored_sse", "high_priority": [0, 1]}
        )
        assert snap["steps_taken"] == 10
        assert client.retry_skipped(sid) == 0  # healthy session
        client.cancel(sid)

    def test_submit_validates_domain_over_http(self, edge):
        _, client = edge
        with pytest.raises(ClusterApiError) as err:
            client.submit({
                "queries": [
                    {"kind": "count", "rect": [[0, 99], [0, 15]],
                     "label": "huge"},
                ]
            })
        assert err.value.status == 400
        assert "huge" in err.value.api_message

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"queries": []},
            {"queries": [{"kind": "median", "rect": [[0, 3], [0, 3]]}]},
            {"queries": [{"kind": "sum", "rect": [[0, 3], [0, 3]]}]},
            {"queries": [{"kind": "count", "rect": "nope"}]},
        ],
    )
    def test_malformed_submissions_are_400(self, edge, payload):
        _, client = edge
        with pytest.raises(ClusterApiError) as err:
            client.submit(payload)
        assert err.value.status == 400

    def test_unknown_routes_and_methods(self, edge):
        _, client = edge
        with pytest.raises(ClusterApiError) as err:
            client._request("GET", "/nope")
        assert err.value.status == 404
        with pytest.raises(ClusterApiError) as err:
            client._request("PUT", "/sessions")
        assert err.value.status == 405


class TestObservability:
    def test_metrics_costs_and_healthz(self, edge):
        server, client = edge
        sid = client.submit(make_batch(17))
        client.advance(sid, 12)
        text = client.metrics_text()
        assert "repro_cluster_sessions_submitted_total" in text
        assert "repro_cluster_shard_up" in text
        # A Prometheus scrape target: the 0.0.4 content type and a body
        # the strict linter accepts.
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        assert response.getheader("Content-Type").startswith(
            "text/plain; version=0.0.4"
        )
        assert validate_exposition(response.read().decode("utf-8")) == []
        conn.request("GET", "/nope")
        response = conn.getresponse()
        assert response.status == 404
        response.read()
        conn.close()
        costs = client.costs()
        assert sid in costs
        report = client.session_costs(sid)
        assert report["counters"]["deliveries"] >= 12
        health = client.healthz()
        assert [s["up"] for s in health["shards"]] == [True, True]
        assert health["partitioner"]["kind"] == "hash"
        assert health["max_inflight"] == 32
        client.cancel(sid)

    def test_metrics_json_and_status_helpers(self, edge):
        _, client = edge
        sid = client.submit(make_batch(37))
        client.advance(sid, 10)
        snapshot = client.metrics()
        family = snapshot["repro_cluster_sessions_submitted_total"]
        assert family["kind"] == "counter" and family["samples"]
        status = client.status()
        entry = status["sessions"][sid]
        assert entry["steps_taken"] == 10 and not entry["is_exact"]
        assert entry["bound_trajectory"]
        # Inline shards still report heartbeat + RTT from the pipe-call
        # accounting; pid comes from telemetry (this same process here).
        for shard in status["shards"].values():
            assert shard["alive"] and shard["rtt_p50_s"] > 0.0
            assert shard["last_reply_age_s"] >= 0.0
        client.cancel(sid)

    def test_trace_covers_submit_and_scheduler(self, edge):
        _, client = edge
        obs.get_recorder().clear()
        obs.set_tracing(True)
        try:
            sid = client.submit(make_batch(41))
            client.advance(sid, 8)
        finally:
            obs.set_tracing(False)
        names = {record.name for record in obs.get_recorder().records()}
        obs.get_recorder().clear()
        assert {"cluster.submit", "scheduler.advance", "scheduler.fetch"} <= names
        client.cancel(sid)

    def test_edge_request_metrics_label_routes(self, edge):
        _, client = edge
        sid = client.submit(make_batch(39))
        client.advance(sid, 4)
        client.cancel(sid)
        text = client.metrics_text()
        assert 'route="POST /sessions",status="201"' in text
        assert 'route="POST /sessions/{id}/advance"' in text
        assert 'route="DELETE /sessions/{id}"' in text
        assert "repro_edge_request_seconds_bucket" in text
        assert "repro_edge_response_bytes_sum" in text

    def test_healthz_is_503_once_a_shard_is_shed(self, storage, tmp_path):
        router = build_cluster(
            storage, tmp_path / "hz.pages", 2,
            process_shards=False, buffer_pages=16,
        )
        server = ClusterHttpServer(
            router, port=0, access_log=False
        ).start_in_thread()
        client = ClusterClient("127.0.0.1", server.port)
        try:
            assert client.healthz()["ok"]
            router._shed_shard(1)
            # The client surfaces the 503 body instead of raising, so
            # the per-shard detail stays reachable when unhealthy.
            health = client.healthz()
            assert not health["ok"]
            assert [s["up"] for s in health["shards"]] == [True, False]
            # Unsupervised: the tri-state collapses to up/down.
            assert [s["state"] for s in health["shards"]] == ["up", "down"]
            assert client.shard_states() == {0: "up", 1: "down"}
            import http.client

            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=10
            )
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 503
            response.read()
            conn.close()
        finally:
            client.close()
            server.close()


class TestRequestIds:
    def test_request_id_is_echoed_and_recorded(self, edge):
        _, client = edge
        client.sessions()
        first = client.last_request_id
        assert first and len(first) == 12
        client.sessions()
        assert client.last_request_id != first  # fresh id per request

    def test_next_request_id_overrides_once(self, edge):
        _, client = edge
        client.next_request_id = "req-pinned-77"
        client.sessions()
        assert client.last_request_id == "req-pinned-77"
        assert client.next_request_id is None
        client.sessions()
        assert client.last_request_id != "req-pinned-77"

    def test_server_assigns_id_when_client_sends_none(self, edge):
        server, _ = edge
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        assert response.getheader("X-Request-Id")
        response.read()
        conn.close()


class TestAccessLog:
    def test_structured_access_log_lines(self, storage, tmp_path):
        lines: list[str] = []
        router = build_cluster(
            storage, tmp_path / "log.pages", 2,
            process_shards=False, buffer_pages=16,
        )
        server = ClusterHttpServer(
            router, port=0, access_log=lines.append
        ).start_in_thread()
        client = ClusterClient("127.0.0.1", server.port)
        try:
            client.next_request_id = "req-logged-1"
            sid = client.submit(make_batch(31))
            client.cancel(sid)
            import time as _time

            deadline = _time.time() + 5.0
            while len(lines) < 2 and _time.time() < deadline:
                _time.sleep(0.01)
            entries = [json.loads(line) for line in lines]
            submit = entries[0]
            assert submit["request_id"] == "req-logged-1"
            assert submit["method"] == "POST" and submit["path"] == "/sessions"
            assert submit["route"] == "POST /sessions"
            assert submit["status"] == 201 and submit["bytes"] > 0
            assert submit["duration_ms"] >= 0 and submit["slow"] is False
            assert {e["route"] for e in entries} >= {
                "POST /sessions", "DELETE /sessions/{id}",
            }
        finally:
            client.close()
            server.close()


class TestBackpressure:
    def test_admission_control_rejects_with_retry_after(
        self, storage, tmp_path
    ):
        router = build_cluster(
            storage, tmp_path / "bp.pages", 2,
            process_shards=False, buffer_pages=16,
        )
        # max_inflight=0: every session-facing request is shed at the
        # door — the deterministic way to exercise the 429 path.
        server = ClusterHttpServer(
            router, port=0, max_inflight=0
        ).start_in_thread()
        client = ClusterClient("127.0.0.1", server.port)
        try:
            with pytest.raises(ClusterBusyError) as err:
                client.submit(make_batch(19))
            assert err.value.status == 429
            assert err.value.retry_after == RETRY_AFTER_S
            # Observability bypasses admission: still visible when full.
            assert client.healthz()["shards"]
            assert "repro_cluster_http_rejected_total" in client.metrics_text()
        finally:
            client.close()
            server.close()

    def test_shard_blackout_degrades_over_http(self, storage, tmp_path):
        chaos = {
            "seed": 23,
            "transient_rate": 0.0,
            "blackout_keys": list(range(0, 1024, 3)),
            "max_attempts": 2,
        }
        router = build_cluster(
            storage, tmp_path / "deg.pages", 2,
            process_shards=False, buffer_pages=16,
            chaos=chaos, chaos_shard=0,
        )
        server = ClusterHttpServer(router, port=0).start_in_thread()
        client = ClusterClient("127.0.0.1", server.port)
        try:
            sid = client.submit(make_batch(29))
            while client.advance(sid, 64)["gained"]:
                pass
            snap = client.poll(sid)
            assert snap["degraded"] and snap["skipped_count"] > 0
            assert not snap["is_exact"]
            assert 0.0 < snap["worst_case_bound"] < float("inf")
        finally:
            client.close()
            server.close()


class TestWireFormat:
    def test_bad_json_body_is_400_not_500(self, edge):
        server, _ = edge
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request(
            "POST", "/sessions", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        body = json.loads(response.read())
        assert response.status == 400
        assert "bad JSON" in body["error"]
        conn.close()

    def test_keep_alive_serves_multiple_requests(self, edge):
        server, _ = edge
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        for _ in range(3):
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            response.read()
        conn.close()
