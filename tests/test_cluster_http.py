"""The HTTP edge: session API, backpressure, chaos over HTTP, connections."""

from __future__ import annotations

import json
import socket
import sys
import threading
import time

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
from repro.cluster import http as http_module
from repro.cluster.codec import encode_batch
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

    def test_a_workers_field_starts_no_process(self, edge, monkeypatch):
        """A request body cannot choose how many processes the edge
        forks: ``"workers"`` is an unknown key, ignored like any other."""
        import concurrent.futures
        import http.client

        def no_pool(*args, **kwargs):
            raise AssertionError("a request started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        server, _ = edge
        # A 3x3 grid: three distinct factors per axis.
        payload = encode_batch(make_batch(17))

        def post(body: dict) -> tuple[int, dict]:
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=30
            )
            conn.request(
                "POST", "/sessions", body=json.dumps(body).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            reply = json.loads(response.read())
            conn.close()
            return response.status, reply

        status, with_field = post({**payload, "workers": 64})
        assert status == 201
        status, without = post(payload)
        assert status == 201
        for reply in (with_field, without):
            del reply["session_id"], reply["snapshot"]["session_id"]
        assert with_field == without

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
        assert {"cluster.submit", "cluster.advance", "scheduler.fetch"} <= names
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


def raw_exchange(port: int, request: bytes) -> bytes:
    """Send ``request``, read until the edge closes the connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return reply


def edge_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("repro-edge")]


class TestConnections:
    """One thread per connection: ordering, shutdown and the cap."""

    def test_pipelined_requests_are_answered_in_order(self, edge):
        server, _ = edge
        reply = raw_exchange(
            server.port,
            b"POST /sessions/zz/retry HTTP/1.1\r\nX-Request-Id: first\r\n"
            b"Content-Length: 2\r\n\r\n{}"
            b"GET /sessions HTTP/1.1\r\nX-Request-Id: second\r\n"
            b"Connection: close\r\n\r\n",
        )
        first, second = reply.split(b"HTTP/1.1 ")[1:]
        assert first.startswith(b"404 ") and b"X-Request-Id: first\r\n" in first
        assert second.startswith(b"200 ") and b"X-Request-Id: second\r\n" in second
        assert second.endswith(b'{"sessions": []}')

    @pytest.mark.parametrize(
        "framing, status",
        [
            (b"Content-Length: %d\r\nContent-Length: 2\r\n", b"400 "),
            (b"Transfer-Encoding: chunked\r\n", b"501 "),
        ],
        ids=["two-lengths", "chunked"],
    )
    def test_a_body_framed_two_ways_is_rejected_not_split(self, edge, framing, status):
        """Request smuggling (RFC 9112 §6.1, §6.3): a body whose length
        depends on which header a reader believes must not be split into
        a second request.  The edge answers once and closes."""
        server, _ = edge
        body = b"{}GET /sessions HTTP/1.1\r\nX-Request-Id: smuggled\r\n\r\n"
        if b"%d" in framing:
            framing %= len(body)
        reply = raw_exchange(
            server.port,
            b"POST /sessions/zz/retry HTTP/1.1\r\n" + framing + b"\r\n" + body,
        )
        assert reply.count(b"HTTP/1.1 ") == 1, reply
        assert reply.startswith(b"HTTP/1.1 " + status) and b"Connection: close" in reply
        assert b"smuggled" not in reply

    def test_concurrent_connections_keep_exact_books(self, edge):
        server, client = edge
        sid = client.submit(make_batch(47))
        polls = server._route_requests
        before = polls.value(route="GET /sessions/{id}", status="200")
        errors: list[Exception] = []

        def poller() -> None:
            try:
                with ClusterClient("127.0.0.1", server.port) as own:
                    for _ in range(25):
                        own.poll(sid)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=poller) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(switch)
        assert not errors and not any(t.is_alive() for t in threads)

        def books():  # a request is counted just after its reply is sent
            served = polls.value(route="GET /sessions/{id}", status="200") - before
            return served, len(server._conns), server._inflight

        deadline = time.monotonic() + 5.0
        while books() != (200, 1, 0) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert books() == (200, 1, 0)  # every poll once; `client` still open
        client.cancel(sid)

    def test_close_finishes_the_request_in_flight_and_ends_idle_ones(
        self, storage, tmp_path
    ):
        router = build_cluster(
            storage, tmp_path / "close.pages", 2,
            process_shards=False, buffer_pages=16,
        )
        server = ClusterHttpServer(router, port=0, access_log=False).start_in_thread()
        idle = ClusterClient("127.0.0.1", server.port)
        busy = ClusterClient("127.0.0.1", server.port)
        sid = busy.submit(make_batch(43))
        assert idle.sessions() == [sid]  # a keep-alive connection, now idle
        entered, release = threading.Event(), threading.Event()
        advance = router.advance

        def held_advance(*args):
            entered.set()
            release.wait(10.0)
            return advance(*args)

        router.advance = held_advance
        replies: list[dict] = []
        in_flight = threading.Thread(target=lambda: replies.append(busy.advance(sid, 8)))
        in_flight.start()
        try:
            assert entered.wait(10.0)
            closer = threading.Thread(target=server.close)
            closer.start()
            closer.join(0.3)
            assert closer.is_alive() and router.live_shards == 2  # waiting
        finally:
            release.set()
        in_flight.join(10.0)
        released = time.monotonic()
        closer.join(10.0)
        assert not closer.is_alive() and time.monotonic() - released < 2.0
        assert not in_flight.is_alive() and replies[0]["gained"] == 8
        assert router.live_shards == 0  # the router closed after the reply
        assert edge_threads() == []
        idle.close()
        busy.close()

    def test_idle_and_half_sent_connections_are_closed(
        self, storage, tmp_path, monkeypatch
    ):
        """Slow loris: a connection that sends nothing and one that stops
        halfway through a request head each hold an edge thread; past
        IDLE_TIMEOUT_S the edge closes both and the table empties.  A
        kept-alive client closed under it reconnects."""
        monkeypatch.setattr(http_module, "IDLE_TIMEOUT_S", 0.5)
        router = build_cluster(
            storage, tmp_path / "loris.pages", 2,
            process_shards=False, buffer_pages=16,
        )
        server = ClusterHttpServer(router, port=0, access_log=False).start_in_thread()
        idle = socket.create_connection(("127.0.0.1", server.port))
        half = socket.create_connection(("127.0.0.1", server.port))
        try:
            half.sendall(b"GET /sessions HTTP/1.1\r\nX-Request-")
            for sock in (idle, half):
                sock.settimeout(5.0)
                assert sock.recv(1) == b""  # closed by the edge, not timed out
            deadline = time.monotonic() + 5.0
            while server._conns and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server._conns == {}
            with ClusterClient("127.0.0.1", server.port) as client:
                assert client.sessions() == []
                time.sleep(1.0)  # the edge closes the kept-alive connection
                assert client.sessions() == []
        finally:
            idle.close()
            half.close()
            server.close()

    def test_a_connection_past_the_cap_gets_503_and_retry_after(
        self, storage, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(http_module, "MAX_CONNECTIONS", 1)
        router = build_cluster(
            storage, tmp_path / "cap.pages", 2,
            process_shards=False, buffer_pages=16,
        )
        server = ClusterHttpServer(router, port=0, access_log=False).start_in_thread()
        try:
            with ClusterClient("127.0.0.1", server.port) as holder:
                assert holder.sessions() == []  # holds the one connection
                reply = raw_exchange(server.port, b"GET /healthz HTTP/1.1\r\n\r\n")
                head, _, body = reply.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 503 ")
                assert f"Retry-After: {RETRY_AFTER_S:g}\r\n".encode() in head + b"\r\n"
                assert b"Connection: close" in head and b"limit" in body
                assert holder.sessions() == []  # the holder is still served
        finally:
            server.close()
