"""The snapshot frame: same fields as the JSON reply, estimates as raw float64.

The edge answers a snapshot-bearing route with JSON unless the request's
``Accept`` names ``application/x-repro-snapshot``; ``ClusterClient`` always
asks.  Both encodings, and the in-process router, must agree bit for bit.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import socket

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterApiError,
    ClusterClient,
    ClusterHttpServer,
    build_cluster,
    decode_penalty,
    encode_batch,
    snapshot_to_json,
)
from repro.cluster.codec import (
    SNAPSHOT_FRAME_TYPE,
    CodecError,
    decode_snapshot_frame,
    encode_snapshot_frame,
)
from repro.core.batch import BatchBiggestB
from repro.queries.workload import partition_count_batch
from repro.service.server import SessionSnapshot
from repro.storage.wavelet_store import WaveletStorage

any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True, width=64)
awkward = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, -2.2250738585072014e-308]
)


@st.composite
def snapshots(draw):
    estimates = draw(st.lists(any_float | awkward, min_size=1, max_size=40))
    steps = draw(st.integers(0, 10**7))
    return SessionSnapshot(
        session_id=draw(st.text(min_size=1, max_size=12)),
        estimates=np.array(estimates, dtype=np.float64),
        steps_taken=steps,
        remaining=draw(st.integers(0, 10**7)),
        worst_case_bound=draw(st.floats(min_value=0.0, allow_nan=False) | awkward),
        is_exact=draw(st.booleans()),
        degraded=draw(st.booleans()),
        skipped_count=draw(st.integers(0, 10**4)),
    )


class TestFrameCodec:
    @settings(max_examples=200, deadline=None)
    @given(snapshot=snapshots(), gained=st.none() | st.integers(0, 10**6))
    def test_frame_round_trips_to_the_json_paths_fields(self, snapshot, gained):
        outer = {} if gained is None else {"gained": gained}
        frame = encode_snapshot_frame(snapshot, **outer)
        fields = decode_snapshot_frame(bytearray(frame))
        estimates = fields.pop("estimates")
        assert estimates.dtype == np.float64 and estimates.flags.writeable
        # Raw float64: every bit arrives, NaN payloads and -0.0 included.
        assert estimates.tobytes() == snapshot.estimates.tobytes()
        # What the JSON encoding of the same reply parses to.
        through_json = json.loads(json.dumps({**snapshot_to_json(snapshot), **outer}))
        np.testing.assert_array_equal(
            np.array(through_json.pop("estimates")), estimates
        )
        assert json.dumps(fields, sort_keys=True) == json.dumps(through_json, sort_keys=True)

    def test_a_one_query_batch(self):
        snapshot = SessionSnapshot("s1", np.array([-0.0]), 0, 3, 2.5, False)
        fields = decode_snapshot_frame(encode_snapshot_frame(snapshot))
        assert fields["estimates"].tobytes() == np.array([-0.0]).tobytes()
        assert fields["session_id"] == "s1" and fields["worst_case_bound"] == 2.5

    FRAME = encode_snapshot_frame(
        SessionSnapshot("s1", np.arange(6.0), 4, 2, 1.0, False), gained=4
    )

    @pytest.mark.parametrize(
        "raw",
        [
            pytest.param(FRAME[:-8], id="truncated-by-one-estimate"),
            pytest.param(FRAME[:-3], id="length-not-a-multiple-of-8"),
            pytest.param(FRAME + b"\0" * 8, id="one-estimate-too-many"),
            pytest.param(FRAME[FRAME.index(b"\n") + 1 :], id="missing-header-line"),
            pytest.param(FRAME.replace(b"\n", b"", 1)[:60], id="no-newline"),
            pytest.param(b"\xff\xfe{}\n" + FRAME.split(b"\n", 1)[1], id="non-utf8-header"),
            pytest.param(b"[6]\n" + FRAME.split(b"\n", 1)[1], id="header-not-an-object"),
            pytest.param(b'{"estimates":"6"}\n' + b"\0" * 48, id="count-not-an-int"),
        ],
    )
    def test_malformed_frames_raise_and_the_client_reports_them(self, raw):
        with pytest.raises(CodecError, match="bad snapshot frame"):
            decode_snapshot_frame(raw)
        client = ClusterClient("127.0.0.1", 1)
        client._send = lambda *request: (
            200, {"content-type": SNAPSHOT_FRAME_TYPE}, bytearray(raw)
        )
        with pytest.raises(ClusterApiError, match="bad snapshot frame") as err:
            client.poll("s1")
        assert err.value.status == 200


# ----------------------------------------------------------------------
# One trace, three fronts
# ----------------------------------------------------------------------

BATCH = partition_count_batch((32, 32), (4, 3), rng=np.random.default_rng(5))
CURSOR = {"kind": "cursored_sse", "high_priority": [0, 3], "high_weight": 8.0}


@pytest.fixture(scope="module")
def storage():
    data = np.random.default_rng(88).poisson(2.0, size=(32, 32)).astype(np.float64)
    return WaveletStorage.build(data, wavelet="db2")


@pytest.fixture
def edge(storage, tmp_path):
    lines: list[str] = []
    router = build_cluster(
        storage, tmp_path / "wire.pages", 2, process_shards=False, buffer_pages=16
    )
    server = ClusterHttpServer(router, port=0, access_log=lines.append).start_in_thread()
    server.lines = lines
    yield server
    server.close()


def flat(snapshot: dict, **outer) -> dict:
    """A snapshot dict with its estimates as bytes, so ``==`` is bit-equality."""
    estimates = np.asarray(snapshot["estimates"], dtype=np.float64)
    return {**snapshot, **outer, "estimates": estimates.tobytes()}


class FrameFront:
    """``ClusterClient``: asks for, and decodes, frames."""

    def __init__(self, server):
        self.client = ClusterClient("127.0.0.1", server.port, timeout=30.0)
        self.submit = self.client.submit
        self.retry = self.client.retry_skipped
        self.cancel = self.client.cancel
        self.sessions = self.client.sessions
        self.close = self.client.close

    def _checked(self, snapshot: dict, **outer) -> dict:
        estimates = snapshot["estimates"]
        assert isinstance(estimates, np.ndarray) and estimates.dtype == np.float64
        assert estimates.flags.writeable
        return flat(snapshot, **outer)

    def poll(self, sid):
        return self._checked(self.client.poll(sid))

    def advance(self, sid, k):
        reply = self.client.advance(sid, k)
        assert set(reply) == {"gained", "snapshot"}
        return self._checked(reply["snapshot"], gained=reply["gained"])

    def set_penalty(self, sid, spec):
        return self._checked(self.client.set_penalty(sid, spec))


class JsonFront:
    """Raw ``http.client`` with no ``Accept`` header: today's JSON."""

    def __init__(self, server):
        self.conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30.0)
        self.close = self.conn.close

    def _call(self, method, path, payload=None):
        body = None if payload is None else json.dumps(payload)
        self.conn.request(method, path, body=body)
        response = self.conn.getresponse()
        raw = response.read()
        assert response.status < 300, raw
        if not raw:
            return None
        assert response.getheader("Content-Type") == "application/json"
        return json.loads(raw)

    def submit(self, batch):
        reply = self._call("POST", "/sessions", encode_batch(batch))
        assert flat(reply["snapshot"]) == self.poll(reply["session_id"])
        return reply["session_id"]

    def poll(self, sid):
        return flat(self._call("GET", f"/sessions/{sid}"))

    def advance(self, sid, k):
        reply = self._call("POST", f"/sessions/{sid}/advance", {"k": k})
        return flat(reply["snapshot"], gained=reply["gained"])

    def set_penalty(self, sid, spec):
        return flat(self._call("POST", f"/sessions/{sid}/penalty", {"penalty": spec}))

    def retry(self, sid):
        return self._call("POST", f"/sessions/{sid}/retry", {})["requeued"]

    def cancel(self, sid):
        self._call("DELETE", f"/sessions/{sid}")

    def sessions(self):
        return self._call("GET", "/sessions")["sessions"]


class RouterFront:
    """The router itself, in process: no wire at all."""

    def __init__(self, router):
        self.router = router
        self.submit = self.router.submit
        self.retry = self.router.retry_skipped
        self.cancel = self.router.cancel
        self.sessions = self.router.session_ids

    def poll(self, sid):
        return flat(dataclasses.asdict(self.router.poll(sid)))

    def advance(self, sid, k):
        gained = self.router.advance(sid, k)
        return {**self.poll(sid), "gained": gained}

    def set_penalty(self, sid, spec):
        self.router.set_penalty(sid, decode_penalty(spec, BATCH.size))
        return self.poll(sid)


def scripted_trace(front) -> list:
    sid = front.submit(BATCH)
    steps = [("submit", sid, front.poll(sid))]
    for k in (5, 40):
        steps.append(("advance", k, front.advance(sid, k)))
    steps.append(("set_penalty", None, front.set_penalty(sid, CURSOR)))
    steps.append(("retry", front.retry(sid), front.poll(sid)))
    while not steps[-1][2]["is_exact"]:
        steps.append(("advance", 97, front.advance(sid, 97)))
    steps.append(("exact", None, front.poll(sid)))
    front.cancel(sid)
    steps.append(("cancel", front.sessions(), None))
    return steps


@pytest.mark.parametrize("front", [FrameFront, JsonFront])
def test_one_trace_reads_the_same_on_every_front(front, edge, storage, tmp_path):
    reference = build_cluster(
        storage, tmp_path / "ref.pages", 2, process_shards=False, buffer_pages=16
    )
    try:
        want = scripted_trace(RouterFront(reference))
    finally:
        reference.close()
    front = front(edge)
    got = scripted_trace(front)
    front.close()
    assert len(got) == len(want) > 6
    for step, (mine, theirs) in enumerate(zip(got, want)):
        assert mine == theirs, f"step {step}: {mine[0]}"
    exact = got[-2][2]
    assert exact["is_exact"] and exact["remaining"] == 0
    assert exact["estimates"] == BatchBiggestB(storage, BATCH).run().tobytes()


# ----------------------------------------------------------------------
# Negotiation, and hostile bytes
# ----------------------------------------------------------------------


def raw_exchange(port: int, request: bytes) -> bytes:
    """Send ``request``, read until the edge closes the connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return reply


def test_only_a_request_that_asks_gets_a_frame_and_errors_stay_json(edge):
    client = ClusterClient("127.0.0.1", edge.port)
    sid = client.submit(BATCH)
    client.advance(sid, 9)
    poll = f"GET /sessions/{sid} HTTP/1.1\r\nConnection: close\r\n"
    plain = raw_exchange(edge.port, poll.encode() + b"\r\n")
    asked = raw_exchange(
        edge.port, poll.encode() + f"Accept: {SNAPSHOT_FRAME_TYPE}\r\n\r\n".encode()
    )
    head, _, body = plain.partition(b"\r\n\r\n")
    assert b"Content-Type: application/json\r\n" in head
    want = json.dumps(snapshot_to_json(edge.router.poll(sid)), sort_keys=True)
    assert body == want.encode("utf-8")
    head, _, body = asked.partition(b"\r\n\r\n")
    assert f"Content-Type: {SNAPSHOT_FRAME_TYPE}\r\n".encode() in head
    assert decode_snapshot_frame(body)["estimates"].tobytes() == (
        edge.router.poll(sid).estimates.tobytes()
    )
    assert len(body) < len(want)
    # A route with no snapshot ignores the header; so does an error.
    assert client.sessions() == [sid]
    with pytest.raises(ClusterApiError) as err:
        client.poll("nope")
    assert err.value.status == 404 and "nope" in err.value.api_message
    client.close()


@pytest.mark.parametrize("length", ["abc", "-5", "1e3", "0x10"])
def test_a_bad_content_length_is_a_logged_400_and_a_closed_connection(edge, length):
    reply = raw_exchange(
        edge.port,
        f"POST /sessions HTTP/1.1\r\nContent-Length: {length}\r\n\r\n{{}}".encode(),
    )
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 Bad Request\r\n")
    assert b"Connection: close" in head
    assert json.loads(body) == {"error": "bad Content-Length"}
    # The request is on the books: a log line, a sample, no slot held.
    entry = json.loads(edge.lines[-1])
    assert (entry["status"], entry["route"], entry["path"]) == (400, "other", "/sessions")
    with ClusterClient("127.0.0.1", edge.port) as client:
        assert 'repro_edge_requests_total{route="other",status="400"}' in (
            client.metrics_text()
        )
        health = client.healthz()
        assert health["inflight"] == 0 and edge._inflight == 0
        # ... and the edge still serves.
        sid = client.submit(BATCH)
        assert client.advance(sid, 3)["gained"] == 3


def test_oversized_headers_are_a_logged_413(edge):
    reply = raw_exchange(
        edge.port, b"GET /healthz HTTP/1.1\r\nX-Padding: " + b"x" * (65 * 1024) + b"\r\n\r\n"
    )
    assert reply.startswith(b"HTTP/1.1 413 ") and b"Connection: close" in reply
    assert json.loads(edge.lines[-1])["status"] == 413
    assert edge._inflight == 0
