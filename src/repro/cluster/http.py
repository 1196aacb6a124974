"""The cluster's HTTP edge (stdlib only): one thread per connection.

An accept thread hands each connection to its own daemon thread, which
reads a request, runs the router work and the encoding of its reply
under the request's trace context, writes the reply, logs it, and reads
the next request.  No request is handed between threads; the router's
lock serializes the work.  Past :data:`MAX_CONNECTIONS` open connections
a new one gets ``503`` and ``Retry-After`` and is closed; past
``max_inflight`` session-facing requests in flight a request gets ``429``
and ``Retry-After`` instead of queueing.  A connection that sends nothing
for :data:`IDLE_TIMEOUT_S` — idle between requests, or stalled inside
one — is closed, so it cannot hold its thread and slot forever.
Observability endpoints bypass admission — you can always see what an
overloaded cluster is doing.

The routes are the ``match`` in :meth:`ClusterHttpServer._route`;
``docs/CLUSTER.md`` shows each with its body and a curl example.

Every request gets a request id — an inbound ``X-Request-Id`` or a
generated one — echoed in the reply, bound as the trace context while the
router works (shard-side spans share it), stamped into the JSON access
log, and counted into per-route latency/size/status metrics.
``/healthz`` answers 503 once any shard has been shed; a periodic thread
keeps the federated telemetry fresh between scrapes.

A snapshot-bearing reply (``POST /sessions``, ``GET /sessions/{id}``,
``/advance``, ``/penalty``) is JSON unless the request's ``Accept`` header
names :data:`~repro.cluster.codec.SNAPSHOT_FRAME_TYPE`; then the same
fields travel as a frame (one JSON line + raw float64 estimates).

Error mapping: unknown session -> 404, malformed request, payload or
query -> 400, overload -> 429, everything else -> 500 with the error
message in the JSON body — errors are always JSON.  See
``docs/CLUSTER.md`` for the wire format and curl examples.
"""

from __future__ import annotations

import json
import socket
import struct
import sys
import threading
import time
import uuid
from http import HTTPStatus

from repro.cluster.codec import (
    SNAPSHOT_FRAME_TYPE,
    CodecError,
    decode_batch,
    decode_penalty,
    encode_snapshot_frame,
    snapshot_to_json,
    split_head,
)
from repro.cluster.router import ClusterRouter
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
from repro.obs.trace import trace_context

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 8 * 1024 * 1024
#: Response-size histogram bounds (bytes, log-ish).
_BYTE_BUCKETS = (
    64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304
)
#: On-demand scrapes reuse a federated payload younger than this.
_SCRAPE_MAX_AGE = 1.0
#: The ``Retry-After`` hint (seconds) on a 429 (overload) or 503 (draining,
#: or past the connection cap).
RETRY_AFTER_S = 1.0
_RETRY_AFTER = (("Retry-After", f"{RETRY_AFTER_S:g}"),)
#: Requests at least this slow (seconds) are flagged in the access log.
SLOW_REQUEST_S = 1.0
#: Open connections, one thread each (refused ones while they close).
MAX_CONNECTIONS = 128
#: Seconds a connection may send nothing — idle between requests, or
#: stalled in a request's head or body — before the edge closes it.  A
#: kernel receive timeout (``SO_RCVTIMEO``): unlike a socket timeout it
#: adds no ``poll()`` before every read.  ``ClusterClient`` reconnects
#: when a kept-alive connection was closed under it.
IDLE_TIMEOUT_S = 30.0
#: Seconds a refused request's sender may go on sending before the close:
#: closing with unread input resets the connection and can drop the reply.
_LINGER_S = 1.0
#: Seconds :meth:`ClusterHttpServer.close` waits per request in flight.
_CLOSE_WAIT_S = 30.0
_JSON = "application/json"


def _stderr_access_log(line: str) -> None:
    """The default access-log sink: one JSON object per line on stderr."""
    print(line, file=sys.stderr, flush=True)


class _HttpError(Exception):
    def __init__(self, status: int, message: str, headers=()) -> None:
        super().__init__(message)
        self.status = status
        self.headers = tuple(headers)


class ClusterHttpServer:
    """Serve a :class:`~repro.cluster.router.ClusterRouter` over HTTP."""

    def __init__(
        self,
        router: ClusterRouter,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 32,
        telemetry_interval: float = 5.0,
        access_log=None,
    ) -> None:
        """``telemetry_interval`` is the background federation-pull period
        in seconds (0 disables the periodic thread; on-demand scrapes
        still pull).  ``access_log`` is a callable given one JSON line per
        request — ``None`` means stderr, ``False`` disables the log
        entirely."""
        self.router = router
        self.host = host
        self.port = int(port)  # 0 = ephemeral; read back after start
        self.max_inflight = int(max_inflight)
        self.telemetry_interval = float(telemetry_interval)
        if access_log is None:
            self._access_log = _stderr_access_log
        else:
            self._access_log = access_log if callable(access_log) else None
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        #: While draining, new sessions are refused (503 + Retry-After);
        #: everything else — advances, polls, observability — still runs.
        self._draining = False
        self._rejected = router.registry.counter(
            "repro_cluster_http_rejected_total",
            "Requests shed by admission control (HTTP 429)",
        )
        self._request_seconds = router.registry.histogram(
            "repro_edge_request_seconds",
            "Edge request latency (receive-to-respond), by route template",
            ("route",),
        )
        self._response_bytes = router.registry.histogram(
            "repro_edge_response_bytes",
            "Edge response body size, by route template",
            ("route",),
            buckets=_BYTE_BUCKETS,
        )
        self._route_requests = router.registry.counter(
            "repro_edge_requests_total",
            "Edge requests served, by route template and status code",
            ("route", "status"),
        )
        self._shed_requests = router.registry.counter(
            "repro_edge_shed_total",
            "Edge requests shed by admission control, by route template",
            ("route",),
        )
        self._listener: socket.socket | None = None
        self._accepting: threading.Thread | None = None
        self._periodic: threading.Thread | None = None
        #: Set by :meth:`close`; stops the accept and periodic threads.
        self._closing = threading.Event()
        #: Open connections and the thread serving each.
        self._conns: dict[socket.socket, threading.Thread] = {}
        self._conns_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start_in_thread(self) -> "ClusterHttpServer":
        """Bind, then accept on a daemon thread — the one way to run the
        edge (``repro serve``, tests, embedding); returns self."""
        if self._accepting is not None:
            raise RuntimeError("edge already started")
        try:
            family = socket.getaddrinfo(self.host, self.port, type=socket.SOCK_STREAM)[0][0]
            self._listener = socket.create_server((self.host, self.port), family=family)
        except OSError as exc:
            raise RuntimeError(
                f"edge failed to bind on {self.host}:{self.port}: {exc}"
            ) from None
        self.port = self._listener.getsockname()[1]
        self._accepting = threading.Thread(
            target=self._accept_forever, name="repro-edge-accept", daemon=True
        )
        self._accepting.start()
        if self.telemetry_interval > 0 or self.router.supervisor is not None:
            self._periodic = threading.Thread(
                target=self._periodic_forever, name="repro-edge-periodic", daemon=True
            )
            self._periodic.start()
        return self

    def drain(self, timeout: float = 30.0) -> bool:
        """Graceful-shutdown step one: stop new sessions, finish in-flight.

        Flips the edge into draining mode — ``POST /sessions`` answers
        503 with a ``Retry-After`` hint from then on, while in-flight
        and follow-up requests (advances, polls, observability) keep
        working — and waits up to ``timeout`` seconds for the in-flight
        count to reach zero.  Returns True once drained; the caller then
        runs the normal shutdown (final telemetry pull, trace export,
        :meth:`close`).  ``repro serve`` drives this from its SIGTERM
        handler.
        """
        self._draining = True
        deadline = time.monotonic() + float(timeout)
        while self._inflight and time.monotonic() < deadline:
            time.sleep(0.01)
        return self._inflight == 0

    @property
    def draining(self) -> bool:
        return self._draining

    def close(self) -> None:
        """Stop accepting, end idle connections, wait for the requests in
        flight (up to :data:`_CLOSE_WAIT_S` each), then shut the router
        down."""
        self._closing.set()
        if self._listener is not None:
            try:
                self._listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
            except OSError:
                pass
            self._listener.close()
        for thread in (self._accepting, self._periodic):
            if thread is not None:
                thread.join()
        with self._conns_lock:
            conns = dict(self._conns)
        for conn in conns:
            try:
                # Ends the wait for a next request; a reply still goes out.
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        for thread in conns.values():
            thread.join(_CLOSE_WAIT_S)
        self.router.close()

    def _accept_forever(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                if self._closing.is_set():
                    return
                time.sleep(0.01)  # e.g. out of descriptors: back off
                continue
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            timeval = (int(IDLE_TIMEOUT_S), int(IDLE_TIMEOUT_S % 1 * 1e6))
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, struct.pack("ll", *timeval))
            with self._conns_lock:
                thread = threading.Thread(
                    target=self._serve, args=(conn, len(self._conns) >= MAX_CONNECTIONS),
                    name="repro-edge-conn", daemon=True,
                )
                self._conns[conn] = thread
            thread.start()

    def _periodic_forever(self) -> None:
        """Supervision ticks and telemetry pulls until :meth:`close`.

        It wakes at the supervisor's (faster) cadence when one is
        attached, ticking it every wake, while telemetry pulls fire every
        ``telemetry_interval`` (``max_age`` of half the period keeps an
        interleaved on-demand scrape from causing a double pull).
        """
        supervisor = self.router.supervisor
        pull_every = self.telemetry_interval
        tick_every = supervisor.poll_interval if supervisor is not None else 0.0
        period = min(p for p in (pull_every, tick_every) if p > 0)
        next_pull = time.monotonic() + pull_every
        while not self._closing.wait(period):
            try:
                if supervisor is not None:
                    supervisor.tick()
                if pull_every > 0 and time.monotonic() >= next_pull:
                    self.router.pull_telemetry(max_age=pull_every / 2.0)
                    next_pull = time.monotonic() + pull_every
            except Exception:  # noqa: BLE001 - a lost shard is shed inside
                pass

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    def _serve(self, conn: socket.socket, refused: bool) -> None:
        """A connection's thread: its requests, in order, until it ends."""
        reader = conn.makefile("rb")
        try:
            if refused:
                self._reject(
                    conn, 503, "edge at its connection limit; retry later",
                    headers=_RETRY_AFTER,
                )
            else:
                while self._handle_one(conn, reader):
                    pass
        except OSError:
            pass  # the peer went away
        finally:
            reader.close()
            conn.close()
            with self._conns_lock:
                del self._conns[conn]

    def _handle_one(self, conn: socket.socket, reader) -> bool:
        """Read, serve and log one request; True to read the next one."""
        head = bytearray()
        while not head.endswith(b"\r\n\r\n"):
            line = reader.readline(_MAX_HEADER_BYTES + 1 - len(head))
            if not line:
                return False  # the peer closed or went idle, here or mid-head
            head += line
            if len(head) > _MAX_HEADER_BYTES:
                return self._reject(conn, 413, "headers too large")
        try:
            request_line, headers = split_head(head)
            method, target, _version = request_line.split(" ", 2)
        except ValueError:
            return self._reject(conn, 400, "malformed request line")
        method, path = method.upper(), target.split("?", 1)[0]
        # RFC 9112 §6.1/§6.3: a body framed other than by one length can smuggle.
        if "transfer-encoding" in headers:
            return self._reject(conn, 501, "Transfer-Encoding not supported", method, path)
        try:
            (length,) = {int(v) for v in (headers.get("content-length") or "0").split(",")}
            if length < 0:
                raise ValueError(length)
        except ValueError:
            return self._reject(conn, 400, "bad Content-Length", method, path)
        if length > _MAX_BODY_BYTES:
            return self._reject(conn, 413, "body too large", method, path)
        body = reader.read(length) if length else b""
        if body is None or len(body) < length:
            return False  # the peer closed or stalled mid-body
        keep_alive = headers.get("connection", "").lower() != "close"
        request_id = headers.get("x-request-id") or uuid.uuid4().hex[:12]
        frame = SNAPSHOT_FRAME_TYPE in headers.get("accept", "")
        t0 = time.perf_counter()
        route, extra, content_type = "other", (), _JSON
        status, sent = 500, 0
        try:
            try:
                route, admit, work = self._route(method, path, body, frame)
                code, payload, content_type = self._call(work, admit, request_id, route)
            except _HttpError as exc:
                code, payload, extra = exc.status, {"error": str(exc)}, exc.headers
            except KeyError as exc:  # unknown session
                code, payload = 404, {"error": str(exc.args[0] if exc.args else exc)}
            except ValueError as exc:  # CodecError included
                code, payload = 400, {"error": str(exc)}
            except Exception as exc:  # noqa: BLE001 - edge must not die
                code, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
            status, sent = self._respond(
                conn, code, payload, content_type,
                extra + (("X-Request-Id", request_id),), keep_alive,
            )
        finally:
            self._observe_request(
                method, path, route, request_id, status, sent, time.perf_counter() - t0
            )
        return keep_alive

    def _reject(
        self, conn: socket.socket, status: int, message: str, method: str = "-",
        path: str = "-", headers=(),
    ) -> bool:
        """Answer a request the edge will not read any further — it cannot
        tell where the next one starts — log it, and close once the peer
        has had :data:`_LINGER_S` to finish sending."""
        t0 = time.perf_counter()
        status, sent = self._respond(
            conn, status, {"error": message}, extra=headers, keep_alive=False
        )
        self._observe_request(method, path, "other", "-", status, sent, time.perf_counter() - t0)
        conn.shutdown(socket.SHUT_WR)
        conn.settimeout(_LINGER_S)
        deadline = time.monotonic() + _LINGER_S
        while time.monotonic() < deadline and conn.recv(65536):
            pass
        return False

    @staticmethod
    def _respond(
        conn: socket.socket, status: int, payload, content_type: str = _JSON, extra=(),
        keep_alive: bool = True,
    ) -> tuple[int, int]:
        """Write one response; returns ``(status, body bytes)``."""
        if payload is None:
            body = b""
        elif isinstance(payload, (bytes, str)):
            body = payload.encode("utf-8") if isinstance(payload, str) else payload
        else:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        lines += [f"{name}: {value}" for name, value in extra]
        conn.sendall(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        return status, len(body)

    # ------------------------------------------------------------------
    # Request-scoped instrumentation
    # ------------------------------------------------------------------

    def _observe_request(
        self, method: str, path: str, route: str, request_id: str, status: int,
        size: int, duration: float,
    ) -> None:
        """Per-route metrics plus one structured access-log line."""
        self._request_seconds.observe(duration, route=route)
        self._response_bytes.observe(size, route=route)
        self._route_requests.inc(route=route, status=str(status))
        if self._access_log is None:
            return
        line = json.dumps(
            {
                "ts": round(time.time(), 6),
                "request_id": request_id,
                "method": method,
                "path": path,
                "route": route,
                "status": status,
                "duration_ms": round(duration * 1e3, 3),
                "bytes": size,
                "slow": duration >= SLOW_REQUEST_S,
            },
            sort_keys=True,
        )
        try:
            self._access_log(line)
        except Exception:  # noqa: BLE001 - logging must never kill a request
            pass

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _route(self, method: str, path: str, body: bytes, frame: bool):
        """``(route template, admit, work)`` for one request.

        ``work()`` — router call and reply encoding — runs on the
        connection's thread and returns ``(status, payload, content
        type)``.  The template is the request's metric label: session
        ids collapse to ``{id}`` and everything unrouted, whatever its
        method, shares ``other``, so per-route series stay bounded.
        """
        router = self.router
        match method, path.strip("/").split("/"):
            case "GET", ["metrics"]:
                return "GET /metrics", False, lambda: (
                    200, self._fresh(router.federated_metrics_text), PROMETHEUS_CONTENT_TYPE
                )
            case "GET", ["metrics.json"]:
                return "GET /metrics.json", False, lambda: (
                    200, json.dumps(
                        self._fresh(router.federated_metrics_json), indent=2, sort_keys=True
                    ), _JSON,
                )
            case "GET", ["costs.json"]:
                return "GET /costs.json", False, lambda: (200, router.costs_json(), _JSON)
            case "GET", ["status"]:
                return "GET /status", False, lambda: (200, self._fresh(router.status), _JSON)
            case "GET", ["healthz"]:
                return "GET /healthz", False, self._healthz
            case "POST", ["sessions"]:
                # Draining refuses (503) past admission: it is not busy.
                return "POST /sessions", not self._draining, lambda: self._submit(body, frame)
            case "GET", ["sessions"]:
                return "GET /sessions", False, lambda: (
                    200, {"sessions": router.session_ids()}, _JSON
                )
            case _, ["sessions"]:
                raise _HttpError(405, f"{method} not supported on {path}")
            case "GET", ["sessions", sid]:
                return "GET /sessions/{id}", True, lambda: (
                    200, *self._snapshot(frame, router.poll(sid))
                )
            case "DELETE", ["sessions", sid]:
                return "DELETE /sessions/{id}", True, lambda: (204, router.cancel(sid), _JSON)
            case "POST", ["sessions", sid, "advance"]:
                return "POST /sessions/{id}/advance", True, lambda: (
                    self._advance(sid, body, frame)
                )
            case "POST", ["sessions", sid, "penalty"]:
                return "POST /sessions/{id}/penalty", True, lambda: (
                    self._set_penalty(sid, body, frame)
                )
            case "POST", ["sessions", sid, "retry"]:
                return "POST /sessions/{id}/retry", True, lambda: (
                    200, {"requeued": router.retry_skipped(sid)}, _JSON
                )
            case "GET", ["sessions", sid, "costs"]:
                return "GET /sessions/{id}/costs", False, lambda: (
                    200, router.cost_report(sid), _JSON
                )
        raise _HttpError(404, f"no route for {method} {path}")

    # ------------------------------------------------------------------
    # Router bridging (everything here runs inside ``work()``)
    # ------------------------------------------------------------------

    @staticmethod
    def _snapshot(frame: bool, snapshot, **outer) -> tuple:
        """``(body, content type)`` of a snapshot-bearing reply: the frame
        when the request asked for it, else JSON — the snapshot alone, or
        nested beside ``outer``."""
        if frame:
            return encode_snapshot_frame(snapshot, **outer), SNAPSHOT_FRAME_TYPE
        payload = snapshot_to_json(snapshot)
        if outer:
            payload = {**outer, "snapshot": payload}
        return json.dumps(payload, sort_keys=True).encode("utf-8"), _JSON

    def _submit(self, body: bytes, frame: bool) -> tuple:
        if self._draining:
            raise _HttpError(
                503, "edge is draining; not accepting new sessions", _RETRY_AFTER
            )
        payload = self._json(body)
        batch = decode_batch(payload)
        penalty = decode_penalty(payload.get("penalty"), batch.size)
        session_id = self.router.submit(batch, penalty=penalty)
        snapshot = self.router.poll(session_id)
        return 201, *self._snapshot(frame, snapshot, session_id=session_id)

    def _advance(self, session_id: str, body: bytes, frame: bool) -> tuple:
        payload = self._json(body)
        deadline = payload.get("deadline")
        gained = self.router.advance(
            session_id, int(payload.get("k", 1)),
            float(deadline) if deadline is not None else None,
        )
        snapshot = self.router.poll(session_id)
        return 200, *self._snapshot(frame, snapshot, gained=gained)

    def _set_penalty(self, session_id: str, body: bytes, frame: bool) -> tuple:
        payload = self._json(body)
        spec = payload.get("penalty", payload if payload else None)
        if spec is None or "kind" not in spec:
            raise CodecError("request needs a penalty spec")
        size = self.router._session(session_id).session.batch.size
        self.router.set_penalty(session_id, decode_penalty(spec, size))
        return 200, *self._snapshot(frame, self.router.poll(session_id))

    def _healthz(self) -> tuple:
        health = self.router.healthz()
        health["inflight"] = self._inflight
        health["max_inflight"] = self.max_inflight
        health["draining"] = self._draining
        return (200 if health["ok"] else 503), health, _JSON

    def _fresh(self, read):
        """``read()`` over fresh-enough federated telemetry (pull first)."""
        self.router.pull_telemetry(max_age=_SCRAPE_MAX_AGE)
        return read()

    def _call(self, work, admit: bool, rid: str, route: str):
        """Run ``work()`` under admission control if ``admit``, with
        ``rid`` bound as this thread's trace context, so router spans and
        the shard-side spans of the pipes it drives all carry the request
        id."""
        if admit:
            with self._inflight_lock:
                if self._inflight >= self.max_inflight:
                    self._rejected.inc()
                    self._shed_requests.inc(route=route)
                    raise _HttpError(
                        429, "cluster at capacity; retry later", _RETRY_AFTER
                    )
                self._inflight += 1
        try:
            with trace_context(rid):
                return work()
        finally:
            if admit:
                with self._inflight_lock:
                    self._inflight -= 1

    @staticmethod
    def _json(body: bytes) -> dict:
        if not body:
            return {}
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            raise _HttpError(400, f"bad JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise _HttpError(400, "JSON body must be an object")
        return payload
