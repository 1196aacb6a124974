"""The cluster's asyncio HTTP edge (stdlib only).

A single-threaded :mod:`asyncio` server accepts JSON requests, hands the
router work — and the encoding of its reply — to a small thread pool (the
router's lock serializes it; the pool bounds how many requests may wait
on that lock), and applies
admission control: once ``max_inflight`` session-facing requests are in
flight, further ones are rejected immediately with ``429 Too Many
Requests`` and a ``Retry-After`` header instead of queueing without
bound.  Observability endpoints (``/metrics``, ``/costs.json``,
``/status``, ``/healthz``) bypass admission — you can always see what an
overloaded cluster is doing.

Routes::

    POST   /sessions                 {queries, name?, penalty?, workers?}
    GET    /sessions                 list live session ids
    GET    /sessions/{id}            snapshot (estimates, Theorem-1 bound,
                                     degraded/skipped state)
    POST   /sessions/{id}/advance    {k, deadline?} -> {gained, snapshot}
    POST   /sessions/{id}/penalty    {penalty} -> snapshot
    POST   /sessions/{id}/retry      re-queue skipped keys -> {requeued}
    GET    /sessions/{id}/costs      merged router+shard cost report
    DELETE /sessions/{id}            cancel
    GET    /metrics | /metrics.json  cluster-federated registry (router +
                                     every shard process, shard-labeled)
    GET    /costs.json | /status | /healthz

Every request gets a request id — taken from an inbound ``X-Request-Id``
header or generated — echoed back in the response's ``X-Request-Id``
header, bound as the trace context while the router works (so shard-side
spans of the same request share the id), stamped into the structured
JSON access log, and counted into per-route latency/size/status metrics.
``/healthz`` answers 503 once any shard has been shed so load balancers
rotate the replica out; ``/status`` reports per-session convergence and
per-shard health; a periodic background pull keeps the federated
telemetry fresh between scrapes.

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

import asyncio
import json
import sys
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
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
#: The ``Retry-After`` hint (seconds) on a 429 (overload) or 503 (draining).
RETRY_AFTER_S = 1.0
_RETRY_AFTER = (("Retry-After", f"{RETRY_AFTER_S:g}"),)
#: Requests at least this slow (seconds) are counted and flagged in the
#: access log.
SLOW_REQUEST_S = 1.0
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
        in seconds (0 disables the periodic task; on-demand scrapes still
        pull).  ``access_log`` is a callable given one JSON line per
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
        self._slow_requests = router.registry.counter(
            "repro_edge_slow_requests_total",
            "Edge requests slower than the slow-request threshold",
            ("route",),
        )
        self._shed_requests = router.registry.counter(
            "repro_edge_shed_total",
            "Edge requests shed by admission control, by route template",
            ("route",),
        )
        # The router lock serializes actual work; two workers let an
        # advance overlap a submit's rewrite front end.
        self._pool = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-edge"
        )
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._telemetry_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start_in_thread(self) -> "ClusterHttpServer":
        """Run the edge on a daemon thread — the one way to run it
        (``repro serve``, tests, embedding); returns self."""
        if self._thread is not None:
            raise RuntimeError("edge already started")

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self._bind())
                self._started.set()
                loop.run_forever()
            finally:
                self._started.set()  # unblock a waiter even on bind failure
                tasks = asyncio.all_tasks(loop)
                for task in tasks:
                    task.cancel()
                if tasks:
                    loop.run_until_complete(
                        asyncio.gather(*tasks, return_exceptions=True)
                    )
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(
            target=_run, name="repro-cluster-edge", daemon=True
        )
        self._thread.start()
        self._started.wait(10.0)
        if self._server is None:
            raise RuntimeError(f"edge failed to bind on {self.host}:{self.port}")
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
        while time.monotonic() < deadline:
            with self._inflight_lock:
                if self._inflight == 0:
                    return True
            time.sleep(0.01)
        with self._inflight_lock:
            return self._inflight == 0

    @property
    def draining(self) -> bool:
        return self._draining

    def close(self) -> None:
        """Stop accepting, drain the pool, and shut the router down."""
        loop, server = self._loop, self._server
        if loop is not None and loop.is_running():
            if self._telemetry_task is not None:
                loop.call_soon_threadsafe(self._telemetry_task.cancel)
            if server is not None:
                loop.call_soon_threadsafe(server.close)
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(10.0)
            self._thread = None
        self._pool.shutdown(wait=True)
        self.router.close()

    async def _bind(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=_MAX_HEADER_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.telemetry_interval > 0 or self.router.supervisor is not None:
            self._telemetry_task = asyncio.get_running_loop().create_task(
                self._periodic_forever()
            )

    async def _periodic_forever(self) -> None:
        """The edge's periodic task: supervision ticks + telemetry pulls.

        Runs on the edge's event loop but does the work on the thread
        pool — a slow or dying shard never stalls request handling.  The
        loop wakes at the supervisor's (faster) cadence when one is
        attached, ticking it every wake — dead-shard detection, backoff
        bookkeeping, and due respawns all live inside ``tick`` — while
        telemetry pulls keep firing at ``telemetry_interval``
        (``max_age`` of half the period keeps an interleaved on-demand
        scrape from causing a double pull).
        """
        supervisor = self.router.supervisor
        pull_every = self.telemetry_interval
        max_age = pull_every / 2.0
        period = pull_every
        if supervisor is not None:
            period = (
                min(period, supervisor.poll_interval)
                if period > 0
                else supervisor.poll_interval
            )
        loop = asyncio.get_running_loop()
        next_pull = (
            time.monotonic() + pull_every if pull_every > 0 else None
        )
        while True:
            await asyncio.sleep(period)
            try:
                if supervisor is not None:
                    await loop.run_in_executor(self._pool, supervisor.tick)
                if next_pull is not None and time.monotonic() >= next_pull:
                    await loop.run_in_executor(
                        self._pool,
                        lambda: self.router.pull_telemetry(max_age=max_age),
                    )
                    next_pull = time.monotonic() + pull_every
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - a lost shard is shed inside
                pass

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                keep_alive = await self._handle_one(reader, writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _handle_one(self, reader, writer) -> bool:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return False  # clean EOF between keep-alive requests
            raise
        except asyncio.LimitOverrunError:  # no blank line within the stream's limit
            return await self._reject(writer, 413, "headers too large")
        try:
            request_line, headers = split_head(head)
            method, target, _version = request_line.split(" ", 2)
        except ValueError:
            return await self._reject(writer, 400, "malformed request line")
        method, path = method.upper(), target.split("?", 1)[0]
        try:
            length = int(headers.get("content-length") or 0)
            if length < 0:
                raise ValueError(length)
        except ValueError:
            return await self._reject(writer, 400, "bad Content-Length", method, path)
        if length > _MAX_BODY_BYTES:
            return await self._reject(writer, 413, "body too large", method, path)
        body = await reader.readexactly(length) if length else b""
        keep_alive = headers.get("connection", "").lower() != "close"
        request_id = headers.get("x-request-id") or uuid.uuid4().hex[:12]
        frame = SNAPSHOT_FRAME_TYPE in headers.get("accept", "")
        t0 = time.perf_counter()
        route, extra, content_type = "other", (), _JSON
        status, sent = 500, 0
        try:
            try:
                route, admit, work = self._route(method, path, body, frame)
                code, payload, content_type = await self._call(work, admit, request_id, route)
            except _HttpError as exc:
                code, payload, extra = exc.status, {"error": str(exc)}, exc.headers
            except KeyError as exc:  # unknown session
                code, payload = 404, {"error": str(exc.args[0] if exc.args else exc)}
            except ValueError as exc:  # CodecError included
                code, payload = 400, {"error": str(exc)}
            except Exception as exc:  # noqa: BLE001 - edge must not die
                code, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
            status, sent = await self._respond(
                writer, code, payload, content_type,
                extra + (("X-Request-Id", request_id),), keep_alive,
            )
        finally:
            self._observe_request(
                method, path, route, request_id, status, sent, time.perf_counter() - t0
            )
        return keep_alive

    async def _reject(
        self, writer, status: int, message: str, method: str = "-", path: str = "-"
    ) -> bool:
        """Answer a request the edge will not read any further — it cannot
        tell where the next one starts — log it, and close."""
        t0 = time.perf_counter()
        status, sent = await self._respond(writer, status, {"error": message}, keep_alive=False)
        self._observe_request(method, path, "other", "-", status, sent, time.perf_counter() - t0)
        return False

    async def _respond(
        self, writer, status: int, payload, content_type: str = _JSON, extra=(),
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
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()
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
        slow = duration >= SLOW_REQUEST_S
        if slow:
            self._slow_requests.inc(route=route)
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
                "slow": slow,
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

        ``work()`` runs on the pool — router call and reply encoding in
        one executor hop — and returns ``(status, payload, content
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
    # Router bridging (everything here runs on the pool)
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
        workers = payload.get("workers")
        session_id = self.router.submit(
            batch, penalty=penalty, workers=int(workers) if workers is not None else None
        )
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

    async def _call(self, work, admit: bool, rid: str, route: str):
        """Run ``work()`` on the pool, under admission control if ``admit``.

        ``rid`` is bound as the trace context *inside the executor
        thread* (never across an await — the context is a thread-local
        stack and interleaving coroutines would corrupt it), so router
        spans and the shard-side spans of the pipes it drives all carry
        the request id.
        """
        if admit:
            with self._inflight_lock:
                if self._inflight >= self.max_inflight:
                    self._rejected.inc()
                    self._shed_requests.inc(route=route)
                    raise _HttpError(
                        429, "cluster at capacity; retry later", _RETRY_AFTER
                    )
                self._inflight += 1
        loop = asyncio.get_running_loop()

        def _bound() -> object:
            with trace_context(rid):
                return work()

        try:
            return await loop.run_in_executor(self._pool, _bound)
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
