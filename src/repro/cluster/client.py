"""A small stdlib client for the cluster edge.

Speaks the wire format in :mod:`repro.cluster.codec` over one keep-alive
``TCP_NODELAY`` socket so tests, the CI smoke driver, and scripts can
drive a cluster without hand-writing requests.  Requests are JSON; every
request asks for snapshots as frames
(:data:`~repro.cluster.codec.SNAPSHOT_FRAME_TYPE`), so ``estimates`` come
back as writable float64 ``numpy`` arrays over the received bytes —
bit-equal to what the router computed, with no per-float parsing.  The
reply reader is as small as the edge's request reader: status line,
header dict, ``Content-Length`` body.

Overload surfaces as :class:`ClusterBusyError` (HTTP 429) carrying the
server's ``Retry-After`` hint; other error statuses raise
:class:`ClusterApiError` with the server's message.

Every request carries an ``X-Request-Id`` header (generated per call, or
set once via :attr:`ClusterClient.next_request_id`); the edge echoes it
back and the client records the echo in
:attr:`ClusterClient.last_request_id` — grep the server's access log or
the merged Chrome trace for that id to see the request end to end.

Transient transport failures (a stale keep-alive, a connection refused
mid-restart, a socket timeout) always get one free immediate reconnect;
``retries=N`` allows N further resends with deterministic bounded
exponential backoff, every attempt reusing the *same* ``X-Request-Id``
so the edge's access log shows one logical request.  Off by default —
resubmitting a POST is only safe when the caller knows the request is
idempotent or never reached the server.
"""

from __future__ import annotations

import json
import socket
import time
import uuid

from repro.cluster.codec import (
    SNAPSHOT_FRAME_TYPE,
    CodecError,
    decode_snapshot_frame,
    encode_batch,
    split_head,
)
from repro.queries.vector_query import QueryBatch


#: Every request asks for snapshots framed; anything else stays JSON.
_ACCEPT = f"{SNAPSHOT_FRAME_TYPE}, application/json"
_MAX_LINE = 64 * 1024


class ClusterApiError(RuntimeError):
    """A non-2xx response from the cluster edge."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.api_message = message


class ClusterBusyError(ClusterApiError):
    """HTTP 429 — the admission queue is full; retry after a delay."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(429, message)
        self.retry_after = retry_after


class ClusterClient:
    """Synchronous client for one cluster edge endpoint."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        retries: int = 0,
        retry_base_delay: float = 0.05,
        retry_multiplier: float = 2.0,
        retry_max_delay: float = 1.0,
        sleep=time.sleep,
    ) -> None:
        """``retries`` adds that many backed-off transport resends on top
        of the always-on free reconnect; the delay before paid retry
        ``r`` is ``min(retry_max_delay, retry_base_delay *
        retry_multiplier**(r-1))`` — deterministic, no jitter, same
        shape as :class:`~repro.storage.resilient.RetryPolicy`.
        ``sleep`` is injectable for tests."""
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.retry_base_delay = float(retry_base_delay)
        self.retry_multiplier = float(retry_multiplier)
        self.retry_max_delay = float(retry_max_delay)
        self._sleep = sleep
        self._sock: socket.socket | None = None
        self._reader = None  # the socket's buffered read side
        #: The request id the edge echoed back for the last request.
        self.last_request_id: str | None = None
        #: Set to force the next request's id (one-shot; then generated
        #: ids resume) — lets a caller stitch a client call into an
        #: existing trace.
        self.next_request_id: str | None = None

    # -- transport ------------------------------------------------------

    def _send(self, method: str, path: str, body, headers: dict):
        """One wire attempt over the (possibly fresh) keep-alive socket;
        returns ``(status, headers, body)``.  A reply that ends early or
        does not parse raises :class:`ConnectionError`, like any other
        transport failure."""
        if self._sock is None:
            self._sock = socket.create_connection((self.host, self.port), self.timeout)
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._reader = self._sock.makefile("rb")
        lines = [f"{method} {path} HTTP/1.1", f"Host: {self.host}:{self.port}"]
        lines += [f"{name}: {value}" for name, value in headers.items()]
        if body is not None:
            lines.append(f"Content-Length: {len(body)}")
        self._sock.sendall(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + (body or b""))
        head = bytearray()
        while not head.endswith(b"\r\n\r\n"):
            line = self._reader.readline(_MAX_LINE)
            if not line.endswith(b"\n"):
                raise ConnectionError("edge closed the connection mid-reply")
            head += line
        status_line, reply_headers = split_head(head[:-4])
        try:
            status = int(status_line.split(" ", 2)[1])
            raw = bytearray(int(reply_headers.get("content-length") or 0))
        except (IndexError, ValueError):
            raise ConnectionError(f"malformed reply: {status_line!r}") from None
        if self._reader.readinto(raw) != len(raw):
            raise ConnectionError("edge closed the connection mid-reply")
        if reply_headers.get("connection", "").lower() == "close":
            self._reset_conn()
        return status, reply_headers, raw

    def _reset_conn(self) -> None:
        if self._sock is not None:
            self._reader.close()
            self._sock.close()
            self._sock = self._reader = None

    def _request(
        self, method: str, path: str, payload: dict | None = None, accept: tuple[int, ...] = ()
    ):
        """One logical round-trip; ``accept`` lists error statuses whose
        JSON body should be returned instead of raised (healthz detail
        on 503).  Transport attempts: the initial send, one free
        immediate reconnect (a stale keep-alive socket is routine), then
        up to :attr:`retries` backed-off resends — all carrying the same
        ``X-Request-Id``.  A snapshot frame decodes to its flat field
        dict, ``estimates`` a writable float64 array."""
        body = None
        request_id = self.next_request_id or uuid.uuid4().hex[:12]
        self.next_request_id = None
        headers = {"X-Request-Id": request_id, "Accept": _ACCEPT}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        attempts = 2 + max(0, self.retries)
        for attempt in range(attempts):
            if attempt >= 2:  # paid retry number attempt - 1
                delay = self.retry_base_delay * self.retry_multiplier ** (attempt - 2)
                self._sleep(min(self.retry_max_delay, delay))
            try:
                status, reply_headers, raw = self._send(method, path, body, headers)
                break
            except OSError:
                self._reset_conn()
                if attempt == attempts - 1:
                    raise
        self.last_request_id = reply_headers.get("x-request-id", request_id)
        if status == 429:
            retry_after = float(reply_headers.get("retry-after") or "1")
            raise ClusterBusyError(self._error_message(raw), retry_after)
        if status >= 400 and status not in accept:
            raise ClusterApiError(status, self._error_message(raw))
        if not raw:
            return None
        content_type = reply_headers.get("content-type", "")
        if content_type.startswith(SNAPSHOT_FRAME_TYPE):
            try:
                return decode_snapshot_frame(raw)
            except CodecError as exc:
                raise ClusterApiError(status, str(exc)) from None
        if content_type.startswith("application/json"):
            return json.loads(raw)
        return raw.decode("utf-8")

    @staticmethod
    def _error_message(raw: bytes) -> str:
        try:
            return json.loads(raw).get("error", raw.decode("utf-8", "replace"))
        except (json.JSONDecodeError, AttributeError):
            return raw.decode("utf-8", "replace")

    def close(self) -> None:
        self._reset_conn()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the session API -----------------------------------------------

    def submit(self, batch: QueryBatch | dict, penalty: dict | None = None) -> str:
        """Open a session; accepts a :class:`QueryBatch` or raw wire dict."""
        payload = dict(
            encode_batch(batch) if isinstance(batch, QueryBatch) else batch
        )
        if penalty is not None:
            payload["penalty"] = penalty
        return self._request("POST", "/sessions", payload)["session_id"]

    def advance(
        self, session_id: str, k: int = 1, deadline: float | None = None
    ) -> dict:
        """Advance and return ``{"gained", "snapshot"}``."""
        payload: dict = {"k": k}
        if deadline is not None:
            payload["deadline"] = deadline
        snapshot = self._request("POST", f"/sessions/{session_id}/advance", payload)
        return {"gained": snapshot.pop("gained"), "snapshot": snapshot}

    def poll(self, session_id: str) -> dict:
        """The session snapshot, with ``estimates`` as a float64 array."""
        return self._request("GET", f"/sessions/{session_id}")

    def set_penalty(self, session_id: str, penalty: dict) -> dict:
        """Re-target the session; returns its snapshot, like :meth:`poll`."""
        return self._request(
            "POST", f"/sessions/{session_id}/penalty", {"penalty": penalty}
        )

    def retry_skipped(self, session_id: str) -> int:
        return self._request("POST", f"/sessions/{session_id}/retry", {})[
            "requeued"
        ]

    def cancel(self, session_id: str) -> None:
        self._request("DELETE", f"/sessions/{session_id}")

    def sessions(self) -> list[str]:
        return self._request("GET", "/sessions")["sessions"]

    # -- observability ---------------------------------------------------

    def metrics_text(self) -> str:
        """The Prometheus exposition body (cluster-federated)."""
        return self._request("GET", "/metrics")

    def metrics(self) -> dict:
        """The federated registry snapshot (``/metrics.json`` parsed)."""
        return self._request("GET", "/metrics.json")

    def costs(self) -> dict:
        return self._request("GET", "/costs.json")

    def session_costs(self, session_id: str) -> dict:
        return self._request("GET", f"/sessions/{session_id}/costs")

    def status(self) -> dict:
        """Per-session convergence plus per-shard health (``/status``)."""
        return self._request("GET", "/status")

    def healthz(self) -> dict:
        """The health body — returned (not raised) even on 503, so the
        per-shard liveness detail is available when a shard is down."""
        return self._request("GET", "/healthz", accept=(503,))

    def shard_states(self) -> dict[int, str]:
        """Per-shard lifecycle states from ``/healthz``: ``up`` /
        ``recovering`` (supervisor still respawning) / ``down``
        (permanently shed).  Falls back to the boolean ``up`` field when
        talking to an edge that predates the tri-state."""
        return {
            s["shard"]: s.get("state", "up" if s.get("up") else "down")
            for s in self.healthz()["shards"]
        }
