"""The shard worker: a remote ``fetch(keys) -> values`` and nothing else.

A shard owns the coefficients the router's partitioner assigns to it and
holds **no session state**: the router runs the one scheduler over its
authoritative sessions and reaches the shards only through
:class:`~repro.cluster.router.ShardedStore`.  Everything a crashed
worker held can be rebuilt by opening the paged file again, so healing
is "respawn, re-fetch the skipped keys" (``docs/CLUSTER.md``).

Workers run in-process (:class:`InlineShard`) or as separate OS
processes (:func:`spawn_shard` → :class:`ProcessShard`) speaking a tiny
pickled command protocol over a ``multiprocessing`` pipe.  Both handles
split a command into ``send`` and ``recv`` so a gather can be in flight
on every shard at once; ``call`` is the two back to back.  Process
workers open the paged file with ``shared=True`` so co-located shards
map one OS page cache (:class:`~repro.storage.paged.PagedCoefficientStore`).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time

import numpy as np

from repro.obs.metrics import REGISTRY
from repro.obs.trace import (
    current_request_id,
    drain_portable,
    set_tracing,
    span,
    trace_context,
)
from repro.storage.faults import chaos_stack
from repro.storage.paged import PagedCoefficientStore
from repro.storage.resilient import RetrievalError


class ShardLostError(RuntimeError):
    """A shard process stopped answering (died, hung, or pipe broke)."""

    def __init__(self, shard: int, reason: str) -> None:
        super().__init__(f"shard {shard} lost: {reason}")
        self.shard = shard
        self.reason = reason


def _find(store, attribute: str):
    """The first layer of a wrapped store stack that has ``attribute``."""
    while store is not None and not hasattr(store, attribute):
        store = getattr(store, "inner", None)
    return store


class ShardWorker:
    """One shard's store slice behind the command surface."""

    def __init__(self, store, shard: int = 0) -> None:
        self.store = store
        self.shard = int(shard)
        #: Keys this shard fetched successfully.
        self.retrievals = 0

    def fetch(self, keys: np.ndarray) -> np.ndarray:
        """The data plane: one gather against the shard's store stack
        (a :class:`~repro.storage.resilient.RetrievalError` reaches the
        router's scheduler unchanged through either handle)."""
        values = self.store.fetch(keys)
        self.retrievals += int(len(keys))
        return values

    # -- observability ---------------------------------------------------

    def ping(self) -> dict:
        """Liveness probe: proves the command loop answers."""
        return {"shard": self.shard, "pid": os.getpid()}

    def telemetry(self, portable: bool = True) -> dict:
        """One federation pull: health plus portable telemetry payloads.

        Always reports shard identity, keys fetched, page-cache and
        breaker state.  With ``portable`` (the process-worker case) it
        also snapshots this process's metric registry and *drains* the
        trace ring, so repeated pulls ship each span exactly once.
        Inline shards are pulled with ``portable=False``: they share the
        router process's registry and ring, and re-shipping those would
        double-count.
        """
        paged = _find(self.store, "cache")
        breaker = _find(self.store, "breaker_state")
        payload = {
            "shard": self.shard,
            "pid": os.getpid(),
            "time": time.time(),
            "retrievals": self.retrievals,
            "page_cache": None
            if paged is None
            else {**paged.cache.snapshot(), "buffered_pages": paged.buffered_pages},
            "breaker": None if breaker is None else breaker.breaker_state,
        }
        if portable:
            payload["metrics"] = REGISTRY.to_json()
            payload["spans"] = drain_portable()
        return payload

    def close(self) -> None:
        close = getattr(self.store, "close", None)
        if close is not None:
            close()


def build_shard_store(spec: dict):
    """Open a shard's store slice from its picklable spec::

        {"path": ..., "buffer_pages": 64,
         "chaos": None | {"seed", "transient_rate", "blackout_keys",
                          "latency", "max_attempts"}}

    With chaos configured, the paged store is wrapped by
    :func:`~repro.storage.faults.chaos_stack`, exactly like the
    single-process chaos harness — so a blacked-out key degrades the
    interested sessions instead of crashing the shard.
    """
    store = PagedCoefficientStore(
        spec["path"],
        buffer_pages=int(spec.get("buffer_pages", 64)),
        shared=True,
    )
    chaos = spec.get("chaos")
    return chaos_stack(store, chaos) if chaos else store


def shard_worker_main(conn, spec: dict) -> None:
    """Process entry point: serve pipe commands until ``close``.

    Every command is a ``(method, args, ctx)`` tuple — ``ctx`` is the
    originating request id (or None), bound as the worker-side trace
    context so the ``shard.<method>`` span carries the same
    ``request_id`` as the edge/router spans of that request.  The reply
    is ``(True, result)``, ``(False, RetrievalError)`` for a gather the
    store abandoned (re-raised router-side so the scheduler degrades
    exactly those keys), or ``(False, description)`` for any other
    failure — reported, not fatal: only a broken pipe or ``close`` ends
    the loop.  ``spec["trace"]`` turns span recording on (spawn children
    do not inherit the parent's switch); ``telemetry`` drains the ring.
    """
    if spec.get("trace"):
        set_tracing(True)
    worker = ShardWorker(build_shard_store(spec), shard=int(spec.get("shard", 0)))
    try:
        while True:
            try:
                method, args, ctx = conn.recv()
            except (EOFError, OSError):
                break
            if method == "close":
                conn.send((True, None))
                break
            try:
                with trace_context(ctx), span(f"shard.{method}", shard=worker.shard):
                    result = getattr(worker, method)(*args)
            except RetrievalError as exc:
                conn.send((False, exc))
            except Exception as exc:  # noqa: BLE001 - reported to the router
                conn.send((False, f"{method}: {exc!r}"))
            else:
                conn.send((True, result))
    finally:
        worker.close()
        conn.close()


class InlineShard:
    """A shard worker driven by direct calls (tests, benchmarks, CLI
    ``--inline-shards`` for subprocess-restricted environments)."""

    #: Inline shards live in the router process — their metrics and spans
    #: are already in the local registry/ring, so federation must not
    #: re-absorb them (see :meth:`ShardWorker.telemetry`).
    is_process = False

    def __init__(self, worker: ShardWorker) -> None:
        self._worker = worker
        self.shard = worker.shard
        self.alive = True
        self._request: tuple | None = None

    def send(self, method: str, *args) -> None:
        """Queue one command; :meth:`recv` runs it."""
        if not self.alive:
            raise ShardLostError(self.shard, "shard already closed")
        self._request = (method, args)

    def recv(self):
        method, args = self._request
        return getattr(self._worker, method)(*args)

    def call(self, method: str, *args):
        self.send(method, *args)
        return self.recv()

    def close(self) -> None:
        if self.alive:
            self.alive = False
            self._worker.close()

    abandon = close


#: Seconds a process shard may take to answer one command before it is
#: declared lost.
REPLY_TIMEOUT_S = 30.0


class ProcessShard:
    """A shard worker in its own OS process, driven over a pipe."""

    is_process = True

    def __init__(self, process, conn, shard: int) -> None:
        self._process = process
        self._conn = conn
        self.shard = int(shard)
        self.alive = True

    @property
    def process_alive(self) -> bool:
        """True while the worker process itself is running — catches a
        SIGKILLed worker *before* any pipe traffic would (supervision's
        silent-death detector polls this)."""
        return self.alive and self._process.is_alive()

    def send(self, method: str, *args) -> None:
        """Write one command; exactly one :meth:`recv` must follow."""
        if not self.alive:
            raise ShardLostError(self.shard, "shard already lost")
        try:
            self._conn.send((method, args, current_request_id()))
        except OSError as exc:
            self.abandon()
            raise ShardLostError(self.shard, repr(exc)) from None

    def recv(self):
        """The reply to the command last sent."""
        try:
            if not self._conn.poll(REPLY_TIMEOUT_S):
                raise ShardLostError(self.shard, f"no reply in {REPLY_TIMEOUT_S}s")
            ok, payload = self._conn.recv()
        except ShardLostError:
            self.abandon()
            raise
        except (EOFError, OSError) as exc:
            self.abandon()
            raise ShardLostError(self.shard, repr(exc)) from None
        if ok:
            return payload
        if isinstance(payload, RetrievalError):
            raise payload
        # The worker survived but the command failed — a programming
        # error surfaced remotely, not an outage.
        raise RuntimeError(f"shard {self.shard} command {payload}")

    def call(self, method: str, *args):
        self.send(method, *args)
        return self.recv()

    def abandon(self) -> None:
        """Drop a worker that stopped answering, without the handshake."""
        self.alive = False
        try:
            self._conn.close()
        except OSError:
            pass
        if self._process.is_alive():
            self._process.terminate()

    def close(self, join_timeout: float = 5.0) -> None:
        if not self.alive:
            return
        self.alive = False
        try:
            self._conn.send(("close", (), None))
            if self._conn.poll(join_timeout):
                self._conn.recv()
        except (EOFError, OSError):
            pass
        finally:
            try:
                self._conn.close()
            except OSError:
                pass
        self._process.join(join_timeout)
        if self._process.is_alive():  # pragma: no cover - unresponsive child
            self._process.terminate()
            self._process.join(join_timeout)

    def kill(self) -> None:
        """Hard-kill the worker process (chaos tests simulate an outage);
        the router learns of it through :class:`ShardLostError`."""
        self._process.kill()
        self._process.join(5.0)


def spawn_shard(
    paged_path,
    index: int,
    buffer_pages: int = 64,
    chaos: dict | None = None,
    trace: bool = False,
) -> ProcessShard:
    """Spawn one shard worker process (also the supervisor's respawn unit).

    Every worker maps the same paged file (``shared=True`` page views —
    one OS page cache across the whole cluster) and holds nothing else,
    so a respawned worker is indistinguishable from the original.
    ``trace`` turns span recording on inside the worker process so
    telemetry pulls can ship the spans back for a merged Chrome trace.
    """
    ctx = mp.get_context("spawn")
    spec = {
        "path": str(paged_path),
        "buffer_pages": buffer_pages,
        "shard": int(index),
        "trace": bool(trace),
        "chaos": chaos,
    }
    parent, child = ctx.Pipe()
    process = ctx.Process(
        target=shard_worker_main,
        args=(child, spec),
        name=f"repro-shard-{index}",
        daemon=True,
    )
    process.start()
    child.close()
    return ProcessShard(process, parent, index)


def inline_shard(
    paged_path,
    index: int,
    buffer_pages: int = 64,
    chaos: dict | None = None,
) -> InlineShard:
    """In-process counterpart of :func:`spawn_shard`."""
    spec = {"path": str(paged_path), "buffer_pages": buffer_pages, "chaos": chaos}
    return InlineShard(ShardWorker(build_shard_store(spec), shard=index))
