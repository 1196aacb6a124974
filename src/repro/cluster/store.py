"""The cluster's data plane: a scatter-gather store over the shards.

:class:`ShardedStore` is what the router's scheduler sees as its
``store``: ``fetch(keys)`` splits a chunk with the deterministic
:class:`~repro.cluster.partition.Partitioner`, sends every owner its
slice before receiving from any, and reassembles the values in request
order — one overlapped pipe round-trip per shard per chunk.  It holds no
session state either; the router tells it nothing but which shards exist.
"""

from __future__ import annotations

import itertools
import time
from collections import deque

import numpy as np

from repro.cluster.partition import Partitioner
from repro.cluster.worker import ShardLostError
from repro.storage.resilient import RetrievalError

#: Pipe round-trips retained per shard for the /status p50/p99 window.
RTT_WINDOW = 256

#: Caps on one pipe message, whichever binds first (the batch-builder
#: flush rule): a slice above them travels as several bounded messages.
MAX_SLICE_KEYS = 8192
MAX_SLICE_BYTES = 1 << 15


class ShardedStore:
    """The scheduler's store: a scatter-gather ``fetch`` over the shards.

    Owns the data plane — shard handles, the shed set, and the round-trip
    accounting every shard command feeds (``roundtrip`` histogram,
    p50/p99 window, heartbeat timestamp).  ``on_lost(index)`` hears of a
    shard that stopped answering before the failure surfaces.  Not
    thread-safe: every pipe touch happens under the router lock.
    """

    def __init__(self, shards, partitioner: Partitioner, roundtrip, on_lost) -> None:
        self.shards = {int(s.shard): s for s in shards}
        self.partitioner = partitioner
        #: Shards shed after they stopped answering.
        self.dead: set[int] = set()
        self.rtt = {index: deque(maxlen=RTT_WINDOW) for index in self.shards}
        #: Monotonic timestamp of each shard's last reply.
        self.last_reply: dict[int, float] = {}
        self._roundtrip = roundtrip
        self._on_lost = on_lost

    def fetch(self, keys: np.ndarray) -> np.ndarray:
        """Gather ``keys`` from their owners; values in request order.

        Every owner is sent its slice before any reply is read, so the
        shards work concurrently: one overlapped round-trip (and one
        ``roundtrip`` sample) per shard.  Raises
        :class:`~repro.storage.resilient.RetrievalError` when an owner
        is shed or lost (a reply with the wrong number of values loses it
        too), or a shard's own store abandoned its slice —
        the scheduler's per-key fallback then skips exactly the
        unavailable keys.  Every sent command is received even after a
        failure, so no pipe carries a stale reply into the next gather.
        """
        keys = np.asarray(keys, dtype=np.int64).ravel()
        values = np.empty(keys.size)
        cap = max(1, min(MAX_SLICE_KEYS, MAX_SLICE_BYTES // keys.itemsize))
        queues = {}
        for index, (owned, positions) in enumerate(
            self.partitioner.split(keys, np.arange(keys.size))
        ):
            if not owned.size:
                continue
            if index in self.dead:
                raise RetrievalError(f"shard {index} is shed", keys=owned)
            queues[index] = [
                (owned[i : i + cap], positions[i : i + cap])
                for i in range(0, owned.size, cap)
            ]
        # One message per shard in flight: an oversized slice takes
        # several waves, so neither pipe direction can fill and block.
        for wave in itertools.zip_longest(*queues.values()):
            error = None
            sent = []
            for index, message in zip(queues, wave):
                if message is None:
                    continue
                started = time.perf_counter()
                try:
                    self.shards[index].send("fetch", message[0])
                except ShardLostError as exc:
                    error = self._lost(index, exc, message[0])
                else:
                    sent.append((index, *message, started))
            for index, owned, positions, started in sent:
                try:
                    reply = self.shards[index].recv()
                    if len(reply) != owned.size:
                        raise ShardLostError(index, f"{len(reply)} values for {owned.size} keys")
                    values[positions] = reply
                except ShardLostError as exc:
                    error = self._lost(index, exc, owned)
                    continue
                except RetrievalError as exc:
                    error = exc
                self._observe(index, time.perf_counter() - started)
            if error is not None:
                raise error
        return values

    def call(self, index: int, method: str, *args):
        """One control command (``ping``/``telemetry``) with
        round-trip accounting; None when the shard is (or just got) shed."""
        if index in self.dead:
            return None
        started = time.perf_counter()
        try:
            result = self.shards[index].call(method, *args)
        except ShardLostError:
            self._on_lost(index)
            return None
        self._observe(index, time.perf_counter() - started)
        return result

    def _lost(self, index: int, exc: ShardLostError, keys) -> RetrievalError:
        self._on_lost(index)
        return RetrievalError(str(exc), keys=keys)

    def _observe(self, index: int, seconds: float) -> None:
        self._roundtrip.observe(seconds, shard=str(index))
        self.rtt[index].append(seconds)
        self.last_reply[index] = time.monotonic()
