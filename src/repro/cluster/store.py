"""The cluster's data plane: a scatter-gather store over the shards.

:class:`ShardedStore` is what the router's scheduler sees as its
``store``: ``fetch(keys)`` splits a chunk with the deterministic
:class:`~repro.cluster.partition.Partitioner`, sends every owner its
slice before receiving from any, and reassembles the values in request
order — one overlapped pipe round-trip per shard per chunk, or none
for the chunk's prefix that was read ahead (:meth:`ShardedStore.read_ahead`).
It holds no session state either; the router tells it nothing but which
shards exist.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field

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


@dataclass
class _Gather:
    """At most one message per shard, in ``sent`` until its reply lands."""

    keys: np.ndarray
    values: np.ndarray
    sent: list = field(default_factory=list)
    error: RetrievalError | None = None


class ShardedStore:
    """The scheduler's store: a scatter-gather ``fetch`` over the shards.

    Owns the data plane — shard handles, the shed set, the read-ahead in
    flight, and the round-trip accounting every shard command feeds
    (``roundtrip`` histogram, p50/p99 window, heartbeat timestamp).
    ``on_lost(index)`` hears of a shard that stopped answering before the
    failure surfaces; ``readahead`` counts read-ahead keys by outcome.
    Not thread-safe: every pipe touch happens under the router lock.
    """

    def __init__(self, shards, partitioner: Partitioner, roundtrip, on_lost, readahead) -> None:
        self.shards = {int(s.shard): s for s in shards}
        self.partitioner = partitioner
        #: Shards shed after they stopped answering.
        self.dead: set[int] = set()
        self.rtt = {index: deque(maxlen=RTT_WINDOW) for index in self.shards}
        #: Monotonic timestamp of each shard's last reply.
        self.last_reply: dict[int, float] = {}
        self._roundtrip = roundtrip
        self._on_lost = on_lost
        self._readahead = readahead
        self._ahead: _Gather | None = None

    def fetch(self, keys: np.ndarray) -> np.ndarray:
        """Gather ``keys`` from their owners; values in request order.

        The read-ahead's longest common prefix with these keys is
        collected, the rest of it dropped.  For the keys behind it every
        owner is sent its slice before any reply is read: one overlapped
        round-trip (and ``roundtrip`` sample) per shard.  Raises
        :class:`~repro.storage.resilient.RetrievalError` when an owner is shed or lost (a reply with the wrong number of
        values loses it too), or a shard's own store abandoned its slice
        — the scheduler's per-key fallback then skips exactly the
        unavailable keys.  Every sent command is received even after a
        failure, so no pipe carries a stale reply into the next gather.
        """
        keys = np.asarray(keys, dtype=np.int64).ravel()
        values = np.empty(keys.size)
        used = self.drop_ahead(keys, values)
        if used < keys.size:
            gather = _Gather(keys[used:], values[used:])
            queues = self._slices(gather.keys)
            # One message per shard in flight: an oversized slice takes
            # several waves, so neither pipe direction can fill and block.
            for wave in itertools.zip_longest(*queues.values()):
                self._send(gather, zip(queues, wave))
                self._receive(gather, timed=True)
                if gather.error is not None:
                    raise gather.error
        return values

    def read_ahead(self, pick) -> None:
        """Drop any read-ahead, then send ``fetch(pick())`` early: a fetch
        that starts with those keys only collects them.  Only while no
        shard is shed and every one is a process (a send starts work),
        and only in one wave.  A shard lost at its send drops it: the
        slices already sent are received.
        """
        self.drop_ahead()
        if self.dead or not all(shard.is_process for shard in self.shards.values()):
            return
        keys = pick()
        queues = self._slices(keys)
        if queues and all(len(queue) == 1 for queue in queues.values()):
            gather = _Gather(keys, np.empty(keys.size))
            self._send(gather, ((i, queue[0]) for i, queue in queues.items()))
            self._ahead = gather  # only now: a shed during the send must not detach it
            if gather.error is not None:
                self.drop_ahead()

    def drop_ahead(self, keys=None, values=None) -> int:
        """Receive the read-ahead; unless it failed, its longest common
        prefix with ``keys`` is used: copied into ``values``, its length
        returned.  The rest of it is counted unused."""
        ahead, self._ahead = self._ahead, None
        if ahead is None:
            return 0
        self._receive(ahead)
        used = 0
        if keys is not None and ahead.error is None:
            common = min(keys.size, ahead.keys.size)
            differ = np.flatnonzero(ahead.keys[:common] != keys[:common])
            used = int(differ[0]) if differ.size else common
            values[:used] = ahead.values[:used]
        for outcome, count in (("used", used), ("unused", ahead.keys.size - used)):
            if count:
                self._readahead.inc(count, outcome=outcome)
        return used

    def call(self, index: int, method: str, *args):
        """One control command (``ping``/``telemetry``) with
        round-trip accounting; None when the shard is (or just got) shed.
        A read-ahead's replies are received first and kept for its fetch."""
        if self._ahead is not None:
            self._receive(self._ahead)
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

    def _slices(self, keys: np.ndarray) -> dict[int, list]:
        """Each owner's ``(keys, positions)`` messages, in bounded pieces."""
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
        return queues

    def _send(self, gather: _Gather, wave) -> None:
        """Send ``gather`` each ``(index, (owned, positions))`` of ``wave``."""
        for index, message in wave:
            if message is None:
                continue
            started = time.perf_counter()
            try:
                self.shards[index].send("fetch", message[0])
            except ShardLostError as exc:
                gather.error = self._lost(index, exc, message[0])
            else:
                gather.sent.append((index, *message, started))

    def _receive(self, gather: _Gather, timed: bool = False) -> None:
        """Receive every reply of ``gather`` once (a shed shard's slice is
        abandoned unread); ``timed`` takes ``roundtrip`` samples, else a
        reply is a heartbeat: a read-ahead's wait spans the client's turn."""
        sent, gather.sent = gather.sent, []
        for index, owned, positions, started in sent:
            if index in self.dead:
                gather.error = RetrievalError(f"shard {index} is shed", keys=owned)
                continue
            try:
                reply = self.shards[index].recv()
                if len(reply) != owned.size:
                    raise ShardLostError(index, f"{len(reply)} values for {owned.size} keys")
                gather.values[positions] = reply
            except ShardLostError as exc:
                gather.error = self._lost(index, exc, owned)
                continue
            except RetrievalError as exc:
                gather.error = exc
            if timed:
                self._observe(index, time.perf_counter() - started)
            else:
                self.last_reply[index] = time.monotonic()

    def _lost(self, index: int, exc: ShardLostError, keys) -> RetrievalError:
        self._on_lost(index)
        return RetrievalError(str(exc), keys=keys)

    def _observe(self, index: int, seconds: float) -> None:
        self._roundtrip.observe(seconds, shard=str(index))
        self.rtt[index].append(seconds)
        self.last_reply[index] = time.monotonic()
