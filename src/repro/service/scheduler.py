"""Cross-batch I/O sharing: one retrieval schedule over many sessions.

Observation 1 merges the supports of *one* batch so each coefficient is
fetched once.  A service runs many batches at once, and their supports
overlap too — whole-domain partitions share every coarse wavelet key.  The
:class:`SharedRetrievalScheduler` extends the merge across sessions:

* every live :class:`~repro.core.session.ProgressiveSession` contributes
  its pending ``(key, importance)`` pairs to one global heap;
* the scheduler pops the globally most important coefficient — the max of
  the per-session importances (Definition 3), which is the natural batch
  importance of the union workload under a max-combined penalty;
* the coefficient is fetched from the store **once** and delivered to
  every session whose master list contains it
  (:meth:`ProgressiveSession.deliver`), so concurrent batches never pay
  for the same key twice;
* fetched coefficients stay in a coefficient cache while any live session
  holds them, so a session submitted later gets overlapping keys served
  without new I/O (the Storyboard-style reuse of precomputed state).

The heap is lazy: entries invalidated by a delivery, a penalty switch or a
cancellation are skipped on pop instead of being removed eagerly, which
keeps every mutation O(log n).  Two engine-level refinements keep the
steady state out of per-coefficient Python:

* **Chunked serving** — :meth:`SharedRetrievalScheduler.advance_session`
  pops the heap maxima in chunks (the ``readahead`` idiom of
  :meth:`~repro.core.batch.BatchBiggestB.steps`), fetches each chunk with
  one store gather, and delivers it to each interested session through
  one vectorized :meth:`ProgressiveSession.deliver_many` call.  Answers,
  delivery order, counters, and degraded-state semantics are identical
  to serving one key at a time (``chunk_size=1`` reproduces the scalar
  loop literally, store-call pattern included); a failed key inside a
  gather marks only that key skipped.
* **Lazy heap seeding** — instead of eagerly ``heappush``-ing a new
  session's entire pending list, registration selects the top block with
  ``numpy.argpartition`` and parks the rest in a sorted backlog that
  refills the heap block-by-block as the session's entries are consumed.
  Stale pops (entries invalidated by deliveries, penalty switches, or
  cancellations) are observable as ``repro_scheduler_stale_pops_total``,
  and ``reprioritize``/``deregister`` prune the session's dead entries
  instead of leaving them to bloat the heap across epochs.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.session import DEFAULT_CHUNK, ProgressiveSession
from repro.obs import REGISTRY, MetricRegistry, span
from repro.obs.ledger import activate as _charge_to, note_fetch
from repro.storage.resilient import RetrievalError

#: Distinguishes scheduler instances inside the process-global registry.
_INSTANCE_IDS = itertools.count()


def _top_block(keys: np.ndarray, iotas: np.ndarray, m: int) -> np.ndarray:
    """Indices of the exact top-``m`` entries by (importance desc, key asc).

    ``numpy.argpartition`` places the ``m`` largest importances first but
    breaks boundary ties arbitrarily; the heap breaks them by ascending
    key, so the tie set at the threshold importance is re-filled by
    smallest key to keep the selection identical to a full sort.
    """
    part = np.argpartition(-iotas, m - 1)[:m]
    threshold = iotas[part].min()
    strict = np.flatnonzero(iotas > threshold)
    ties = np.flatnonzero(iotas == threshold)
    ties = ties[np.argsort(keys[ties], kind="stable")][: m - strict.size]
    return np.concatenate([strict, ties])


class SchedulerMetrics:
    """Counters for the shared retrieval schedule.

    Since the telemetry refactor this is a read-only *view* over the
    ``repro.obs`` metric registry (the ``repro_scheduler_*_total`` series
    with this scheduler's ``scheduler=`` label) — the attribute surface
    is unchanged, so existing callers keep working, but the registry is
    the single source of truth and every mutation is one of its atomic
    (lock-guarded) operations.

    Attributes
    ----------
    retrievals:
        Coefficient fetches issued against the store — the paper's cost.
    deliveries:
        Coefficient applications into sessions.  With sharing, deliveries
        exceed retrievals; the surplus is I/O another session already paid.
    cache_deliveries:
        Deliveries served from the coefficient cache (no fetch at all:
        the key was retrieved for a session that is still live).
    skipped_keys:
        Keys the schedule marked unavailable after the store abandoned
        their fetch (retries and circuit breaker exhausted).  Affected
        sessions degrade — their Theorem-1 bounds stay valid — instead
        of crashing the heap loop.
    stale_pops:
        Lazy-heap entries discarded on pop because a delivery, penalty
        switch, or cancellation invalidated them first — the observable
        cost of the lazy-invalidation scheme (heap bloat shows up here
        long before it shows up as memory).
    """

    def __init__(self, registry: MetricRegistry, instance: str) -> None:
        self._instance = instance
        self._retrievals = registry.counter(
            "repro_scheduler_retrievals_total",
            "Coefficient fetches issued against the store (the paper's cost)",
            ("scheduler",),
        )
        self._deliveries = registry.counter(
            "repro_scheduler_deliveries_total",
            "Coefficient applications into sessions",
            ("scheduler",),
        )
        self._cache_deliveries = registry.counter(
            "repro_scheduler_cache_deliveries_total",
            "Deliveries served from the cross-session coefficient cache",
            ("scheduler",),
        )
        self._skipped_keys = registry.counter(
            "repro_scheduler_skipped_keys_total",
            "Keys marked unavailable after the store abandoned their fetch",
            ("scheduler",),
        )
        self._stale_pops = registry.counter(
            "repro_scheduler_stale_pops_total",
            "Lazy-heap entries discarded on pop after being invalidated",
            ("scheduler",),
        )

    @property
    def retrievals(self) -> int:
        return int(self._retrievals.value(scheduler=self._instance))

    @property
    def deliveries(self) -> int:
        return int(self._deliveries.value(scheduler=self._instance))

    @property
    def cache_deliveries(self) -> int:
        return int(self._cache_deliveries.value(scheduler=self._instance))

    @property
    def skipped_keys(self) -> int:
        return int(self._skipped_keys.value(scheduler=self._instance))

    @property
    def stale_pops(self) -> int:
        return int(self._stale_pops.value(scheduler=self._instance))

    @property
    def shared_deliveries(self) -> int:
        """Deliveries that did not require their own fetch."""
        return self.deliveries - self.retrievals

    @property
    def shared_hit_ratio(self) -> float:
        """Fraction of deliveries that re-used another session's fetch.

        Defined as 0.0 on a freshly started service (``deliveries == 0``)
        rather than NaN/raising — dashboards render it immediately.
        """
        deliveries = self.deliveries
        return self.shared_deliveries / deliveries if deliveries else 0.0


#: Heap entries pushed per backlog refill block.
_REFILL = 64


@dataclass
class _Registration:
    session: ProgressiveSession
    epoch: int = 0
    delivered: int = field(default=0)
    #: Pending entries not yet pushed onto the heap, highest priority
    #: first once ``backlog_sorted``; ``in_heap`` counts this epoch's
    #: entries physically on the heap — refill triggers when it drains.
    backlog_keys: np.ndarray | None = None
    backlog_iotas: np.ndarray | None = None
    backlog_sorted: bool = False
    backlog_cursor: int = 0
    in_heap: int = 0


class SharedRetrievalScheduler:
    """A global biggest-B schedule over many progressive sessions.

    Thread-safe: every public method holds the scheduler lock, so client
    threads can drive different sessions concurrently against one store.

    ``chunk_size`` caps the keys served per store gather by the chunked
    engine (:meth:`serve_chunk`); 1 reproduces the scalar
    fetch-per-coefficient loop exactly, store-call pattern included.
    """

    def __init__(
        self,
        store,
        registry: MetricRegistry | None = None,
        chunk_size: int = DEFAULT_CHUNK,
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        #: The shared coefficient store (a CountingStore or a
        #: PagedCoefficientStore — anything with ``fetch``).
        self.store = store
        self.chunk_size = int(chunk_size)
        self.registry = REGISTRY if registry is None else registry
        self._instance = str(next(_INSTANCE_IDS))
        self.metrics = SchedulerMetrics(self.registry, self._instance)
        self._live_sessions = self.registry.gauge(
            "repro_scheduler_live_sessions",
            "Sessions currently registered with the shared schedule",
            ("scheduler",),
        )
        self._live_sessions.set(0, scheduler=self._instance)
        self._fetch_seconds = self.registry.histogram(
            "repro_scheduler_fetch_seconds",
            "Wall-clock latency of single-coefficient store fetches",
        )
        self._advance_seconds = self.registry.histogram(
            "repro_scheduler_advance_seconds",
            "Wall-clock latency of advance_session calls",
        )
        self._lock = threading.RLock()
        self._heap: list[tuple[float, int, int, int]] = []
        self._registrations: dict[int, _Registration] = {}
        self._interest: dict[int, set[int]] = {}
        self._coefficients: dict[int, float] = {}
        self._ids = itertools.count()

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def register(self, session: ProgressiveSession) -> int:
        """Add a live session; returns its scheduler id."""
        with self._lock:
            sid = next(self._ids)
            reg = _Registration(session)
            self._registrations[sid] = reg
            keys, _ = session.pending()
            for key in keys.tolist():
                self._interest.setdefault(key, set()).add(sid)
            self._push_pending(sid, reg)
            self._live_sessions.inc(scheduler=self._instance)
            return sid

    def deregister(self, sid: int) -> None:
        """Drop a session; cached keys nobody else holds are released."""
        with self._lock:
            reg = self._registrations.pop(sid, None)
            if reg is None:
                return
            self._prune_session_entries(sid)
            self._live_sessions.dec(scheduler=self._instance)
            for key in list(self._interest):
                holders = self._interest[key]
                holders.discard(sid)
                if not holders:
                    del self._interest[key]
                    self._coefficients.pop(key, None)

    def reprioritize(self, sid: int) -> None:
        """Re-seed a session's heap entries after a penalty switch.

        The session's now-stale entries are pruned from the heap (and its
        old backlog dropped) instead of lingering until popped — a
        penalty-churning session would otherwise duplicate its pending
        list on the heap once per epoch.
        """
        with self._lock:
            reg = self._registrations[sid]
            reg.epoch += 1
            # Re-declare interest for the current pending set: keys that
            # entered it since registration (un-skipped after a heal, or
            # restored onto a respawned cluster shard) must route their
            # eventual delivery back to this session.
            keys, _ = reg.session.pending()
            for key in keys.tolist():
                self._interest.setdefault(key, set()).add(sid)
            self._prune_session_entries(sid)
            self._push_pending(sid, reg)

    def _prune_session_entries(self, sid: int) -> None:
        """Remove every heap entry of ``sid`` (all epochs) eagerly."""
        survivors = [entry for entry in self._heap if entry[2] != sid]
        pruned = len(self._heap) - len(survivors)
        if pruned:
            self.metrics._stale_pops.inc(pruned, scheduler=self._instance)
            self._heap = survivors
            heapq.heapify(self._heap)

    @property
    def live_sessions(self) -> int:
        with self._lock:
            return len(self._registrations)

    # ------------------------------------------------------------------
    # The shared schedule
    # ------------------------------------------------------------------

    def advance_session(self, sid: int, k: int = 1, deadline: float | None = None) -> int:
        """Run the shared schedule until session ``sid`` gains ``k`` keys.

        Other sessions receive every popped coefficient they need along
        the way — that is the point.  The schedule is served in chunks of
        up to ``chunk_size`` heap maxima, each fetched with one store
        gather and delivered with one vectorized update per (session,
        chunk); the chunk is capped so the target session never overshoots
        ``k``, which keeps the set and order of served keys identical to
        the scalar loop.  Returns the number of coefficients the target
        session actually gained (less than ``k`` at exhaustion, when the
        remaining keys are unavailable, or once the wall-clock
        ``deadline`` — seconds for this call — elapses).
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        with self._lock, span("scheduler.advance", sid=sid, k=k):
            t0 = time.perf_counter()
            session = self._registrations[sid].session
            start = session.steps_taken
            # The driving session pays for the schedule it requested —
            # "schedule" wall time (inclusive of the nested "fetch"
            # stages), the store fetches, and any resilient-store retries
            # — even though other sessions receive coefficients along the
            # way; their accounts are charged deliveries/cache hits as the
            # coefficients land.
            with _charge_to(session.costs), session.costs.stage("schedule"):
                while session.steps_taken - start < k and not session.is_exact:
                    if deadline is not None and time.perf_counter() - t0 >= deadline:
                        break
                    need = k - (session.steps_taken - start)
                    if not session.skipped_count:
                        # Exactness is reachable: the scalar loop stops the
                        # moment the target turns exact, so the chunk must
                        # not pop past the target's last pending key.
                        need = min(need, session.remaining)
                    if not self.serve_chunk(
                        self.chunk_size, target_sid=sid, need=need
                    ):
                        break
            self._advance_seconds.observe(time.perf_counter() - t0)
            return session.steps_taken - start

    def drain(self) -> int:
        """Serve until every live session is exact; returns steps served."""
        with self._lock:
            served = 0
            while True:
                chunk = self.serve_chunk(self.chunk_size)
                if not chunk:
                    return served
                served += len(chunk)

    def serve_chunk(
        self,
        limit: int,
        target_sid: int | None = None,
        need: int | None = None,
    ) -> list[int]:
        """Serve up to ``limit`` coefficients in global importance order.

        Pops the next valid heap entries (deduping keys two sessions both
        put on the heap — the duplicate counts as the stale pop it would
        have become), fetches the uncached ones with **one** store
        gather, and delivers the chunk to each interested session via
        :meth:`ProgressiveSession.deliver_many`.  The pop loop stops
        early once the ``target_sid`` session would gain ``need`` keys
        (so a capped advance never serves past its target).  Returns
        the keys served, in serve order.
        """
        with self._lock:
            target = None
            if target_sid is not None:
                reg = self._registrations.get(target_sid)
                target = reg.session if reg is not None else None
            keys: list[int] = []
            seen: set[int] = set()
            gains = 0
            while len(keys) < limit:
                entry = self._pop_entry(seen)
                if entry is None:
                    break
                key, owner = entry
                keys.append(key)
                seen.add(key)
                # The pop just verified the key pending for its owner.
                if target is not None and (
                    owner == target_sid or target.is_pending(key)
                ):
                    gains += 1
                    if need is not None and gains >= need:
                        break
            if keys:
                self._serve_batch(keys)
            return keys

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _push_pending(self, sid: int, reg: _Registration) -> None:
        """Seed the heap with the session's top pending block.

        The top ``_REFILL`` entries are selected with
        ``numpy.argpartition`` (O(n), exact under the heap's tie order:
        importance desc, key asc) and pushed; the rest becomes the
        registration's backlog, sorted lazily on first refill — a
        session polled for its first few coefficients never pays to
        heap-push (or sort) its whole master list.
        """
        keys, importance = reg.session.pending()
        epoch = reg.epoch
        n = int(keys.size)
        if n > _REFILL:
            top = _top_block(keys, importance, _REFILL)
            rest = np.ones(n, dtype=bool)
            rest[top] = False
            reg.backlog_keys = keys[rest]
            reg.backlog_iotas = importance[rest]
            keys, importance = keys[top], importance[top]
        else:
            reg.backlog_keys = reg.backlog_iotas = None
        reg.backlog_sorted = False
        reg.backlog_cursor = 0
        reg.in_heap = int(keys.size)
        for key, iota in zip(keys.tolist(), importance.tolist()):
            heapq.heappush(self._heap, (-float(iota), int(key), sid, epoch))

    def _refill(self, sid: int, reg: _Registration) -> None:
        """Move the next backlog block onto the heap (lazy first sort)."""
        keys = reg.backlog_keys
        if keys is None:
            return
        if not reg.backlog_sorted:
            order = np.lexsort((keys, -reg.backlog_iotas))
            reg.backlog_keys = keys = keys[order]
            reg.backlog_iotas = reg.backlog_iotas[order]
            reg.backlog_sorted = True
        cursor = reg.backlog_cursor
        end = min(cursor + _REFILL, int(keys.size))
        if end == cursor:
            return
        epoch = reg.epoch
        for key, iota in zip(
            keys[cursor:end].tolist(), reg.backlog_iotas[cursor:end].tolist()
        ):
            heapq.heappush(self._heap, (-float(iota), int(key), sid, epoch))
        reg.backlog_cursor = end
        reg.in_heap += end - cursor
        if end == int(keys.size):
            reg.backlog_keys = reg.backlog_iotas = None

    def _note_pop(self, sid: int, reg: _Registration) -> None:
        reg.in_heap -= 1
        if reg.in_heap <= 0:
            self._refill(sid, reg)

    def _prune_to_valid(
        self, exclude: set[int]
    ) -> tuple[float, int, int, int] | None:
        """Discard stale heap tops; returns the valid top entry or None.

        Every pushed backlog block outranks everything still parked, so
        consuming a registration's last on-heap entry (valid or stale)
        refills its next block *before* anything of lower priority can
        be served — the lazy seeding never reorders the schedule.
        """
        while self._heap:
            entry = self._heap[0]
            neg_iota, key, sid, epoch = entry
            reg = self._registrations.get(sid)
            if (
                reg is not None
                and reg.epoch == epoch
                and key not in exclude
                and reg.session.is_pending(key)
            ):
                return entry
            heapq.heappop(self._heap)
            self.metrics._stale_pops.inc(scheduler=self._instance)
            if reg is not None and reg.epoch == epoch:
                self._note_pop(sid, reg)
        return None

    def _pop_entry(self, exclude: set[int]) -> tuple[int, int] | None:
        """Pop the next valid entry as ``(key, owning sid)``, or None.

        Keys in ``exclude`` are discarded as the stale pops they would
        have become after the in-flight chunk is served.
        """
        top = self._prune_to_valid(exclude)
        if top is None:
            return None
        _, key, sid, epoch = heapq.heappop(self._heap)
        reg = self._registrations.get(sid)
        if reg is not None and reg.epoch == epoch:
            self._note_pop(sid, reg)
        return (key, sid)

    def _serve_batch(self, keys: list[int]) -> None:
        """Fetch and deliver one chunk of popped keys, in serve order.

        Uncached keys go to the store as **one** gather.  When the store
        abandons the gather (:class:`RetrievalError` after retries), the
        chunk degrades to per-key fetches so only the still-failing keys
        are skipped — a one-key gather *is* its own per-key fetch and is
        skipped directly, which keeps ``chunk_size=1`` bit-identical to
        the scalar loop's store-call pattern.  Deliveries are applied as
        maximal runs of available keys between failures, so per-session
        estimate updates, counters, and bound records land in exactly
        the scalar order.
        """
        instance = self._instance
        cached = [key in self._coefficients for key in keys]
        to_fetch = [key for key, hit in zip(keys, cached) if not hit]
        failed: set[int] = set()
        if to_fetch:
            fetched = 0
            arr = np.asarray(to_fetch, dtype=np.int64)
            try:
                with span("scheduler.fetch", keys=len(to_fetch)):
                    t0 = time.perf_counter()
                    c0 = time.thread_time()
                    values = self.store.fetch(arr)
                    wall = time.perf_counter() - t0
                self._fetch_seconds.observe(wall)
                note_fetch(len(to_fetch), wall, time.thread_time() - c0)
                for key, value in zip(to_fetch, values.tolist()):
                    self._coefficients[key] = float(value)
                fetched = len(to_fetch)
            except RetrievalError:
                if len(to_fetch) == 1:
                    failed.add(to_fetch[0])
                else:
                    for key in to_fetch:
                        try:
                            with span("scheduler.fetch", key=key):
                                t0 = time.perf_counter()
                                c0 = time.thread_time()
                                value = float(
                                    self.store.fetch(
                                        np.array([key], dtype=np.int64)
                                    )[0]
                                )
                                wall = time.perf_counter() - t0
                            self._fetch_seconds.observe(wall)
                            note_fetch(1, wall, time.thread_time() - c0)
                        except RetrievalError:
                            failed.add(key)
                        else:
                            self._coefficients[key] = value
                            fetched += 1
            if fetched:
                self.metrics._retrievals.inc(fetched, scheduler=instance)
        # Deliver in maximal runs of available keys; each failed key is
        # skipped at its place in the order, exactly where the scalar
        # loop would have degraded it.
        run: list[tuple[int, bool]] = []  # (key, was_cached)
        for key, hit in zip(keys, cached):
            if key in failed:
                self._deliver_run(run, instance)
                run = []
                self._skip_key(key, instance)
            else:
                run.append((key, hit))
        self._deliver_run(run, instance)

    def _deliver_run(self, run: list[tuple[int, bool]], instance: str) -> None:
        if not run:
            return
        by_sid: dict[int, list[int]] = {}
        for index, (key, _) in enumerate(run):
            for sid in self._interest.get(key, ()):
                by_sid.setdefault(sid, []).append(index)
        deliveries = cache_deliveries = 0
        for sid, indices in by_sid.items():
            reg = self._registrations.get(sid)
            if reg is None:
                continue
            sub_keys = np.array([run[i][0] for i in indices], dtype=np.int64)
            coeffs = np.array([self._coefficients[int(k)] for k in sub_keys])
            applied = reg.session.deliver_many(sub_keys, coeffs)
            count = int(np.count_nonzero(applied))
            if not count:
                continue
            reg.delivered += count
            deliveries += count
            hits = sum(
                1
                for j, i in enumerate(indices)
                if applied[j] and run[i][1]
            )
            if hits:
                cache_deliveries += hits
                # The receiving session got the keys without any I/O:
                # cross-session cache hits on *its* account.
                reg.session.costs.add(cache_hits=hits)
        if deliveries:
            self.metrics._deliveries.inc(deliveries, scheduler=instance)
        if cache_deliveries:
            self.metrics._cache_deliveries.inc(cache_deliveries, scheduler=instance)

    def _skip_key(self, key: int, instance: str) -> None:
        skipped = 0
        for sid in self._interest.get(key, ()):
            reg = self._registrations.get(sid)
            if reg is not None and reg.session.skip(key):
                skipped += 1
        if skipped:
            self.metrics._skipped_keys.inc(scheduler=instance)

    def delivered_count(self, sid: int) -> int:
        """Coefficients delivered into session ``sid`` by this scheduler."""
        with self._lock:
            return self._registrations[sid].delivered
