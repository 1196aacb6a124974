"""Cross-batch I/O sharing: one retrieval schedule over many sessions.

Observation 1 merges the supports of *one* batch so each coefficient is
fetched once.  A service runs many batches at once, and their supports
overlap too — whole-domain partitions share every coarse wavelet key.  The
:class:`SharedRetrievalScheduler` extends the merge across sessions:

* every live :class:`~repro.core.session.ProgressiveSession` keeps its own
  queue — its master list sorted once by (importance desc, key asc), read
  through :meth:`ProgressiveSession.upcoming`;
* the scheduler serves the globally most important pending coefficient —
  the max of the per-session importances (Definition 3), which is the
  natural batch importance of the union workload under a max-combined
  penalty;
* the coefficient is fetched from the store **once** and delivered to
  every session whose master list still lacks it
  (:meth:`ProgressiveSession.deliver_many`), so concurrent batches never
  pay for the same key twice;
* fetched coefficients stay in a coefficient cache while any live session
  that ever had them pending is registered, so a session submitted later
  gets overlapping keys served without new I/O (the Storyboard-style
  reuse of precomputed state).

An ``advance`` without a deadline is served as **one chunk** — one pick,
one gather, one apply, for any number of live sessions (an explicit
``chunk_size``, or the flush rule a session's own ``advance`` follows —
:data:`~repro.core.session.MAX_CHUNK_KEYS`, or a deadline's
:data:`~repro.core.session.DEFAULT_CHUNK` — cut it into several).  The
three shared pieces:

* **pick** — merge the live queues' heads up to the key that brings the
  advancing session its ``k``-th gain.  That session's own next ``k``
  pending keys bound the chunk: the importance of the last of them is a
  *floor*, every entry the merged order ranks before it is at least that
  important, so every other session contributes just its pending entries
  at or above the floor (read off its rank order from the cursor; no
  pass over the queue).  One stable ``lexsort`` of those windows (with one live
  session: that session's slice, no sort), first occurrence per key, cut
  at the ``k``-th gain — *exact*, not a heuristic.  Nothing is ever
  stale: the queues are read fresh per chunk, so a delivery, a penalty
  switch (the session re-sorts) or a cancellation needs no bookkeeping
  here;
* **fetch** — :func:`~repro.storage.resilient.fetch_degrading`: one store
  gather for the uncached keys; an abandoned gather degrades to per-key
  fetches so only the still-failing keys are skipped;
* **apply** — one vectorized :meth:`ProgressiveSession.deliver_many` per
  (session, run of available keys), convergence records included.

Answers, delivery order, counters, and degraded-state semantics are
identical for every ``chunk_size`` (1 reproduces the fetch-per-coefficient
loop literally, store-call pattern included).
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.core.session import DEFAULT_CHUNK, MAX_CHUNK_KEYS, ProgressiveSession
from repro.obs import REGISTRY, MetricRegistry, span
from repro.obs.ledger import activate as _charge_to, note_fetch
from repro.storage.resilient import available_runs, fetch_degrading

#: Distinguishes scheduler instances inside the process-global registry.
_INSTANCE_IDS = itertools.count()


@dataclass
class _Registration:
    session: ProgressiveSession
    #: Master positions this session ever had pending while registered
    #: (at ``register`` or a later ``reprioritize``): the keys whose
    #: cached coefficients it keeps alive.
    held: np.ndarray


class SharedRetrievalScheduler:
    """A global biggest-B schedule over many progressive sessions.

    Thread-safe: every public method holds the scheduler lock, so client
    threads can drive different sessions concurrently against one store.

    ``chunk_size`` caps the keys served per store gather (None, the
    default: an ``advance`` is one gather); 1 reproduces the scalar
    fetch-per-coefficient loop exactly, store-call pattern included.
    """

    def __init__(
        self,
        store,
        registry: MetricRegistry | None = None,
        chunk_size: int | None = None,
    ) -> None:
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        #: The shared coefficient store (a CountingStore or a
        #: PagedCoefficientStore — anything with ``fetch``).
        self.store = store
        self.chunk_size = chunk_size
        self.registry = REGISTRY if registry is None else registry
        self._instance = str(next(_INSTANCE_IDS))
        #: The schedule's counters (this scheduler's ``scheduler=`` sample
        #: of each ``repro_scheduler_<name>_total``); see :meth:`counts`.
        self._counters = {
            name: self.registry.counter(
                f"repro_scheduler_{name}_total", help_text, ("scheduler",)
            )
            for name, help_text in (
                ("retrievals", "Coefficient fetches issued against the store "
                 "(the paper's cost)"),
                ("deliveries", "Coefficient applications into sessions"),
                ("cache_deliveries", "Deliveries served from the cross-session "
                 "coefficient cache"),
                ("skipped_keys", "Keys marked unavailable after the store "
                 "abandoned their fetch"),
            )
        }
        self._live_sessions = self.registry.gauge(
            "repro_scheduler_live_sessions",
            "Sessions currently registered with the shared schedule",
            ("scheduler",),
        )
        self._live_sessions.set(0, scheduler=self._instance)
        self._fetch_seconds = self.registry.histogram(
            "repro_scheduler_fetch_seconds",
            "Wall-clock latency of store fetches (one gather of a chunk's "
            "uncached keys, or one key of a degraded gather)",
        )
        self._advance_seconds = self.registry.histogram(
            "repro_scheduler_advance_seconds",
            "Wall-clock latency of advance_session calls",
        )
        self._lock = threading.RLock()
        self._registrations: dict[int, _Registration] = {}
        self._coefficients: dict[int, float] = {}
        self._ids = itertools.count()

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def register(self, session: ProgressiveSession) -> int:
        """Add a live session; returns its scheduler id."""
        with self._lock:
            sid = next(self._ids)
            self._registrations[sid] = _Registration(session, session.pending_mask())
            self._live_sessions.inc(scheduler=self._instance)
            return sid

    def deregister(self, sid: int) -> None:
        """Drop a session; cached keys nobody else holds are released.

        A key stays cached while any *other* live registration ever had
        it pending — a late submitter still gets it as a cache delivery
        after the session that paid for the fetch is gone.
        """
        with self._lock:
            reg = self._registrations.pop(sid, None)
            if reg is None:
                return
            self._live_sessions.dec(scheduler=self._instance)
            keys = reg.session.plan.keys[reg.held]
            kept = np.zeros(keys.size, dtype=bool)
            for other in self._registrations.values():
                kept |= np.isin(
                    keys, other.session.plan.keys[other.held], assume_unique=True
                )
            for key in keys[~kept].tolist():
                self._coefficients.pop(key, None)

    def reprioritize(self, sid: int) -> None:
        """Note a session's re-queue (penalty switch, ``retry_skipped``).

        The session already re-sorted or rewound its own queue, and the
        next chunk reads it fresh; what is left to record is the keys
        that entered its pending set since registration (un-skipped
        after a heal), which it now keeps cached like the rest.
        """
        with self._lock:
            reg = self._registrations[sid]
            reg.held |= reg.session.pending_mask()

    @property
    def live_sessions(self) -> int:
        with self._lock:
            return len(self._registrations)

    def counts(self) -> dict[str, int]:
        """This scheduler's counters, read from the registry.

        ``retrievals`` are store fetches (the paper's cost); ``deliveries``
        are coefficient applications into sessions — with sharing they
        exceed retrievals, the surplus being I/O another session paid;
        ``cache_deliveries`` needed no fetch at all (a still-live session
        retrieved the key); ``skipped_keys`` were marked unavailable after
        the store abandoned their fetch — the affected sessions degrade,
        their Theorem-1 bounds staying valid, instead of crashing the loop.
        """
        return {
            name: int(counter.value(scheduler=self._instance))
            for name, counter in self._counters.items()
        }

    def _count(self, name: str, amount: int = 1) -> None:
        self._counters[name].inc(amount, scheduler=self._instance)

    # ------------------------------------------------------------------
    # The shared schedule
    # ------------------------------------------------------------------

    def advance_session(self, sid: int, k: int = 1, deadline: float | None = None) -> int:
        """Run the shared schedule until session ``sid`` gains ``k`` keys.

        Other sessions receive every served coefficient they need along
        the way — that is the point.  Without a ``deadline`` the request
        is one chunk — one pick ending at the target's ``k``-th gain
        (:meth:`_pick`), one store gather, one vectorized update per
        session — never past ``k``, so the set and order of served keys
        are those of the scalar loop.  The loop runs again only when a
        key was skipped or a cap cut the chunk: ``chunk_size``,
        :data:`~repro.core.session.MAX_CHUNK_KEYS`, or — under a
        ``deadline``, so the clock is re-read —
        :data:`~repro.core.session.DEFAULT_CHUNK`.  Returns
        the number of coefficients the target session actually gained
        (less than ``k`` at exhaustion, when the remaining keys are
        unavailable, or once ``deadline`` seconds have elapsed).
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        limit = self.chunk_size or (
            MAX_CHUNK_KEYS if deadline is None else DEFAULT_CHUNK
        )
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
                        # not reach past the target's last pending key.
                        need = min(need, session.remaining)
                    keys = self._pick(session, need, limit)
                    if not keys.size:
                        break
                    self._serve_batch(keys)
            self._advance_seconds.observe(time.perf_counter() - t0)
            return session.steps_taken - start

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _pick(self, target: ProgressiveSession, need: int, limit: int) -> np.ndarray:
        """The merged pending order up to the key that brings ``target``
        its ``need``-th gain, at most ``limit`` distinct keys.

        The order is (importance desc, key asc, sid asc) over every live
        session's pending entries, a key counting at its first — most
        important — occurrence.  The target's window is its next ``need``
        entries and the last one's importance is the floor of every other
        window (the module docstring has the argument); a target with
        fewer pending (degraded) sets no floor, so the merged remainder
        is served up to that gain.  No window needs more than ``limit``
        entries: the first ``limit`` distinct keys hold at most that many
        of any one session.  Windows are concatenated in sid order and
        ``lexsort`` is stable, so ties fall to the lower sid.
        """
        window = min(need, limit)
        own = target.upcoming(window)
        floor = float(own[1][-1]) if own[0].size == window else None
        keys, iotas = [], []
        for reg in self._registrations.values():
            head_keys, head_iotas = (
                own if reg.session is target else reg.session.upcoming(limit, floor)
            )
            if head_keys.size:
                keys.append(head_keys)
                iotas.append(head_iotas)
        if not keys:
            return np.empty(0, dtype=np.int64)
        if len(keys) == 1 and keys[0] is own[0]:
            return own[0]  # the target's own window: every key a gain
        keys, iotas = np.concatenate(keys), np.concatenate(iotas)
        merged = keys[np.lexsort((keys, -iotas))]
        first = np.unique(merged, return_index=True)[1]
        first.sort()
        keys = merged[first[:limit]]
        # Every key the target lacks is a gain: another session's entry
        # for a key the target is waiting on, or has skipped (delivery
        # un-skips it), lands in the target too.
        gains = np.cumsum(target.lacks(keys))
        return keys[: int(np.searchsorted(gains, need)) + 1]

    @contextmanager
    def _timed_fetch(self, n: int):
        """Span, latency histogram and ledger charge around one store call
        (an abandoned call raises through and records nothing)."""
        with span("scheduler.fetch", keys=n):
            t0 = time.perf_counter()
            c0 = time.thread_time()
            yield
            wall = time.perf_counter() - t0
        self._fetch_seconds.observe(wall)
        note_fetch(n, wall, time.thread_time() - c0)

    def _serve_batch(self, keys: np.ndarray) -> None:
        """Fetch and deliver one chunk of picked keys, in serve order.

        Uncached keys go to the store as **one** gather
        (:func:`~repro.storage.resilient.fetch_degrading` owns the
        per-key fallback).  Deliveries are applied as maximal runs of
        available keys between failures, so per-session estimate
        updates, counters, and bound records land in exactly the scalar
        order.
        """
        cache = self._coefficients
        cached = np.array([key in cache for key in keys.tolist()], dtype=bool)
        values = np.empty(keys.size)
        if cached.any():
            values[cached] = [cache[key] for key in keys[cached].tolist()]
        failed: list[int] = []
        if not cached.all():
            missing = np.flatnonzero(~cached)
            values[missing], lost = fetch_degrading(
                self.store, keys[missing], self._timed_fetch
            )
            failed = missing[lost].tolist()
            fetched = np.delete(missing, lost) if lost else missing
            cache.update(zip(keys[fetched].tolist(), values[fetched].tolist()))
            self._count("retrievals", fetched.size)
        for lo, hi in available_runs(keys.size, failed):
            if hi > lo:
                self._deliver_run(keys[lo:hi], values[lo:hi], cached[lo:hi])
            if hi < keys.size:
                self._skip_key(int(keys[hi]))

    def _deliver_run(
        self, keys: np.ndarray, values: np.ndarray, cached: np.ndarray
    ) -> None:
        deliveries = cache_deliveries = 0
        for reg in self._registrations.values():
            applied = reg.session.deliver_many(keys, values)
            deliveries += int(applied.sum())
            hits = int((applied & cached).sum())
            if hits:
                cache_deliveries += hits
                # The receiving session got the keys without any I/O:
                # cross-session cache hits on *its* account.
                reg.session.costs.add(cache_hits=hits)
        if deliveries:
            self._count("deliveries", deliveries)
        if cache_deliveries:
            self._count("cache_deliveries", cache_deliveries)

    def _skip_key(self, key: int) -> None:
        skipped = sum(
            reg.session.skip(key) for reg in self._registrations.values()
        )
        if skipped:
            self._count("skipped_keys")
