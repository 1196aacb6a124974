"""The progressive query service façade.

:class:`ProgressiveQueryService` is the front door of the service layer:
clients submit query batches, poll progressive estimates with Theorem-1
worst-case bounds, re-target penalties as their cursor moves, and cancel
when the accuracy suffices — while one
:class:`~repro.service.scheduler.SharedRetrievalScheduler` merges every
live session's retrieval schedule so overlapping batches share I/O, and
the coefficients themselves can live on a paged disk tier
(:class:`~repro.storage.paged.PagedCoefficientStore`) behind an LRU
buffer pool.

All public methods are thread-safe; a dashboard per client thread driving
one service object is the intended deployment shape (see
``examples/concurrent_dashboards.py`` and ``repro serve-demo``).
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.penalties import Penalty
from repro.core.session import ProgressiveSession
from repro.obs import LEDGER, REGISTRY, ConvergenceRecord, MetricRegistry, span
from repro.queries.vector_query import QueryBatch
from repro.service.scheduler import SharedRetrievalScheduler
from repro.storage.base import LinearStorage


@dataclass(frozen=True)
class SessionSnapshot:
    """A consistent point-in-time view of one session's progress.

    Attributes
    ----------
    session_id:
        The id :meth:`ProgressiveQueryService.submit` returned.
    estimates:
        Progressive answers (exact once ``is_exact``; the exhausted
        snapshot is rebuilt deterministically, bit-equal to an independent
        :meth:`~repro.core.batch.BatchBiggestB.run`).
    steps_taken, remaining:
        Coefficients held / still pending for this batch.
    worst_case_bound:
        Theorem-1 guarantee on the current estimates' penalty.  Valid
        even while ``degraded``: skipped coefficients stay in the bound
        mass (see ``docs/RESILIENCE.md``).
    is_exact:
        True once the master list is exhausted.
    degraded, skipped_count:
        ``degraded`` is True while any of the batch's coefficients were
        marked unavailable (store fetch abandoned after retries);
        ``skipped_count`` says how many.  A degraded session can be
        re-driven with :meth:`ProgressiveQueryService.retry_skipped`
        once the store recovers.
    """

    session_id: str
    estimates: np.ndarray
    steps_taken: int
    remaining: int
    worst_case_bound: float
    is_exact: bool
    degraded: bool = False
    skipped_count: int = 0

    @classmethod
    def of(cls, session_id: str, session: ProgressiveSession) -> "SessionSnapshot":
        """Snapshot ``session`` (callers hold whatever lock guards it)."""
        return cls(
            session_id=session_id,
            estimates=(
                session.exact_answers() if session.is_exact else session.estimates.copy()
            ),
            steps_taken=session.steps_taken,
            remaining=session.remaining,
            worst_case_bound=session.worst_case_bound(),
            is_exact=session.is_exact,
            degraded=session.degraded,
            skipped_count=session.skipped_count,
        )


@dataclass(frozen=True)
class ServiceMetrics:
    """Service-wide instrumentation snapshot.

    Since the telemetry refactor this is a *compatibility view*: every
    field is derived from the ``repro.obs`` metric registry (see
    ``docs/OBSERVABILITY.md``), which is the single source of truth and
    additionally carries latency histograms and exposition
    (``render_prometheus`` / ``to_json`` / the ``/metrics`` endpoint)
    that this snapshot does not.

    ``retrievals`` counts actual store fetches; ``deliveries`` counts
    coefficient applications into sessions.  ``shared_hit_ratio`` is the
    fraction of deliveries that re-used another session's fetch — the
    service-level generalization of Observation 1 — and reads 0.0 (not
    NaN) on a freshly started service.  ``page_cache`` is the paged
    store's buffer-pool counters when the coefficients live on disk
    (None for in-memory stores).
    """

    retrievals: int
    deliveries: int
    shared_deliveries: int
    cache_deliveries: int
    shared_hit_ratio: float
    live_sessions: int
    sessions_submitted: int
    per_session_steps: dict[str, int] = field(default_factory=dict)
    page_cache: dict[str, int | float] | None = None
    #: Keys the shared schedule marked unavailable (degraded sessions).
    skipped_keys: int = 0


class ProgressiveQueryService:
    """Serve many concurrent progressive batch evaluations over one store."""

    def __init__(
        self,
        storage: LinearStorage,
        registry: MetricRegistry | None = None,
        chunk_size: int | None = None,
    ) -> None:
        self.storage = storage
        self.registry = REGISTRY if registry is None else registry
        kwargs = {} if chunk_size is None else {"chunk_size": chunk_size}
        self.scheduler = SharedRetrievalScheduler(
            storage.store, registry=self.registry, **kwargs
        )
        self._lock = threading.RLock()
        self._sessions: dict[str, tuple[ProgressiveSession, int]] = {}
        self._ids = itertools.count(1)
        self._submitted_total = self.registry.counter(
            "repro_service_sessions_submitted_total",
            "Progressive sessions opened by submit()",
            ("scheduler",),
        )
        self._submit_seconds = self.registry.histogram(
            "repro_service_submit_seconds",
            "Wall-clock latency of submit() (rewrite + plan + registration)",
        )
        self._advance_seconds = self.registry.histogram(
            "repro_service_advance_seconds",
            "Wall-clock latency of advance() calls",
        )

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------

    def submit(
        self,
        batch: QueryBatch,
        penalty: Penalty | None = None,
        workers: int | None = None,
    ) -> str:
        """Open a progressive session for ``batch``; returns its id.

        The session's master list immediately joins the shared schedule:
        keys another live session already fetched are served from the
        coefficient cache as the schedule reaches them.  Query ranges are
        validated against the store's domain up front — an out-of-bounds
        batch raises ``ValueError`` here, not deep in the rewrite.
        ``workers > 1``
        computes the batch's distinct rewrite factors on a process pool
        before assembly — worthwhile for cold caches on large domains, since
        submit latency is dominated by the rewrite front end.
        """
        batch.validate_for(self.storage.shape)
        with self._lock, span("service.submit", queries=batch.size):
            t0 = time.perf_counter()
            session = ProgressiveSession(
                self.storage, batch, penalty=penalty, workers=workers
            )
            session_id = f"s{next(self._ids)}"
            sid = self.scheduler.register(session)
            self._sessions[session_id] = (session, sid)
            # Expose the session's cost account process-wide (``repro
            # cost`` / ``/costs.json``); the ledger disambiguates id
            # collisions across service instances with a ``#n`` suffix.
            LEDGER.register(session_id, session.costs)
            self._submitted_total.inc(scheduler=self.scheduler._instance)
            self._submit_seconds.observe(time.perf_counter() - t0)
            return session_id

    def advance(self, session_id: str, k: int = 1, deadline: float | None = None) -> int:
        """Drive the shared schedule until this session gains ``k`` keys.

        Returns the number of coefficients the session actually gained;
        every other live session keeps the coefficients popped on the way.
        ``deadline`` (wall-clock seconds for this call) caps how long a
        slow store can hold the client: the call returns early with
        whatever progress was made — latency degrades, correctness never.
        """
        with self._lock:
            t0 = time.perf_counter()
            _, sid = self._session(session_id)
            gained = self.scheduler.advance_session(sid, k, deadline=deadline)
            self._advance_seconds.observe(time.perf_counter() - t0)
            return gained

    def run_to_completion(self, session_id: str) -> np.ndarray:
        """Advance until the session is exact; returns the exact answers."""
        with self._lock:
            session, sid = self._session(session_id)
            self.scheduler.advance_session(sid, session.remaining)
            return session.exact_answers()

    def poll(self, session_id: str) -> SessionSnapshot:
        """A consistent snapshot of the session's progress and bound."""
        with self._lock:
            return SessionSnapshot.of(session_id, self._session(session_id)[0])

    def set_penalty(self, session_id: str, penalty: Penalty) -> None:
        """Re-target a session (cursor moved); re-ranks its pending keys."""
        with self._lock:
            session, sid = self._session(session_id)
            session.set_penalty(penalty)
            self.scheduler.reprioritize(sid)

    def retry_skipped(self, session_id: str) -> int:
        """Re-queue a degraded session's unavailable keys (store recovered).

        Puts every skipped key back on the schedule at its current
        importance (the session's cursor rewinds); returns how many were
        re-queued (0 for a healthy session).  The continued run retrieves
        them exactly where Batch-Biggest-B would have, so the exhausted
        answers are unaffected by the outage.
        """
        with self._lock:
            session, sid = self._session(session_id)
            requeued = session.retry_skipped()
            if requeued:
                self.scheduler.reprioritize(sid)
            return requeued

    def cancel(self, session_id: str) -> None:
        """Close a session; its share of the coefficient cache is released
        once no other live session holds the keys.

        Unknown or already-cancelled ids raise the same friendly
        ``KeyError`` as every other session accessor — cancelling twice
        is an error, not a crash with a raw ``KeyError``.
        """
        with self._lock:
            self._session(session_id)  # friendly error for unknown ids
            _, sid = self._sessions.pop(session_id)
            self.scheduler.deregister(sid)

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------

    def convergence(self, session_id: str) -> list[ConvergenceRecord]:
        """The session's live error-vs-I/O trajectory (oldest first).

        One :class:`~repro.obs.ConvergenceRecord` per applied coefficient:
        ``(steps_taken, retrievals, worst_case_bound, wall_time)``.  The
        ``worst_case_bound`` column is monotonically non-increasing —
        that is the paper's Figures 5-7 reproduced from live telemetry;
        plot it against ``steps_taken`` (the progressive budget B) to
        watch the Theorem-1 guarantee decay as the schedule runs.

        The returned list is a
        :class:`~repro.obs.ConvergenceTrajectory`: it additionally
        carries ``dropped`` (records evicted by the bounded ring before
        this snapshot) and ``capacity``, so a dashboard can tell a
        complete trajectory from a truncated one.
        """
        with self._lock:
            session, _ = self._session(session_id)
            return session.convergence.trajectory()

    def cost_report(self, session_id: str) -> dict:
        """What did *this* session cost?  (See ``docs/OBSERVABILITY.md``.)

        A JSON-friendly dict: per-stage wall/CPU timings
        (``rewrite -> plan -> schedule -> fetch -> apply``; ``schedule``
        is inclusive of the ``fetch`` stages nested inside it) plus
        resource counters — retrievals, coefficient bytes, cross-session
        cache hits, deliveries, store retries, skipped keys — and the
        session's progress (master-list size, steps taken, exactness).
        """
        with self._lock:
            session, _ = self._session(session_id)
            report = session.costs.to_dict()
            report.update(
                session_id=session_id,
                master_keys=session.plan.num_keys,
                steps_taken=session.steps_taken,
                is_exact=session.is_exact,
            )
            return report

    def metrics(self) -> ServiceMetrics:
        """A :class:`ServiceMetrics` snapshot (see its docstring)."""
        with self._lock:
            m = self.scheduler.metrics
            per_session = {
                session_id: session.steps_taken
                for session_id, (session, _) in self._sessions.items()
            }
            cache = getattr(self.storage.store, "cache", None)
            page_cache = None
            if cache is not None:
                page_cache = {
                    "hits": cache.hits,
                    "misses": cache.misses,
                    "evictions": cache.evictions,
                    "hit_ratio": cache.hit_ratio,
                }
            return ServiceMetrics(
                retrievals=m.retrievals,
                deliveries=m.deliveries,
                shared_deliveries=m.shared_deliveries,
                cache_deliveries=m.cache_deliveries,
                shared_hit_ratio=m.shared_hit_ratio,
                live_sessions=len(self._sessions),
                sessions_submitted=int(
                    self._submitted_total.value(scheduler=self.scheduler._instance)
                ),
                per_session_steps=per_session,
                page_cache=page_cache,
                skipped_keys=m.skipped_keys,
            )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _session(self, session_id: str) -> tuple[ProgressiveSession, int]:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise KeyError(f"unknown or cancelled session {session_id!r}") from None
