"""The progressive query service: the one definition of the session API.

:class:`ProgressiveQueryService` is the front door of the service layer:
clients submit query batches, poll progressive estimates with Theorem-1
worst-case bounds, re-target penalties as their cursor moves, and cancel
when the accuracy suffices — while one
:class:`~repro.service.scheduler.SharedRetrievalScheduler` merges every
live session's retrieval schedule so overlapping batches share I/O, and
the coefficients themselves can live on a paged disk tier
(:class:`~repro.storage.paged.PagedCoefficientStore`) behind an LRU
buffer pool.  :class:`~repro.cluster.router.ClusterRouter` is this class
with the scheduler's store spread over shard workers; it adds shard
lifecycle and telemetry federation and defines no session method itself.

All public methods are thread-safe; a dashboard per client thread driving
one service object is the intended deployment shape (see
``examples/concurrent_dashboards.py``; ``repro serve`` puts the same
class behind the HTTP edge).
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import NamedTuple

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
    """Service-wide instrumentation snapshot, read from the registry.

    Every count is the scheduler's ``repro_scheduler_*_total`` series (or
    this front's ``sessions_submitted_total``) at snapshot time; the
    ``repro.obs`` metric registry (``docs/OBSERVABILITY.md``) is the
    source of truth and additionally carries latency histograms and
    exposition (``render_prometheus`` / ``to_json`` / ``/metrics``).

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


class _Entry(NamedTuple):
    """One live session and its scheduler registration id."""

    session: ProgressiveSession
    sid: int


class ProgressiveQueryService:
    """Serve many concurrent progressive batch evaluations over one store."""

    #: Names this front's series (``repro_<front>_*``) and spans
    #: (``<front>.submit``); ``SUBMITTED_LABELS`` are the label names of
    #: its ``sessions_submitted_total`` counter.
    FRONT = "service"
    SUBMITTED_LABELS: tuple[str, ...] = ("scheduler",)

    def __init__(
        self,
        storage: LinearStorage,
        registry: MetricRegistry | None = None,
        chunk_size: int | None = None,
    ) -> None:
        self.storage = storage
        self.registry = registry = REGISTRY if registry is None else registry
        self.scheduler = SharedRetrievalScheduler(
            storage.store, registry=registry, chunk_size=chunk_size
        )
        self._lock = threading.RLock()
        self._sessions: dict[str, _Entry] = {}
        #: session id -> the name LEDGER actually registered (dedup-safe).
        self._ledger_names: dict[str, str] = {}
        self._ids = itertools.count(1)
        self._submitted_total = registry.counter(
            f"repro_{self.FRONT}_sessions_submitted_total",
            "Progressive sessions opened by submit()",
            self.SUBMITTED_LABELS,
        )
        self._submitted_labels = dict.fromkeys(
            self.SUBMITTED_LABELS, self.scheduler._instance
        )
        self._submit_seconds = registry.histogram(
            f"repro_{self.FRONT}_submit_seconds",
            "Wall-clock latency of submit() (rewrite + plan + registration)",
        )
        self._advance_seconds = registry.histogram(
            f"repro_{self.FRONT}_advance_seconds",
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
        submit latency is dominated by the rewrite front end.  Keys that
        are :meth:`_unavailable` already are skipped from birth, so the
        session starts degraded-but-bounded.
        """
        batch.validate_for(self.storage.shape)
        with self._lock, span(f"{self.FRONT}.submit", queries=batch.size):
            t0 = time.perf_counter()
            session = ProgressiveSession(
                self.storage, batch, penalty=penalty, workers=workers
            )
            keys = session.plan.keys
            session.skip_many(keys[self._unavailable(keys)])
            session_id = f"s{next(self._ids)}"
            self._sessions[session_id] = _Entry(
                session, self.scheduler.register(session)
            )
            # Expose the session's cost account process-wide (``repro
            # cost`` / ``/costs.json``); the ledger disambiguates id
            # collisions across service instances with a ``#n`` suffix.
            self._ledger_names[session_id] = LEDGER.register(session_id, session.costs)
            self._submitted_total.inc(**self._submitted_labels)
            self._submit_seconds.observe(time.perf_counter() - t0)
            return session_id

    def advance(self, session_id: str, k: int = 1, deadline: float | None = None) -> int:
        """Drive the shared schedule until this session gains ``k`` keys.

        Returns the number of coefficients the session actually gained;
        every other live session keeps the coefficients popped on the way.
        ``deadline`` (wall-clock seconds for this call) caps how long a
        slow store can hold the client: the call returns early with
        whatever progress was made — latency degrades, correctness never.
        It also returns early at exhaustion and when the remaining keys
        are unavailable (they degrade to skipped).
        """
        with self._lock, span(f"{self.FRONT}.advance", sid=session_id, k=k):
            t0 = time.perf_counter()
            gained = self.scheduler.advance_session(
                self._session(session_id).sid, k, deadline=deadline
            )
            self._advance_seconds.observe(time.perf_counter() - t0)
            return gained

    def run_to_completion(self, session_id: str) -> np.ndarray:
        """Advance until the session is exact; returns the exact answers.

        Raises like :meth:`ProgressiveSession.exact_answers` when the
        session degraded along the way (blacked-out keys, shard loss) —
        use :meth:`poll` for the bounded estimates instead.
        """
        with self._lock:
            session = self._session(session_id).session
            self.advance(session_id, session.remaining)
            return session.exact_answers()

    def poll(self, session_id: str) -> SessionSnapshot:
        """A consistent snapshot of the session's progress and bound."""
        with self._lock:
            return SessionSnapshot.of(session_id, self._session(session_id).session)

    def set_penalty(self, session_id: str, penalty: Penalty) -> None:
        """Re-target a session (cursor moved); re-ranks its pending keys."""
        with self._lock:
            session, sid = self._session(session_id)
            session.set_penalty(penalty)
            self.scheduler.reprioritize(sid)

    def retry_skipped(self, session_id: str) -> int:
        """Re-queue a degraded session's unavailable keys (store recovered).

        Puts the skipped keys back on the schedule at their current
        importance (the session's cursor rewinds); returns how many were
        re-queued (0 for a healthy session).  Keys still
        :meth:`_unavailable` stay skipped, untouched, so the Theorem-1
        bound keeps covering them.  The continued run retrieves the rest
        exactly where Batch-Biggest-B would have, so the exhausted
        answers are unaffected by the outage.
        """
        with self._lock:
            session, sid = self._session(session_id)
            requeued = session.retry_skipped(
                keep=self._unavailable(session.skipped_keys())
            )
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
            sid = self._session(session_id).sid  # friendly error for unknown ids
            del self._sessions[session_id]
            LEDGER.unregister(self._ledger_names.pop(session_id))
            self.scheduler.deregister(sid)

    def session_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._sessions)

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
            return self._session(session_id).session.convergence.trajectory()

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
            session = self._session(session_id).session
            report = session.costs.to_dict()
            report.update(
                session_id=session_id,
                master_keys=session.plan.num_keys,
                steps_taken=session.steps_taken,
                is_exact=session.is_exact,
            )
            return report

    def costs_json(self) -> dict:
        """Every live session's cost report (the ``/costs.json`` body)."""
        with self._lock:
            return {sid: self.cost_report(sid) for sid in self._sessions}

    def metrics(self) -> ServiceMetrics:
        """A :class:`ServiceMetrics` snapshot (see its docstring)."""
        with self._lock:
            counts = self.scheduler.counts()
            deliveries = counts["deliveries"]
            shared = deliveries - counts["retrievals"]
            cache = getattr(self.storage.store, "cache", None)
            return ServiceMetrics(
                **counts,  # retrievals, deliveries, cache_deliveries, skipped_keys
                shared_deliveries=shared,
                # 0.0, not NaN, on a freshly started service.
                shared_hit_ratio=shared / deliveries if deliveries else 0.0,
                live_sessions=len(self._sessions),
                sessions_submitted=int(
                    self._submitted_total.value(**self._submitted_labels)
                ),
                per_session_steps={
                    session_id: entry.session.steps_taken
                    for session_id, entry in self._sessions.items()
                },
                page_cache=None if cache is None else cache.snapshot(),
            )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _session(self, session_id: str) -> _Entry:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise KeyError(f"unknown or cancelled session {session_id!r}") from None

    def _unavailable(self, keys: np.ndarray) -> np.ndarray:
        """Mask of ``keys`` nobody can serve right now.

        The one place a front's store topology reaches the session API:
        such keys are skipped at :meth:`submit` and stay skipped across
        :meth:`retry_skipped`.  One local store is all or nothing (its
        failures surface per fetch), so the base answers all-False; the
        cluster router answers "the owning shard is shed".
        """
        return np.zeros(len(keys), dtype=bool)
