"""Per-session convergence event log: the paper's Figures 5-7, live.

Every :class:`~repro.core.session.ProgressiveSession` owns a bounded
:class:`ConvergenceLog`; each applied coefficient appends one
:class:`ConvergenceRecord` ``(steps_taken, retrievals, worst_case_bound,
wall_time)``.  Coefficients are applied a chunk at a time, so the log
takes a chunk's records as columns (:meth:`ConvergenceLog.record_many`)
that share the ``wall_time`` they landed at, even when folded in later.
A dashboard polling ``ProgressiveQueryService.convergence(session_id)``
plots the Theorem-1 bound against the progressive budget B as it decays —
reproduced from live telemetry rather than offline replay.

``worst_case_bound`` is guaranteed monotonically non-increasing along a
trajectory: the bound is ``K**alpha`` times the largest importance still
pending, and applying a coefficient only ever *removes* pending keys,
which cannot raise that maximum — regardless of whether the session
fetched the key itself or a shared scheduler delivered it out of the
session's own order.

Recording honours the module-level telemetry switch
(:func:`repro.obs.set_enabled`): with telemetry off the log stays empty.

The ring drops the *oldest* record on overflow; every drop increments
the ``repro_convergence_records_dropped_total`` counter and the log's
``dropped`` tally, which rides along on every
:class:`ConvergenceTrajectory` so dashboards can see a truncated
trajectory instead of silently plotting a partial one.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.obs.metrics import REGISTRY, _switch

_RECORDS_DROPPED = REGISTRY.counter(
    "repro_convergence_records_dropped_total",
    "Convergence records evicted from bounded session logs "
    "(oldest-first overflow)",
)


@dataclass(frozen=True)
class ConvergenceRecord:
    """One point on a session's error-vs-I/O trajectory.

    Attributes
    ----------
    steps_taken:
        Coefficients held by the session — the paper's progressive ``B``.
    retrievals:
        Store-level fetches counted so far (the paper's I/O cost; for a
        service session this is the *shared* cost across all sessions on
        the same store, which is what makes the sharing payoff visible).
    worst_case_bound:
        Theorem-1 guarantee on the penalty of the estimates at this point.
    wall_time:
        Seconds since the session opened.
    """

    steps_taken: int
    retrievals: int
    worst_case_bound: float
    wall_time: float


class ConvergenceTrajectory(list):
    """The retained records (oldest first) plus ring-overflow accounting.

    A plain ``list`` of :class:`ConvergenceRecord` — existing consumers
    keep working — that additionally carries :attr:`dropped` (records
    evicted by the bounded ring before this snapshot) and
    :attr:`capacity`, so a dashboard can tell a complete trajectory from
    a truncated one.
    """

    __slots__ = ("dropped", "capacity")

    def __init__(self, records, dropped: int, capacity: int) -> None:
        super().__init__(records)
        self.dropped = int(dropped)
        self.capacity = int(capacity)


class ConvergenceLog:
    """A thread-safe bounded ring of convergence events, kept as columns.

    Four numpy columns of ``capacity`` slots; record number ``j`` since
    the last :meth:`clear` lives in slot ``j % capacity``, so a chunk of
    records lands with one indexed store per column and
    :class:`ConvergenceRecord` objects exist only on read.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("convergence log capacity must be positive")
        self.capacity = int(capacity)
        self._steps = np.zeros(self.capacity, dtype=np.int64)
        self._retrievals = np.zeros(self.capacity, dtype=np.int64)
        self._bounds = np.zeros(self.capacity)
        self._walls = np.zeros(self.capacity)
        self._lock = threading.Lock()
        self._t0 = time.perf_counter()
        #: Records written since the last clear (retained or not).
        self._written = 0

    @property
    def dropped(self) -> int:
        """Records evicted by ring overflow since the last :meth:`clear`."""
        with self._lock:
            return max(0, self._written - self.capacity)

    def __len__(self) -> int:
        with self._lock:
            return min(self._written, self.capacity)

    def record(self, steps_taken: int, retrievals: int, worst_case_bound: float) -> None:
        """Append one event: the one-element form of :meth:`record_many`."""
        self.record_many([steps_taken], [retrievals], [worst_case_bound])

    def record_many(self, steps, retrievals, bounds, at=None, lost: int = 0) -> None:
        """Append one event per element of the aligned columns, in order
        (no-op while telemetry is disabled).  ``at`` gives each record's
        landing ``perf_counter`` time (a late recorder checked the switch
        then); by default they share one ``wall_time``, now.  Overflow
        drops the oldest, counted once per call, ``lost`` earlier records
        that were never kept (``capacity`` or more follow them) included.
        """
        n = len(steps)
        if not n or (at is None and not _switch.enabled):
            return
        wall = (np.full(n, time.perf_counter()) if at is None else np.asarray(at)) - self._t0
        keep = min(n, self.capacity)
        if keep < n:  # only the newest can survive
            steps, retrievals, bounds, wall = (c[-keep:] for c in (steps, retrievals, bounds, wall))
        with self._lock:
            written = self._written + lost + n
            stop = (written - 1) % self.capacity + 1  # one past the newest
            # Contiguous unless the chunk wraps the ring; then the negative
            # indices reach back from its end.
            slots = np.arange(stop - keep, stop) if stop < keep else slice(stop - keep, stop)
            self._steps[slots] = steps
            self._retrievals[slots] = retrievals
            self._bounds[slots] = bounds
            self._walls[slots] = wall
            self._written = written
        dropped = min(lost + n, written - self.capacity)
        if dropped > 0:
            _RECORDS_DROPPED.inc(dropped)

    def trajectory(self) -> ConvergenceTrajectory:
        """The retained events, oldest first (with ``dropped`` riding along)."""
        with self._lock:
            size = min(self._written, self.capacity)
            slots = np.arange(self._written - size, self._written) % self.capacity
            columns = (self._steps, self._retrievals, self._bounds, self._walls)
            rows = zip(*(column[slots].tolist() for column in columns))
            dropped = self._written - size
        return ConvergenceTrajectory(
            itertools.starmap(ConvergenceRecord, rows), dropped, self.capacity
        )

    def as_dicts(self) -> list[dict]:
        """JSON-friendly trajectory (what a dashboard endpoint would ship)."""
        return self.payload()["records"]

    def payload(self) -> dict:
        """The full dashboard payload: records plus overflow accounting."""
        trajectory = self.trajectory()
        return {
            "records": [dataclasses.asdict(r) for r in trajectory],
            "dropped": trajectory.dropped,
            "capacity": trajectory.capacity,
        }

    def clear(self) -> None:
        with self._lock:
            self._written = 0
