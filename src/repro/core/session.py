"""Interactive progressive sessions: the one Batch-Biggest-B loop.

The paper's user stories (Section 4) are interactive: a dashboard renders
progressive estimates, the user scrolls (moving the cursor), pauses, or
decides the current accuracy suffices.  :class:`ProgressiveSession` wraps
the Figure-1 loop with exactly that control surface:

* :meth:`advance` retrieves the next ``k`` most important coefficients;
* :meth:`set_penalty` re-weighs the *remaining* retrievals under a new
  penalty (e.g. the cursor moved) without discarding progress — the already
  retrieved coefficients stay retrieved, the unretrieved ones are re-ranked
  by the new importance function, which is exactly how Batch-Biggest-B
  would have continued had the new penalty been supplied at that point;
* :meth:`run_until` advances until the Theorem-1 worst-case bound or an
  observed-estimate predicate is satisfied (a bound's stop is found
  first, then reached with one :meth:`advance`);
* :meth:`deliver` applies a coefficient that was retrieved *elsewhere* —
  the hook :class:`~repro.service.scheduler.SharedRetrievalScheduler` uses
  to share one retrieval across every concurrent session that needs it.

The session never retrieves a coefficient twice, whether it fetched the
coefficient itself or received it from a scheduler.

The schedule is an array, not a heap: for a fixed penalty the delivery
order is one ``lexsort`` of the master list on (importance desc, key asc)
(:meth:`~repro.core.plan.QueryPlan.ranking`), so a session is a state
holder — estimates, the ``retrieved``/``skipped`` masks, that order and a
cursor at its first pending rank.  The cursor only moves forward, past
ranks that were retrieved or skipped; :meth:`set_penalty` re-sorts the
unretrieved keys (O(n log n), the only re-sort) and :meth:`retry_skipped`
rewinds the cursor to the first re-queued rank (O(cursor)).
``_drive`` is the one Batch-Biggest-B loop: *pick*, then *serve* (fetch
with :func:`~repro.storage.resilient.fetch_degrading`, apply).
:meth:`advance` and the top-k ranker pick the queue head; the shared
scheduler picks from its merged queue and serves every session at once.

Whoever drives it, *apply* only lands the keys (``_apply_batch``: the
retrieved mask, the coefficients, the step count); :attr:`estimates`
folds them in when read (``_fold``), :attr:`convergence` writes their
records (``_record``).  A scheduler serving eight sessions round-robin
lands seven runs in one delivery when a session is next read.

Degraded mode: when the store abandons a fetch permanently
(:class:`~repro.storage.resilient.RetrievalError` after retries and the
circuit breaker give up), the session marks the key *skipped* rather than
crashing.  Skipped keys are **not** retrieved: they stay in the
Theorem-1 bound mass, so :meth:`worst_case_bound` remains a valid upper
bound on the penalty of the current estimates — the answer degrades but
stays *bounded*.  :meth:`retry_skipped` re-queues the skipped keys once
the store recovers, and :meth:`advance`/:meth:`run_until` accept a
wall-clock ``deadline`` so a slow store degrades latency, never
correctness (see ``docs/RESILIENCE.md``).
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.core.penalties import Penalty, SsePenalty
from repro.core.plan import QueryPlan
from repro.obs import ConvergenceLog, CostAccount, stage
from repro.obs import enabled as _telemetry_enabled
from repro.obs.ledger import activate as _charge_to
from repro.queries.vector_query import QueryBatch
from repro.storage.base import LinearStorage
from repro.storage.resilient import available_runs, fetch_degrading

#: Keys fetched per store gather when a wall-clock deadline bounds the
#: loop (:meth:`ProgressiveSession.advance`, a scheduler's
#: ``advance_session``), and the first block of the cursor's forward scan.
DEFAULT_CHUNK = 64

#: Keys per gather when nothing else caps it — the loop's flush rule (and
#: ``cluster/store.py``'s for a pipe message): a larger request —
#: ``run_to_completion`` of a 200k-key plan — is served in pieces, so one
#: apply never concatenates a whole plan's entries.
MAX_CHUNK_KEYS = 8192


class ProgressiveSession:
    """A pausable, re-targetable progressive batch evaluation."""

    def __init__(
        self,
        storage: LinearStorage,
        batch: QueryBatch,
        penalty: Penalty | None = None,
        convergence_capacity: int = 1024,
        plan: QueryPlan | None = None,
    ) -> None:
        self.storage = storage
        self.batch = batch
        self.penalty = penalty if penalty is not None else SsePenalty()
        #: Per-session cost attribution: stage timings plus resource
        #: counters, itemized in ``docs/OBSERVABILITY.md``.
        self.costs = CostAccount(owner="session", queries=batch.size)
        # A prebuilt ``plan`` (only the ranking depends on the penalty)
        # skips the rewrite front end and costs this account nothing.
        if plan is None:
            with _charge_to(self.costs):
                plan = QueryPlan.from_batch(storage, batch)
        elif plan.batch_size != batch.size:
            raise ValueError("plan must match the batch size")
        self.plan = plan
        self._estimates = np.zeros(batch.size)
        self._convergence = ConvergenceLog(capacity=convergence_capacity)
        #: Chunks landed but not yet folded in, and their keys (:meth:`_fold`).
        self._unfolded, self._unfolded_keys = [], 0
        #: Landings not recorded yet, their records, those dropped (:meth:`_record`).
        self._landings, self._landed, self._lost = [], 0, 0
        self._retrieved = np.zeros(self.plan.num_keys, dtype=bool)
        self._skipped = np.zeros(self.plan.num_keys, dtype=bool)
        self._skipped_count = 0
        self._skipped_max_iota = 0.0
        self._steps_taken = 0
        self._coefficients = np.zeros(self.plan.num_keys)
        self._exact: np.ndarray | None = None
        # Rank, and build the first block of columns of a plan that has
        # none, now and not in the first apply: the first ``advance`` must
        # cost what every later one does.
        with stage("plan", self.costs):
            self._rank()
            if not self.plan._used:
                self.plan.build_next_block()
        self._k_const: float | None = None
        self._k_const_version: int | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def estimates(self) -> np.ndarray:
        """The progressive answers (the live array; copy to keep it)."""
        self._fold()
        return self._estimates

    @property
    def convergence(self) -> ConvergenceLog:
        """One ``(B, retrievals, bound, wall_time)`` event per coefficient."""
        self._record()
        return self._convergence

    @property
    def steps_taken(self) -> int:
        """Coefficients retrieved so far (self-fetched and delivered)."""
        return self._steps_taken

    @property
    def remaining(self) -> int:
        """Coefficients not yet retrieved."""
        return self.plan.num_keys - self.steps_taken

    @property
    def is_exact(self) -> bool:
        """True once every master-list coefficient has been retrieved."""
        return self.remaining == 0

    @property
    def skipped_count(self) -> int:
        """Keys marked unavailable after the store gave up on them."""
        return self._skipped_count

    @property
    def degraded(self) -> bool:
        """True while any master-list key is skipped as unavailable."""
        return self._skipped_count > 0

    def retrieved_keys(self) -> np.ndarray:
        """Master-list keys whose coefficients are already held."""
        return self.plan.keys[self._retrieved]

    def skipped_keys(self) -> np.ndarray:
        """Master-list keys currently marked unavailable."""
        return self.plan.keys[self._skipped]

    def pending(self) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, importance)`` of the not-yet-retrieved master keys.

        Skipped (unavailable) keys are excluded until
        :meth:`retry_skipped` re-queues them — the schedule must not spin
        on keys the store already gave up on.
        """
        mask = self.pending_mask()
        return self.plan.keys[mask], self._importance[mask]

    def pending_mask(self) -> np.ndarray:
        """Boolean mask over master positions: unretrieved and unskipped."""
        return ~(self._retrieved | self._skipped)

    def upcoming(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, importance)`` of the next ``n`` pending keys, in
        delivery order (importance desc, key asc); fewer when fewer are
        pending.  The head of :meth:`pending`, sorted.
        """
        head = self._head(n)
        return self.plan.keys[head], self._importance[head]

    def worst_case_bound(self) -> float:
        """Theorem-1 bound on the penalty of the *current* estimates.

        The constant ``K = sum |Delta_hat|`` is cached, but the cache is
        tied to the store's mutation counter: streaming inserts change the
        stored coefficients, so a bound computed after an update reflects
        the updated store.

        Skipped (unavailable) keys count as *unused*: the bound is taken
        over the most important coefficient that is pending **or**
        skipped, so a degraded session still reports a valid upper bound
        — exactly Theorem 1 applied to the set of coefficients actually
        held.
        """
        next_iota = self._next_iota()
        if next_iota <= 0.0:
            return 0.0
        return float(self._k_alpha() * next_iota)

    def expected_penalty(self) -> float:
        """Theorem-2 expected penalty of the current estimates."""
        if not self.penalty.is_quadratic:
            raise ValueError("Theorem 2 applies to quadratic penalties only")
        remaining_iota = float(self._importance[~self._retrieved].sum())
        return remaining_iota / (self.storage.domain_size - 1)

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------

    def advance(
        self, k: int = 1, deadline: float | None = None, chunk: int | None = None
    ) -> int:
        """Retrieve the next ``k`` most important coefficients.

        Returns how many were actually retrieved (less than ``k`` when
        the master list runs out, the ``deadline`` expires, or the store
        abandons fetches).

        The next pending keys are read off the importance-ordered queue
        in chunks; each chunk is fetched with **one** store gather, then
        applied with one vectorized pass — answers, retrieval order,
        counters, and the Theorem-1 bound after every coefficient are
        identical to the one-key-at-a-time loop (``chunk=1`` reproduces
        it literally).
        Without a ``deadline`` a chunk is the whole request up to
        :data:`MAX_CHUNK_KEYS`; under a deadline it is
        :data:`DEFAULT_CHUNK` keys, so a slow store is re-checked against
        the clock every few keys.

        ``deadline`` is a wall-clock budget in seconds for this call: no
        new fetch is started once it has elapsed, so a slow store costs
        latency, never correctness (the un-fetched keys simply stay
        pending).  A gather the store gives up on permanently
        (:class:`~repro.storage.resilient.RetrievalError`) is re-fetched
        key by key and only the still-failing keys are marked skipped —
        see :meth:`retry_skipped` — instead of raising.
        """
        return self._drive(k, deadline, chunk, self._head, self._serve)

    def _drive(self, k: int, deadline: float | None, limit: int | None, pick, serve) -> int:
        """The one Batch-Biggest-B loop: ``pick(need, limit)`` keys and
        ``serve`` them until this session gains ``k`` (returned), turns
        exact, picks nothing or passes ``deadline``; ``limit`` is
        :meth:`advance`'s ``chunk``.  Deep layers charge this account."""
        if k < 0 or (limit is not None and limit < 1):
            raise ValueError(f"need k >= 0 and a positive chunk, got {k} and {limit}")
        limit = limit or (MAX_CHUNK_KEYS if deadline is None else DEFAULT_CHUNK)
        start, began = time.monotonic(), self._steps_taken
        with _charge_to(self.costs):
            while (gained := self._steps_taken - began) < k and not self.is_exact:
                if deadline is not None and time.monotonic() - start >= deadline:
                    break
                need = k - gained
                if not self._skipped_count:  # stop where the one-key loop turns exact
                    need = min(need, self.remaining)
                picked = pick(need, limit)
                if not picked.size:
                    break
                serve(picked)
        return self._steps_taken - began

    def _serve(self, positions: np.ndarray, land=None) -> None:
        """One gather of ``positions``, landed (by ``land``, when given,
        with :meth:`_apply_batch`'s arguments); abandoned keys are skipped."""
        values, failed = fetch_degrading(self.storage.store, self.plan.keys[positions])
        served, land = self.stamp(), land or self._apply_batch
        for lo, hi in available_runs(positions.size, failed):
            if hi > lo:
                land(positions[lo:hi], values[lo:hi], served)
            if hi < positions.size:
                self.skip_many(self.plan.keys[positions[hi : hi + 1]])

    def deliver(self, key: int, coefficient: float) -> bool:
        """The one-key form of :meth:`deliver_many`: True when ``key`` was pending."""
        return bool(self.deliver_many([key], [coefficient])[0])

    def deliver_many(self, keys, coefficients) -> np.ndarray:
        """Apply coefficients retrieved externally, exactly as if
        :meth:`advance` had fetched them but without touching the store.

        One position lookup, then :meth:`deliver_at`.  The keys must be
        distinct; they are applied in the order given, so estimates,
        counters, and the per-coefficient Theorem-1 bound records are
        bit-identical to delivering them one by one.  Returns a boolean
        mask saying which keys were pending (False: not in the master
        list, or already held).
        """
        keys = np.asarray(keys, dtype=np.int64).ravel()
        coefficients = np.array(coefficients, dtype=np.float64).ravel()  # kept: a copy
        if keys.size != coefficients.size:
            raise ValueError("keys and coefficients must align")
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        if keys.size > 1 and np.unique(keys).size != keys.size:
            raise ValueError("deliver_many requires distinct keys")
        pos, found = self._locate(keys)
        return self.deliver_at(np.where(found, pos, -1), coefficients, self.stamp())

    def deliver_at(self, positions: np.ndarray, coefficients: np.ndarray, served) -> np.ndarray:
        """:meth:`deliver_many` by distinct master positions (-1: not in
        the master list), which the shared scheduler's union index found
        once for every session.  Both arrays are kept until the fold.
        ``served`` is the serve's :meth:`stamp`, or per-position columns
        of them (NaN clock: none), that the keys' records keep."""
        if not self.plan.num_keys:
            return np.zeros(positions.size, dtype=bool)
        applied = (positions >= 0) & ~self._retrieved[positions]
        count = int(np.count_nonzero(applied))
        if not count:
            return applied
        if count < positions.size:
            positions, coefficients = positions[applied], coefficients[applied]
            if served is not None:
                served = tuple(c[applied] if isinstance(c, np.ndarray) else c for c in served)
        if self._skipped_count:
            # Keys may come back (another session's fetch succeeded after
            # ours was abandoned): they leave the skipped bound mass.
            came_back = int(np.count_nonzero(self._skipped[positions]))
            if came_back:
                self._skipped[positions] = False
                self._skipped_count -= came_back
                self._skipped_max_iota = self._max_skipped_iota()
        self.costs.add(deliveries=count)
        self._apply_batch(positions, coefficients, served)
        return applied

    def stamp(self) -> tuple[float, int] | None:
        """What a convergence record keeps of a serve: its clock and the
        store's retrieval count (-1: none); None while telemetry is off."""
        if not _telemetry_enabled():
            return None
        stats = getattr(self.storage.store, "stats", None)
        return time.perf_counter(), -1 if stats is None else stats.retrievals

    def skip(self, key: int) -> bool:
        """The one-key form of :meth:`skip_many`: True when ``key`` was pending."""
        return bool(self.skip_many([key]))

    def skip_many(self, keys) -> int:
        """Mark ``keys`` unavailable (abandoned fetches, a shed shard).

        They stay *unretrieved*: their importance remains in the
        Theorem-1 bound mass, so :meth:`worst_case_bound` is still a
        valid upper bound.  Returns how many of them were pending (not:
        outside the master list, already held, or already skipped).
        """
        keys = np.asarray(keys, dtype=np.int64).ravel()
        if not keys.size or not self.plan.num_keys:
            return 0
        pos, found = self._locate(keys)
        pos = np.unique(pos[found])
        pos = pos[~self._retrieved[pos] & ~self._skipped[pos]]
        if not pos.size:
            return 0
        self.costs.add(skipped_keys=int(pos.size))
        self._skipped[pos] = True
        self._skipped_count += int(pos.size)
        self._skipped_max_iota = max(
            self._skipped_max_iota, float(self._importance[pos].max())
        )
        return int(pos.size)

    def retry_skipped(self, keep: np.ndarray | None = None) -> int:
        """Re-queue the skipped keys for retrieval (the store recovered).

        Returns the number of keys put back on the schedule.  The keys
        never left the importance order — the cursor just rewinds to the
        first of them — so the continued run retrieves them exactly where
        Batch-Biggest-B would have: degradation changes *when* a
        coefficient arrives, never what the exhausted answers are.
        ``keep`` (a mask over :meth:`skipped_keys`) names keys that are
        still unavailable: they stay skipped, their accounting untouched.
        """
        requeue = self._skipped.copy()
        if keep is not None:
            requeue[np.flatnonzero(requeue)[keep]] = False
        requeued = int(np.count_nonzero(requeue))
        if requeued:
            behind = np.flatnonzero(requeue[self._order[: self._cursor]])
            if behind.size:
                self._cursor = int(behind[0])
            self._skipped &= ~requeue
            self._skipped_count -= requeued
            self._skipped_max_iota = self._max_skipped_iota()
        return requeued

    def set_penalty(self, penalty: Penalty) -> None:
        """Re-rank the remaining retrievals under a new penalty.

        Progress is kept; only the order of future retrievals changes.
        Landed chunks' records are written first, under the old ranking.
        """
        self._record()
        self.penalty = penalty
        self._rank()
        self._skipped_max_iota = self._max_skipped_iota()

    def run_until(
        self,
        bound: float | None = None,
        predicate: Callable[[np.ndarray], bool] | None = None,
        max_steps: int | None = None,
        deadline: float | None = None,
    ) -> int:
        """Advance until a stopping condition holds.

        Parameters
        ----------
        bound:
            Stop once the Theorem-1 worst-case bound drops to or below this
            value (guaranteed accuracy).
        predicate:
            Stop once ``predicate(estimates)`` returns True (observed
            accuracy; called after every retrieval: one key per advance).
        max_steps:
            Hard cap on retrievals for this call.
        deadline:
            Wall-clock budget in seconds for this call: no new fetch is
            started after it elapses (checked per :meth:`advance` gather).
            A slow store then returns a degraded-but-bounded answer
            instead of blocking.

        Without a ``predicate`` one :meth:`advance` reaches the stop
        :meth:`_stop` finds, and another follows each skip.  Returns the
        number of coefficients retrieved by this call.
        """
        if bound is None and predicate is None and max_steps is None and deadline is None:
            raise ValueError("provide at least one stopping condition")
        start, done = time.monotonic(), 0
        cap = np.inf if max_steps is None else max_steps
        while done < cap and self._seek() < self._order.size:
            left = None if deadline is None else deadline - (time.monotonic() - start)
            if left is not None and left <= 0:
                break
            if bound is not None and self.worst_case_bound() <= bound:
                break
            if predicate is not None and predicate(self.estimates):
                break
            skipped = self._skipped_count
            n = self._stop(bound) if predicate is None else 1
            done += self.advance(min(n, cap - done), left)
            if predicate is None and self._skipped_count == skipped:
                break
        return done

    def run_to_completion(self) -> np.ndarray:
        """Retrieve everything; returns the exact answers."""
        self.advance(self.remaining)
        return self.estimates.copy()

    def exact_answers(self) -> np.ndarray:
        """Exact answers rebuilt from the held coefficients.

        Only valid once :attr:`is_exact`.  Unlike :attr:`estimates` — which
        accumulates one coefficient at a time in retrieval order — this
        recomputes the answers with one
        :meth:`~repro.core.plan.QueryPlan.exact_estimates` reduction (what
        :meth:`BatchBiggestB.run` returns), so the result is bit-identical
        to an independent batch evaluation regardless of delivery order.
        The O(entries) reduction runs once; later calls copy its result.
        """
        if not self.is_exact:
            if self.degraded:
                raise ValueError(
                    f"session is degraded: {self._skipped_count} keys "
                    "unavailable; answers are bounded estimates "
                    "(retry_skipped() once the store recovers)"
                )
            raise ValueError("session is not exhausted; answers are estimates")
        if self._exact is None:
            self._exact = self.plan.exact_estimates(self._coefficients)
        return self._exact.copy()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _apply_batch(self, positions: np.ndarray, coefficients: np.ndarray, served) -> None:
        """Land a chunk: the bookkeeping now, the estimates (:meth:`_fold`)
        and records (:meth:`_record`) when read, the records from the
        ``served`` stamp and ``K**alpha``.  Landings older than the log's
        capacity of records are dropped, counted; one with no stamp
        (telemetry off) is kept behind one with records, which it bounds.
        :data:`MAX_CHUNK_KEYS` unfolded keys fold at once: the flush rule."""
        with stage("apply", self.costs):
            self._retrieved[positions] = True
            self._coefficients[positions] = coefficients
            self._steps_taken += int(positions.size)
            self._unfolded.append((positions, coefficients))
            self._unfolded_keys += positions.size
            if served is not None or self._landings:
                at, retrievals = (np.nan, -1) if served is None else served
                records = int((at == at) * positions.size if np.isscalar(at) else np.count_nonzero(at == at))
                self._landings.append((positions, at, retrievals, self._k_alpha(), records))
                self._landed += records
                while self._landed - (oldest := self._landings[0][4]) >= self._convergence.capacity:
                    del self._landings[0]
                    self._landed, self._lost = self._landed - oldest, self._lost + oldest
        if self._unfolded_keys >= MAX_CHUNK_KEYS:
            self._fold()

    def _fold(self) -> None:
        """Bring the estimates up to date: replays the landed chunks in
        order with one ``chunk_segments`` and one ``np.add.at`` (it adds in
        array order: bit-identical to one key at a time)."""
        if not self._unfolded:
            return
        # The landings counted the calls; a fold adds only its time.
        with stage("apply", self.costs, calls=0):
            backlog, self._unfolded, self._unfolded_keys = self._unfolded, [], 0
            positions = np.concatenate([chunk[0] for chunk in backlog])
            coefficients = np.concatenate([chunk[1] for chunk in backlog])
            qid, val, counts = self.plan.chunk_segments(positions)
            np.add.at(self._estimates, qid, val * np.repeat(coefficients, counts))

    def _record(self) -> None:
        """Write the records of the landings since the last write.

        A key's bound is ``K**alpha`` times the most important key not
        retrieved once it landed: of the keys landed later and those not
        retrieved now.  Only landings retrieve keys, so that is exact
        while importances hold still (:meth:`set_penalty` records first).
        """
        if not self._landings:
            return
        with stage("apply", self.costs, calls=0):
            landings, lost = self._landings, self._lost
            self._landings, self._landed, self._lost = [], 0, 0
            positions = np.concatenate([landing[0] for landing in landings])
            at, retrievals, k_alpha = (np.concatenate([
                fact if isinstance(fact := landing[i], np.ndarray) else np.full(landing[0].size, fact)
                for landing in landings
            ]) for i in (1, 2, 3))
            # A running max from the right: the keys landed later, then
            # the most important key not retrieved (pending or skipped).
            tail = np.append(self._importance[positions[1:]], self._next_iota())
            next_iota = np.maximum.accumulate(tail[::-1])[::-1]
            bounds = k_alpha * next_iota
            if next_iota[-1] <= 0.0:  # non-increasing: zeros are a tail
                bounds[next_iota <= 0.0] = 0.0
            steps = np.arange(self._steps_taken - positions.size, self._steps_taken) + 1
            keep = ~np.isnan(at)  # landed while telemetry was on
            self._convergence.record_many(*(column[keep] for column in (
                steps, np.where(retrievals < 0, steps, retrievals), bounds, at
            )), lost=lost)

    def _locate(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Master-list positions of ``keys`` and which are in the list."""
        pos = np.minimum(
            np.searchsorted(self.plan.keys, keys), self.plan.num_keys - 1
        )
        return pos, self.plan.keys[pos] == keys

    def _stop(self, bound: float | None) -> int:
        """Keys to fetch, none skipping, until ``worst_case_bound() <= bound``
        (all pending if unreachable): importance does not increase along the
        rank order, so one search over the bounds after ``j`` keys finds it."""
        live = self._head(self._order.size)
        iota = np.maximum(np.append(self._importance[live], 0.0), self._skipped_max_iota)
        target = np.inf if bound is None else -bound  # None: every pending key
        return min(int(np.searchsorted(-(self._k_alpha() * iota), target)), live.size)

    def _max_skipped_iota(self) -> float:
        """The largest importance among the skipped keys (their bound mass)."""
        return float(self._importance[self._skipped].max(initial=0.0))

    def _rank(self) -> None:
        """(Re-)sort the unretrieved keys under the current penalty."""
        self._importance, order = self.plan.ranking(self.penalty)
        self._order = order[~self._retrieved[order]]
        self._cursor = 0

    def _head(self, n: int, limit: int | None = None) -> np.ndarray:
        """Master positions of the next ``n`` pending keys (at most
        ``limit``), in order: :meth:`_drive`'s pick for this session.

        A read: nothing is consumed.  Keys leave the queue by being
        retrieved or skipped, and the cursor catches up lazily.
        """
        n = min(n, limit or n)
        order, start, width = self._order, self._seek(), n
        while True:
            block = order[start : start + width]
            live = block[~(self._retrieved[block] | self._skipped[block])]
            if live.size >= n or start + width >= order.size:
                return live[:n]
            width *= 2  # delivered or skipped keys sit inside the window: widen it

    def _seek(self) -> int:
        """Move the cursor to the first pending rank and return it.

        Forward only, in doubling blocks: the scan is paid once per rank
        passed, never per poll (``_order.size`` when nothing is pending).
        """
        order, cursor, width = self._order, self._cursor, DEFAULT_CHUNK
        if cursor < order.size:
            pos = order[cursor]
            if not (self._retrieved[pos] or self._skipped[pos]):
                return cursor  # the usual poll: the head has not moved
        while cursor < order.size:
            block = order[cursor : cursor + width]
            live = ~(self._retrieved[block] | self._skipped[block])
            if live.any():
                cursor += int(live.argmax())
                break
            cursor += block.size
            width *= 2
        self._cursor = cursor
        return cursor

    def _next_iota(self) -> float:
        """Importance of the most important key not retrieved — the
        pending head or the skipped bound mass (0.0 when none)."""
        head = self._seek()
        iota = self._importance[self._order[head]] if head < self._order.size else 0.0
        return max(float(iota), self._skipped_max_iota)

    def _k_alpha(self) -> float:
        """Theorem 1's ``K**alpha``; ``K`` is cached per store version."""
        version = getattr(self.storage.store, "version", None)
        if self._k_const is None or version != self._k_const_version:
            self._k_const = self.storage.total_l1()
            self._k_const_version = version
        return self._k_const**self.penalty.homogeneity
