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
  observed-estimate predicate is satisfied;
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
:meth:`upcoming` reads the next pending keys off the array, and
:meth:`advance` is *pick* (the queue head), *fetch*
(:func:`~repro.storage.resilient.fetch_degrading`), *apply* — the same
three pieces the shared scheduler runs over many sessions and
:class:`~repro.core.batch.BatchBiggestB` runs over one.  Whoever drives
it, a session's estimates accumulate in one place, ``_apply_batch``.

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
from repro.obs import ConvergenceLog, CostAccount
from repro.obs import enabled as _telemetry_enabled
from repro.obs.ledger import activate as _charge_to
from repro.queries.vector_query import QueryBatch
from repro.storage.base import LinearStorage
from repro.storage.resilient import available_runs, fetch_degrading

#: Keys fetched per store gather when a wall-clock deadline bounds an
#: :meth:`ProgressiveSession.advance` call or one of
#: :class:`~repro.service.scheduler.SharedRetrievalScheduler`, and the
#: first block of the cursor's forward scan.
DEFAULT_CHUNK = 64

#: Keys per gather when nothing else caps it — both loops' flush rule (and
#: ``cluster/store.py``'s for a pipe message): a larger request —
#: ``run_to_completion`` of a 200k-key plan — is served in pieces, so one
#: apply never concatenates a whole plan's entries.
MAX_CHUNK_KEYS = 8192


def _max_after(values: np.ndarray, last: float) -> np.ndarray:
    """``out[i] = max(values[i+1:], last)``: a running max from the right."""
    tail = np.empty(values.size)
    tail[:-1] = values[1:]
    tail[-1] = last
    return np.maximum.accumulate(tail[::-1])[::-1]


class ProgressiveSession:
    """A pausable, re-targetable progressive batch evaluation."""

    def __init__(
        self,
        storage: LinearStorage,
        batch: QueryBatch,
        penalty: Penalty | None = None,
        workers: int | None = None,
        convergence_capacity: int = 1024,
        plan: QueryPlan | None = None,
    ) -> None:
        self.storage = storage
        self.batch = batch
        self.penalty = penalty if penalty is not None else SsePenalty()
        #: Per-session cost attribution: stage timings plus resource
        #: counters, itemized in ``docs/OBSERVABILITY.md``.
        self.costs = CostAccount(owner="session", queries=batch.size)
        # ``workers > 1`` parallelizes the rewrite front end (the distinct
        # per-dimension factors) without changing the resulting plan.  A
        # prebuilt ``plan`` (only the ranking depends on the penalty)
        # skips that work and costs this account nothing.
        if plan is None:
            with _charge_to(self.costs):
                plan = QueryPlan.from_batch(storage, batch, workers=workers)
        elif plan.batch_size != batch.size:
            raise ValueError("plan must match the batch size")
        self.plan = plan
        self.estimates = np.zeros(batch.size)
        #: Bounded ring of ``(B, retrievals, bound, wall_time)`` events —
        #: one per applied coefficient; see ``docs/OBSERVABILITY.md``.
        self.convergence = ConvergenceLog(capacity=convergence_capacity)
        self._retrieved = np.zeros(self.plan.num_keys, dtype=bool)
        self._skipped = np.zeros(self.plan.num_keys, dtype=bool)
        self._skipped_count = 0
        self._skipped_max_iota = 0.0
        self._steps_taken = 0
        self._coefficients = np.zeros(self.plan.num_keys)
        self._exact: np.ndarray | None = None
        # Rank, and build the first block of columns, now and not in the
        # first apply: the first ``advance`` must cost what every later
        # one does.
        with self.costs.stage("plan"):
            self._rank()
            self.plan.build_next_block()
        self._k_const: float | None = None
        self._k_const_version: int | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

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

    def lacks(self, keys: np.ndarray) -> np.ndarray:
        """Which of ``keys`` :meth:`deliver_many` would apply: in the
        master list and not yet retrieved, pending or skipped."""
        pos, found = self._locate(keys)
        return found & ~self._retrieved[pos]

    def upcoming(
        self, n: int, floor: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, importance)`` of the next ``n`` pending keys, in
        delivery order (importance desc, key asc); fewer when fewer are
        pending — or, with ``floor``, when fewer are at least that
        important.  The head of :meth:`pending`, sorted — what a shared
        scheduler merges across sessions.
        """
        head = self._head(n, floor)
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
        if self._skipped_count and self._skipped_max_iota > next_iota:
            next_iota = self._skipped_max_iota
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
        if k < 0:
            raise ValueError("k must be non-negative")
        if chunk is not None and chunk < 1:
            raise ValueError(f"chunk must be positive, got {chunk}")
        if chunk is None:
            chunk = min(k, MAX_CHUNK_KEYS) if deadline is None else DEFAULT_CHUNK
        start = time.monotonic() if deadline is not None else 0.0
        done = 0
        # Bind this session's account to the thread so deep layers (the
        # resilient store counting retries) charge the right session.
        with _charge_to(self.costs):
            while done < k:
                if deadline is not None and time.monotonic() - start >= deadline:
                    break
                positions = self._head(min(chunk, k - done))
                if not positions.size:
                    break
                values, failed = fetch_degrading(
                    self.storage.store,
                    self.plan.keys[positions],
                    lambda _n: self.costs.stage("fetch"),
                )
                for lo, hi in available_runs(positions.size, failed):
                    if hi > lo:
                        self.costs.add(retrievals=hi - lo)
                        self._apply_batch(positions[lo:hi], values[lo:hi])
                        done += hi - lo
                    if hi < positions.size:
                        self.skip_many(self.plan.keys[positions[hi : hi + 1]])
        return done

    def deliver(self, key: int, coefficient: float) -> bool:
        """Apply a coefficient retrieved externally (scheduler hook).

        Marks ``key`` as retrieved and advances the estimates exactly as if
        :meth:`advance` had fetched it, but without touching the store —
        the caller already paid the retrieval.  Returns True when the key
        was pending (False: not in the master list, or already held).
        The one-key form of :meth:`deliver_many`.
        """
        return bool(self.deliver_many([key], [coefficient])[0])

    def deliver_many(self, keys, coefficients) -> np.ndarray:
        """Apply a chunk of externally retrieved coefficients at once.

        What the shared scheduler calls per (session, run of served
        keys): one position lookup, one estimate update and
        one ledger charge for the whole chunk instead of per key.  The
        keys must be distinct; they are applied in the order given, so
        estimates, counters, and the per-coefficient Theorem-1 bound
        records are bit-identical to calling :meth:`deliver` in a loop.
        Returns a boolean mask saying which keys were pending (False:
        not in the master list, or already held).
        """
        keys = np.asarray(keys, dtype=np.int64).ravel()
        coefficients = np.asarray(coefficients, dtype=np.float64).ravel()
        if keys.size != coefficients.size:
            raise ValueError("keys and coefficients must align")
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        if keys.size > 1 and np.unique(keys).size != keys.size:
            raise ValueError("deliver_many requires distinct keys")
        pos, found = self._locate(keys)
        applied = found & ~self._retrieved[pos]
        if not applied.any():
            return applied
        apos = pos[applied]
        acoeff = coefficients[applied]
        skipped_max_seq: np.ndarray | None = None
        was_skipped = self._skipped[apos]
        if was_skipped.any():
            # Keys came back (another session's fetch succeeded after
            # ours was abandoned).  The scalar loop un-skips them one by
            # one, and the convergence records depend on the bound mass
            # it sees *after each key*: the keys skipped outside this
            # chunk, and the chunk's own skipped keys still to come.
            self._skipped[apos] = False
            self._skipped_count -= int(np.count_nonzero(was_skipped))
            self._skipped_max_iota = self._max_skipped_iota()
            skipped_max_seq = _max_after(
                np.where(was_skipped, self._importance[apos], 0.0),
                self._skipped_max_iota,
            )
        self.costs.add(deliveries=int(apos.size))
        self._apply_batch(apos, acoeff, skipped_max_seq)
        return applied

    def skip(self, key: int) -> bool:
        """Mark ``key`` unavailable (scheduler hook for abandoned fetches).

        The key stays *unretrieved*: its importance remains in the
        Theorem-1 bound mass, so :meth:`worst_case_bound` is still a
        valid upper bound.  Returns True when the key was pending (False:
        not in the master list, already held, or already skipped).
        The one-key form of :meth:`skip_many`.
        """
        return bool(self.skip_many([key]))

    def skip_many(self, keys) -> int:
        """Vectorized :meth:`skip` for a shed shard's whole key slice.

        Bound mass, counters and :meth:`skipped_keys` end up exactly as
        after calling :meth:`skip` per key; returns how many keys were
        pending.
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
        """
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
            accuracy; called after every retrieval).
        max_steps:
            Hard cap on retrievals for this call.
        deadline:
            Wall-clock budget in seconds for this call: no new fetch is
            started after it elapses.  A slow store then returns a
            degraded-but-bounded answer instead of blocking.

        Returns the number of coefficients retrieved by this call.
        """
        if bound is None and predicate is None and max_steps is None and deadline is None:
            raise ValueError("provide at least one stopping condition")
        start = time.monotonic() if deadline is not None else 0.0
        done = 0
        while self._seek() < self._order.size:
            if max_steps is not None and done >= max_steps:
                break
            if deadline is not None and time.monotonic() - start >= deadline:
                break
            if bound is not None and self.worst_case_bound() <= bound:
                break
            if predicate is not None and predicate(self.estimates):
                break
            done += self.advance(1)
        return done

    def run_to_completion(self) -> np.ndarray:
        """Retrieve everything; returns the exact answers."""
        self.advance(self.remaining)
        return self.estimates.copy()

    def exact_answers(self) -> np.ndarray:
        """Exact answers rebuilt from the held coefficients.

        Only valid once :attr:`is_exact`.  Unlike :attr:`estimates` — which
        accumulates one coefficient at a time in retrieval order — this
        recomputes the answers with the same single
        :meth:`~repro.core.plan.QueryPlan.exact_estimates` reduction that
        :meth:`BatchBiggestB.run` uses, so the result is bit-identical to an
        independent batch evaluation regardless of delivery order.  The
        O(entries) reduction runs once; later calls copy its result.
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

    def _apply_batch(
        self,
        positions: np.ndarray,
        coefficients: np.ndarray,
        skipped_max_seq: np.ndarray | None = None,
    ) -> None:
        """Apply a chunk of coefficients at their master positions.

        One concatenated-CSR gather and one ``np.add.at`` update the
        estimates for the whole chunk; because ``np.add.at`` accumulates
        element by element in array order, the floating-point result is
        bit-identical to applying the keys one at a time in the same
        order.  The convergence records carry the bound after each key:
        the most important *unused* coefficient then is the max of the
        chunk's own importance suffix, the queue head behind the chunk,
        and the skipped bound mass (``skipped_max_seq``, per key, when
        the chunk un-skipped keys on the way).
        """
        n = int(positions.size)
        base_steps = self._steps_taken
        with self.costs.stage("apply"):
            qid, val, counts = self.plan.chunk_segments(positions)
            np.add.at(self.estimates, qid, val * np.repeat(coefficients, counts))
            self._retrieved[positions] = True
            self._coefficients[positions] = coefficients
            self._steps_taken += n
        if _telemetry_enabled():
            steps = np.arange(base_steps + 1, base_steps + n + 1)
            stats = getattr(self.storage.store, "stats", None)
            next_iota = _max_after(self._importance[positions], self._next_iota())
            if skipped_max_seq is not None:
                np.maximum(next_iota, skipped_max_seq, out=next_iota)
            elif self._skipped_count:
                np.maximum(next_iota, self._skipped_max_iota, out=next_iota)
            bounds = self._k_alpha() * next_iota
            if next_iota[-1] <= 0.0:  # non-increasing: zeros are a tail
                bounds[next_iota <= 0.0] = 0.0
            self.convergence.record_many(
                steps,
                steps if stats is None else np.full(n, int(stats.retrievals)),
                bounds,
            )

    def _locate(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Master-list positions of ``keys`` and which are in the list."""
        pos = np.minimum(
            np.searchsorted(self.plan.keys, keys), self.plan.num_keys - 1
        )
        return pos, self.plan.keys[pos] == keys

    def _max_skipped_iota(self) -> float:
        """The largest importance among the skipped keys (their bound mass)."""
        if not self._skipped_count:
            return 0.0
        return float(self._importance[self._skipped].max())

    def _rank(self) -> None:
        """(Re-)sort the unretrieved keys under the current penalty."""
        self._importance, order = self.plan.ranking(self.penalty)
        self._order = order[~self._retrieved[order]]
        self._cursor = 0

    def _head(self, n: int, floor: float | None = None) -> np.ndarray:
        """Master positions of the next ``n`` pending keys, in order,
        stopping at the first rank less important than ``floor``.

        A read: nothing is consumed.  Keys leave the queue by being
        retrieved or skipped, and the cursor catches up lazily.
        """
        order, start = self._order, self._seek()
        # A floor mostly ends the window within a few ranks: start small.
        width = n if floor is None else min(n, DEFAULT_CHUNK)
        while True:
            block = order[start : start + width]
            last = start + width >= order.size
            if floor is not None and block.size and self._importance[block[-1]] < floor:
                # Importance descends by rank: the floor cuts a prefix.
                block, last = block[self._importance[block] >= floor], True
            live = block[~(self._retrieved[block] | self._skipped[block])]
            if live.size >= n or last:
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
        """Importance of the most important pending key (0.0 when none)."""
        head = self._seek()
        if head == self._order.size:
            return 0.0
        return float(self._importance[self._order[head]])

    def _k_alpha(self) -> float:
        """Theorem 1's ``K**alpha``; ``K`` is cached per store version."""
        version = getattr(self.storage.store, "version", None)
        if self._k_const is None or version != self._k_const_version:
            self._k_const = self.storage.total_l1()
            self._k_const_version = version
        return self._k_const**self.penalty.homogeneity
