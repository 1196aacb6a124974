"""Batch-Biggest-B: the paper's Figure 1 algorithm.

Given a batch of vector queries, a linear storage strategy, and a structural
error penalty function:

1. rewrite every query into the store's coefficient domain,
2. merge the supports into a master list,
3. weigh each master key by its importance ``iota_p`` (Definition 3),
4. retrieve coefficients in decreasing importance, advancing every query's
   progressive estimate that needs the retrieved value (Equation 2).

After ``B`` steps the estimates form the *p-weighted biggest-B
approximation*, which Theorem 1 (worst case) and Theorem 2 (average case)
prove optimal among all B-term approximations.  When the order is
exhausted the estimates are exact.

:class:`BatchBiggestB` is a one-session façade: step 4 is the loop of
:class:`~repro.core.session.ProgressiveSession`, whose pick / fetch /
apply pieces the shared scheduler also runs, so every surface here is
bit-identical to ``ProgressiveSession.advance(b)``:

* :meth:`BatchBiggestB.steps` — one :class:`ProgressiveStep` per
  retrieval (interactive use);
* :meth:`BatchBiggestB.run_progressive` — estimate snapshots at chosen
  checkpoints;
* :meth:`BatchBiggestB.run` — the exact answers, one gather and the
  plan's exact reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.core.penalties import Penalty
from repro.core.plan import QueryPlan
from repro.core.session import ProgressiveSession
from repro.obs import span, stage
from repro.obs.ledger import activate as _charge_to
from repro.queries.vector_query import QueryBatch
from repro.storage.base import LinearStorage
from repro.storage.resilient import available_runs, charged_fetch, fetch_degrading


@dataclass(frozen=True)
class ProgressiveStep:
    """State after one retrieval of the progressive evaluation.

    Attributes
    ----------
    step:
        1-based number of coefficients retrieved so far (the paper's ``B``).
    key:
        The store key just retrieved.
    importance:
        Its importance ``iota_p``.
    coefficient:
        The retrieved data coefficient.
    estimates:
        A copy of all progressive query estimates after this step.
    """

    step: int
    key: int
    importance: float
    coefficient: float
    estimates: np.ndarray


class BatchBiggestB:
    """Progressive batch evaluator (Figure 1) over any linear storage."""

    def __init__(
        self,
        storage: LinearStorage,
        batch: QueryBatch,
        penalty: Penalty | None = None,
        rewrites: list | None = None,
        plan: QueryPlan | None = None,
    ) -> None:
        # Steps 1-3 of Figure 1 (QueryPlan.from_batch).  Callers evaluating
        # one batch under several penalties can pass the plan (or rewrites)
        # of a previous evaluator to skip this work — only the ranking
        # depends on the penalty — and skipped stages cost this account nothing.
        if rewrites is not None and len(rewrites) != batch.size:
            raise ValueError("rewrites must match the batch size")
        if plan is None and rewrites is not None:
            plan = QueryPlan.from_rewrites(rewrites)
        self.storage = storage
        self.batch = batch
        self._rewrites = rewrites
        # Step 4's ranking is the session's: computed once, read off it.
        ranked = ProgressiveSession(storage, batch, penalty, plan=plan)
        self.plan, self.penalty = ranked.plan, ranked.penalty
        #: Per-evaluation cost attribution (stage timings + counters),
        #: shared by every session this evaluator drives.
        self.costs = ranked.costs
        self.costs.owner = "batch"
        self.importance, self.order = ranked._importance, ranked._order
        self._sorted_importance = self.importance[self.order]
        #: ``(store version, coefficients in rank order)`` once fetched.
        self._ranked_coefficients: tuple | None = None

    @property
    def rewrites(self) -> list:
        """The rewritten query vectors, built on first access: a plan made
        from per-dimension factors never needs them."""
        if self._rewrites is None:
            self._rewrites = self.storage.rewrite_batch(self.batch)
        return self._rewrites

    def _session(self) -> ProgressiveSession:
        """A fresh session over this evaluator's plan, charging its account."""
        session = ProgressiveSession(
            self.storage, self.batch, self.penalty, plan=self.plan
        )
        session.costs = self.costs
        return session

    # ------------------------------------------------------------------
    # Sizes (Observation 1's accounting)
    # ------------------------------------------------------------------

    @property
    def master_list_size(self) -> int:
        """Retrievals needed for exact answers *with* I/O sharing."""
        return self.plan.num_keys

    @property
    def unshared_retrievals(self) -> int:
        """Retrievals needed by per-query evaluation *without* sharing."""
        return self.plan.total_query_coefficients

    # ------------------------------------------------------------------
    # Exact evaluation
    # ------------------------------------------------------------------

    def run(self) -> np.ndarray:
        """Run to exhaustion; returns the exact answers.

        Retrieves every master-list key exactly once, in importance order.
        """
        with span("batch.run", keys=self.plan.num_keys), _charge_to(self.costs):
            fetched = charged_fetch(self.storage.store, self.plan.keys[self.order])
            with stage("apply"):
                coeff_by_pos = np.empty(self.plan.num_keys)
                coeff_by_pos[self.order] = fetched
                return self.plan.exact_estimates(coeff_by_pos)

    # ------------------------------------------------------------------
    # Progressive evaluation
    # ------------------------------------------------------------------

    def steps(self, readahead: int = 16) -> Iterator[ProgressiveStep]:
        """The Figure-1 loop: extract max, retrieve, increment, repeat.

        Yields a :class:`ProgressiveStep` per retrieval; after the last step
        the estimates are exact.

        ``readahead`` batches the store reads: the session's next (up to)
        ``readahead`` pending keys are fetched with one ``fetch`` call,
        then applied and yielded one at a time.  The step order is the
        same for every ``readahead`` and retrieval accounting still counts
        every key, but a paged/disk store sees chunked, importance-ordered
        reads instead of ``master_list_size`` single-key probes.  (A
        consumer that abandons the iterator mid-chunk has paid for at most
        ``readahead - 1`` coefficients it never saw.)  ``readahead=1``
        reproduces the strict fetch-per-step loop.

        Degradation: when a resilient store abandons a chunked fetch
        (:class:`~repro.storage.resilient.RetrievalError`), the chunk is
        re-fetched key by key and only the still-failing keys are skipped
        — their contributions are simply never applied, which keeps every
        yielded estimate inside the Theorem-1 bound for its step count.
        """
        if readahead < 1:
            raise ValueError(f"readahead must be positive, got {readahead}")
        session = self._session()
        while True:
            keys, iotas = session.upcoming(readahead)
            if not keys.size:
                return
            # The active-account binding covers only the fetch (a generator
            # must not leave a thread-local bound, or a stage open, across
            # yields); resilient-store retries inside the fetch land here.
            with _charge_to(self.costs):
                values, failed = fetch_degrading(
                    self.storage.store, keys, "batch.fetch"
                )
            positions, served = np.searchsorted(self.plan.keys, keys), session.stamp()
            for lo, hi in available_runs(keys.size, failed):
                for i in range(lo, hi):
                    session._apply_batch(positions[i : i + 1], values[i : i + 1], served)
                    yield ProgressiveStep(
                        step=session.steps_taken,
                        key=int(keys[i]),
                        importance=float(iotas[i]),
                        coefficient=float(values[i]),
                        estimates=session.estimates.copy(),
                    )
                if hi < keys.size:
                    session.skip_many(keys[hi : hi + 1])

    def run_progressive(
        self, checkpoints: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Estimate snapshots at given step counts.

        Parameters
        ----------
        checkpoints:
            Step counts ``B`` at which to record the batch estimates; values
            are clipped to ``[0, master_list_size]`` and sorted.

        Returns
        -------
        (checkpoints, estimates):
            The effective checkpoint array and a ``(len(checkpoints),
            batch_size)`` matrix of progressive estimates.  The store's
            retrieval counter advances by ``master_list_size`` on the first
            call (the whole master list is fetched in rank order once);
            later calls on an unchanged store fetch nothing.
        """
        checkpoints = np.unique(
            np.clip(np.asarray(checkpoints, dtype=np.int64), 0, self.plan.num_keys)
        )
        ordered_keys = self.plan.keys[self.order]
        # The cached coefficients are *data*, so they are only valid for
        # the store contents they were fetched from: a streaming insert
        # between calls must invalidate them, exactly like the
        # store-version-tied Theorem-1 constant cache in ProgressiveSession.
        version = getattr(self.storage.store, "version", None)
        if self._ranked_coefficients is None or self._ranked_coefficients[0] != version:
            with _charge_to(self.costs):
                fetched = charged_fetch(
                    self.storage.store, ordered_keys, "batch.run_progressive.fetch"
                )
            self._ranked_coefficients = (version, fetched)
        fetched = self._ranked_coefficients[1]
        session = self._session()
        out = np.empty((checkpoints.size, self.plan.batch_size))
        for i, b in enumerate(checkpoints.tolist()):
            done = session.steps_taken
            session.deliver_many(ordered_keys[done:b], fetched[done:b])
            out[i] = session.estimates
        return checkpoints, out

    # ------------------------------------------------------------------
    # Optimality bounds (Theorems 1 and 2)
    # ------------------------------------------------------------------

    def worst_case_bound(self, b: int) -> float:
        """Theorem 1's guaranteed bound after ``b`` retrievals.

        ``p(error) <= K**alpha * iota_p(xi')`` where ``K = sum |Delta_hat|``
        and ``xi'`` is the most important unused wavelet.  Returns 0 once
        the master list is exhausted (the unused coefficients all have zero
        importance for the batch).
        """
        if b < 0:
            raise ValueError("b must be non-negative")
        if b >= self.plan.num_keys:
            return 0.0
        k_const = self.storage.total_l1()
        alpha = self.penalty.homogeneity
        return float(k_const**alpha * self._sorted_importance[b])

    def expected_penalty(self, b: int) -> float:
        """Theorem 2's expected penalty after ``b`` retrievals.

        For data vectors drawn uniformly from the unit sphere in R^(N^d),
        ``E[p] = trace(R) / (N**d - 1)`` with ``trace(R)`` the summed
        importance of the unused wavelets.  Only valid for quadratic
        penalties (Theorem 2's hypothesis).
        """
        if not self.penalty.is_quadratic:
            raise ValueError("Theorem 2 applies to quadratic penalties only")
        if b < 0:
            raise ValueError("b must be non-negative")
        remaining = float(np.sum(self._sorted_importance[b:]))
        denom = self.storage.domain_size - 1
        if denom <= 0:
            raise ValueError("domain too small for the sphere average")
        return remaining / denom
