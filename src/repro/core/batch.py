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

Two execution surfaces are provided:

* :meth:`BatchBiggestB.steps` — the faithful loop of Figure 1 (its heap
  is the importance order sorted once at construction), yielding one
  :class:`ProgressiveStep` per retrieval (interactive use);
* :meth:`BatchBiggestB.run` / :meth:`BatchBiggestB.run_progressive` —
  vectorized execution with identical semantics for large experiments,
  returning final answers or estimate snapshots at chosen checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.core.penalties import Penalty, SsePenalty
from repro.core.plan import QueryPlan
from repro.obs import CostAccount, span
from repro.obs.ledger import activate as _charge_to
from repro.queries.vector_query import QueryBatch
from repro.storage.base import LinearStorage
from repro.storage.resilient import fetch_degrading


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
        workers: int | None = None,
    ) -> None:
        self.storage = storage
        self.batch = batch
        self.penalty = penalty if penalty is not None else SsePenalty()
        #: Per-evaluation cost attribution (stage timings + counters).
        self.costs = CostAccount(owner="batch", queries=batch.size)
        # Steps 1-3 of Figure 1: rewrite each query, merge into a master
        # list (QueryPlan.from_batch; ``workers > 1`` computes the batch's
        # distinct per-dimension rewrite factors on a process pool).
        # Callers evaluating one batch under several penalties can pass
        # the plan (or the rewrites) of a previous evaluator to skip this
        # work (only the importance ordering depends on the penalty) — the
        # skipped stages then cost this account nothing, which is the
        # point of passing them in.
        if rewrites is not None and len(rewrites) != batch.size:
            raise ValueError("rewrites must match the batch size")
        self._rewrites = rewrites
        with _charge_to(self.costs):
            if plan is not None:
                self.plan = plan
            elif rewrites is not None:
                with self.costs.stage("plan"):
                    self.plan = QueryPlan.from_rewrites(rewrites)
            else:
                self.plan = QueryPlan.from_batch(storage, batch, workers=workers)
        if self.plan.batch_size != batch.size:
            raise ValueError("plan must match the batch size")
        with self.costs.stage("plan"):
            # Step 4: importance of every master key, biggest-B order.
            self.importance, self.order = self.plan.ranking(self.penalty)
            self._sorted_importance = self.importance[self.order]

    @property
    def rewrites(self) -> list:
        """The rewritten query vectors, built on first access: a plan made
        from per-dimension factors never needs them."""
        if self._rewrites is None:
            self._rewrites = self.storage.rewrite_batch(self.batch)
        return self._rewrites

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
            ordered_keys = self.plan.keys[self.order]
            with self.costs.stage("fetch"):
                fetched = self.storage.store.fetch(ordered_keys)
            self.costs.add(retrievals=int(ordered_keys.size))
            with self.costs.stage("apply"):
                coeff_by_pos = np.empty(self.plan.num_keys)
                coeff_by_pos[self.order] = fetched
                return self.plan.exact_estimates(coeff_by_pos)

    # ------------------------------------------------------------------
    # Progressive evaluation
    # ------------------------------------------------------------------

    def steps(self, readahead: int = 16) -> Iterator[ProgressiveStep]:
        """The faithful Figure-1 loop: extract max, retrieve, increment, repeat.

        Yields a :class:`ProgressiveStep` per retrieval; after the last step
        the estimates are exact.

        ``readahead`` batches the store reads: the next (up to)
        ``readahead`` keys of :attr:`order` are fetched with one ``fetch``
        call, then applied and yielded one at a time.  Semantics are unchanged — the
        step order is identical and retrieval accounting still counts every
        key — but a paged/disk store sees chunked, importance-ordered reads
        instead of ``master_list_size`` single-key probes.  (A consumer that
        abandons the iterator mid-chunk has paid for at most
        ``readahead - 1`` coefficients it never saw.)  ``readahead=1``
        reproduces the strict fetch-per-step loop.

        Degradation: when a resilient store abandons a chunked fetch
        (:class:`~repro.storage.resilient.RetrievalError`), the chunk is
        re-fetched key by key and only the still-failing keys are dropped
        from the progression — their estimates contributions are simply
        never applied, which keeps every yielded estimate inside the
        Theorem-1 bound for its step count.
        """
        if readahead < 1:
            raise ValueError(f"readahead must be positive, got {readahead}")
        estimates = np.zeros(self.plan.batch_size)
        step = 0
        # Step 5: walk the importance order (step 4's max-heap, sorted
        # once: ties go to the smaller key), retrieve chunked, advance
        # each query.
        for lo in range(0, self.plan.num_keys, readahead):
            chunk = self.order[lo : lo + readahead]
            # The active-account binding covers only the fetch calls (a
            # generator must not leave a thread-local bound across yields);
            # resilient-store retries inside the fetch still land here.
            with span("batch.fetch", keys=chunk.size), _charge_to(self.costs), \
                    self.costs.stage("fetch"):
                coefficients, failed = fetch_degrading(
                    self.storage.store, self.plan.keys[chunk]
                )
            if failed:
                chunk = np.delete(chunk, failed)
                coefficients = np.delete(coefficients, failed)
            self.costs.add(retrievals=chunk.size, skipped_keys=len(failed))
            # One concatenated-CSR gather for the surviving chunk; the
            # per-key slices below are views into it, so the yield-per-step
            # surface keeps its semantics without re-slicing the CSR
            # arrays key by key.
            chunk_qids, chunk_vals, counts = self.plan.chunk_segments(chunk)
            edges = np.concatenate(([0], np.cumsum(counts)))
            for i, (pos, coefficient) in enumerate(
                zip(chunk.tolist(), coefficients.tolist())
            ):
                with self.costs.stage("apply"):
                    segment = slice(edges[i], edges[i + 1])
                    np.add.at(
                        estimates,
                        chunk_qids[segment],
                        chunk_vals[segment] * coefficient,
                    )
                step += 1
                yield ProgressiveStep(
                    step=step,
                    key=int(self.plan.keys[pos]),
                    importance=float(self.importance[pos]),
                    coefficient=coefficient,
                    estimates=estimates.copy(),
                )

    def run_progressive(
        self, checkpoints: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized progression: estimate snapshots at given step counts.

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
            retrieval counter advances by ``master_list_size`` (the full
            progression is materialized once).
        """
        checkpoints = np.unique(
            np.clip(np.asarray(checkpoints, dtype=np.int64), 0, self.plan.num_keys)
        )
        # The materialized progression caches *data* coefficients, so it is
        # only valid for the store contents it was fetched from: a streaming
        # insert between calls must invalidate it, exactly like the
        # store-version-tied Theorem-1 constant cache in ProgressiveSession.
        version = getattr(self.storage.store, "version", None)
        cached = getattr(self, "_progression_cache", None)
        if cached is not None and cached[0] == version:
            # Reuse the materialized progression; no retrievals re-counted
            # (the coefficients are already held).
            sorted_rank, contrib, qid_sorted = cached[1]
        else:
            with span(
                "batch.run_progressive.materialize", keys=self.plan.num_keys
            ), _charge_to(self.costs):
                ordered_keys = self.plan.keys[self.order]
                with self.costs.stage("fetch"):
                    fetched = self.storage.store.fetch(ordered_keys)
                self.costs.add(retrievals=int(ordered_keys.size))
                # Every column in delivery order; column r is rank r's.
                qid_sorted, val_sorted, counts = self.plan.chunk_segments(self.order)
                sorted_rank = np.repeat(np.arange(self.plan.num_keys), counts)
                contrib = val_sorted * np.repeat(fetched, counts)
                self._progression_cache = (
                    version,
                    (sorted_rank, contrib, qid_sorted),
                )
        estimates = np.zeros(self.plan.batch_size)
        out = np.zeros((checkpoints.size, self.plan.batch_size))
        prev_edge = 0
        for i, b in enumerate(checkpoints):
            edge = int(np.searchsorted(sorted_rank, b, side="left"))
            if edge > prev_edge:
                estimates += np.bincount(
                    qid_sorted[prev_edge:edge],
                    weights=contrib[prev_edge:edge],
                    minlength=self.plan.batch_size,
                )
                prev_edge = edge
            out[i] = estimates
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

    def importance_profile(self) -> np.ndarray:
        """Sorted (descending) importance values of the master list."""
        return self._sorted_importance.copy()
