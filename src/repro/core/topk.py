"""Progressive identification of extreme ranges with guarantees.

Section 4's motivating queries:

* **Q1** — "Ranges with the highest average temperatures": the user wants
  the *identity* of the top-k cells, not their exact values;
* **Q3** — "Any ranges that are local minima, with average temperature
  below that of any neighboring range".

Both are *decision* problems that progressive evaluation can settle long
before the estimates are exact, provided we can bound each query's error.
For any retrieved set and any single query ``i``, Theorem 1 applied to the
one-hot penalty ``p(e) = e_i**2`` gives the certified bound

    |error_i| <= K * max_{unused xi} |q_i_hat[xi]|

with ``K = sum |Delta_hat|``.  :class:`ProgressiveRanker` maintains these
per-query bounds incrementally and stops as soon as the requested decision
(top-k membership, or local-minimality against a neighbor graph) is
*certain* — typically after a fraction of the master list.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from repro.core.penalties import Penalty, SsePenalty
from repro.core.plan import QueryPlan
from repro.queries.vector_query import QueryBatch
from repro.storage.base import LinearStorage


class ProgressiveRanker:
    """Progressive evaluation with certified per-query error intervals."""

    def __init__(
        self,
        storage: LinearStorage,
        batch: QueryBatch,
        penalty: Penalty | None = None,
    ) -> None:
        self.storage = storage
        self.batch = batch
        self.penalty = penalty if penalty is not None else SsePenalty()
        self.plan = QueryPlan.from_batch(storage, batch)
        self.estimates = np.zeros(batch.size)
        self._retrieved = np.zeros(self.plan.num_keys, dtype=bool)
        # The retrieval queue: the plan's importance order and a cursor.
        self._order = self.plan.order(self.penalty)
        self._cursor = 0
        self._k_const = storage.total_l1()
        # Per-query max |q_hat| over unused keys, maintained lazily with a
        # per-query max-heap of (|value|, key position).
        self._per_query_heaps: list[list[tuple[float, int]]] = [
            [] for _ in range(batch.size)
        ]
        # The per-query bounds read every column: the plan is built whole.
        entry_qid, entry_val = self.plan.entry_qid, self.plan.entry_val
        for q, magnitude, pos in zip(
            entry_qid.tolist(),
            np.abs(entry_val).tolist(),
            self.plan.entry_key_pos.tolist(),
        ):
            self._per_query_heaps[q].append((-magnitude, pos))
        for h in self._per_query_heaps:
            heapq.heapify(h)
        # Cauchy-Schwarz bound state: residual L2 energy of each query's
        # unretrieved coefficients, and of the data's unretrieved
        # coefficients (Parseval: equals ||Delta||**2 minus fetched energy).
        self._resid_q2 = np.bincount(
            entry_qid, weights=entry_val**2, minlength=batch.size
        )
        self._resid_data2 = storage.total_l2_squared()

    # ------------------------------------------------------------------
    # Error intervals
    # ------------------------------------------------------------------

    def error_bound(self, query_index: int) -> float:
        """Certified bound on ``|estimate_i - exact_i|`` right now.

        Minimum of two valid bounds over the unretrieved coefficients:

        * Theorem 1 per query: ``K * max |q_i_hat|``;
        * Cauchy-Schwarz: ``||q_i_hat|| * ||Delta_hat||`` where both norms
          are restricted to the unretrieved keys (the data residual uses
          Parseval: total energy minus the energy already fetched).
        """
        heap = self._per_query_heaps[query_index]
        while heap and self._retrieved[heap[0][1]]:
            heapq.heappop(heap)
        if not heap:
            return 0.0
        thm1 = float(self._k_const * (-heap[0][0]))
        cauchy = float(
            np.sqrt(max(self._resid_q2[query_index], 0.0))
            * np.sqrt(max(self._resid_data2, 0.0))
        )
        return min(thm1, cauchy)

    def intervals(self) -> np.ndarray:
        """``(batch, 2)`` array of certified [low, high] answer intervals.

        A small numerical slack (relative to the estimate and to ``K``) is
        added so that floating-point error in the progressive sums cannot
        produce a *false* certification between exactly tied answers.
        """
        bounds = np.array([self.error_bound(i) for i in range(self.batch.size)])
        slack = 1e-9 * (1.0 + np.abs(self.estimates) + 1e-6 * self._k_const)
        bounds = bounds + slack
        return np.stack([self.estimates - bounds, self.estimates + bounds], axis=-1)

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------

    @property
    def steps_taken(self) -> int:
        return self._cursor

    @property
    def exhausted(self) -> bool:
        """True once every master-list coefficient has been retrieved."""
        return self._cursor == self._order.size

    def advance(self, k: int = 1) -> int:
        """Retrieve the next ``k`` most important coefficients."""
        if k < 0:
            raise ValueError("k must be non-negative")
        done = 0
        while done < k and not self.exhausted:
            pos = self._order[self._cursor]
            self._cursor += 1
            coefficient = float(
                self.storage.store.fetch(self.plan.keys[pos : pos + 1])[0]
            )
            self._retrieved[pos] = True
            qids, vals, _ = self.plan.chunk_segments(np.array([pos]))
            np.add.at(self.estimates, qids, vals * coefficient)
            np.add.at(self._resid_q2, qids, -(vals**2))
            self._resid_data2 -= coefficient * coefficient
            done += 1
        return done

    # ------------------------------------------------------------------
    # Decisions (Q1 and Q3)
    # ------------------------------------------------------------------

    def certain_top_k(self, k: int) -> list[int] | None:
        """The certified top-``k`` query indices, or None if undecided.

        Certified means: the k-th candidate's lower bound strictly exceeds
        every non-candidate's upper bound.
        """
        if not 1 <= k < self.batch.size:
            raise ValueError(f"k must be in [1, {self.batch.size})")
        iv = self.intervals()
        order = np.argsort(-self.estimates, kind="stable")
        candidates = order[:k]
        rest = order[k:]
        kth_low = float(iv[candidates, 0].min())
        best_rest_high = float(iv[rest, 1].max())
        if kth_low > best_rest_high:
            return sorted(int(i) for i in candidates)
        return None

    def run_top_k(self, k: int, step: int = 1, max_steps: int | None = None) -> list[int]:
        """Advance until the top-``k`` set is certified; returns it.

        Falls back to the exact ranking if the master list is exhausted
        (then the answer is certain by definition, modulo exact ties).
        """
        while True:
            result = self.certain_top_k(k)
            if result is not None:
                return result
            if self.exhausted:
                order = np.argsort(-self.estimates, kind="stable")
                return sorted(int(i) for i in order[:k])
            if max_steps is not None and self.steps_taken >= max_steps:
                raise RuntimeError(
                    f"top-{k} undecided after {self.steps_taken} retrievals"
                )
            self.advance(step)

    def certain_local_minima(
        self, neighbors: Sequence[Sequence[int]]
    ) -> tuple[list[int], list[int]]:
        """Certified local minima against a neighbor structure (Q3).

        ``neighbors[i]`` lists the query indices adjacent to ``i``.  Returns
        ``(certified_minima, undecided)``: a query is a certified minimum
        when its upper bound is below every neighbor's lower bound, and
        certified *not* a minimum when some neighbor's upper bound is below
        its lower bound.
        """
        if len(neighbors) != self.batch.size:
            raise ValueError("neighbor list must cover every query")
        iv = self.intervals()
        minima: list[int] = []
        undecided: list[int] = []
        for i, nbrs in enumerate(neighbors):
            if not nbrs:
                continue
            if all(iv[i, 1] < iv[j, 0] for j in nbrs):
                minima.append(i)
            elif any(iv[j, 1] < iv[i, 0] for j in nbrs):
                continue  # certified not a minimum
            else:
                undecided.append(i)
        return minima, undecided

    def run_local_minima(
        self, neighbors: Sequence[Sequence[int]], step: int = 16
    ) -> list[int]:
        """Advance until every query's local-minimum status is decided."""
        while True:
            minima, undecided = self.certain_local_minima(neighbors)
            if not undecided or self.exhausted:
                if undecided and self.exhausted:
                    # Exhausted: estimates are exact, decide by comparison.
                    extra = [
                        i
                        for i in undecided
                        if all(
                            self.estimates[i] < self.estimates[j]
                            for j in neighbors[i]
                        )
                    ]
                    return sorted(minima + extra)
                return sorted(minima)
            self.advance(step)
