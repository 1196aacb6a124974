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

The ranker rides a :class:`~repro.core.session.ProgressiveSession`: its
plan, estimates and queue are the session's, and its ``advance`` is the
session's loop (one gather per chunk, abandoned keys skipped and kept in
both bounds).  Each query's entries are sorted by magnitude once, and a
cursor per query stops at the first unretrieved one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.penalties import Penalty
from repro.core.session import ProgressiveSession
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
        self.batch = batch
        #: The session this ranker drives: its storage, penalty, plan,
        #: estimates, queue and cost account are the ranker's.
        self.session = ProgressiveSession(storage, batch, penalty)
        self.plan = self.session.plan
        self._k_const = storage.total_l1()
        # Per-query max |q_hat| over unused keys, read from every column (the
        # plan is built whole): the entries by (query, descending magnitude),
        # a cursor per query and the end of its run.
        entry_qid, entry_val = self.plan.entry_qid, self.plan.entry_val
        magnitude = np.abs(entry_val)
        by_query = np.lexsort((-magnitude, entry_qid))
        self._magnitude = magnitude[by_query]
        self._magnitude_pos = self.plan.entry_key_pos[by_query]
        counts = np.bincount(entry_qid, minlength=batch.size)
        self._end = np.cumsum(counts)
        self._cursor = self._end - counts
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
        retrieved, pos = self.session._retrieved, self._magnitude_pos
        cursor, end = int(self._cursor[query_index]), int(self._end[query_index])
        while cursor < end and retrieved[pos[cursor]]:
            cursor += 1
        self._cursor[query_index] = cursor
        if cursor == end:
            return 0.0
        thm1 = float(self._k_const * self._magnitude[cursor])
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
    def estimates(self) -> np.ndarray:
        """The session's progressive answers."""
        return self.session.estimates

    @property
    def steps_taken(self) -> int:
        return self.session.steps_taken

    def advance(self, k: int = 1) -> int:
        """Retrieve the next ``k`` most important coefficients."""
        return self.session._drive(k, None, None, self.session._head, self._serve)

    def _serve(self, positions: np.ndarray) -> None:
        """The session's serve, then the landed keys leave the residuals
        in retrieval order (the one-key subtraction order, bit for bit)."""
        self.session._serve(positions)
        landed = positions[self.session._retrieved[positions]]
        qids, vals, _ = self.plan.chunk_segments(landed)
        np.add.at(self._resid_q2, qids, -(vals**2))
        energy = np.append(self._resid_data2, self.session._coefficients[landed] ** 2)
        self._resid_data2 = float(np.subtract.accumulate(energy)[-1])

    def _run(self, decide, exact, step: int, decision: str, max_steps: int | None = None):
        """Advance ``step`` keys at a time until ``decide()`` is not None;
        once exhausted the estimates are exact and ``exact()`` decides.
        Nothing pending while keys are unavailable leaves it open: raise."""
        while (result := decide()) is None:
            if self.session.is_exact:
                return exact()
            stuck = self.session.remaining == self.session.skipped_count
            if stuck or (max_steps is not None and self.steps_taken >= max_steps):
                raise RuntimeError(
                    f"{decision} undecided after {self.steps_taken} retrievals"
                    f" (unavailable keys: {self.session.skipped_keys().tolist()})"
                )
            self.advance(step)
        return result

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
        def exact():
            return sorted(int(i) for i in np.argsort(-self.estimates, kind="stable")[:k])

        return self._run(lambda: self.certain_top_k(k), exact, step, f"top-{k}", max_steps)

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
        def decide():
            minima, undecided = self.certain_local_minima(neighbors)
            return None if undecided else sorted(minima)

        def exact():  # the estimates are exact: decide by comparison
            minima, undecided = self.certain_local_minima(neighbors)
            est = self.estimates
            return sorted(minima + [
                i for i in undecided if all(est[i] < est[j] for j in neighbors[i])
            ])

        return self._run(decide, exact, step, "local minima")
