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

:class:`BatchBiggestB` drives one fresh
:class:`~repro.core.session.ProgressiveSession` per call of
:meth:`~BatchBiggestB.steps` (one :class:`ProgressiveStep` per retrieval),
:meth:`~BatchBiggestB.run_progressive` (snapshots at checkpoints) or
:meth:`~BatchBiggestB.run` (the exact answers).  Step 4 is the session's
``_drive`` loop and nothing here calls the store, so every surface is
bit-identical to ``ProgressiveSession.advance(b)`` and has the session's
outage contract: a key the store gives up on is skipped, and the
estimates stay inside the Theorem-1 bound of the keys held.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.core.penalties import Penalty
from repro.core.plan import QueryPlan
from repro.core.session import ProgressiveSession
from repro.obs import span, stage
from repro.queries.vector_query import QueryBatch
from repro.storage.base import LinearStorage


@dataclass(frozen=True)
class ProgressiveStep:
    """State after one retrieval of the progressive evaluation."""

    step: int  #: coefficients retrieved so far (the paper's ``B``), 1-based
    key: int  #: the store key just retrieved
    importance: float  #: its importance ``iota_p``
    coefficient: float  #: the retrieved data coefficient
    estimates: np.ndarray  #: a copy of every query's estimate after this step


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
        # Steps 1-3 of Figure 1 (QueryPlan.from_batch).  A plan (or rewrites)
        # of a previous evaluator skips them: only the ranking depends on
        # the penalty, and skipped stages cost this account nothing.
        if rewrites is not None and len(rewrites) != batch.size:
            raise ValueError("rewrites must match the batch size")
        if plan is None and rewrites is not None:
            plan = QueryPlan.from_rewrites(rewrites)
        self.storage, self.batch, self._rewrites = storage, batch, rewrites
        # Step 4's ranking is the session's: computed once, read off it.
        ranked = ProgressiveSession(storage, batch, penalty, plan=plan)
        self.plan, self.penalty = ranked.plan, ranked.penalty
        #: Per-evaluation cost attribution (stage timings + counters),
        #: shared by every session this evaluator drives.
        self.costs = ranked.costs
        self.costs.owner = "batch"
        self.importance, self.order = ranked._importance, ranked._order
        self._sorted_importance = self.importance[self.order]

    @property
    def rewrites(self) -> list:
        """The rewritten query vectors, built on first access: a plan made
        from per-dimension factors never needs them."""
        if self._rewrites is None:
            self._rewrites = self.storage.rewrite_batch(self.batch)
        return self._rewrites

    def _session(self) -> ProgressiveSession:
        """A fresh session over this evaluator's plan, charging its account."""
        session = ProgressiveSession(self.storage, self.batch, self.penalty, plan=self.plan)
        session.costs = self.costs
        return session

    @property
    def master_list_size(self) -> int:
        """Retrievals needed for exact answers *with* I/O sharing."""
        return self.plan.num_keys

    @property
    def unshared_retrievals(self) -> int:
        """Retrievals needed by per-query evaluation *without* sharing."""
        return self.plan.total_query_coefficients

    def run(self) -> np.ndarray:
        """Run to exhaustion; returns the exact answers.

        Retrieves every master-list key once, in importance order, and sums
        the answers with the plan's exact reduction.  When the store gives
        up on some keys, every other key is still retrieved, then the
        session's degraded ``ValueError`` is raised.
        """
        with span("batch.run", keys=self.plan.num_keys):
            session = self._session()
            session.advance(session.remaining)
            with stage("apply", self.costs, calls=0):
                return session.exact_answers()

    def steps(self, readahead: int = 16) -> Iterator[ProgressiveStep]:
        """The Figure-1 loop: extract max, retrieve, increment, repeat.

        Yields a :class:`ProgressiveStep` per retrieval; after the last step
        the estimates are exact.

        ``readahead`` batches the store reads: the session's next (up to)
        ``readahead`` pending keys are one gather, landed one key at a
        time, then yielded — the same steps for every ``readahead``
        (``1`` is the strict fetch-per-step loop), and a consumer that
        abandons the iterator mid-chunk has paid for at most
        ``readahead - 1`` coefficients it never saw.  A key the store
        gives up on is skipped, as ``ProgressiveSession.advance`` skips it.
        """
        session, landed = self._session(), []
        keys, importance = self.plan.keys, session._importance

        def land(positions, values, served):
            for i, pos in enumerate(positions.tolist()):
                session._apply_batch(positions[i : i + 1], values[i : i + 1], served)
                landed.append(ProgressiveStep(
                    session.steps_taken, int(keys[pos]), float(importance[pos]),
                    float(values[i]), session.estimates.copy(),
                ))

        # ``_drive`` binds the account only while it runs: none across a yield.
        serve = lambda positions: session._serve(positions, land)
        while session._drive(readahead, None, readahead, session._head, serve):
            yield from landed
            landed.clear()

    def run_progressive(self, checkpoints: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """``(checkpoints, estimates)``: the step counts ``B``, clipped to
        ``[0, master_list_size]`` and sorted, and a ``(len(checkpoints),
        batch_size)`` matrix of the estimates after each.  One fresh
        session advances to each checkpoint in turn, so a call retrieves
        ``max(checkpoints)`` keys (fewer when the store gives up on some:
        those are skipped)."""
        checkpoints = np.unique(
            np.clip(np.asarray(checkpoints, dtype=np.int64), 0, self.plan.num_keys)
        )
        session = self._session()
        out = np.empty((checkpoints.size, self.plan.batch_size))
        for i, b in enumerate(checkpoints.tolist()):
            session.advance(b - session.steps_taken)
            out[i] = session.estimates
        return checkpoints, out

    # Optimality bounds (Theorems 1 and 2)

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
        k_alpha = self.storage.total_l1() ** self.penalty.homogeneity
        return float(k_alpha * self._sorted_importance[b])

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
        if (denom := self.storage.domain_size - 1) <= 0:
            raise ValueError("domain too small for the sphere average")
        return float(np.sum(self._sorted_importance[b:])) / denom
