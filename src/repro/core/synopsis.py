"""Data-approximation synopses: the approach the paper argues against.

Related work (Section 1.1) builds *precomputed synopses* by keeping the
``B`` largest wavelet coefficients **of the data** and answering every
query from that lossy summary (Vitter & Wang; Chakrabarti et al.).  The
paper's counterpoint: "there is no reason to expect a general relation to
have a good wavelet approximation", and a precomputed synopsis cannot adapt
to the penalty function or the workload — whereas *query* approximation
(Batch-Biggest-B) chooses coefficients by their importance **to the
submitted batch** and is exact at exhaustion.

:class:`DataSynopsis` implements the competitor faithfully so the ablation
bench can compare the two B-term approximations at equal coefficient
budgets.
"""

from __future__ import annotations

import numpy as np

from repro.core.plan import QueryPlan
from repro.queries.vector_query import QueryBatch
from repro.storage.base import LinearStorage


class DataSynopsis:
    """The ``B`` largest-magnitude data coefficients, kept as a summary."""

    def __init__(self, storage: LinearStorage, budget: int) -> None:
        if budget < 0:
            raise ValueError("budget must be non-negative")
        self.storage = storage
        self.budget = int(budget)
        values = storage.store.as_dense()
        order = np.argsort(-np.abs(values), kind="stable")[: self.budget]
        self.keys = np.sort(order).astype(np.int64)
        self._values = values[self.keys]
        # Energy captured: how good a data approximation the synopsis is.
        total = float(np.sum(values**2))
        kept = float(np.sum(self._values**2))
        self.energy_fraction = kept / total if total > 0 else 1.0

    @property
    def size(self) -> int:
        """Coefficients stored (== budget unless the store is smaller)."""
        return int(self.keys.size)

    def answer_batch(self, batch: QueryBatch) -> np.ndarray:
        """Approximate batch answers from the synopsis alone (no I/O).

        Every query is rewritten and evaluated against only the retained
        coefficients — exactly how a compressed-domain query answering
        system works.
        """
        plan = QueryPlan.from_batch(self.storage, batch)
        coeffs = np.zeros(plan.num_keys)
        positions = np.searchsorted(self.keys, plan.keys)
        positions = np.clip(positions, 0, max(self.size - 1, 0))
        if self.size:
            hit = self.keys[positions] == plan.keys
            coeffs[hit] = self._values[positions[hit]]
        return plan.exact_estimates(coeffs)

    def describe(self) -> str:
        """One-line summary for benchmark output."""
        return (
            f"synopsis of {self.size} coefficients "
            f"({self.energy_fraction:.1%} of data energy)"
        )
