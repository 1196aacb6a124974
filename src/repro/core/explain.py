"""EXPLAIN for batch query plans: cost and accuracy forecasts.

Everything Batch-Biggest-B needs to *plan* a batch — the rewritten query
supports, the master list, the importance profile — is known before a
single data coefficient is fetched.  :func:`explain` assembles that into a
report a query optimizer (or a curious user) can act on:

* exact-evaluation cost with and without I/O sharing, and the sharing
  factor (Observation 1's accounting, forecast instead of measured);
* per-query rewrite sizes (min/median/max);
* the importance profile and the retrieval budget needed to drive the
  Theorem-1 worst-case bound below a target;
* Theorem-2 expected-penalty forecasts at representative budgets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.penalties import Penalty, SsePenalty
from repro.core.plan import QueryPlan
from repro.queries.vector_query import QueryBatch
from repro.storage.base import LinearStorage


@dataclass(frozen=True)
class PlanReport:
    """The forecastable facts about a batch plan."""

    batch_size: int
    master_list_size: int
    unshared_retrievals: int
    sharing_factor: float
    per_query_nnz_min: int
    per_query_nnz_median: float
    per_query_nnz_max: int
    importance_total: float
    importance_top_decile_share: float
    expected_penalty_at: dict[int, float]
    bound_budgets: dict[str, int]

    def lines(self) -> list[str]:
        """Human-readable report lines."""
        out = [
            f"batch size:            {self.batch_size}",
            f"master list:           {self.master_list_size:,} retrievals (exact, shared)",
            f"without sharing:       {self.unshared_retrievals:,} retrievals",
            f"sharing factor:        {self.sharing_factor:.1f}x",
            f"rewrite sizes:         min {self.per_query_nnz_min}, "
            f"median {self.per_query_nnz_median:.0f}, max {self.per_query_nnz_max}",
            f"importance mass:       {self.importance_total:.4e} "
            f"(top 10% of keys hold {self.importance_top_decile_share:.1%})",
        ]
        for b, ep in sorted(self.expected_penalty_at.items()):
            out.append(f"expected penalty @B={b:<8,} {ep:.4e}  (Theorem 2)")
        for target, budget in self.bound_budgets.items():
            out.append(f"budget for bound <= {target}: {budget:,} retrievals (Theorem 1)")
        return out


def explain(
    storage: LinearStorage,
    batch: QueryBatch,
    penalty: Penalty | None = None,
    bound_targets: tuple[float, ...] = (),
) -> PlanReport:
    """Forecast the cost/accuracy profile of a batch without fetching data.

    ``bound_targets`` asks, for each target value, how many retrievals are
    needed before the Theorem-1 worst-case bound drops below it.  This
    *does* read the store's total L1 mass (a single precomputed statistic),
    but no individual coefficients.
    """
    penalty = penalty if penalty is not None else SsePenalty()
    # The plan a session would run: for a grid batch under SSE nothing
    # below reads a column, so none is built.
    plan = QueryPlan.from_batch(storage, batch)
    iota = plan.importance(penalty)
    sorted_iota = np.sort(iota)[::-1]
    total = float(sorted_iota.sum())
    top_decile = max(1, plan.num_keys // 10)
    top_share = float(sorted_iota[:top_decile].sum() / total) if total > 0 else 0.0

    budgets: dict[str, int] = {}
    if bound_targets:
        k_const = storage.total_l1()
        alpha = penalty.homogeneity
        bounds = k_const**alpha * sorted_iota
        for target in bound_targets:
            # Bound after b retrievals is bounds[b]; find the smallest b
            # with bounds[b] <= target (bounds are non-increasing).
            b = int(np.searchsorted(-bounds, -target, side="left"))
            budgets[f"{target:g}"] = b

    expected: dict[int, float] = {}
    if penalty.is_quadratic:
        denom = storage.domain_size - 1
        tail = np.concatenate([np.cumsum(sorted_iota[::-1])[::-1], [0.0]])
        for b in sorted({plan.num_keys // 100, plan.num_keys // 10, plan.num_keys // 2}):
            expected[b] = float(tail[min(b, plan.num_keys)]) / denom

    nnz = plan.per_query_nnz
    shared = plan.num_keys
    unshared = plan.total_query_coefficients
    return PlanReport(
        batch_size=batch.size,
        master_list_size=shared,
        unshared_retrievals=unshared,
        sharing_factor=unshared / shared if shared else float("nan"),
        per_query_nnz_min=int(nnz.min()),
        per_query_nnz_median=float(np.median(nnz)),
        per_query_nnz_max=int(nnz.max()),
        importance_total=total,
        importance_top_decile_share=top_share,
        expected_penalty_at=expected,
        bound_budgets=budgets,
    )
