"""The paper's contribution: structural error penalties and Batch-Biggest-B."""

from repro.core.batch import BatchBiggestB, ProgressiveStep
from repro.core.baselines import (
    NaiveScanEvaluator,
    RoundRobinEvaluator,
    exact_answers,
)
from repro.core.explain import PlanReport, explain
from repro.core.metrics import (
    mean_relative_error,
    mean_relative_error_curve,
    normalized_penalty,
    normalized_penalty_curve,
    normalized_sse,
)
from repro.core.penalties import (
    CombinedPenalty,
    CursoredSsePenalty,
    DifferencePenalty,
    LaplacianPenalty,
    LpPenalty,
    Penalty,
    QuadraticFormPenalty,
    QuadraticPenalty,
    SsePenalty,
    WeightedSsePenalty,
)
from repro.core.plan import QueryPlan
from repro.core.session import ProgressiveSession
from repro.core.topk import ProgressiveRanker

__all__ = [
    "BatchBiggestB",
    "ProgressiveStep",
    "NaiveScanEvaluator",
    "RoundRobinEvaluator",
    "exact_answers",
    "CombinedPenalty",
    "CursoredSsePenalty",
    "LaplacianPenalty",
    "LpPenalty",
    "Penalty",
    "QuadraticFormPenalty",
    "QuadraticPenalty",
    "SsePenalty",
    "WeightedSsePenalty",
    "QueryPlan",
    "PlanReport",
    "explain",
    "mean_relative_error",
    "mean_relative_error_curve",
    "normalized_penalty",
    "normalized_penalty_curve",
    "normalized_sse",
    "DifferencePenalty",
    "ProgressiveSession",
    "ProgressiveRanker",
]
