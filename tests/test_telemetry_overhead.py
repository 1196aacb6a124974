"""Guard against accidental always-on telemetry cost on the hot path.

With both telemetry systems disabled, ``BatchBiggestB.run`` on the 2^14
seed workload must stay within 5% of a hand-inlined no-telemetry
baseline (the identical fetch + exact-estimates computation with no
span/metric call sites at all).  A small absolute grace term absorbs
single-digit-microsecond timer noise so the test measures the span
machinery, not the clock.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import obs
from repro.core.batch import BatchBiggestB
from repro.data.synthetic import uniform_dataset
from repro.queries.workload import partition_count_batch
from repro.storage.wavelet_store import WaveletStorage

#: 128 x 128 = 2^14 cells: the seed benchmark domain.
SHAPE = (128, 128)
REPEATS = 7
#: Relative budget from the issue, plus absolute timer-noise grace.
REL_BUDGET = 1.05
ABS_GRACE = 5e-4  # seconds


def _baseline_run(evaluator: BatchBiggestB) -> np.ndarray:
    """BatchBiggestB.run's exact computation with zero telemetry calls."""
    ordered_keys = evaluator.plan.keys[evaluator.order]
    fetched = evaluator.storage.store.fetch(ordered_keys)
    coeff_by_pos = np.empty(evaluator.plan.num_keys)
    coeff_by_pos[evaluator.order] = fetched
    return evaluator.plan.exact_estimates(coeff_by_pos)


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class TestTelemetryOverhead:
    def test_disabled_telemetry_run_within_budget(self):
        relation = uniform_dataset(SHAPE, 20_000, seed=7)
        storage = WaveletStorage.build(relation.frequency_distribution())
        batch = partition_count_batch(
            SHAPE, (4, 4), rng=np.random.default_rng(11)
        )
        evaluator = BatchBiggestB(storage, batch)

        metrics_prev = obs.set_enabled(False)
        tracing_prev = obs.set_tracing(False)
        try:
            # Results must agree regardless of instrumentation.
            np.testing.assert_allclose(
                evaluator.run(), _baseline_run(evaluator), rtol=1e-12
            )
            # Warm both paths, then race them.
            _best_of(evaluator.run, 2)
            _best_of(lambda: _baseline_run(evaluator), 2)
            instrumented = _best_of(evaluator.run)
            baseline = _best_of(lambda: _baseline_run(evaluator))
        finally:
            obs.set_enabled(metrics_prev)
            obs.set_tracing(tracing_prev)

        assert instrumented <= baseline * REL_BUDGET + ABS_GRACE, (
            f"disabled-telemetry run took {instrumented * 1e3:.3f}ms vs "
            f"baseline {baseline * 1e3:.3f}ms — span/metric call sites are "
            "not cheap enough when switched off"
        )

    def test_disabled_span_is_nanoseconds(self):
        """A disabled span costs well under a microsecond per use."""
        tracing_prev = obs.set_tracing(False)
        try:
            n = 20_000
            t0 = time.perf_counter()
            for _ in range(n):
                with obs.span("noop", key=1):
                    pass
            per_span = (time.perf_counter() - t0) / n
        finally:
            obs.set_tracing(tracing_prev)
        assert per_span < 20e-6, f"disabled span costs {per_span * 1e9:.0f}ns"

    def test_disabled_ledger_ops_are_nanoseconds(self):
        """Disabled cost-ledger charges — a counter, and an ``obs.stage``
        region with every sink — are one boolean check each."""
        account = obs.CostAccount(owner="test")
        histogram = obs.MetricRegistry().histogram("repro_test_seconds")
        metrics_prev = obs.set_enabled(False)
        tracing_prev = obs.set_tracing(False)
        try:
            n = 20_000
            t0 = time.perf_counter()
            for _ in range(n):
                with obs.stage("fetch", account, histogram, span="noop", key=1):
                    pass
                account.add(retrievals=1)
            per_op = (time.perf_counter() - t0) / n
            # Nothing was recorded while disabled.
            assert account.retrievals == 0
            assert account.stage_totals() == {}
            assert histogram.count() == 0
        finally:
            obs.set_enabled(metrics_prev)
            obs.set_tracing(tracing_prev)
        assert per_op < 20e-6, f"disabled ledger op costs {per_op * 1e9:.0f}ns"
