"""Unit tests for progressive top-k and local-minima identification."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.session import ProgressiveSession
from repro.core.topk import ProgressiveRanker
from repro.queries.range import HyperRect
from repro.queries.vector_query import QueryBatch, VectorQuery
from repro.queries.workload import partition_count_batch
from repro.storage.faults import chaos_stack
from repro.storage.wavelet_store import WaveletStorage
from tests.test_session import CallCounter


@pytest.fixture
def setup(rng):
    """A dataset with clearly separated cell masses."""
    data = rng.random((16, 16))
    # Plant a dominant region and a near-empty one.
    data[0:4, 0:4] += 50.0
    data[12:16, 12:16] *= 0.01
    batch = partition_count_batch((16, 16), (4, 4), rng=np.random.default_rng(3))
    storage = WaveletStorage.build(data, wavelet="haar")
    return data, storage, batch


def chain_neighbors(n):
    return [[j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)]


def blacked_out(storage, batch):
    """``storage`` with the ranker's most important key unavailable, and that key."""
    key = ProgressiveSession(storage, batch).upcoming(1)[0]
    return storage.with_store(chaos_stack(storage.store, {"blackout_keys": key})), key


class TestIntervals:
    def test_intervals_always_contain_truth(self, setup):
        data, storage, batch = setup
        exact = batch.exact_dense(data)
        ranker = ProgressiveRanker(storage, batch)
        for _ in range(12):
            iv = ranker.intervals()
            assert np.all(iv[:, 0] <= exact + 1e-9)
            assert np.all(iv[:, 1] >= exact - 1e-9)
            ranker.advance(7)

    def test_bounds_shrink_to_zero(self, setup):
        data, storage, batch = setup
        ranker = ProgressiveRanker(storage, batch)
        start = sum(ranker.error_bound(i) for i in range(batch.size))
        ranker.advance(ranker.plan.num_keys)
        end = sum(ranker.error_bound(i) for i in range(batch.size))
        assert end == 0.0
        assert start > 0.0

    def test_bound_monotone_per_query(self, setup):
        data, storage, batch = setup
        ranker = ProgressiveRanker(storage, batch)
        prev = [ranker.error_bound(i) for i in range(batch.size)]
        for _ in range(10):
            ranker.advance(5)
            cur = [ranker.error_bound(i) for i in range(batch.size)]
            assert all(c <= p + 1e-12 for c, p in zip(cur, prev))
            prev = cur

    def test_heap_free_bound_is_exact(self, setup):
        """Theorem 1's term is K times the largest unretrieved |q_i_hat|,
        by brute force over the plan's entries, at every step."""
        _, storage, batch = setup
        ranker = ProgressiveRanker(storage, batch)
        plan, k_const = ranker.plan, storage.total_l1()
        while True:
            held = ranker.session._retrieved[plan.entry_key_pos]
            cauchy = np.sqrt(max(ranker._resid_data2, 0.0))
            for i in range(batch.size):
                unused = (plan.entry_qid == i) & ~held
                thm1 = k_const * np.abs(plan.entry_val[unused]).max(initial=0.0)
                expected = min(thm1, np.sqrt(max(ranker._resid_q2[i], 0.0)) * cauchy)
                assert ranker.error_bound(i) == expected
            if ranker.session.is_exact:
                break
            ranker.advance(7)


class TestRidesASession:
    def test_advance_is_one_gather_on_the_session_account(self, setup):
        _, storage, batch = setup
        counter = CallCounter(storage.store)
        ranker = ProgressiveRanker(storage.with_store(counter), batch)
        assert ranker.advance(16) == 16
        assert counter.calls == 1
        costs = ranker.session.costs
        assert costs.stage_totals()["fetch"]["calls"] == 1
        assert costs.retrievals == 16

    def test_a_blacked_out_key_degrades_and_stays_in_both_bounds(self, setup):
        data, storage, batch = setup
        exact = batch.exact_dense(data)
        store, key = blacked_out(storage, batch)
        ranker = ProgressiveRanker(store, batch)
        num_keys = ranker.plan.num_keys
        assert ranker.advance(num_keys) == num_keys - 1
        assert ranker.session.skipped_keys().tolist() == key.tolist()
        iv = ranker.intervals()
        assert np.all(iv[:, 0] <= exact + 1e-9)
        assert np.all(iv[:, 1] >= exact - 1e-9)
        # Exactly the queries that read the key keep a bound: both terms.
        plan = ranker.plan
        pos = int(np.searchsorted(plan.keys, key[0]))
        reads = np.isin(np.arange(batch.size), plan.entry_qid[plan.entry_key_pos == pos])
        assert reads.any() and ranker._resid_data2 > 0.0
        for i in range(batch.size):
            assert (ranker.error_bound(i) > 0.0) == reads[i]
            assert (ranker._resid_q2[i] > 1e-12) == reads[i]

    def test_open_decisions_name_the_unavailable_keys(self, setup):
        _, storage, batch = setup
        store, key = blacked_out(storage, batch)
        ranker = ProgressiveRanker(store, batch)
        with pytest.raises(RuntimeError, match=f"unavailable keys: \\[{key[0]}\\]"):
            ranker.run_top_k(3, step=64)
        assert ranker.session.degraded and not ranker.session.is_exact
        with pytest.raises(RuntimeError, match=f"unavailable keys: \\[{key[0]}\\]"):
            ranker.run_local_minima(chain_neighbors(batch.size))


class TestTopK:
    def test_identifies_exact_top_k(self, setup):
        data, storage, batch = setup
        exact = batch.exact_dense(data)
        for k in (1, 3):
            ranker = ProgressiveRanker(storage, batch)
            got = ranker.run_top_k(k, step=8)
            expected = sorted(np.argsort(-exact, kind="stable")[:k].tolist())
            assert got == expected

    def test_certifies_before_exhaustion_on_separated_data(self, setup):
        data, storage, batch = setup
        ranker = ProgressiveRanker(storage, batch)
        ranker.run_top_k(1, step=4)
        assert ranker.steps_taken < ranker.plan.num_keys

    def test_certain_top_k_none_initially(self, setup):
        data, storage, batch = setup
        ranker = ProgressiveRanker(storage, batch)
        # With nothing retrieved all intervals coincide; nothing is certain.
        assert ranker.certain_top_k(1) is None

    def test_k_validation(self, setup):
        _, storage, batch = setup
        ranker = ProgressiveRanker(storage, batch)
        with pytest.raises(ValueError):
            ranker.certain_top_k(0)
        with pytest.raises(ValueError):
            ranker.certain_top_k(batch.size)

    def test_max_steps_raises(self, setup):
        _, storage, batch = setup
        ranker = ProgressiveRanker(storage, batch)
        with pytest.raises(RuntimeError):
            ranker.run_top_k(1, step=1, max_steps=1)


class TestLocalMinima:
    def test_finds_exact_minima_chain(self, setup):
        data, storage, batch = setup
        exact = batch.exact_dense(data)
        neighbors = chain_neighbors(batch.size)
        ranker = ProgressiveRanker(storage, batch)
        got = ranker.run_local_minima(neighbors, step=16)
        expected = sorted(
            i
            for i, nbrs in enumerate(neighbors)
            if nbrs and all(exact[i] < exact[j] for j in nbrs)
        )
        assert got == expected

    def test_certified_minima_are_true_minima(self, setup):
        data, storage, batch = setup
        exact = batch.exact_dense(data)
        neighbors = chain_neighbors(batch.size)
        ranker = ProgressiveRanker(storage, batch)
        ranker.advance(ranker.plan.num_keys // 3)
        minima, _ = ranker.certain_local_minima(neighbors)
        for i in minima:
            assert all(exact[i] < exact[j] for j in neighbors[i])

    def test_neighbor_arity_validated(self, setup):
        _, storage, batch = setup
        ranker = ProgressiveRanker(storage, batch)
        with pytest.raises(ValueError):
            ranker.certain_local_minima([[1]])

    def test_isolated_queries_are_skipped(self, setup):
        data, storage, batch = setup
        neighbors = [[] for _ in range(batch.size)]
        ranker = ProgressiveRanker(storage, batch)
        minima, undecided = ranker.certain_local_minima(neighbors)
        assert minima == [] and undecided == []


class TestAgainstSmallOracle:
    def test_two_query_race(self, rng):
        """Two disjoint COUNT queries: bounds must decide the winner."""
        data = np.zeros((8, 8))
        data[0:4, :] = 5.0
        data[4:8, :] = 1.0
        batch = QueryBatch(
            [
                VectorQuery.count(HyperRect.from_bounds([(0, 3), (0, 7)])),
                VectorQuery.count(HyperRect.from_bounds([(4, 7), (0, 7)])),
            ]
        )
        storage = WaveletStorage.build(data, wavelet="haar")
        ranker = ProgressiveRanker(storage, batch)
        winner = ranker.run_top_k(1)
        assert winner == [0]
