"""Unit tests for the interactive progressive session."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import session as session_module
from repro.core.batch import BatchBiggestB
from repro.core.penalties import CursoredSsePenalty, LpPenalty, SsePenalty
from repro.core.plan import QueryPlan
from repro.core.session import ProgressiveSession
from repro.queries.vector_query import QueryBatch, VectorQuery
from repro.queries.workload import partition_count_batch, random_rectangles
from repro.storage import StoreWrapper
from repro.storage.faults import chaos_stack
from repro.storage.wavelet_store import WaveletStorage


@pytest.fixture
def setup(rng, data_2d):
    batch = partition_count_batch((16, 16), (4, 2), rng=rng)
    storage = WaveletStorage.build(data_2d, wavelet="db2")
    return storage, batch, batch.exact_dense(data_2d)


class TestAdvance:
    def test_advance_matches_batch_biggest_b(self, setup):
        storage, batch, exact = setup
        session = ProgressiveSession(storage, batch)
        reference = BatchBiggestB(storage, batch)
        steps = list(reference.steps())
        for b in (1, 3, 10):
            session_fresh = ProgressiveSession(storage, batch)
            session_fresh.advance(b)
            np.testing.assert_allclose(
                session_fresh.estimates, steps[b - 1].estimates, atol=1e-9
            )

    def test_run_to_completion_is_exact(self, setup):
        storage, batch, exact = setup
        session = ProgressiveSession(storage, batch)
        answers = session.run_to_completion()
        np.testing.assert_allclose(answers, exact, atol=1e-9)
        assert session.is_exact
        assert session.remaining == 0

    def test_advance_beyond_master_list(self, setup):
        storage, batch, _ = setup
        session = ProgressiveSession(storage, batch)
        total = session.plan.num_keys
        assert session.advance(total + 100) == total

    def test_advance_zero(self, setup):
        storage, batch, _ = setup
        session = ProgressiveSession(storage, batch)
        assert session.advance(0) == 0
        assert session.steps_taken == 0

    def test_advance_rejects_negative(self, setup):
        storage, batch, _ = setup
        session = ProgressiveSession(storage, batch)
        with pytest.raises(ValueError):
            session.advance(-1)

    def test_never_retrieves_twice(self, setup):
        storage, batch, _ = setup
        session = ProgressiveSession(storage, batch)
        storage.reset_stats()
        session.advance(5)
        session.set_penalty(CursoredSsePenalty(batch.size, high_priority=[0]))
        session.run_to_completion()
        assert storage.stats.retrievals == session.plan.num_keys


class TestDeliver:
    def test_deliver_matches_advance(self, setup):
        storage, batch, exact = setup
        driver = ProgressiveSession(storage, batch)
        receiver = ProgressiveSession(storage, batch)
        # Replay the driver's own retrievals into the receiver externally.
        while not driver.is_exact:
            keys_before = set(driver.retrieved_keys().tolist())
            driver.advance(1)
            (key,) = set(driver.retrieved_keys().tolist()) - keys_before
            coefficient = float(storage.store.peek(np.array([key]))[0])
            assert receiver.deliver(key, coefficient)
        np.testing.assert_array_equal(receiver.estimates, driver.estimates)
        assert receiver.is_exact

    def test_deliver_ignores_foreign_and_duplicate_keys(self, setup):
        storage, batch, _ = setup
        session = ProgressiveSession(storage, batch)
        in_list = int(session.plan.keys[0])
        all_keys = set(range(storage.store.key_space_size))
        foreign = min(all_keys - set(session.plan.keys.tolist()))
        assert session.deliver(in_list, 1.5)
        assert not session.deliver(in_list, 1.5)  # already held
        assert not session.deliver(foreign, 1.5)  # not in the master list
        assert session.steps_taken == 1

    def test_bound_prunes_externally_delivered_heap_entries(self, setup):
        storage, batch, _ = setup
        session = ProgressiveSession(storage, batch)
        reference = ProgressiveSession(storage, batch)
        # Deliver the two most important keys externally; the bound must
        # reflect the next *pending* importance, as if advance() had run.
        reference.advance(2)
        for key in reference.retrieved_keys().tolist():
            session.deliver(int(key), 0.0)
        assert session.worst_case_bound() == pytest.approx(
            reference.worst_case_bound()
        )

    def test_exact_answers_bit_equal_to_batch_run(self, setup):
        storage, batch, _ = setup
        session = ProgressiveSession(storage, batch)
        with pytest.raises(ValueError):
            session.exact_answers()
        session.run_to_completion()
        reference = BatchBiggestB(storage, batch).run()
        assert np.array_equal(session.exact_answers(), reference)


class TestWorstCaseConstantInvalidation:
    def test_streaming_insert_refreshes_k_const(self, rng):
        batch = partition_count_batch((16, 16), (2, 2), rng=rng)
        storage = WaveletStorage.empty((16, 16), wavelet="haar")
        storage.insert((3, 4), weight=2.0)
        session = ProgressiveSession(storage, batch)
        session.worst_case_bound()  # the store caches K for its version
        storage.insert((9, 12), weight=5.0)
        fresh = ProgressiveSession(storage, batch)
        assert session.worst_case_bound() == pytest.approx(
            fresh.worst_case_bound()
        )

    def test_bound_still_cached_when_store_unchanged(self, setup):
        storage, batch, _ = setup
        session = ProgressiveSession(storage, batch)
        first = session.worst_case_bound()
        summed = storage.store._l1  # K is the store's, kept per version
        assert summed == (storage.store.version, storage.total_l1())
        assert session.worst_case_bound() == first
        assert storage.store._l1 is summed


class TestPenaltySwitch:
    def test_switch_keeps_progress_and_stays_exact(self, setup):
        storage, batch, exact = setup
        session = ProgressiveSession(storage, batch)
        session.advance(7)
        before = session.estimates.copy()
        session.set_penalty(CursoredSsePenalty(batch.size, high_priority=[1, 2]))
        np.testing.assert_allclose(session.estimates, before)
        answers = session.run_to_completion()
        np.testing.assert_allclose(answers, exact, atol=1e-9)

    def test_switch_continuation_matches_fresh_batch_biggest_b(self, setup):
        """After set_penalty, the remaining retrieval order is exactly the
        fresh Batch-Biggest-B order under the new penalty, restricted to
        the not-yet-retrieved keys (the session docstring's contract)."""
        storage, batch, _ = setup
        new_penalty = CursoredSsePenalty(
            batch.size, high_priority=[2, 5], high_weight=50.0
        )
        session = ProgressiveSession(storage, batch)
        session.advance(8)
        already = set(session.retrieved_keys().tolist())
        session.set_penalty(new_penalty)

        reference = BatchBiggestB(storage, batch, penalty=new_penalty)
        expected_order = [
            int(k)
            for k in reference.plan.keys[reference.order]
            if int(k) not in already
        ]
        for t in (1, 5, len(expected_order)):
            while session.steps_taken < 8 + t:
                session.advance(1)
            got = set(session.retrieved_keys().tolist()) - already
            assert got == set(expected_order[:t]), f"diverged at step {t}"

    def test_switch_changes_future_order(self, setup):
        storage, batch, _ = setup
        boost = CursoredSsePenalty(batch.size, high_priority=[3], high_weight=1e6)
        a = ProgressiveSession(storage, batch)
        a.advance(2)
        a.set_penalty(boost)
        b = ProgressiveSession(storage, batch)
        b.advance(2)
        # After boosting query 3 hugely, the very next retrievals differ
        # from the plain-SSE continuation (unless q3 already dominated).
        a.advance(3)
        b.advance(3)
        assert not np.allclose(a.estimates, b.estimates)


class TestBoundsAndStopping:
    def test_worst_case_bound_decreases_to_zero(self, setup):
        storage, batch, _ = setup
        session = ProgressiveSession(storage, batch)
        bounds = [session.worst_case_bound()]
        while not session.is_exact:
            session.advance(10)
            bounds.append(session.worst_case_bound())
        assert bounds[-1] == 0.0
        assert all(x >= y - 1e-9 for x, y in zip(bounds, bounds[1:]))

    def test_run_until_bound(self, setup):
        storage, batch, exact = setup
        session = ProgressiveSession(storage, batch)
        target = session.worst_case_bound() / 1e6
        session.run_until(bound=target)
        assert session.worst_case_bound() <= target
        penalty = SsePenalty()
        assert penalty(session.estimates - exact) <= target * (1 + 1e-9)

    def test_run_until_predicate(self, setup):
        storage, batch, exact = setup
        session = ProgressiveSession(storage, batch)
        session.run_until(predicate=lambda est: est.sum() > 0.5 * exact.sum())
        assert session.estimates.sum() > 0.5 * exact.sum()

    def test_run_until_max_steps(self, setup):
        storage, batch, _ = setup
        session = ProgressiveSession(storage, batch)
        done = session.run_until(max_steps=4)
        assert done == 4
        assert session.steps_taken == 4

    def test_run_until_needs_a_condition(self, setup):
        storage, batch, _ = setup
        session = ProgressiveSession(storage, batch)
        with pytest.raises(ValueError):
            session.run_until()

    def test_expected_penalty_decreases(self, setup):
        storage, batch, _ = setup
        session = ProgressiveSession(storage, batch)
        before = session.expected_penalty()
        session.advance(20)
        assert session.expected_penalty() <= before

    def test_expected_penalty_rejects_non_quadratic(self, setup):
        storage, batch, _ = setup
        session = ProgressiveSession(storage, batch, penalty=LpPenalty(1.0))
        with pytest.raises(ValueError):
            session.expected_penalty()


class CallCounter(StoreWrapper):
    """Counts the store calls made through it."""

    def __init__(self, inner):
        super().__init__(inner)
        self.calls = 0

    def fetch(self, keys):
        self.calls += 1
        return self.inner.fetch(keys)


@pytest.fixture(scope="module")
def cube():
    """A Poisson(3) 3-D count cube and a 32-cell COUNT partition of it."""
    data = np.random.default_rng(5).poisson(3.0, size=(16, 16, 8)).astype(float)
    return data, partition_count_batch(data.shape, (4, 4, 2), rng=np.random.default_rng(6))


class TestRunUntilFindsItsStop:
    """``run_until(bound=)`` is one advance to a precomputed stop, and ends
    exactly where the per-key loop ends."""

    @pytest.mark.parametrize("blackouts", [0, 1, 2])
    @pytest.mark.parametrize("cursored", [False, True], ids=["sse", "cursored"])
    @pytest.mark.parametrize("wavelet", ["haar", "db2"])
    def test_matches_the_per_key_loop(self, cube, wavelet, cursored, blackouts):
        data, batch = cube
        storage = WaveletStorage.build(data, wavelet=wavelet)
        penalty = (
            CursoredSsePenalty(batch.size, high_priority=[0, 5]) if cursored else SsePenalty()
        )
        plan = QueryPlan.from_batch(storage, batch)
        if blackouts:
            # Rank 60 is past the loosest stops: it is skipped only on the way to tighter ones.
            lost = plan.keys[plan.order(penalty)[[60, 3][:blackouts]]]
            storage = storage.with_store(chaos_stack(storage.store, {"blackout_keys": lost}))
        initial = ProgressiveSession(storage, batch, penalty, plan=plan).worst_case_bound()
        for fraction in (1e-1, 1e-2, 1e-3, 1e-4):
            bound = fraction * initial
            fast = ProgressiveSession(storage, batch, penalty, plan=plan)
            steps = fast.run_until(bound=bound)
            slow = ProgressiveSession(storage, batch, penalty, plan=plan)
            while slow.pending_mask().any() and slow.worst_case_bound() > bound:
                slow.advance(1)
            assert steps == fast.steps_taken == slow.steps_taken
            assert fast.skipped_count == slow.skipped_count
            np.testing.assert_array_equal(fast.retrieved_keys(), slow.retrieved_keys())
            assert fast.worst_case_bound() == slow.worst_case_bound()
            assert fast.estimates.tobytes() == slow.estimates.tobytes()

    @pytest.mark.parametrize("chunk_keys", [None, 64])
    def test_without_a_skip_it_is_one_gather_per_chunk(self, cube, monkeypatch, chunk_keys):
        if chunk_keys is not None:
            monkeypatch.setattr(session_module, "MAX_CHUNK_KEYS", chunk_keys)
        data, batch = cube
        storage = WaveletStorage.build(data, wavelet="db2")
        counter = CallCounter(storage.store)
        session = ProgressiveSession(storage.with_store(counter), batch)
        steps = session.run_until(bound=1e-3 * session.worst_case_bound())
        assert steps > 64 and not session.degraded
        assert counter.calls <= math.ceil(steps / session_module.MAX_CHUNK_KEYS)

    def test_max_steps_and_a_predicate_keep_their_contracts(self, cube):
        data, batch = cube
        storage = WaveletStorage.build(data, wavelet="haar")
        session = ProgressiveSession(storage, batch)
        assert session.run_until(bound=0.0, max_steps=10) == 10
        seen = []
        session.run_until(predicate=lambda est: seen.append(est.sum()) or len(seen) > 5)
        assert len(seen) == 6 and session.steps_taken == 15


class TestCursorScenario:
    def test_moving_cursor_session(self, rng, data_2d):
        """Simulate scrolling: retarget the penalty as the cursor moves."""
        rects = random_rectangles((16, 16), 12, rng=rng)
        batch = QueryBatch([VectorQuery.count(r) for r in rects])
        storage = WaveletStorage.build(data_2d, wavelet="haar")
        exact = batch.exact_dense(data_2d)
        session = ProgressiveSession(storage, batch)
        for start in (0, 4, 8):
            session.set_penalty(
                CursoredSsePenalty(batch.size, high_priority=range(start, start + 4))
            )
            session.advance(session.plan.num_keys // 6)
        answers = session.run_to_completion()
        np.testing.assert_allclose(answers, exact, atol=1e-9)


FOLD_STORAGE = WaveletStorage.build(
    np.random.default_rng(7).poisson(3.0, size=(16, 16)).astype(np.float64), wavelet="db2"
)
FOLD_BATCH = partition_count_batch((16, 16), (4, 2), rng=np.random.default_rng(8))
FOLD_PENALTIES = [
    SsePenalty(),
    LpPenalty(1.5),
    CursoredSsePenalty(FOLD_BATCH.size, high_priority=[0]),
    CursoredSsePenalty(FOLD_BATCH.size, high_priority=[5], high_weight=50.0),
]


def _records(session):
    return [
        (r.steps_taken, r.retrievals, r.worst_case_bound)
        for r in session.convergence.trajectory()
    ]


class TestFoldAtRead:
    """A session lands chunks and folds them into its estimates and
    convergence records when they are read.  Between a landing and its
    fold the session may skip keys, retry them, un-skip them by a
    delivery, or switch penalty (the one mutation that must fold first).
    One session is read after every delivery, the other only at the
    end: both must agree bit for bit.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["chunk", "chunk", "skip", "retry", "penalty"]),
                st.integers(0, 2**16),
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_reading_late_equals_reading_after_every_delivery(self, ops):
        eager = ProgressiveSession(FOLD_STORAGE, FOLD_BATCH)
        late = ProgressiveSession(FOLD_STORAGE, FOLD_BATCH, plan=eager.plan)
        keys = eager.plan.keys
        for op, seed in ops:
            rng = np.random.default_rng(seed)
            head, _ = eager.upcoming(24)
            if op == "chunk":
                # Out of rank order, mixing pending, skipped (a delivery
                # un-skips them) and already held keys.
                pool = np.unique(np.concatenate([
                    head, eager.skipped_keys(), rng.choice(keys, size=8),
                ]))
                chunk = rng.permutation(pool)[: rng.integers(1, 24)]
                values = FOLD_STORAGE.store.fetch(chunk)
                for session in (eager, late):
                    session.deliver_many(chunk, values)
                eager.estimates, eager.convergence  # read now: folds as it landed
            elif op == "skip":
                # The head, as an abandoned gather would leave it.
                chunk = head[: rng.integers(1, 6)]
                for session in (eager, late):
                    session.skip_many(chunk)
            elif op == "retry":
                keep = rng.random(eager.skipped_count) < 0.3
                assert eager.retry_skipped(keep) == late.retry_skipped(keep)
            elif op == "penalty":
                penalty = FOLD_PENALTIES[seed % len(FOLD_PENALTIES)]
                for session in (eager, late):
                    session.set_penalty(penalty)
        assert late.estimates.tobytes() == eager.estimates.tobytes()
        assert _records(late) == _records(eager)
        walls = [r.wall_time for r in late.convergence.trajectory()]
        assert walls == sorted(walls)
