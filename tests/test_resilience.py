"""Chaos tests: fault injection, retries, breakers, degraded sessions.

The two CI-enforced invariants (ISSUE 4):

* **transient faults are invisible** — a session driven to completion
  through ``ResilientStore`` over ``FaultInjectingStore`` (transient
  faults only) produces answers bit-equal to the fault-free run, with an
  identical coefficient retrieval order;
* **permanent blackouts degrade, never corrupt** — no exception escapes
  ``advance()``/``poll()``, snapshots report ``degraded=True``, and every
  reported ``worst_case_bound`` upper-bounds the true penalty computed
  against the dense oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import BatchBiggestB
from repro.core.penalties import SsePenalty
from repro.core.session import ProgressiveSession
from repro.obs import REGISTRY
from repro.queries.workload import partition_count_batch
from repro.service.server import ProgressiveQueryService
from repro.storage import (
    CircuitBreaker,
    CircuitOpenError,
    CountingStore,
    FaultInjectingStore,
    InjectedFault,
    ResilientStore,
    RetrievalError,
    RetryPolicy,
    chaos_stack,
)
from repro.storage.paged import PagedCoefficientStore
from repro.storage.wavelet_store import WaveletStorage
from tests.promparse import parse_prometheus

CHAOS_SEEDS = (1, 7, 42)


def fast_policy(**overrides) -> RetryPolicy:
    """A zero-delay policy so chaos runs take no wall-clock time."""
    defaults = dict(max_attempts=64, base_delay=0.0, max_delay=0.0)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


class RecordingStore:
    """Delegating store that records the order of fetched keys."""

    def __init__(self, inner):
        self.inner = inner
        self.order: list[int] = []

    def fetch(self, keys):
        self.order.extend(np.asarray(keys, dtype=np.int64).ravel().tolist())
        return self.inner.fetch(keys)

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.fixture
def setup(rng, data_2d):
    storage = WaveletStorage.build(data_2d, wavelet="db2")
    batch = partition_count_batch((16, 16), (4, 2), rng=rng)
    return storage, batch, batch.exact_dense(data_2d)


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_is_bounded_exponential(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5)
        assert [policy.delay(n) for n in (1, 2, 3, 4, 5)] == [
            0.1,
            0.2,
            0.4,
            0.5,
            0.5,
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)


# ----------------------------------------------------------------------
# CircuitBreaker state machine (driven by a fake clock)
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_opens_after_threshold_and_recovers_via_half_open(self):
        clock = FakeClock()
        transitions = []
        breaker = CircuitBreaker(
            failure_threshold=3,
            reset_timeout=10.0,
            clock=clock,
            on_transition=transitions.append,
        )
        assert breaker.state == "closed"
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        # Before the reset timeout: still open.
        clock.now = 9.9
        assert not breaker.allow()
        # After: half-open probe allowed; success closes.
        clock.now = 10.0
        assert breaker.allow() and breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"
        assert transitions == ["open", "half_open", "closed"]

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=5.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == "open"
        clock.now = 5.0
        assert breaker.state == "half_open"
        breaker.record_failure()
        assert breaker.state == "open"
        # The re-open restarts the reset clock.
        clock.now = 9.0
        assert not breaker.allow()
        clock.now = 10.0
        assert breaker.allow()

    def test_success_resets_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"


# ----------------------------------------------------------------------
# FaultInjectingStore
# ----------------------------------------------------------------------


class TestFaultInjection:
    def _store(self, **kwargs):
        return FaultInjectingStore(
            CountingStore(8, values=np.arange(8.0)), **kwargs
        )

    def test_deterministic_fault_sequence(self):
        outcomes = []
        for _ in range(2):
            store = self._store(seed=9, transient_rate=0.5)
            run = []
            for _ in range(32):
                try:
                    store.fetch(np.array([3]))
                    run.append(True)
                except InjectedFault:
                    run.append(False)
            outcomes.append(run)
        assert outcomes[0] == outcomes[1]
        assert not all(outcomes[0]) and any(outcomes[0])

    def test_blackout_keys_always_fail(self):
        store = self._store(blackout_keys=[2])
        for _ in range(3):
            with pytest.raises(InjectedFault, match="blackout"):
                store.fetch(np.array([2]))
        assert store.fetch(np.array([3]))[0] == 3.0
        assert store.injected_blackout == 3

    def test_fail_after_n(self):
        store = self._store(fail_after=2)
        store.fetch(np.array([0]))
        store.fetch(np.array([1]))
        with pytest.raises(InjectedFault, match="outage"):
            store.fetch(np.array([2]))
        assert store.injected_outage == 1

    def test_heal_clears_every_fault_mode(self):
        store = self._store(transient_rate=0.9, blackout_keys=[1], fail_after=0)
        with pytest.raises(InjectedFault):
            store.fetch(np.array([1]))
        store.heal()
        assert store.fetch(np.array([1]))[0] == 1.0

    def test_peek_is_the_fault_free_oracle(self):
        store = self._store(fail_after=0)
        assert store.peek(np.array([5]))[0] == 5.0


# ----------------------------------------------------------------------
# ResilientStore
# ----------------------------------------------------------------------


class TestResilientStore:
    def test_transient_faults_absorbed_by_retries(self):
        inner = FaultInjectingStore(
            CountingStore(8, values=np.arange(8.0)), seed=0, transient_rate=0.5
        )
        store = ResilientStore(inner, policy=fast_policy())
        for key in range(8):
            assert store.fetch(np.array([key]))[0] == float(key)
        assert inner.injected_transient > 0
        assert store.retry_count() == inner.injected_transient
        assert store.breaker_state == "closed"

    def test_exhausted_retries_raise_retrieval_error(self):
        inner = FaultInjectingStore(
            CountingStore(8), blackout_keys=[4]
        )
        store = ResilientStore(
            inner,
            policy=fast_policy(max_attempts=3),
            breaker=CircuitBreaker(failure_threshold=100),
        )
        with pytest.raises(RetrievalError) as info:
            store.fetch(np.array([4]))
        assert info.value.keys == [4] and info.value.attempts == 3
        assert store.failure_count("exhausted") == 1

    def test_open_breaker_fails_fast(self):
        clock = FakeClock()
        inner = FaultInjectingStore(CountingStore(8), fail_after=0)
        store = ResilientStore(
            inner,
            policy=fast_policy(max_attempts=2),
            breaker=CircuitBreaker(failure_threshold=1, reset_timeout=30.0, clock=clock),
            clock=clock,
        )
        with pytest.raises(RetrievalError):
            store.fetch(np.array([0]))
        calls_before = inner.calls
        with pytest.raises(CircuitOpenError):
            store.fetch(np.array([1]))
        assert inner.calls == calls_before  # fail-fast: store untouched
        assert store.breaker_state == "open"
        # The store recovers; the half-open probe closes the breaker.
        inner.heal()
        clock.now = 30.0
        assert store.fetch(np.array([1]))[0] == 0.0
        assert store.breaker_state == "closed"

    def test_per_fetch_deadline(self):
        clock = FakeClock()

        def slow_sleep(seconds):
            clock.now += seconds

        inner = FaultInjectingStore(CountingStore(8), fail_after=0)
        store = ResilientStore(
            inner,
            policy=RetryPolicy(max_attempts=100, base_delay=1.0, max_delay=1.0,
                               deadline=2.5),
            breaker=CircuitBreaker(failure_threshold=100, clock=clock),
            sleep=slow_sleep,
            clock=clock,
        )
        with pytest.raises(RetrievalError, match="deadline"):
            store.fetch(np.array([0]))
        assert store.failure_count("deadline") == 1
        assert inner.calls <= 4  # bounded by the deadline, not max_attempts

    def test_delegates_aggregates_and_version(self):
        base = CountingStore(8, values=np.arange(8.0))
        store = ResilientStore(FaultInjectingStore(base))
        assert store.total_l1() == base.total_l1()
        assert store.total_l2_squared() == base.total_l2_squared()
        assert store.nonzero_count() == base.nonzero_count()
        assert store.key_space_size == 8
        assert store.version == base.version
        np.testing.assert_array_equal(store.as_dense(), base.as_dense())

    def test_closing_a_chaos_stack_closes_the_paged_store(self, tmp_path):
        """``close`` passes through the fault injector too, so a shard
        under ``--fault-rate``/``--blackout`` releases its memmap."""
        paged = PagedCoefficientStore.from_dense(
            np.arange(64.0), tmp_path / "chaos.pages", page_size=16
        )
        stack = chaos_stack(paged, {"seed": 3, "transient_rate": 0.5})
        np.testing.assert_array_equal(stack.fetch(np.array([5, 40])), [5.0, 40.0])
        stack.close()
        assert paged.closed


# ----------------------------------------------------------------------
# Chaos invariant (a): transient faults are bit-invisible
# ----------------------------------------------------------------------


class TestTransientChaosInvariant:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    @pytest.mark.parametrize("rate", (0.1, 0.3))
    def test_completion_bit_equal_with_identical_step_order(
        self, setup, seed, rate
    ):
        storage, batch, _ = setup
        clean_rec = RecordingStore(storage.store)
        clean = ProgressiveSession(storage.with_store(clean_rec), batch)
        while not clean.is_exact:  # per-key stepping: one fetch per key
            clean.advance(1)

        faulty_rec = RecordingStore(storage.store)
        injector = FaultInjectingStore(
            faulty_rec, seed=seed, transient_rate=rate
        )
        resilient = ResilientStore(injector, policy=fast_policy())
        session = ProgressiveSession(storage.with_store(resilient), batch)
        while not session.is_exact:
            session.advance(1)

        assert injector.injected_transient > 0, "chaos must actually bite"
        assert not session.degraded
        assert session.is_exact
        assert np.array_equal(session.exact_answers(), clean.exact_answers())
        assert faulty_rec.order == clean_rec.order


# ----------------------------------------------------------------------
# Chaos invariant (b): blackouts degrade with a valid bound
# ----------------------------------------------------------------------


class TestBlackoutChaosInvariant:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_degraded_bound_upper_bounds_oracle_penalty(self, setup, seed):
        storage, batch, exact = setup
        penalty = SsePenalty()
        keys = BatchBiggestB(storage, batch).plan.keys
        chooser = np.random.default_rng(seed)
        blackout = set(
            chooser.choice(keys, size=max(1, keys.size // 8), replace=False).tolist()
        )
        injector = FaultInjectingStore(
            storage.store, seed=seed, transient_rate=0.1, blackout_keys=blackout
        )
        resilient = ResilientStore(
            injector,
            policy=fast_policy(max_attempts=8),
            breaker=CircuitBreaker(failure_threshold=10_000),
        )
        service = ProgressiveQueryService(storage.with_store(resilient))
        session_id = service.submit(batch)
        while True:
            snapshot = service.poll(session_id)
            true_penalty = penalty(snapshot.estimates - exact)
            assert (
                snapshot.worst_case_bound * (1 + 1e-9) + 1e-9 >= true_penalty
            ), f"bound {snapshot.worst_case_bound} < penalty {true_penalty}"
            if snapshot.is_exact or service.advance(session_id, 8) == 0:
                break
        final = service.poll(session_id)
        assert final.degraded and not final.is_exact
        assert final.skipped_count == len(blackout)
        assert final.worst_case_bound > 0.0
        # Recovery: heal the store, re-drive the skipped keys, finish exact.
        injector.heal()
        assert service.retry_skipped(session_id) == len(blackout)
        answers = service.run_to_completion(session_id)
        reference = BatchBiggestB(storage, batch).run()
        assert np.array_equal(answers, reference)
        assert not service.poll(session_id).degraded

    def test_breaker_opens_under_total_outage_and_bound_stays_valid(self, setup):
        storage, batch, exact = setup
        penalty = SsePenalty()
        injector = FaultInjectingStore(storage.store, fail_after=10)
        resilient = ResilientStore(
            injector,
            policy=fast_policy(max_attempts=2),
            breaker=CircuitBreaker(failure_threshold=3, reset_timeout=3600.0),
        )
        service = ProgressiveQueryService(storage.with_store(resilient))
        session_id = service.submit(batch)
        while service.advance(session_id, 4) > 0:
            snapshot = service.poll(session_id)
            assert snapshot.worst_case_bound * (1 + 1e-9) + 1e-9 >= penalty(
                snapshot.estimates - exact
            )
        final = service.poll(session_id)
        assert final.degraded
        assert resilient.breaker_state == "open"
        assert final.steps_taken + final.skipped_count <= len(
            BatchBiggestB(storage, batch).plan.keys
        )

    def test_resilience_counters_in_prometheus_exposition(self, setup):
        storage, batch, _ = setup
        injector = FaultInjectingStore(
            storage.store, seed=0, transient_rate=0.3, blackout_keys={int(k) for k in
                BatchBiggestB(storage, batch).plan.keys[:2].tolist()}
        )
        resilient = ResilientStore(
            injector,
            policy=fast_policy(max_attempts=2),
            breaker=CircuitBreaker(failure_threshold=1, reset_timeout=3600.0),
        )
        service = ProgressiveQueryService(storage.with_store(resilient))
        session_id = service.submit(batch)
        while service.advance(session_id, 8) > 0:
            pass
        types, samples = parse_prometheus(REGISTRY.render_prometheus())
        assert types["repro_resilient_retries_total"] == "counter"
        assert types["repro_resilient_fetch_failures_total"] == "counter"
        assert types["repro_resilient_breaker_transitions_total"] == "counter"
        assert types["repro_resilient_breaker_state"] == "gauge"
        assert types["repro_scheduler_skipped_keys_total"] == "counter"
        instance = resilient._instance
        assert resilient.retry_count() > 0
        assert any(
            name == "repro_resilient_retries_total"
            and dict(labels).get("store") == instance
            and value > 0
            for (name, labels), value in samples.items()
        )
        assert service.scheduler.counts()["skipped_keys"] > 0


# ----------------------------------------------------------------------
# Session-level degradation and deadlines
# ----------------------------------------------------------------------


class TestSessionDegradation:
    def test_advance_skips_unavailable_keys_without_raising(self, setup):
        storage, batch, exact = setup
        penalty = SsePenalty()
        keys = BatchBiggestB(storage, batch).plan.keys
        blackout = {int(keys[0]), int(keys[-1])}
        resilient = ResilientStore(
            FaultInjectingStore(storage.store, blackout_keys=blackout),
            policy=fast_policy(max_attempts=2),
            breaker=CircuitBreaker(failure_threshold=10_000),
        )
        session = ProgressiveSession(storage.with_store(resilient), batch)
        session.advance(len(keys) + 10)
        assert session.degraded and session.skipped_count == 2
        assert set(session.skipped_keys().tolist()) == blackout
        assert not session.is_exact
        assert session.worst_case_bound() * (1 + 1e-9) + 1e-9 >= penalty(
            session.estimates - exact
        )
        with pytest.raises(ValueError, match="degraded"):
            session.exact_answers()

    def test_retry_skipped_restores_exactness(self, setup):
        storage, batch, _ = setup
        keys = BatchBiggestB(storage, batch).plan.keys
        injector = FaultInjectingStore(
            storage.store, blackout_keys={int(keys[3])}
        )
        resilient = ResilientStore(
            injector,
            policy=fast_policy(max_attempts=2),
            breaker=CircuitBreaker(failure_threshold=10_000),
        )
        session = ProgressiveSession(storage.with_store(resilient), batch)
        session.advance(len(keys))
        assert session.skipped_count == 1
        injector.heal()
        assert session.retry_skipped() == 1
        session.run_to_completion()
        assert session.is_exact
        reference = BatchBiggestB(storage, batch).run()
        assert np.array_equal(session.exact_answers(), reference)

    def test_deliver_unskips_a_key_another_session_fetched(self, setup):
        storage, batch, _ = setup
        keys = BatchBiggestB(storage, batch).plan.keys
        key = int(keys[0])
        session = ProgressiveSession(storage, batch)
        assert session.skip(key)
        assert session.degraded
        value = float(storage.store.peek(np.array([key]))[0])
        assert session.deliver(key, value)
        assert not session.degraded and session.skipped_count == 0

    def test_advance_deadline_zero_fetches_nothing(self, setup):
        storage, batch, _ = setup
        session = ProgressiveSession(storage, batch)
        before = session.worst_case_bound()
        assert session.advance(100, deadline=0.0) == 0
        assert session.steps_taken == 0
        assert session.worst_case_bound() == before

    def test_advance_deadline_degrades_latency_not_correctness(self, setup):
        storage, batch, _ = setup
        slow = FaultInjectingStore(storage.store, latency=0.02)
        session = ProgressiveSession(storage.with_store(slow), batch)
        gained = session.advance(1000, deadline=0.05)
        assert 0 < gained < 1000
        assert not session.degraded  # slow != unavailable
        # The un-fetched keys are still pending, not skipped.
        assert session.remaining == session.plan.num_keys - gained

    def test_run_until_accepts_deadline_as_sole_condition(self, setup):
        storage, batch, _ = setup
        session = ProgressiveSession(storage, batch)
        session.run_until(deadline=0.0)
        assert session.steps_taken == 0
        with pytest.raises(ValueError, match="stopping condition"):
            session.run_until()


# ----------------------------------------------------------------------
# Degraded BatchBiggestB.steps
# ----------------------------------------------------------------------


class TestStepsDegradation:
    def test_steps_drops_only_unavailable_keys(self, setup):
        storage, batch, _ = setup
        keys = BatchBiggestB(storage, batch).plan.keys
        blackout = {int(keys[1])}
        resilient = ResilientStore(
            FaultInjectingStore(storage.store, blackout_keys=blackout),
            policy=fast_policy(max_attempts=2),
            breaker=CircuitBreaker(failure_threshold=10_000),
        )
        degraded = BatchBiggestB(storage.with_store(resilient), batch)
        served = [step.key for step in degraded.steps(readahead=8)]
        assert set(served) == set(keys.tolist()) - blackout


class TestOneOutageContract:
    """The rank-5 key of a 32x32 Haar partition is dark: every
    ``BatchBiggestB`` surface degrades the way a session does."""

    DARK_RANK = 5

    @pytest.fixture
    def dark(self):
        data = np.random.default_rng(0).poisson(2.0, size=(32, 32)).astype(float)
        storage = WaveletStorage.build(data, wavelet="haar")
        batch = partition_count_batch((32, 32), (4, 4), rng=np.random.default_rng(1))
        clean = BatchBiggestB(storage, batch)
        key = int(clean.plan.keys[clean.order[self.DARK_RANK]])
        stack = chaos_stack(storage.store, {"blackout_keys": [key], "max_attempts": 1})
        evaluator = BatchBiggestB(storage.with_store(stack), batch)
        return evaluator, batch.exact_dense(data), key

    def _within_bound(self, evaluator, estimates, exact, steps):
        # Held: every key ranked before ``steps`` but the dark one, so the
        # most important unused key is the dark key once it is passed.
        bound = evaluator.worst_case_bound(min(steps, self.DARK_RANK))
        return SsePenalty()(estimates - exact) <= bound * (1 + 1e-9) + 1e-9

    def test_steps_skip_the_dark_key(self, dark):
        evaluator, exact, key = dark
        steps = list(evaluator.steps(readahead=4))
        assert len(steps) == evaluator.master_list_size - 1
        assert key not in {step.key for step in steps}
        for step in steps:
            assert self._within_bound(evaluator, step.estimates, exact, step.step)

    def test_run_progressive_skips_the_dark_key(self, dark):
        evaluator, exact, _ = dark
        before = evaluator.costs.retrievals
        checkpoints, snaps = evaluator.run_progressive([3, 10, 100])
        assert checkpoints.tolist() == [3, 10, evaluator.master_list_size]
        assert evaluator.costs.retrievals - before == evaluator.master_list_size - 1
        assert evaluator.costs.skipped_keys == 1
        for b, snap in zip(checkpoints.tolist(), snaps):
            assert self._within_bound(evaluator, snap, exact, b)

    def test_run_lands_everything_else_then_raises(self, dark):
        evaluator, _, _ = dark
        before = evaluator.costs.retrievals
        with pytest.raises(ValueError, match="degraded: 1 keys unavailable"):
            evaluator.run()
        assert evaluator.costs.retrievals - before == evaluator.master_list_size - 1
