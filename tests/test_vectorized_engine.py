"""Bit-equality gate for the chunked/vectorized serve engine.

The vectorized engine (PR 7) may change *how fast* coefficients are
served, never *what* is served: for every chunk size the answers, the
key fetch order, the scheduler counters, and the Theorem-1 bound at
every poll point must be bitwise identical to the scalar
one-key-at-a-time loop (``chunk == 1``), including under chaos
injection and across cluster shardings.  Store-level ``retries`` and
the convergence log's ``retrievals`` column are deliberately excluded:
chunked gathers legitimately change how many times the fault injector's
RNG is consulted and when the store counter ticks relative to a
delivery — both are truthful telemetry about I/O, not about answers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.core.penalties import LpPenalty
from repro.core.session import ProgressiveSession
from repro.queries.workload import partition_count_batch
from repro.service.server import ProgressiveQueryService
from repro.storage.faults import FaultInjectingStore
from repro.storage.resilient import CircuitBreaker, ResilientStore, RetryPolicy
from repro.storage.wavelet_store import WaveletStorage

#: Chunk sizes the equality gate sweeps; 1 is the scalar baseline.
CHUNKS = (1, 4, 16, 64)


@pytest.fixture(scope="module")
def storage():
    rng = np.random.default_rng(1234)
    data = rng.poisson(3.0, size=(32, 32)).astype(np.float64)
    return WaveletStorage.build(data, wavelet="db2")


def make_batch(seed: int):
    return partition_count_batch((32, 32), (3, 3), rng=np.random.default_rng(seed))


class RecordingStore:
    """Delegating store that records the flattened key fetch order."""

    def __init__(self, inner):
        self.inner = inner
        self.order: list[int] = []

    def fetch(self, keys):
        self.order.extend(np.asarray(keys, dtype=np.int64).ravel().tolist())
        return self.inner.fetch(keys)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def chaos_store(storage, seed, blackout=(), transient_rate=0.0, max_attempts=64):
    injector = FaultInjectingStore(
        storage.store,
        seed=seed,
        transient_rate=transient_rate,
        blackout_keys=blackout,
    )
    return ResilientStore(
        injector,
        policy=RetryPolicy(max_attempts=max_attempts, base_delay=0.0, max_delay=0.0),
        breaker=CircuitBreaker(failure_threshold=10_000),
        sleep=lambda _s: None,
    )


def drive_service(storage, chunk, store=None, record_order=True):
    """Run a fixed multi-session script; returns the per-poll trace.

    The script exercises everything the engine touches: overlapping
    master lists (cross-session sharing and cache deliveries), odd
    advance increments (chunks cut mid-stream), a penalty switch
    (the session queues re-sort), and completion (the exactness stop).
    """
    base = storage.store if store is None else store
    recorder = RecordingStore(base) if record_order else None
    service = ProgressiveQueryService(
        storage.with_store(recorder if recorder is not None else base),
        chunk_size=chunk,
    )
    a = service.submit(make_batch(71))
    b = service.submit(make_batch(72))
    trace = []

    def poll_all(tag):
        for sid in (a, b):
            snap = service.poll(sid)
            m = service.metrics()
            trace.append(
                (
                    tag,
                    sid,
                    snap.estimates.tobytes(),
                    snap.steps_taken,
                    snap.remaining,
                    snap.worst_case_bound,
                    snap.is_exact,
                    snap.degraded,
                    snap.skipped_count,
                    m.retrievals,
                    m.deliveries,
                    m.cache_deliveries,
                    m.skipped_keys,
                )
            )

    for rounds, (sid, k) in enumerate([(a, 7), (b, 5), (a, 3), (b, 11), (a, 1)]):
        service.advance(sid, k)
        poll_all(f"warm{rounds}")
    service.set_penalty(a, LpPenalty(1.5))
    service.set_penalty(b, LpPenalty(3.0))
    poll_all("switched")
    step = 0
    while not (service.poll(a).is_exact and service.poll(b).is_exact):
        gained = service.advance(a, 9) + service.advance(b, 9)
        poll_all(f"drain{step}")
        step += 1
        if not gained:
            break
    return trace, (recorder.order if recorder is not None else None), service, (a, b)


class TestServiceChunkEquality:
    def test_every_poll_and_fetch_order_matches_scalar(self, storage):
        ref_trace, ref_order, _, _ = drive_service(storage, 1)
        assert len(ref_trace) > 12, "fixture too small to exercise chunking"
        for chunk in CHUNKS[1:]:
            trace, order, _, _ = drive_service(storage, chunk)
            assert order == ref_order, f"fetch order diverged at chunk={chunk}"
            for got, want in zip(trace, ref_trace):
                assert got == want, f"chunk={chunk} poll {want[0]}/{want[1]}"
            assert len(trace) == len(ref_trace)

    def test_chunked_run_is_exact(self, storage):
        _, _, service, sids = drive_service(storage, 64, record_order=False)
        for sid in sids:
            snap = service.poll(sid)
            assert snap.is_exact
            assert snap.worst_case_bound == 0.0


class TestChaosChunkEquality:
    @pytest.mark.parametrize("seed", (5, 6))
    def test_blackout_and_transients_match_scalar(self, storage, seed):
        keys = ProgressiveSession(storage, make_batch(71)).pending()[0]
        chooser = np.random.default_rng(seed)
        blackout = set(
            chooser.choice(keys, size=max(2, keys.size // 10), replace=False).tolist()
        )

        def run(chunk):
            trace, _, service, sids = drive_service(
                storage,
                chunk,
                store=chaos_store(
                    storage, seed, blackout=blackout, transient_rate=0.1
                ),
                record_order=False,
            )
            skipped = {
                sid: frozenset(service._sessions[sid][0].skipped_keys().tolist())
                for sid in sids
            }
            return trace, skipped

        ref_trace, ref_skipped = run(1)
        assert any(row[8] for row in ref_trace), "chaos must actually bite"
        for chunk in (4, 64):
            trace, skipped = run(chunk)
            assert skipped == ref_skipped
            for got, want in zip(trace, ref_trace):
                assert got == want, f"chunk={chunk} poll {want[0]}/{want[1]}"
            assert len(trace) == len(ref_trace)


class TestSessionChunkEquality:
    def test_advance_chunks_match_scalar_bounds_stepwise(self, storage):
        batch = make_batch(73)

        def run(chunk):
            session = ProgressiveSession(storage, batch)
            while not session.is_exact:
                if not session.advance(5, chunk=chunk):
                    break
            rows = [
                (r.steps_taken, r.worst_case_bound)
                for r in session.convergence.trajectory()
            ]
            return session.estimates.tobytes(), rows, session.exact_answers()

        ref = run(1)
        for chunk in CHUNKS[1:]:
            got = run(chunk)
            assert got[0] == ref[0]
            assert got[1] == ref[1], f"bound trajectory diverged at chunk={chunk}"
            np.testing.assert_array_equal(got[2], ref[2])

    def test_run_to_completion_single_gather(self, storage):
        batch = make_batch(74)
        scalar_rec = RecordingStore(storage.store)
        per_key = ProgressiveSession(storage.with_store(scalar_rec), batch)
        while not per_key.is_exact:
            per_key.advance(1)
        recorder = RecordingStore(storage.store)
        session = ProgressiveSession(storage.with_store(recorder), batch)
        answers = session.run_to_completion()
        # One gather for the whole master list, in the scalar heap order.
        assert session.costs.stage_totals()["fetch"]["calls"] == 1
        assert recorder.order == scalar_rec.order
        np.testing.assert_array_equal(answers, per_key.estimates)


class TestClusterChunkEquality:
    @pytest.mark.parametrize("num_shards", (1, 2))
    def test_cluster_chunks_match_scalar_merge(self, storage, tmp_path, num_shards):
        batches = [make_batch(81), make_batch(82)]

        def run(chunk):
            trace = []
            with build_cluster(
                storage,
                tmp_path / f"eq{num_shards}c{chunk}.pages",
                num_shards,
                process_shards=False,
                buffer_pages=16,
                chunk_size=chunk,
            ) as router:
                sids = [router.submit(b) for b in batches]
                done = False
                while not done:
                    done = True
                    for sid in sids:
                        router.advance(sid, 7)
                        snap = router.poll(sid)
                        trace.append(
                            (
                                sid,
                                snap.estimates.tobytes(),
                                snap.steps_taken,
                                snap.worst_case_bound,
                                snap.is_exact,
                            )
                        )
                        done = done and snap.is_exact
            return trace

        ref = run(1)
        got = run(64)
        assert got == ref


class TestArrayQueues:
    def test_penalty_switches_do_not_stack(self, storage):
        service = ProgressiveQueryService(storage)
        sid = service.submit(make_batch(91))
        service.advance(sid, 10)
        session, reg_id = service._sessions[sid]
        reg = service.scheduler._registrations[reg_id]
        for alpha in (1.5, 2.0, 3.0, 1.0):
            service.set_penalty(sid, LpPenalty(alpha))
        # A switch re-sorts in place: the queue and the cache-holding
        # mask stay at master-list size however often the penalty moves.
        assert reg.held.size == session.plan.num_keys
        assert session._order.size == session.remaining
        assert np.array_equal(
            np.sort(session._order), np.flatnonzero(session.pending_mask())
        )

    def test_cancel_releases_queue_and_unshared_cache(self, storage):
        service = ProgressiveQueryService(storage)
        a = service.submit(make_batch(92))
        b = service.submit(make_batch(93))
        a_keys, b_keys = (
            set(service._sessions[sid][0].plan.keys.tolist()) for sid in (a, b)
        )
        assert a_keys & b_keys and a_keys - b_keys
        service.run_to_completion(a)
        scheduler = service.scheduler
        cached = set(scheduler._coefficients)
        assert a_keys <= cached
        service.cancel(a)
        # Only the keys the surviving session holds stay cached.
        assert set(scheduler._coefficients) == cached & b_keys
        assert len(scheduler._registrations) == 1
        service.cancel(b)
        assert not scheduler._registrations
        assert not scheduler._coefficients

    def test_shared_keys_fetched_once_for_every_chunk_size(self, storage):
        totals = []
        for chunk in (1, 64):
            recorder = RecordingStore(storage.store)
            service = ProgressiveQueryService(
                storage.with_store(recorder), chunk_size=chunk
            )
            sids = [service.submit(make_batch(seed)) for seed in (71, 72)]
            union = set()
            for sid in sids:
                union |= set(service._sessions[sid][0].plan.keys.tolist())
                service.run_to_completion(sid)
            assert sorted(recorder.order) == sorted(union)
            totals.append(service.metrics().retrievals)
        assert totals[0] == totals[1] == len(union)
