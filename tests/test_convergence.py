"""Tests for the per-session convergence event log (Figures 5-7, live)."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import REGISTRY, ConvergenceLog
from repro.core.penalties import CursoredSsePenalty
from repro.core.session import ProgressiveSession
from repro.data.synthetic import uniform_dataset
from repro.queries.workload import partition_count_batch
from repro.service.server import ProgressiveQueryService
from repro.storage.faults import chaos_stack
from repro.storage.wavelet_store import WaveletStorage

SHAPE = (16, 16)


@pytest.fixture
def storage():
    relation = uniform_dataset(SHAPE, 1500, seed=3)
    return WaveletStorage.build(relation.frequency_distribution())


def _batch(seed: int):
    return partition_count_batch(SHAPE, (2, 2), rng=np.random.default_rng(seed))


class TestSessionConvergence:
    def test_one_event_per_applied_coefficient(self, storage):
        session = ProgressiveSession(storage, _batch(1))
        session.advance(10)
        trajectory = session.convergence.trajectory()
        assert len(trajectory) == 10
        assert [r.steps_taken for r in trajectory] == list(range(1, 11))

    def test_bound_is_monotonically_non_increasing(self, storage):
        session = ProgressiveSession(storage, _batch(1))
        session.run_to_completion()
        bounds = [r.worst_case_bound for r in session.convergence.trajectory()]
        assert bounds, "trajectory should not be empty"
        assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))
        assert bounds[-1] == 0.0  # exhausted master list

    def test_wall_time_and_retrievals_non_decreasing(self, storage):
        session = ProgressiveSession(storage, _batch(2))
        session.advance(32)
        trajectory = session.convergence.trajectory()
        walls = [r.wall_time for r in trajectory]
        fetches = [r.retrievals for r in trajectory]
        assert all(a <= b for a, b in zip(walls, walls[1:]))
        assert all(a <= b for a, b in zip(fetches, fetches[1:]))
        assert all(w >= 0 for w in walls)

    def test_ring_is_bounded(self, storage):
        session = ProgressiveSession(storage, _batch(1), convergence_capacity=8)
        session.advance(30)
        trajectory = session.convergence.trajectory()
        assert len(trajectory) == 8
        # The ring keeps the newest events.
        assert trajectory[-1].steps_taken == session.steps_taken

    def test_disabled_telemetry_logs_nothing(self, storage):
        previous = obs.set_enabled(False)
        try:
            session = ProgressiveSession(storage, _batch(1))
            session.advance(5)
            assert len(session.convergence) == 0
        finally:
            obs.set_enabled(previous)

    def test_as_dicts_is_json_friendly(self, storage):
        import json

        session = ProgressiveSession(storage, _batch(1))
        session.advance(3)
        payload = json.loads(json.dumps(session.convergence.as_dicts()))
        assert len(payload) == 3
        assert set(payload[0]) == {
            "steps_taken",
            "retrievals",
            "worst_case_bound",
            "wall_time",
        }


class TestRecordMany:
    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.integers(1, 12),
        sizes=st.lists(st.integers(0, 30), max_size=8),
        seed=st.integers(0, 2**16),
    )
    def test_any_split_equals_per_key_record(self, capacity, sizes, seed):
        """Chunks of any size — empty, larger than the ring — leave the
        columns, ``len``, ``dropped`` and the dropped counter exactly as
        one ``record`` per key does."""
        rng = np.random.default_rng(seed)
        total = sum(sizes)
        steps = np.arange(1, total + 1)
        retrievals = np.cumsum(rng.integers(0, 3, size=total))
        bounds = np.sort(rng.random(total))[::-1]
        dropped_total = REGISTRY.get("repro_convergence_records_dropped_total")

        def columns(log):
            return [
                (r.steps_taken, r.retrievals, r.worst_case_bound)
                for r in log.trajectory()
            ]

        per_key, chunked = ConvergenceLog(capacity), ConvergenceLog(capacity)
        before = dropped_total.value()
        for row in zip(steps, retrievals, bounds):
            per_key.record(*row)
        counted = dropped_total.value() - before
        lo = 0
        for size in sizes:
            chunked.record_many(
                steps[lo : lo + size], retrievals[lo : lo + size], bounds[lo : lo + size]
            )
            lo += size
            walls = [r.wall_time for r in chunked.trajectory()]
            assert walls == sorted(walls)
        assert columns(chunked) == columns(per_key)
        assert len(chunked) == len(per_key) == min(total, capacity)
        assert chunked.dropped == per_key.dropped == max(0, total - capacity)
        assert dropped_total.value() - before - counted == counted == per_key.dropped
        trajectory = chunked.trajectory()
        assert (trajectory.dropped, trajectory.capacity) == (chunked.dropped, capacity)
        for row in columns(chunked):  # plain JSON-friendly scalars on read
            assert [type(v) for v in row] == [int, int, float]
        chunked.clear()
        assert (len(chunked), chunked.dropped, columns(chunked)) == (0, 0, [])


class TestServiceConvergence:
    def test_service_trajectory_monotone_under_sharing(self, storage):
        """Bounds stay monotone even when a shared scheduler delivers
        coefficients out of the session's own importance order."""
        service = ProgressiveQueryService(storage)
        s1 = service.submit(_batch(1))
        s2 = service.submit(_batch(2))
        service.run_to_completion(s1)
        service.run_to_completion(s2)
        for session_id in (s1, s2):
            trajectory = service.convergence(session_id)
            bounds = [r.worst_case_bound for r in trajectory]
            assert bounds
            assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))
            assert bounds[-1] == 0.0

    def test_unknown_session_raises(self, storage):
        service = ProgressiveQueryService(storage)
        with pytest.raises(KeyError):
            service.convergence("s999")

    def test_partial_progress_bound_matches_poll(self, storage):
        service = ProgressiveQueryService(storage)
        session_id = service.submit(_batch(4))
        service.advance(session_id, 16)
        trajectory = service.convergence(session_id)
        snapshot = service.poll(session_id)
        assert trajectory[-1].steps_taken == snapshot.steps_taken
        assert trajectory[-1].worst_case_bound == pytest.approx(
            snapshot.worst_case_bound
        )


class TestRecordsWrittenWhenRead:
    def test_a_trajectory_read_once_equals_one_read_after_every_advance(self):
        """Records are written when the log is read.  Reading it after
        every advance or only at the end gives the same steps,
        retrievals, bounds, ``dropped`` and dropped counter — across a
        skip and its retry, a penalty switch, more than ``capacity`` keys
        between two reads and a stretch with telemetry off."""
        relation = uniform_dataset((128, 128), 16000, seed=2)
        storage = WaveletStorage.build(relation.frequency_distribution(), wavelet="db2")
        batches = [
            partition_count_batch((128, 128), (6, 6), rng=np.random.default_rng(seed))
            for seed in (3, 4)
        ]
        first = ProgressiveSession(storage, batches[0])
        keys = first.upcoming(40)[0]
        dark = int(keys[np.isin(keys, ProgressiveSession(storage, batches[1]).plan.keys)][-1])
        capacity = first._convergence.capacity
        assert first.plan.num_keys > capacity
        dropped_total = REGISTRY.get("repro_convergence_records_dropped_total")

        def run(read_every_advance: bool):
            storage.reset_stats()  # the records' retrievals count from zero
            store = chaos_stack(storage.store, {"blackout_keys": [dark], "max_attempts": 2})
            service = ProgressiveQueryService(storage.with_store(store))
            sids = [service.submit(batch) for batch in batches]
            before = dropped_total.value()
            rounds = 0
            try:
                while any(not service.poll(sid).is_exact for sid in sids):
                    rounds += 1
                    if rounds == 2:
                        service.set_penalty(
                            sids[1], CursoredSsePenalty(batches[1].size, high_priority=[2])
                        )
                    if rounds == 18 and not read_every_advance:  # dropped past the capacity
                        assert all(service._session(sid).session._lost for sid in sids)
                    obs.set_enabled(not 18 <= rounds < 20)
                    if rounds == 12:
                        assert sum(service.poll(sid).skipped_count for sid in sids) == 2
                        store.inner.heal()
                        assert sum(service.retry_skipped(sid) for sid in sids) == 2
                    # Round 22 serves the second session three runs in a row.
                    for sid in sids if rounds != 22 else [sids[0]] * 3 + sids:
                        service.advance(sid, 32)
                        if read_every_advance:
                            for other in sids:
                                service.convergence(other)
            finally:
                obs.set_enabled(True)
            trajectories = [service.convergence(sid) for sid in sids]
            rows = [
                [(r.steps_taken, r.retrievals, r.worst_case_bound) for r in trajectory]
                for trajectory in trajectories
            ]
            return rows, [t.dropped for t in trajectories], dropped_total.value() - before

        once, every = run(False), run(True)
        assert once == every
        json.dumps(REGISTRY.to_json())  # the dropped counter holds plain ints
        rows, dropped, counted = once
        assert min(dropped) > 0 and counted == sum(dropped)
        assert all(len(r) == capacity for r in rows)
        for r, batch in zip(rows, batches):  # telemetry off left a gap
            steps = np.array([row[0] for row in r])
            assert np.diff(steps).max() > 1
            assert steps[-1] == ProgressiveSession(storage, batch).plan.num_keys
