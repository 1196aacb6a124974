"""Unit tests for the concurrent progressive query service."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.core.batch import BatchBiggestB
from repro.core.penalties import CursoredSsePenalty
from repro.core.session import ProgressiveSession
from repro.obs import MetricRegistry
from repro.queries.range import HyperRect
from repro.queries.workload import drill_down_batch, partition_count_batch
from repro.service.server import ProgressiveQueryService
from repro.storage.wavelet_store import WaveletStorage
from tests.promparse import parse_prometheus


@pytest.fixture
def storage(data_2d):
    return WaveletStorage.build(data_2d, wavelet="db2")


@pytest.fixture
def batches():
    return [
        partition_count_batch((16, 16), (4, 2), rng=np.random.default_rng(21)),
        partition_count_batch((16, 16), (2, 4), rng=np.random.default_rng(22)),
    ]


class TestSharing:
    def test_shared_keys_retrieved_exactly_once(self, storage, batches):
        service = ProgressiveQueryService(storage)
        storage.reset_stats()
        for batch in batches:
            service.submit(batch)
        first = service.run_to_completion("s1")
        second = service.run_to_completion("s2")
        plans = [BatchBiggestB(storage, b).plan for b in batches]
        union = set(plans[0].keys.tolist()) | set(plans[1].keys.tolist())
        overlap = set(plans[0].keys.tolist()) & set(plans[1].keys.tolist())
        assert overlap, "fixture batches must overlap for this test to bite"
        counts = service.scheduler.counts()
        # Each distinct key once — the overlap is fetched once, not twice.
        assert counts["retrievals"] == len(union)
        assert counts["deliveries"] == plans[0].num_keys + plans[1].num_keys
        assert counts["deliveries"] - counts["retrievals"] == len(overlap)
        assert first.shape == (batches[0].size,)
        assert second.shape == (batches[1].size,)

    def test_results_bit_equal_to_independent_runs(self, storage, batches):
        service = ProgressiveQueryService(storage)
        ids = [service.submit(batch) for batch in batches]
        answers = [service.run_to_completion(session_id) for session_id in ids]
        for batch, got in zip(batches, answers):
            reference = BatchBiggestB(storage, batch).run()
            assert np.array_equal(got, reference)

    def test_late_submission_reuses_cached_coefficients(self, storage, batches):
        service = ProgressiveQueryService(storage)
        storage.reset_stats()
        first = service.submit(batches[0])
        service.run_to_completion(first)
        after_first = service.scheduler.counts()["retrievals"]
        # The first session stays live, so its coefficients are cached:
        # the overlapping keys of a later batch cost no new retrievals.
        second = service.submit(batches[1])
        service.run_to_completion(second)
        counts = service.scheduler.counts()
        plans = [BatchBiggestB(storage, b).plan for b in batches]
        union = set(plans[0].keys.tolist()) | set(plans[1].keys.tolist())
        overlap = set(plans[0].keys.tolist()) & set(plans[1].keys.tolist())
        assert after_first == plans[0].num_keys
        assert counts["retrievals"] == len(union)
        assert counts["cache_deliveries"] == len(overlap)

    def test_poll_progresses_and_bounds_decrease(self, storage, batches):
        service = ProgressiveQueryService(storage)
        session_id = service.submit(batches[0])
        start = service.poll(session_id)
        assert start.steps_taken == 0 and not start.is_exact
        gained = service.advance(session_id, 10)
        assert gained == 10
        mid = service.poll(session_id)
        assert mid.steps_taken == 10
        assert mid.worst_case_bound <= start.worst_case_bound + 1e-9
        service.run_to_completion(session_id)
        end = service.poll(session_id)
        assert end.is_exact and end.remaining == 0
        assert end.worst_case_bound == 0.0


class TestLifecycle:
    def test_cancel_releases_session(self, storage, batches):
        service = ProgressiveQueryService(storage)
        session_id = service.submit(batches[0])
        service.cancel(session_id)
        with pytest.raises(KeyError, match="unknown or cancelled"):
            service.poll(session_id)
        assert service.scheduler.live_sessions == 0
        # The scheduler keeps serving the surviving sessions.
        other = service.submit(batches[1])
        answers = service.run_to_completion(other)
        assert np.array_equal(answers, BatchBiggestB(storage, batches[1]).run())

    def test_set_penalty_reprioritizes(self, storage, batches):
        boost = CursoredSsePenalty(batches[0].size, high_priority=[0], high_weight=1e6)
        service = ProgressiveQueryService(storage)
        session_id = service.submit(batches[0])
        service.advance(session_id, 5)
        service.set_penalty(session_id, boost)
        answers = service.run_to_completion(session_id)
        assert np.array_equal(answers, BatchBiggestB(storage, batches[0]).run())

    def test_submit_rejects_out_of_domain_batch(self, storage):
        from repro.queries.range import HyperRect
        from repro.queries.vector_query import QueryBatch, VectorQuery

        service = ProgressiveQueryService(storage)
        bad = QueryBatch(
            [VectorQuery.count(HyperRect(((0, 99), (0, 7))), label="huge")]
        )
        with pytest.raises(ValueError, match="huge"):
            service.submit(bad)
        # Nothing leaked: the rejected batch never became a session.
        assert service.session_ids() == [] and service.scheduler.live_sessions == 0

    def test_unknown_session_rejected(self, storage):
        service = ProgressiveQueryService(storage)
        with pytest.raises(KeyError):
            service.advance("s99", 1)

    def test_cancel_unknown_session_friendly_error(self, storage):
        service = ProgressiveQueryService(storage)
        with pytest.raises(KeyError, match="unknown or cancelled session"):
            service.cancel("s99")

    def test_double_cancel_friendly_error(self, storage, batches):
        service = ProgressiveQueryService(storage)
        session_id = service.submit(batches[0])
        service.cancel(session_id)
        with pytest.raises(KeyError, match="unknown or cancelled session"):
            service.cancel(session_id)

    def test_snapshot_reports_healthy_sessions_undegraded(self, storage, batches):
        service = ProgressiveQueryService(storage)
        session_id = service.submit(batches[0])
        service.advance(session_id, 5)
        snapshot = service.poll(session_id)
        assert snapshot.degraded is False and snapshot.skipped_count == 0
        assert service.retry_skipped(session_id) == 0


class TestConcurrentClients:
    def test_threaded_clients_converge(self, storage):
        batches = [
            partition_count_batch((16, 16), (2, 2), rng=np.random.default_rng(s))
            for s in range(30, 34)
        ]
        exact = [BatchBiggestB(storage, batch).run() for batch in batches]
        service = ProgressiveQueryService(storage)
        results: dict[int, np.ndarray] = {}
        errors: list[Exception] = []

        def client(idx: int) -> None:
            try:
                session_id = service.submit(batches[idx])
                while not service.poll(session_id).is_exact:
                    service.advance(session_id, 7)
                results[idx] = service.poll(session_id).estimates
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for idx, reference in enumerate(exact):
            assert np.array_equal(results[idx], reference)

    def test_paged_backend_serves_service(self, storage, batches, tmp_path):
        paged = storage.paged(tmp_path / "svc.pages", page_size=64, buffer_pages=16)
        service = ProgressiveQueryService(paged)
        ids = [service.submit(batch) for batch in batches]
        answers = [service.run_to_completion(session_id) for session_id in ids]
        for batch, got in zip(batches, answers):
            assert np.array_equal(got, BatchBiggestB(storage, batch).run())
        counts = paged.store.page_counts()
        assert counts["hits"] + counts["misses"] > 0
        paged.store.close()


class TestTelemetry:
    def test_threaded_clients_produce_exact_counter_totals(self, storage):
        """Stress the registry's atomic counter ops: concurrent clients
        must leave exactly union-of-master-lists retrievals and
        sum-of-master-lists deliveries — no lost or doubled increments."""
        batches = [
            partition_count_batch((16, 16), (2, 2), rng=np.random.default_rng(s))
            for s in range(50, 56)
        ]
        plans = [BatchBiggestB(storage, batch).plan for batch in batches]
        union = set()
        for plan in plans:
            union.update(plan.keys.tolist())
        service = ProgressiveQueryService(storage)
        barrier = threading.Barrier(len(batches))
        errors: list[Exception] = []

        def client(idx: int) -> None:
            try:
                session_id = service.submit(batches[idx])
                barrier.wait()
                while service.advance(session_id, 5):
                    pass
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(len(batches))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        counts = service.scheduler.counts()
        assert counts["retrievals"] == len(union)
        assert counts["deliveries"] == sum(plan.num_keys for plan in plans)
        instance = service.scheduler._instance
        assert service.registry.get(
            "repro_service_sessions_submitted_total"
        ).value(scheduler=instance) == len(batches)
        assert service.scheduler.live_sessions == len(batches)

    def test_registry_is_single_source_of_truth(self, storage, batches):
        """The scheduler's counts are read back from repro.obs counters."""
        service = ProgressiveQueryService(storage)
        session_id = service.submit(batches[0])
        service.run_to_completion(session_id)
        counts = service.scheduler.counts()
        registry = service.registry
        instance = service.scheduler._instance
        assert counts["retrievals"] == registry.get(
            "repro_scheduler_retrievals_total"
        ).value(scheduler=instance)
        assert counts["deliveries"] == registry.get(
            "repro_scheduler_deliveries_total"
        ).value(scheduler=instance)
        assert registry.get(
            "repro_service_sessions_submitted_total"
        ).value(scheduler=instance) == 1
        assert registry.get("repro_scheduler_live_sessions").value(
            scheduler=instance
        ) == service.scheduler.live_sessions == 1
        # Latency histograms saw the traffic.
        assert registry.get("repro_service_submit_seconds").count() >= 1
        assert registry.get("repro_scheduler_fetch_seconds").count() > 0


class TestLazyLanding:
    """A run another session's advance served lands in a session when it
    is next read.  No read may tell: a twin that polls every session
    after every advance lands every run at once."""

    def test_a_lazy_landing_cannot_be_seen(self, tmp_path):
        data = np.random.default_rng(7).poisson(3.0, size=(32, 32)).astype(float)
        storage = WaveletStorage.build(data, wavelet="db2")
        parent = HyperRect(((4, 27), (2, 29)))
        batches = [
            drill_down_batch(parent, (3, 3), rng=np.random.default_rng(seed))
            for seed in range(4)
        ]
        dark = int(ProgressiveSession(storage, batches[1]).upcoming(40)[0][-1])

        def run(eager: bool):
            name = "eager" if eager else "lazy"
            router = build_cluster(
                storage, tmp_path / f"{name}.pages", 2, process_shards=False,
                buffer_pages=16, registry=MetricRegistry(),
                chaos={"blackout_keys": [dark], "max_attempts": 2},
            )
            scheduler, polls, middle = router.scheduler, [], []

            def metrics_deliveries():  # what /metrics reports
                _, samples = parse_prometheus(router.federated_metrics_text())
                return samples[
                    ("repro_scheduler_deliveries_total", (("scheduler", scheduler._instance),))
                ]

            with router:
                sids = [router.submit(batch) for batch in batches]
                live, rounds = list(sids), 0
                while live:
                    rounds += 1
                    for sid in list(live):
                        if sid not in live:
                            continue
                        if (rounds, sid) == (3, sids[0]):
                            router.set_penalty(
                                sid, CursoredSsePenalty(batches[0].size, high_priority=[0])
                            )
                        if (rounds, sid) == (5, sids[1]):
                            if not eager:  # it leaves with a run it never landed
                                reg = scheduler._registrations[router._sessions[sids[3]].sid]
                                assert reg.inbox
                            router.cancel(sids[3])
                            live.remove(sids[3])
                        gained = router.advance(sid, 8)
                        snap = router.poll(sid)
                        polls.append((
                            sid, snap.estimates.tobytes(), snap.steps_taken,
                            snap.worst_case_bound, snap.skipped_count,
                        ))
                        for other in live if eager else ():
                            router.poll(other)
                        if eager:  # every run landed at once
                            assert not any(reg.inbox for reg in scheduler._registrations.values())
                        if (rounds, sid) == (5, sids[0]):  # another session, read mid-run
                            peek = sids[2]
                            if not eager:
                                assert scheduler._registrations[router._sessions[peek].sid].inbox
                            snap = router.poll(peek)
                            middle += [snap.estimates.tobytes(), snap.steps_taken,
                                       router.cost_report(peek)["counters"]]
                        if sid == sids[0] and rounds in (4, 6):
                            if not eager:  # the first read below lands what is pending
                                assert any(reg.inbox for reg in scheduler._registrations.values())
                            reads = [metrics_deliveries, lambda: scheduler.counts()["deliveries"]]
                            middle += [read() for read in reads[:: 1 if rounds == 4 else -1]]
                        if not gained:
                            live.remove(sid)
                # Each session read on its own first, then the counts.
                reports = {
                    sid: router.cost_report(sid)["counters"] for sid in router.session_ids()
                }
                trajectories = {
                    sid: [
                        (r.steps_taken, r.retrievals, r.worst_case_bound)
                        for r in router.convergence(sid)
                    ]
                    for sid in router.session_ids()
                }
                counts = scheduler.counts()
            return polls, counts, reports, trajectories, middle

        lazy, eager = run(eager=False), run(eager=True)
        # /metrics and counts() agree mid-run, whichever is read first.
        assert lazy[4] == eager[4]
        assert lazy[4][0] == lazy[4][1] and lazy[4][5] == lazy[4][6]
        assert any(poll[4] for poll in lazy[0]), "the dark key must be skipped"
        assert lazy[0] == eager[0]
        assert lazy[1] == eager[1] and lazy[1]["deliveries"] > lazy[1]["retrievals"]
        assert lazy[2] == eager[2]
        assert lazy[3] == eager[3]
