"""The sharded cluster's contract: bit-identical to the 1-process service.

The tentpole gate: for N in {1, 2, 4} shards, every poll point of a
cluster session — estimates, Theorem-1 bound, step counts — must be
*bitwise* equal to the single-process :class:`ProgressiveQueryService`
over the same paged coefficients, including under chaos injection and
penalty switches.  Plus shard-outage shedding (degraded-but-bounded),
process-shard equivalence, and metrics/cost aggregation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ShardLostError, build_cluster
from repro.core.penalties import LaplacianPenalty, LpPenalty
from repro.queries.range import HyperRect
from repro.queries.vector_query import QueryBatch, VectorQuery
from repro.queries.workload import partition_count_batch
from repro.service.server import ProgressiveQueryService
from repro.storage.faults import FaultInjectingStore
from repro.storage.resilient import CircuitBreaker, ResilientStore, RetryPolicy
from repro.storage.wavelet_store import WaveletStorage


@pytest.fixture(scope="module")
def storage():
    rng = np.random.default_rng(77)
    data = rng.poisson(2.0, size=(32, 32)).astype(np.float64)
    return WaveletStorage.build(data, wavelet="db2")


def make_batch(seed: int) -> QueryBatch:
    return partition_count_batch(
        (32, 32), (3, 3), rng=np.random.default_rng(seed)
    )


def reference_service(storage, tmp_path, name, chaos=None):
    """A 1-process service over the same paged-file format as the cluster."""
    paged = storage.paged(tmp_path / f"{name}.pages", buffer_pages=16)
    if chaos is not None:
        injector = FaultInjectingStore(
            paged.store,
            seed=chaos["seed"],
            transient_rate=chaos["transient_rate"],
            blackout_keys=chaos["blackout_keys"],
        )
        resilient = ResilientStore(
            injector,
            policy=RetryPolicy(
                max_attempts=chaos["max_attempts"], base_delay=0.0, max_delay=0.0
            ),
            breaker=CircuitBreaker(failure_threshold=10_000),
            sleep=lambda _s: None,
        )
        paged = paged.with_store(resilient)
    return ProgressiveQueryService(paged)


def assert_snapshots_bit_equal(cluster_snap, ref_snap, where=""):
    np.testing.assert_array_equal(
        cluster_snap.estimates, ref_snap.estimates, err_msg=where
    )
    assert cluster_snap.worst_case_bound == ref_snap.worst_case_bound, where
    assert cluster_snap.steps_taken == ref_snap.steps_taken, where
    assert cluster_snap.remaining == ref_snap.remaining, where
    assert cluster_snap.is_exact == ref_snap.is_exact, where
    assert cluster_snap.degraded == ref_snap.degraded, where
    assert cluster_snap.skipped_count == ref_snap.skipped_count, where


class TestBitEquality:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    @pytest.mark.parametrize("partitioner", ["hash", "range"])
    @pytest.mark.parametrize("seed", [21, 22])
    def test_every_poll_matches_single_process(
        self, storage, tmp_path, num_shards, partitioner, seed
    ):
        batch = make_batch(seed)
        ref = reference_service(storage, tmp_path, f"ref{num_shards}{seed}")
        rid = ref.submit(batch)
        with build_cluster(
            storage,
            tmp_path / f"c{num_shards}{seed}.pages",
            num_shards,
            partitioner=partitioner,
            process_shards=False,
            buffer_pages=16,
        ) as router:
            sid = router.submit(batch)
            polls = 0
            while True:
                gained = router.advance(sid, 7)
                assert gained == ref.advance(rid, 7)
                snap = router.poll(sid)
                assert_snapshots_bit_equal(
                    snap, ref.poll(rid), f"poll {polls}"
                )
                polls += 1
                if snap.is_exact:
                    break
            assert polls > 3, "fixture too small to exercise the merge"

    def test_two_sessions_share_shard_fetches(self, storage, tmp_path):
        batches = [make_batch(31), make_batch(32)]
        ref = reference_service(storage, tmp_path, "share-ref")
        rids = [ref.submit(b) for b in batches]
        with build_cluster(
            storage,
            tmp_path / "share.pages",
            2,
            process_shards=False,
            buffer_pages=16,
        ) as router:
            sids = [router.submit(b) for b in batches]
            for sid, rid in zip(sids, rids):
                while True:
                    g1, g2 = router.advance(sid, 13), ref.advance(rid, 13)
                    assert g1 == g2
                    snap = router.poll(sid)
                    assert_snapshots_bit_equal(snap, ref.poll(rid))
                    if snap.is_exact:
                        break
            cluster_metrics = router.metrics()
            ref_metrics = ref.metrics()
            # Sharing survives sharding: the union of both master lists is
            # fetched once across all shards, same as the shared scheduler.
            assert cluster_metrics.retrievals == ref_metrics.retrievals
            assert cluster_metrics.deliveries == ref_metrics.deliveries

    def test_penalty_switch_matches_single_process(self, storage, tmp_path):
        batch = make_batch(41)
        ref = reference_service(storage, tmp_path, "pen-ref")
        rid = ref.submit(batch)
        with build_cluster(
            storage,
            tmp_path / "pen.pages",
            4,
            process_shards=False,
            buffer_pages=16,
        ) as router:
            sid = router.submit(batch)
            assert router.advance(sid, 40) == ref.advance(rid, 40)
            penalty = LaplacianPenalty.chain(batch.size)
            router.set_penalty(sid, penalty)
            ref.set_penalty(rid, penalty)
            while True:
                assert router.advance(sid, 9) == ref.advance(rid, 9)
                snap = router.poll(sid)
                assert_snapshots_bit_equal(snap, ref.poll(rid))
                if snap.is_exact:
                    break

    def test_lp_penalty_from_submission(self, storage, tmp_path):
        batch = make_batch(43)
        ref = reference_service(storage, tmp_path, "lp-ref")
        rid = ref.submit(batch, penalty=LpPenalty(1.0))
        with build_cluster(
            storage, tmp_path / "lp.pages", 2,
            process_shards=False, buffer_pages=16,
        ) as router:
            sid = router.submit(batch, penalty=LpPenalty(1.0))
            while True:
                assert router.advance(sid, 11) == ref.advance(rid, 11)
                snap = router.poll(sid)
                assert_snapshots_bit_equal(snap, ref.poll(rid))
                if snap.is_exact:
                    break


class TestChaosParity:
    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_blackouts_and_transients_degrade_identically(
        self, storage, tmp_path, num_shards
    ):
        """Chaos on every shard: skips land on the same keys, bit-equal.

        Transient faults differ in *which* RNG draws fail per process,
        but ample retries mean every non-blacked-out fetch eventually
        succeeds with the same float64 value — and blackout key sets are
        deterministic — so estimates and degraded state stay bit-equal.
        """
        batch = make_batch(51)
        blackout = [0, 5, 40, 41, 260, 777]
        chaos = {
            "seed": 9,
            "transient_rate": 0.1,
            "blackout_keys": blackout,
            "max_attempts": 8,
        }
        ref = reference_service(
            storage, tmp_path, f"chaos-ref{num_shards}", chaos=chaos
        )
        rid = ref.submit(batch)
        with build_cluster(
            storage,
            tmp_path / f"chaos{num_shards}.pages",
            num_shards,
            process_shards=False,
            buffer_pages=16,
            chaos=chaos,
        ) as router:
            sid = router.submit(batch)
            while True:
                g1, g2 = router.advance(sid, 10), ref.advance(rid, 10)
                assert g1 == g2
                snap = router.poll(sid)
                assert_snapshots_bit_equal(snap, ref.poll(rid))
                if g1 == 0 and g2 == 0:
                    break
            final = router.poll(sid)
            assert final.degraded and final.skipped_count > 0
            # The bound still covers the skipped mass — finite, non-zero.
            assert 0.0 < final.worst_case_bound < float("inf")

    def test_chaos_on_one_shard_only_hits_its_keys(self, storage, tmp_path):
        batch = make_batch(53)
        chaos = {
            "seed": 3,
            "transient_rate": 0.0,
            "blackout_keys": list(range(0, 1024, 2)),
            "max_attempts": 2,
        }
        with build_cluster(
            storage,
            tmp_path / "one-shard-chaos.pages",
            2,
            process_shards=False,
            buffer_pages=16,
            chaos=chaos,
            chaos_shard=1,
        ) as router:
            sid = router.submit(batch)
            while router.advance(sid, 50):
                pass
            snap = router.poll(sid)
            owners = router.partitioner.shard_of(
                router._sessions[sid].session.skipped_keys()
            )
            assert snap.skipped_count > 0
            assert set(owners.tolist()) == {1}


class TestProcessShards:
    def test_spawned_workers_match_single_process(self, storage, tmp_path):
        batch = make_batch(61)
        ref = reference_service(storage, tmp_path, "proc-ref")
        rid = ref.submit(batch)
        with build_cluster(
            storage, tmp_path / "proc.pages", 2, buffer_pages=16
        ) as router:
            sid = router.submit(batch)
            pids = {s["pid"] for s in router.metrics().per_shard.values()}
            import os

            assert len(pids) == 2 and os.getpid() not in pids
            while True:
                assert router.advance(sid, 29) == ref.advance(rid, 29)
                snap = router.poll(sid)
                assert_snapshots_bit_equal(snap, ref.poll(rid))
                if snap.is_exact:
                    break

    def test_killed_shard_is_shed_degraded_but_bounded(self, storage, tmp_path):
        batch = make_batch(63)
        with build_cluster(
            storage, tmp_path / "kill.pages", 2, buffer_pages=16
        ) as router:
            sid = router.submit(batch)
            router.advance(sid, 15)
            before = router.poll(sid)
            router._shards[1].kill()
            gained = router.advance(sid, 100_000)
            after = router.poll(sid)
            # The survivor kept serving; the dead shard's keys degraded.
            assert gained > 0
            assert after.degraded and after.skipped_count > 0
            assert not after.is_exact
            assert after.worst_case_bound <= before.worst_case_bound
            assert np.isfinite(after.worst_case_bound)
            assert router.live_shards == 1
            health = router.healthz()
            assert health["shed_shards"] == [1]
            # Dead-shard keys cannot be re-queued — nobody can serve them.
            assert router.retry_skipped(sid) == 0
            assert router.poll(sid).degraded
            # New sessions still work, degraded from birth on shard 1 keys.
            sid2 = router.submit(make_batch(64))
            while router.advance(sid2, 50):
                pass
            snap2 = router.poll(sid2)
            assert snap2.degraded and snap2.skipped_count > 0
            assert snap2.steps_taken > 0


class TestRouterSurface:
    def test_submit_validates_domain(self, storage, tmp_path):
        bad = QueryBatch(
            [VectorQuery.count(HyperRect(((0, 99), (0, 15))), label="huge")]
        )
        with build_cluster(
            storage, tmp_path / "val.pages", 2,
            process_shards=False, buffer_pages=16,
        ) as router:
            with pytest.raises(ValueError, match="huge"):
                router.submit(bad)
            assert router.session_ids() == []

    def test_cancel_frees_all_shards(self, storage, tmp_path):
        with build_cluster(
            storage, tmp_path / "cancel.pages", 2,
            process_shards=False, buffer_pages=16,
        ) as router:
            sid = router.submit(make_batch(71))
            router.advance(sid, 5)
            router.cancel(sid)
            with pytest.raises(KeyError):
                router.poll(sid)
            with pytest.raises(KeyError):
                router.cancel(sid)
            metrics = router.metrics()
            assert metrics.live_sessions == 0
            # Shards hold no session state; the one schedule is the
            # router's, and its gauge must agree.
            assert router.scheduler.live_sessions == 0
            gauge = router.registry.get("repro_scheduler_live_sessions")
            assert gauge.value(scheduler=router.scheduler._instance) == 0

    def test_run_to_completion_returns_exact_answers(
        self, storage, tmp_path, rng
    ):
        batch = make_batch(73)
        with build_cluster(
            storage, tmp_path / "rtc.pages", 4,
            process_shards=False, buffer_pages=16,
        ) as router:
            sid = router.submit(batch)
            answers = router.run_to_completion(sid)
            single = ProgressiveQueryService(
                storage.paged(tmp_path / "rtc-ref.pages", buffer_pages=16)
            )
            rid = single.submit(batch)
            np.testing.assert_array_equal(
                answers, single.run_to_completion(rid)
            )

    def test_cost_report_merges_router_and_shard_accounts(
        self, storage, tmp_path
    ):
        with build_cluster(
            storage, tmp_path / "costs.pages", 2,
            process_shards=False, buffer_pages=16,
        ) as router:
            sid = router.submit(make_batch(75))
            router.run_to_completion(sid)
            report = router.cost_report(sid)
            # One router-side ledger: schedule/fetch contain the pipe.
            for stage in ("rewrite", "plan", "apply", "schedule", "fetch"):
                assert stage in report["stages"], stage
            assert report["counters"]["retrievals"] > 0
            assert report["counters"]["deliveries"] > 0
            assert report["is_exact"] is True
            assert sorted(report["shards"]) == report["shards"]
            assert sid in router.costs_json()

    def test_metrics_aggregate_across_shards(self, storage, tmp_path):
        with build_cluster(
            storage, tmp_path / "met.pages", 4,
            process_shards=False, buffer_pages=16,
        ) as router:
            sid = router.submit(make_batch(77))
            router.run_to_completion(sid)
            m = router.metrics()
            assert m.num_shards == 4 and m.shed_shards == ()
            assert m.retrievals == sum(
                s["retrievals"] for s in m.per_shard.values()
            )
            assert m.deliveries == m.retrievals  # single session: no sharing
            assert m.retrievals == router.poll(sid).steps_taken
            text = router.registry.render_prometheus()
            assert "repro_cluster_sessions_submitted_total" in text
            assert "repro_cluster_shard_up" in text

    def test_retry_leaves_orphaned_keys_skipped_and_charged_once(
        self, storage, tmp_path
    ):
        """Regression: ``retry_skipped`` used to un-skip and re-skip the
        keys of a shed shard, re-charging them to the session's
        ``skipped_keys`` on every call."""
        with build_cluster(
            storage, tmp_path / "orphan.pages", 2,
            process_shards=False, buffer_pages=16,
            chaos={"seed": 3, "blackout_keys": [], "max_attempts": 2},
            chaos_shard=0,
        ) as router:
            sid = router.submit(make_batch(79))
            session = router._session(sid).session
            # Two kinds of skipped keys: a blackout on live shard 0 ...
            head, _ = session.upcoming(30)
            dark = head[router.partitioner.shard_of(head) == 0][:5]
            injector = router._shards[0]._worker.store.inner
            injector.blackout_keys.update(dark.tolist())
            router.advance(sid, 40)
            # ... and everything shard 1 still owed once it is shed.
            router.mark_lost(1)
            orphaned = int(
                np.count_nonzero(
                    router.partitioner.shard_of(session.skipped_keys()) == 1
                )
            )
            assert dark.size == 5 and orphaned > 0
            snap = router.poll(sid)
            assert snap.skipped_count == orphaned + dark.size
            charged = router.cost_report(sid)["counters"]["skipped_keys"]
            assert charged == snap.skipped_count
            bound = snap.worst_case_bound

            injector.heal()
            assert router.retry_skipped(sid) == dark.size  # re-queued only
            for _ in range(3):
                assert router.retry_skipped(sid) == 0
            snap = router.poll(sid)
            assert snap.skipped_count == orphaned
            assert snap.worst_case_bound <= bound
            assert router.cost_report(sid)["counters"]["skipped_keys"] == charged
            # The re-queued keys are served; the orphans stay bounded.
            router.advance(sid, snap.remaining)
            snap = router.poll(sid)
            assert snap.degraded and snap.skipped_count == orphaned
            assert snap.remaining == orphaned

    def test_shed_mid_wave_never_asks_the_dead_shard(self, storage, tmp_path):
        """Regression: a shed skips the dead shard's keys in every session
        *and* drops them from the scheduler's merged queue.  Skipping
        alone left them queued, and every later chunk that reached one
        failed its gather and fell back to per-key fetches (384 store
        calls and 170 fetch samples here instead of 7 and 7)."""
        from repro.obs import MetricRegistry

        with build_cluster(
            storage, tmp_path / "shed.pages", 2,
            process_shards=False, buffer_pages=16, registry=MetricRegistry(),
        ) as router:
            calls = []
            fetch = router.store.fetch
            router.store.fetch = lambda keys: (calls.append(len(keys)), fetch(keys))[1]
            sids = [router.submit(make_batch(seed)) for seed in (81, 82, 83)]
            for sid in sids:
                router.advance(sid, 24)
            router.mark_lost(1)
            for _ in range(3):
                for sid in sids:
                    router.advance(sid, 24)
            assert len(calls) == router.scheduler._fetch_seconds.count() == 7
            assert [router.poll(sid).steps_taken for sid in sids] == [139, 148, 156]

    def test_session_api_is_inherited_from_the_service(self, storage, tmp_path):
        from repro.cluster import ClusterRouter

        for name in (
            "submit", "advance", "run_to_completion", "poll", "set_penalty",
            "retry_skipped", "cancel", "convergence", "costs_json", "_session",
        ):
            assert name not in vars(ClusterRouter), name
            assert getattr(ClusterRouter, name) is getattr(
                ProgressiveQueryService, name
            )
        with build_cluster(
            storage, tmp_path / "conv.pages", 2,
            process_shards=False, buffer_pages=16,
        ) as router:
            sid = router.submit(make_batch(81))
            router.advance(sid, 10)
            trajectory = router.convergence(sid)
            assert [r.steps_taken for r in trajectory] == list(range(1, 11))
            bounds = [r.worst_case_bound for r in trajectory]
            assert bounds == sorted(bounds, reverse=True)

    def test_mismatched_partitioner_is_rejected(self, storage, tmp_path):
        from repro.cluster import ClusterRouter, make_partitioner
        from repro.cluster.worker import InlineShard, ShardWorker
        from repro.storage.paged import PagedCoefficientStore, write_paged_file

        path = tmp_path / "mismatch.pages"
        write_paged_file(path, storage.store.as_dense())
        store = PagedCoefficientStore(path, shared=True)
        shard = InlineShard(ShardWorker(store, shard=0))
        with pytest.raises(ValueError, match="expects 2 shards"):
            ClusterRouter(
                storage.with_store(store),
                [shard],
                make_partitioner("hash", 2, store.key_space_size),
            )
        store.close()
