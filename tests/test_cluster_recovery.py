"""Self-healing cluster: supervision, respawn, replay, heal-to-exact.

The recovery contract (ISSUE 9):

* **SIGKILL mid-run is survivable** — with a supervisor attached, a
  worker killed hard mid-session is respawned, the session journal is
  replayed onto the fresh worker, the skipped keys are re-driven, and
  the final answers are *bit-identical* to a never-crashed 1-process
  run; every poll during the outage keeps a valid Theorem-1 bound.
* **Flapping shards are eventually shed** — more than ``max_restarts``
  attempts inside the rolling window and the supervisor gives up: the
  shard is permanently ``down`` and the old degraded-but-bounded
  semantics (``docs/RESILIENCE.md``) apply unchanged.
* The lifecycle (``up -> recovering -> up | down``) is visible in
  ``/healthz``, ``/status``, and the metric registry, and the new
  counters are exposition-lint clean.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.cluster import (
    ClusterApiError,
    ClusterClient,
    ClusterHttpServer,
    RestartPolicy,
    ShardSupervisor,
    build_cluster,
)
from repro.core.penalties import SsePenalty
from repro.obs import MetricRegistry
from repro.queries.workload import partition_count_batch
from repro.service.server import ProgressiveQueryService
from repro.storage.wavelet_store import WaveletStorage
from tests.promparse import parse_prometheus, validate_exposition


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(77)
    return rng.poisson(2.0, size=(32, 32)).astype(np.float64)


@pytest.fixture(scope="module")
def storage(data):
    return WaveletStorage.build(data, wavelet="db2")


def make_batch(seed: int):
    return partition_count_batch(
        (32, 32), (3, 3), rng=np.random.default_rng(seed)
    )


def fast_restarts(**overrides) -> RestartPolicy:
    """Zero-delay policy: the first tick after a death already respawns."""
    defaults = dict(base_delay=0.0, max_delay=0.0)
    defaults.update(overrides)
    return RestartPolicy(**defaults)


def reference_answers(storage, tmp_path, batch):
    """Final answers of a never-crashed 1-process service (same paged
    format the cluster serves from) — the bit-equality oracle."""
    service = ProgressiveQueryService(
        storage.paged(tmp_path / "oracle.pages", buffer_pages=16)
    )
    return service.run_to_completion(service.submit(batch))


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# The tentpole: SIGKILL mid-run, heal to bit-exact
# ----------------------------------------------------------------------


class TestKillAndHeal:
    @pytest.mark.parametrize("num_shards", [2, 4])
    @pytest.mark.parametrize("partitioner", ["hash", "range"])
    def test_sigkilled_shard_is_respawned_and_answers_heal_to_exact(
        self, storage, data, tmp_path, num_shards, partitioner
    ):
        batch = make_batch(seed=11)
        exact = batch.exact_dense(data)
        penalty = SsePenalty()
        with build_cluster(
            storage,
            tmp_path / "kill.pages",
            num_shards,
            partitioner=partitioner,
            buffer_pages=16,
            supervise=True,
            restart_policy=fast_restarts(),
        ) as router:
            supervisor = router.supervisor
            sid = router.submit(batch)
            for _ in range(4):
                router.advance(sid, k=4)
            victim = num_shards - 1
            process = router._shards[victim]._process
            os.kill(process.pid, signal.SIGKILL)
            process.join(10.0)
            # Drive through the outage until the dead pipe is hit (the
            # scheduler only touches the victim once one of its keys
            # reaches the top of the merge): answers degrade, and every
            # poll keeps a valid Theorem-1 bound vs the dense oracle.
            while True:
                gained = router.advance(sid, k=4)
                snap = router.poll(sid)
                assert snap.worst_case_bound * (1 + 1e-9) + 1e-9 >= penalty(
                    snap.estimates - exact
                )
                if snap.degraded or gained == 0:
                    break
            assert router.poll(sid).degraded
            assert not router.healthz()["ok"]
            assert router.shard_state(victim) == "recovering"
            outcomes = supervisor.tick()
            assert (victim, "respawned") in outcomes
            healed = router.poll(sid)
            assert not healed.degraded and healed.skipped_count == 0
            assert router.shard_state(victim) == "up"
            assert router.healthz()["ok"]
            answers = router.run_to_completion(sid)
            assert router.poll(sid).is_exact
        np.testing.assert_array_equal(
            answers, reference_answers(storage, tmp_path, batch)
        )

    @pytest.mark.parametrize("chunk_size", [1, 16])
    def test_heal_is_exact_under_chunked_serving(
        self, storage, data, tmp_path, chunk_size
    ):
        batch = make_batch(seed=23)
        exact = batch.exact_dense(data)
        penalty = SsePenalty()
        with build_cluster(
            storage,
            tmp_path / "chunk.pages",
            2,
            process_shards=False,
            buffer_pages=16,
            chunk_size=chunk_size,
            supervise=True,
            restart_policy=fast_restarts(),
        ) as router:
            sid = router.submit(batch)
            for _ in range(3):
                router.advance(sid, k=4)
            router._shards[1].close()  # inline analogue of a dead worker
            router.advance(sid, k=4)
            snap = router.poll(sid)
            assert snap.degraded
            assert snap.worst_case_bound * (1 + 1e-9) + 1e-9 >= penalty(
                snap.estimates - exact
            )
            outcomes = router.supervisor.tick()
            assert ("respawned" in {o for _, o in outcomes})
            answers = router.run_to_completion(sid)
        np.testing.assert_array_equal(
            answers, reference_answers(storage, tmp_path, batch)
        )

    def test_sessions_born_during_outage_heal_too(self, storage, tmp_path):
        """A session submitted while a shard is down starts degraded
        (its dead-owned keys are skipped at submit) and heals to exact
        once the shard is reintegrated."""
        with build_cluster(
            storage,
            tmp_path / "born.pages",
            2,
            process_shards=False,
            buffer_pages=16,
            supervise=True,
            restart_policy=fast_restarts(),
        ) as router:
            router._shards[1].close()
            router.mark_lost(1)
            batch = make_batch(seed=31)
            sid = router.submit(batch)
            assert router.poll(sid).degraded
            outcomes = router.supervisor.tick()
            assert (1, "respawned") in outcomes
            assert not router.poll(sid).degraded
            answers = router.run_to_completion(sid)
        np.testing.assert_array_equal(
            answers, reference_answers(storage, tmp_path, batch)
        )

    def test_multiple_sessions_replay_and_counters_count(
        self, storage, tmp_path
    ):
        with build_cluster(
            storage,
            tmp_path / "multi.pages",
            2,
            process_shards=False,
            buffer_pages=16,
            registry=MetricRegistry(),
            supervise=True,
            restart_policy=fast_restarts(),
        ) as router:
            sids = [router.submit(make_batch(seed=s)) for s in (41, 43)]
            for sid in sids:
                router.advance(sid, k=4)
            router._shards[1].close()
            for sid in sids:
                router.advance(sid, k=4)
            router.supervisor.tick()
            for sid in sids:
                assert not router.poll(sid).degraded
            restarts = router.registry.get(
                "repro_cluster_shard_restarts_total"
            )
            assert restarts.value(shard="1", outcome="respawned") == 1
            # No journal to replay: the heal is "re-fetch the skipped
            # keys", and every session must come back exact.
            for sid, seed in zip(sids, (41, 43)):
                np.testing.assert_array_equal(
                    router.run_to_completion(sid),
                    reference_answers(storage, tmp_path, make_batch(seed=seed)),
                )


# ----------------------------------------------------------------------
# Flap cap and backoff
# ----------------------------------------------------------------------


class TestRestartPolicy:
    def test_backoff_is_bounded_exponential(self):
        policy = RestartPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5)
        assert policy.delay(0) == 0.0
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)
        assert policy.delay(4) == 0.5
        assert policy.delay(100) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RestartPolicy(max_restarts=0)
        with pytest.raises(ValueError):
            RestartPolicy(window=0.0)


class TestFlapCap:
    def make_router(self, storage, tmp_path, factory, policy, clock):
        router = build_cluster(
            storage,
            tmp_path / "flap.pages",
            2,
            process_shards=False,
            buffer_pages=16,
            registry=MetricRegistry(),
        )
        router.attach_supervisor(
            ShardSupervisor(router, factory, policy=policy, clock=clock)
        )
        return router

    def test_flap_cap_trips_to_permanent_shed(self, storage, tmp_path):
        clock = FakeClock()

        def failing_factory(index):
            raise OSError("spawn refused")

        policy = fast_restarts(max_restarts=3, window=60.0)
        with self.make_router(
            storage, tmp_path, failing_factory, policy, clock
        ) as router:
            sid = router.submit(make_batch(seed=51))
            router.advance(sid, k=4)
            router._shards[1].close()
            outcomes = []
            for _ in range(5):
                outcomes += router.supervisor.tick()
                clock.now += 1.0
            assert outcomes[0] == (1, "lost")
            assert outcomes.count((1, "failed")) == 3
            assert (1, "gave_up") in outcomes
            # Permanently down: the degraded-but-bounded semantics of a
            # plain shed apply — no resurrection, no re-queue.
            assert router.supervisor.gave_up(1)
            assert router.shard_state(1) == "down"
            assert router.retry_skipped(sid) == 0
            assert router.healthz()["shards"][1]["state"] == "down"
            assert not router.healthz()["ok"]
            late = router.supervisor.tick()
            assert late == []  # nothing left to do; still given up
            # New sessions are born degraded, exactly like ISSUE-7 sheds.
            sid2 = router.submit(make_batch(seed=53))
            assert router.poll(sid2).degraded
            restarts = router.registry.get(
                "repro_cluster_shard_restarts_total"
            )
            assert restarts.value(shard="1", outcome="failed") == 3
            assert restarts.value(shard="1", outcome="gave_up") == 1

    def test_backoff_gates_attempts(self, storage, tmp_path):
        clock = FakeClock()
        calls = []

        def failing_factory(index):
            calls.append(clock.now)
            raise OSError("spawn refused")

        policy = RestartPolicy(
            max_restarts=10, base_delay=1.0, multiplier=2.0, max_delay=8.0
        )
        with self.make_router(
            storage, tmp_path, failing_factory, policy, clock
        ) as router:
            router._shards[1].close()
            router.supervisor.tick()  # detect + attempt 1 (immediate)
            assert len(calls) == 1
            router.supervisor.tick()  # gated: delay(1) = 1.0s not elapsed
            assert len(calls) == 1
            clock.now += 1.0
            router.supervisor.tick()  # attempt 2
            assert len(calls) == 2
            clock.now += 1.0
            router.supervisor.tick()  # gated: delay(2) = 2.0s
            assert len(calls) == 2
            clock.now += 1.0
            router.supervisor.tick()  # attempt 3
            assert len(calls) == 3
            assert router.supervisor.restart_attempts(1) == 3
            assert router.shard_state(1) == "recovering"

    def test_recovery_succeeds_after_transient_spawn_failures(
        self, storage, tmp_path
    ):
        """A factory that fails twice then works: the shard stays
        ``recovering`` through the failures and comes back ``up``."""
        from repro.cluster.worker import (
            InlineShard,
            ShardWorker,
            build_shard_store,
        )

        clock = FakeClock()
        path = tmp_path / "flap.pages"
        attempts = []

        def flaky_factory(index):
            attempts.append(index)
            if len(attempts) <= 2:
                raise OSError("spawn refused")
            spec = {"path": str(path), "buffer_pages": 16}
            return InlineShard(ShardWorker(build_shard_store(spec), shard=index))

        policy = fast_restarts(max_restarts=5)
        with self.make_router(
            storage, tmp_path, flaky_factory, policy, clock
        ) as router:
            sid = router.submit(make_batch(seed=61))
            router.advance(sid, k=4)
            router._shards[1].close()
            outcomes = []
            for _ in range(4):
                outcomes += router.supervisor.tick()
                clock.now += 1.0
            assert outcomes.count((1, "failed")) == 2
            assert (1, "respawned") in outcomes
            assert router.shard_state(1) == "up"
            assert not router.poll(sid).degraded
            answers = router.run_to_completion(sid)
        np.testing.assert_array_equal(
            answers,
            reference_answers(storage, tmp_path, make_batch(seed=61)),
        )


# ----------------------------------------------------------------------
# Observability of the lifecycle
# ----------------------------------------------------------------------


class TestRecoveryObservability:
    def test_exposition_is_lint_clean_and_families_present(
        self, storage, tmp_path
    ):
        with build_cluster(
            storage,
            tmp_path / "expo.pages",
            2,
            process_shards=False,
            buffer_pages=16,
            registry=MetricRegistry(),
            supervise=True,
            restart_policy=fast_restarts(),
        ) as router:
            sid = router.submit(make_batch(seed=71))
            router.advance(sid, k=4)
            router._shards[1].close()
            router.advance(sid, k=4)
            router.supervisor.tick()
            text = router.federated_metrics_text()
            assert validate_exposition(text) == []
            types, samples = parse_prometheus(text)
            assert types["repro_cluster_shard_restarts_total"] == "counter"
            restarts = router.registry.get("repro_cluster_shard_restarts_total")
            assert restarts.value(shard="1", outcome="respawned") == 1
            assert not router.poll(sid).degraded  # healed, nothing replayed
            assert types["repro_cluster_shard_state"] == "gauge"
            assert types["repro_cluster_shard_up"] == "gauge"  # back-compat
            up = {
                dict(labels)["shard"]: value
                for (name, labels), value in samples.items()
                if name == "repro_cluster_shard_up"
            }
            assert up == {"0": 1.0, "1": 1.0}

    def test_status_reports_lifecycle_and_recovery_epoch(
        self, storage, tmp_path
    ):
        with build_cluster(
            storage,
            tmp_path / "status.pages",
            2,
            process_shards=False,
            buffer_pages=16,
            supervise=True,
            restart_policy=fast_restarts(),
        ) as router:
            status = router.status()
            assert status["supervised"] is True
            assert status["recovery_epoch"] == 0
            assert [
                s["state"] for s in status["shards"].values()
            ] == ["up", "up"]
            router._shards[1].close()
            router.mark_lost(1)
            assert router.status()["shards"]["1"]["state"] == "recovering"
            router.supervisor.tick()
            status = router.status()
            assert status["shards"]["1"]["state"] == "up"
            assert status["recovery_epoch"] == 1

    def test_unsupervised_shed_is_down_immediately(self, storage, tmp_path):
        """Without a supervisor there is no ``recovering`` limbo: the
        tri-state collapses to the old up/down semantics."""
        with build_cluster(
            storage,
            tmp_path / "unsup.pages",
            2,
            process_shards=False,
            buffer_pages=16,
        ) as router:
            assert router.status()["supervised"] is False
            router._shards[1].close()
            router.mark_lost(1)
            assert router.shard_state(1) == "down"
            assert router.healthz()["shards"][1]["state"] == "down"


# ----------------------------------------------------------------------
# Edge: graceful drain + client retries
# ----------------------------------------------------------------------


@pytest.fixture
def edge(storage, tmp_path):
    router = build_cluster(
        storage,
        tmp_path / "edge.pages",
        2,
        process_shards=False,
        buffer_pages=16,
    )
    server = ClusterHttpServer(router, port=0).start_in_thread()
    client = ClusterClient("127.0.0.1", server.port, timeout=30.0)
    yield server, client
    client.close()
    server.close()


class TestGracefulDrain:
    def test_drain_refuses_new_sessions_but_finishes_existing(self, edge):
        server, client = edge
        sid = client.submit(make_batch(seed=81))
        assert server.drain(timeout=5.0) is True
        assert server.draining
        assert client.healthz()["draining"] is True
        with pytest.raises(ClusterApiError) as excinfo:
            client.submit(make_batch(seed=83))
        assert excinfo.value.status == 503
        # In-flight work still runs: advances, polls, observability.
        result = client.advance(sid, k=4)
        assert result["gained"] > 0
        assert client.poll(sid)["session_id"] == sid
        assert "repro_cluster_advance_seconds" in client.metrics_text()
        client.cancel(sid)

    def test_draining_starts_false(self, edge):
        server, client = edge
        assert server.draining is False
        assert client.healthz()["draining"] is False


class TestServeTeardown:
    # The edge thread dies with the OSError before the caller raises.
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_failed_edge_bind_leaves_no_shard_processes(self):
        """Regression: ``repro serve`` on a busy port raised with both
        spawned shard workers still running."""
        import multiprocessing
        import socket

        from repro.cli import main

        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen(1)
            port = busy.getsockname()[1]
            with pytest.raises(RuntimeError, match="failed to bind"):
                main([
                    "serve", "--dataset", "uniform", "--shape", "16,16",
                    "--records", "500", "--shards", "2", "--port", str(port),
                ])
        shards = [
            child.name for child in multiprocessing.active_children()
            if child.name.startswith("repro-shard-")
        ]
        assert shards == []


class TestClientRetries:
    def test_transient_transport_errors_are_retried_same_request_id(
        self, storage, tmp_path
    ):
        router = build_cluster(
            storage,
            tmp_path / "retry.pages",
            2,
            process_shards=False,
            buffer_pages=16,
        )
        server = ClusterHttpServer(router, port=0).start_in_thread()
        sleeps = []
        client = ClusterClient(
            "127.0.0.1",
            server.port,
            retries=2,
            retry_base_delay=0.05,
            sleep=sleeps.append,
        )
        try:
            real_send = client._send
            seen_ids = []
            failures = {"left": 3}  # initial + free reconnect + 1 paid

            def flaky_send(method, path, body, headers):
                seen_ids.append(headers["X-Request-Id"])
                if failures["left"] > 0:
                    failures["left"] -= 1
                    raise ConnectionResetError("wire cut")
                return real_send(method, path, body, headers)

            client._send = flaky_send
            sid = client.submit(make_batch(seed=91))
            assert sid in router.session_ids()
            assert len(seen_ids) == 4
            assert len(set(seen_ids)) == 1  # one logical request id
            assert sleeps == [pytest.approx(0.05), pytest.approx(0.1)]
            assert client.last_request_id == seen_ids[0]
        finally:
            client.close()
            server.close()

    def test_retries_off_by_default_one_free_reconnect_only(
        self, storage, tmp_path
    ):
        router = build_cluster(
            storage,
            tmp_path / "retry0.pages",
            2,
            process_shards=False,
            buffer_pages=16,
        )
        server = ClusterHttpServer(router, port=0).start_in_thread()
        client = ClusterClient("127.0.0.1", server.port)
        try:
            attempts = {"n": 0}

            def always_fail(method, path, body, headers):
                attempts["n"] += 1
                raise ConnectionResetError("wire cut")

            client._send = always_fail
            with pytest.raises(ConnectionResetError):
                client.sessions()
            assert attempts["n"] == 2  # initial + free reconnect, no more
        finally:
            client.close()
            server.close()

    def test_client_surfaces_shard_states(self, storage, tmp_path):
        router = build_cluster(
            storage,
            tmp_path / "states.pages",
            2,
            process_shards=False,
            buffer_pages=16,
            supervise=True,
            restart_policy=fast_restarts(),
        )
        server = ClusterHttpServer(router, port=0).start_in_thread()
        client = ClusterClient("127.0.0.1", server.port)
        try:
            assert client.shard_states() == {0: "up", 1: "up"}
            router._shards[1].close()
            router.mark_lost(1)
            assert client.shard_states() == {0: "up", 1: "recovering"}
            router.supervisor.tick()
            assert client.shard_states() == {0: "up", 1: "up"}
        finally:
            client.close()
            server.close()
