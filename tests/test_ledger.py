"""Unit and integration tests for the per-query cost ledger."""

from __future__ import annotations

import json
import threading
import urllib.request

import numpy as np
import pytest

from repro import obs
from repro.core.batch import BatchBiggestB
from repro.core.session import ProgressiveSession
from repro.data.synthetic import uniform_dataset
from repro.obs import ledger as ledger_mod
from repro.obs.ledger import (
    COEFFICIENT_BYTES,
    CostAccount,
    CostLedger,
    activate,
    active_account,
    note,
)
from repro.queries.workload import partition_count_batch
from repro.service.server import ProgressiveQueryService
from repro.storage.wavelet_store import WaveletStorage


@pytest.fixture
def workload():
    relation = uniform_dataset((16, 16), 1000, seed=5)
    storage = WaveletStorage.build(relation.frequency_distribution())
    batch = partition_count_batch(
        (16, 16), (2, 2), rng=np.random.default_rng(6)
    )
    return storage, batch


class TestCostAccount:
    def test_stage_accumulates_wall_cpu_calls(self):
        account = CostAccount(owner="t", queries=3)
        for _ in range(4):
            with account.stage("fetch"):
                pass
        totals = account.stage_totals()
        assert totals["fetch"]["calls"] == 4
        assert totals["fetch"]["wall_s"] >= 0.0
        assert totals["fetch"]["cpu_s"] >= 0.0

    def test_counters_and_byte_accounting(self):
        account = CostAccount()
        account.add(retrievals=3, cache_hits=2)
        account.add(retrievals=1, retries=5, skipped_keys=1, deliveries=4)
        assert account.retrievals == 4
        assert account.bytes_fetched == 4 * COEFFICIENT_BYTES
        assert account.cache_hits == 2
        assert account.retries == 5
        assert account.skipped_keys == 1
        assert account.deliveries == 4

    def test_stage_totals_in_pipeline_order(self):
        account = CostAccount()
        for name in ("apply", "rewrite", "custom", "fetch"):
            account.add_stage(name, 0.001)
        assert list(account.stage_totals()) == [
            "rewrite", "fetch", "apply", "custom",
        ]

    def test_to_dict_is_json_serializable(self):
        account = CostAccount(owner="session", queries=2)
        with account.stage("plan"):
            pass
        account.add(retrievals=1)
        snapshot = json.loads(json.dumps(account.to_dict()))
        assert snapshot["owner"] == "session"
        assert snapshot["queries"] == 2
        assert snapshot["counters"]["retrievals"] == 1

    def test_disabled_telemetry_records_nothing(self):
        account = CostAccount()
        previous = obs.set_enabled(False)
        try:
            with account.stage("fetch"):
                pass
            account.add(retrievals=9)
        finally:
            obs.set_enabled(previous)
        assert account.retrievals == 0
        assert account.stage_totals() == {}


class TestCostLedger:
    def test_register_disambiguates_collisions(self):
        ledger = CostLedger()
        first = ledger.register("s1", CostAccount())
        second = ledger.register("s1", CostAccount())
        assert first == "s1"
        assert second != "s1" and second.startswith("s1#")
        assert set(ledger.names()) == {first, second}

    def test_to_json_and_reset(self):
        ledger = CostLedger()
        account = CostAccount(owner="batch")
        account.add(retrievals=2)
        ledger.register("b", account)
        doc = ledger.to_json()
        assert doc["b"]["counters"]["retrievals"] == 2
        ledger.reset()
        assert ledger.to_json() == {}


class TestActiveAccount:
    def test_activate_nests_and_restores(self):
        outer, inner = CostAccount(), CostAccount()
        assert active_account() is None
        with activate(outer):
            assert active_account() is outer
            with activate(inner):
                assert active_account() is inner
                note(retries=1)
            assert active_account() is outer
        assert active_account() is None
        assert inner.retries == 1 and outer.retries == 0

    def test_note_without_active_account_is_noop(self):
        note(retries=1)  # must not raise

    def test_active_account_is_thread_local(self):
        account = CostAccount()
        seen: list = []

        def worker():
            seen.append(active_account())

        with activate(account):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen == [None]

    def test_active_stage_charges_active_account(self):
        account = CostAccount()
        with activate(account):
            with ledger_mod.active_stage("fetch"):
                pass
        assert account.stage_totals()["fetch"]["calls"] == 1


class TestPipelineAttribution:
    def test_batch_run_charges_all_stages(self, workload):
        storage, batch = workload
        evaluator = BatchBiggestB(storage, batch)
        evaluator.run()
        totals = evaluator.costs.stage_totals()
        assert {"rewrite", "plan", "fetch", "apply"} <= set(totals)
        assert evaluator.costs.retrievals == evaluator.master_list_size
        assert evaluator.costs.bytes_fetched == (
            evaluator.master_list_size * COEFFICIENT_BYTES
        )

    def test_prebuilt_rewrites_cost_nothing(self, workload):
        storage, batch = workload
        first = BatchBiggestB(storage, batch)
        second = BatchBiggestB(
            storage, batch, rewrites=first.rewrites, plan=first.plan
        )
        assert "rewrite" not in second.costs.stage_totals()

    def test_steps_counts_chunked_retrievals(self, workload):
        storage, batch = workload
        evaluator = BatchBiggestB(storage, batch)
        steps = sum(1 for _ in evaluator.steps(readahead=8))
        assert steps == evaluator.master_list_size
        assert evaluator.costs.retrievals == steps
        totals = evaluator.costs.stage_totals()
        assert totals["apply"]["calls"] == steps

    def test_session_advance_charges_fetches(self, workload):
        storage, batch = workload
        session = ProgressiveSession(storage, batch)
        session.advance(5)
        assert session.costs.retrievals == 5
        totals = session.costs.stage_totals()
        # The chunked engine gathers the 5 keys with one store fetch:
        # retrievals count keys, fetch "calls" count gathers.
        assert totals["fetch"]["calls"] == 1
        assert {"rewrite", "plan", "apply"} <= set(totals)

    def test_session_scalar_advance_charges_per_key_fetches(self, workload):
        storage, batch = workload
        session = ProgressiveSession(storage, batch)
        for _ in range(5):
            session.advance(1)
        assert session.costs.retrievals == 5
        assert session.costs.stage_totals()["fetch"]["calls"] == 5

    def test_session_deliver_counts_delivery_not_retrieval(self, workload):
        storage, batch = workload
        session = ProgressiveSession(storage, batch)
        keys, _ = session.pending()
        key = int(keys[0])
        value = float(storage.store.peek(np.array([key]))[0])
        assert session.deliver(key, value)
        assert session.costs.deliveries == 1
        assert session.costs.retrievals == 0


class TestServiceCostReport:
    def test_cost_report_shape_and_sharing(self, workload):
        storage, batch = workload
        service = ProgressiveQueryService(storage)
        first = service.submit(batch)
        service.run_to_completion(first)
        second = service.submit(batch)  # identical batch: pure cache hits
        service.run_to_completion(second)
        report = service.cost_report(second)
        assert report["session_id"] == second
        assert report["is_exact"] is True
        assert report["steps_taken"] == report["master_keys"]
        # Every key was already cached by the first session.
        assert report["counters"]["cache_hits"] == report["master_keys"]
        assert report["counters"]["retrievals"] == 0
        assert report["counters"]["deliveries"] == report["master_keys"]
        assert "schedule" in report["stages"]
        # The first session paid the store I/O instead.
        first_report = service.cost_report(first)
        assert first_report["counters"]["retrievals"] == report["master_keys"]

    def test_cost_report_unknown_session_raises(self, workload):
        storage, _ = workload
        service = ProgressiveQueryService(storage)
        with pytest.raises(KeyError, match="unknown or cancelled"):
            service.cost_report("nope")

    def test_submit_registers_in_global_ledger(self, workload):
        storage, batch = workload
        obs.LEDGER.reset()
        service = ProgressiveQueryService(storage)
        session_id = service.submit(batch)
        account = obs.LEDGER.get(session_id)
        assert account is not None
        assert account is service._session(session_id)[0].costs

    @pytest.mark.parametrize("front", ["service", "router"])
    def test_cancel_unregisters_the_account(self, workload, tmp_path, front):
        """Regression: the in-process ``cancel`` leaked every session's
        account into the process-wide ledger; the router's did not."""
        from repro.cluster import build_cluster

        storage, batch = workload
        obs.LEDGER.reset()
        if front == "service":
            service = ProgressiveQueryService(storage)
        else:
            service = build_cluster(
                storage, tmp_path / "ledger.pages", 2, process_shards=False
            )
        try:
            for _ in range(3):
                session_id = service.submit(batch)
                service.advance(session_id, 4)
                assert obs.LEDGER.names() == [session_id]
                service.cancel(session_id)
            assert obs.LEDGER.names() == []
        finally:
            if front == "router":
                service.close()

    def test_costs_json_endpoint_serves_ledger(self, workload):
        storage, batch = workload
        obs.LEDGER.reset()
        service = ProgressiveQueryService(storage)
        session_id = service.submit(batch)
        service.run_to_completion(session_id)
        server = obs.start_metrics_server(obs.REGISTRY, port=0)
        try:
            url = f"http://127.0.0.1:{server.server_port}/costs.json"
            with urllib.request.urlopen(url) as resp:
                assert resp.headers["Content-Type"] == "application/json"
                doc = json.loads(resp.read().decode("utf-8"))
        finally:
            server.shutdown()
        assert session_id in doc
        assert doc[session_id]["counters"]["retrievals"] > 0


class TestRetryAttribution:
    def test_resilient_retries_land_on_the_fetching_session(self, workload):
        from repro.storage.faults import FaultInjectingStore
        from repro.storage.resilient import (
            CircuitBreaker,
            ResilientStore,
            RetryPolicy,
        )

        storage, batch = workload
        injector = FaultInjectingStore(
            storage.store, seed=3, transient_rate=0.4
        )
        resilient = ResilientStore(
            injector,
            policy=RetryPolicy(max_attempts=8, base_delay=0.0, max_delay=0.0),
            breaker=CircuitBreaker(failure_threshold=10_000),
            sleep=lambda _s: None,
        )
        session = ProgressiveSession(storage.with_store(resilient), batch)
        session.run_to_completion()
        assert session.costs.retries > 0
        assert session.costs.retries == resilient.retry_count()
