"""Unit and integration tests for the per-query cost ledger."""

from __future__ import annotations

import itertools
import json
import threading
from types import SimpleNamespace

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
    activate,
    active_account,
    note,
    stage,
)
from repro.obs.metrics import MetricRegistry
from repro.queries.workload import partition_count_batch
from repro.service.server import ProgressiveQueryService
from repro.storage.faults import chaos_stack
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
            with stage("fetch", account):
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
        with stage("plan", account):
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
            with stage("fetch", account):
                pass
            account.add(retrievals=9)
        finally:
            obs.set_enabled(previous)
        assert account.retrievals == 0
        assert account.stage_totals() == {}


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
            with stage("fetch"):
                pass
        assert account.stage_totals()["fetch"]["calls"] == 1


class _FakeClock(SimpleNamespace):
    """Stands in for the ``time`` module inside :mod:`repro.obs.ledger`:
    both clocks move only when the test says so."""

    def __init__(self) -> None:
        super().__init__(wall=0.0, cpu=0.0)
        self.perf_counter = lambda: self.wall
        self.thread_time = lambda: self.cpu

    def tick(self, wall: float, cpu: float = 0.0) -> None:
        self.wall += wall
        self.cpu += cpu


@pytest.fixture
def clock(monkeypatch):
    fake = _FakeClock()
    monkeypatch.setattr(ledger_mod, "time", fake)
    return fake


@pytest.fixture
def tracing():
    previous = obs.set_tracing(True)
    obs.get_recorder().clear()
    yield obs.get_recorder()
    obs.set_tracing(previous)
    obs.get_recorder().clear()


class TestStage:
    """``obs.stage``: one clock pair feeds the span, the histogram and an
    exclusive ledger stage."""

    def test_exclusive_stage_inclusive_histogram(self, clock):
        account = CostAccount()
        histogram = MetricRegistry().histogram("repro_test_seconds")
        with stage("schedule", account, histogram):
            clock.tick(1.0, 0.5)
            with stage("fetch", account, histogram):
                clock.tick(2.0, 0.25)
            clock.tick(4.0, 1.0)
            with stage("apply", account):
                clock.tick(8.0, 2.0)
        totals = account.stage_totals()
        assert totals["schedule"] == {"calls": 1, "wall_s": 5.0, "cpu_s": 1.5}
        assert totals["fetch"] == {"calls": 1, "wall_s": 2.0, "cpu_s": 0.25}
        assert totals["apply"] == {"calls": 1, "wall_s": 8.0, "cpu_s": 2.0}
        # The histogram takes each region's full time: 15 s and 2 s.
        assert histogram.count() == 2 and histogram.sum() == 17.0

    def test_a_raising_region_leaves_only_its_span(self, clock, tracing):
        account = CostAccount()
        histogram = MetricRegistry().histogram("repro_test_seconds")
        with stage("schedule", account):
            with pytest.raises(RuntimeError):
                with stage("fetch", account, histogram, span="test.fetch", keys=3):
                    clock.tick(2.0, 1.0)
                    raise RuntimeError("abandoned")
            clock.tick(1.0)
        # Its time stays in the enclosing stage: nothing is lost.
        assert account.stage_totals() == {
            "schedule": {"calls": 1, "wall_s": 3.0, "cpu_s": 1.0}
        }
        assert histogram.count() == 0
        [record] = tracing.records()
        assert (record.name, record.dur_us, record.attrs) == (
            "test.fetch", 2e6, {"keys": 3}
        )

    def test_a_region_without_a_stage_is_transparent(self, clock):
        """``<front>.submit`` charges no stage: the stages nested in it
        come off the enclosing stage, and its own time stays there."""
        account = CostAccount()
        histogram = MetricRegistry().histogram("repro_test_seconds")
        with stage("schedule", account):
            with stage(histogram=histogram, span="test.submit"):
                with stage("plan", account):
                    clock.tick(2.0)
                clock.tick(1.0)
            # No account to charge (none active): transparent as well.
            with stage("rewrite"):
                clock.tick(4.0)
        totals = account.stage_totals()
        assert totals["plan"]["wall_s"] == 2.0
        assert totals["schedule"]["wall_s"] == 5.0
        assert histogram.sum() == 3.0

    def test_turning_telemetry_off_inside_a_region_still_pops_it(self):
        account = CostAccount()
        previous = obs.set_enabled(True)
        try:
            with stage("fetch", account):
                obs.set_enabled(False)
            assert ledger_mod._local.stages == []
        finally:
            obs.set_enabled(previous)
        assert account.stage_totals() == {}

    def test_steps_hold_no_stage_across_a_yield(self, workload):
        storage, batch = workload
        evaluator = BatchBiggestB(storage, batch)
        for _ in evaluator.steps(readahead=4):
            assert ledger_mod._local.stages == []
            assert active_account() is None


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

    @pytest.mark.parametrize("loop", ["session", "service", "batch"])
    def test_a_fetch_call_is_a_store_call_that_returned(self, workload, loop):
        """Three retrievals with the second of the first three keys
        blacked out: each loop charges one ``fetch`` call per store call
        that returned, never the abandoned gather or key."""
        storage, batch = workload
        first = ProgressiveSession(storage, batch).upcoming(3)[0]
        chaos = chaos_stack(
            storage.store, {"blackout_keys": [int(first[1])], "max_attempts": 1}
        )
        returned = []

        class Returned:
            def fetch(self, keys):
                values = chaos.fetch(keys)
                returned.append(len(keys))
                return values

            def __getattr__(self, name):
                return getattr(chaos, name)

        storage = storage.with_store(Returned())
        if loop == "session":
            session = ProgressiveSession(storage, batch)
            assert session.advance(3, chunk=3) == 3
            costs = session.costs
        elif loop == "service":
            service = ProgressiveQueryService(storage, chunk_size=3)
            session_id = service.submit(batch)
            assert service.advance(session_id, 3) == 3
            costs = service._session(session_id).session.costs
        else:
            evaluator = BatchBiggestB(storage, batch)
            assert len(list(itertools.islice(evaluator.steps(readahead=3), 3))) == 3
            costs = evaluator.costs
        assert costs.stage_totals()["fetch"]["calls"] == len(returned) == 3
        assert costs.retrievals == sum(returned)

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

    @pytest.mark.parametrize("front", ["service", "router"])
    def test_cancel_unregisters_the_account(self, workload, tmp_path, front):
        """A cancelled session's account leaves ``/costs.json`` (the
        ``costs_json`` body) on both fronts."""
        from repro.cluster import build_cluster

        storage, batch = workload
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
                assert list(service.costs_json()) == [session_id]
                service.cancel(session_id)
            assert service.costs_json() == {}
        finally:
            if front == "router":
                service.close()

    def test_stages_add_up_to_the_advance(self, workload):
        """One advance with one live session: its ``schedule``, ``fetch``
        and ``apply`` are disjoint and sum to the advance's histogram
        sample (``schedule`` used to include the stages nested in it)."""
        storage, batch = workload
        service = ProgressiveQueryService(storage, registry=MetricRegistry())
        session_id = service.submit(batch)

        def walls():
            stages = service.cost_report(session_id)["stages"]
            return sum(
                stages.get(name, {}).get("wall_s", 0.0)
                for name in ("schedule", "fetch", "apply")
            )

        before = walls()
        assert service.advance(session_id, 8) == 8
        sample = service._advance_seconds.sum()
        assert service._advance_seconds.count() == 1
        assert walls() - before == pytest.approx(sample, rel=1e-9, abs=1e-12)
        assert walls() - before <= sample * (1 + 1e-9)


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
