"""The continuous benchmark harness behind ``repro bench``.

Runs a small set of seeded end-to-end scenarios — single-batch
progressive evaluation, concurrent service sharing, resilient degraded
mode — and emits one schema-versioned JSON document per scenario family
(``BENCH_progressive.json``, ``BENCH_service.json``) containing, per
scenario:

* **counters** — master-list sizes, retrievals, deliveries, cache hits,
  retries, skipped keys;
* **per-stage calls** — how many times each pipeline stage
  (``rewrite -> plan -> schedule -> fetch -> apply``) ran, read from the
  :mod:`repro.obs.ledger` cost accounts of the sessions the scenario
  ran.

Both are pure functions of the seeds, so the gate is exact and never
times anything: :func:`compare` fails on any counter that drifted from
the baseline (a drifted counter means the algorithm changed, not the
machine), and :func:`vectorized_gate` requires the chunked engine to
match the scalar one counter for counter while making fewer store
gathers.  Speed is measured end to end by the ``BENCHMARK.json``
harness (``benchmarks/e2e``), not here.  CI runs ``repro bench
--baseline-dir .`` against the baselines committed at the repository
root; refresh them with ``repro bench --out-dir .`` after an
intentional change.

This module deliberately imports the pipeline lazily (inside functions):
``repro.obs`` must stay importable from the innermost layers without
cycling back through :mod:`repro.core`.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Bumped whenever the document layout changes incompatibly.
SCHEMA = "repro-bench/v2"

#: Scenario families and their output file names.
BENCH_FILES = {
    "progressive": "BENCH_progressive.json",
    "service": "BENCH_service.json",
}

_COUNTER_KEYS = (
    "retrievals",
    "bytes_fetched",
    "cache_hits",
    "deliveries",
    "retries",
    "skipped_keys",
)


def _fresh_run_state() -> None:
    """Reset cross-run caches so every run counts the same work."""
    from repro.obs import LEDGER
    from repro.wavelets.query_transform import clear_cache

    clear_cache()
    LEDGER.reset()


def _account_result(accounts, extra_counters=None) -> dict:
    """Fold one or more CostAccounts into a scenario-result dict."""
    stages: dict[str, dict] = {}
    counters = dict.fromkeys(_COUNTER_KEYS, 0)
    for account in accounts:
        snap = account.to_dict()
        for name, cell in snap["stages"].items():
            stages.setdefault(name, {"calls": 0})["calls"] += cell["calls"]
        for key in _COUNTER_KEYS:
            counters[key] += snap["counters"][key]
    if extra_counters:
        counters.update(extra_counters)
    return {"counters": counters, "stages": stages}


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------


def run_progressive_scenarios(seed: int = 0) -> dict:
    """Single-batch progressive evaluation (the Figure-1 surfaces)."""
    from repro.core.batch import BatchBiggestB
    from repro.data.synthetic import uniform_dataset
    from repro.queries.workload import partition_count_batch
    from repro.storage.wavelet_store import WaveletStorage

    import numpy as np

    relation = uniform_dataset((32, 32), 4000, seed=seed)
    storage = WaveletStorage.build(relation.frequency_distribution())
    batch = partition_count_batch(
        relation.shape, (3, 3), rng=np.random.default_rng(seed + 1)
    )
    scenarios: dict[str, dict] = {}

    # Exact evaluation: one vectorized fetch of the whole master list.
    evaluator = BatchBiggestB(storage, batch)
    evaluator.run()
    scenarios["exact"] = _account_result(
        [evaluator.costs],
        extra_counters={
            "master_keys": evaluator.master_list_size,
            "unshared_retrievals": evaluator.unshared_retrievals,
        },
    )

    # The faithful Figure-1 loop, chunked reads (readahead=16).
    evaluator = BatchBiggestB(storage, batch)
    steps = 0
    for _ in evaluator.steps(readahead=16):
        steps += 1
    scenarios["steps"] = _account_result(
        [evaluator.costs], extra_counters={"steps": steps}
    )

    # --- chunked vs scalar shared-schedule serving --------------------
    # One progressive session driven through the service scheduler on a
    # larger workload, once with the vectorized chunked engine and once
    # with the per-key scalar loop (``chunk_size=1``).  Counters are
    # identical by the engine's bit-equality contract — only the number
    # of store gathers may differ, and :func:`vectorized_gate` requires
    # the chunked engine to make fewer.
    from repro.service.server import ProgressiveQueryService

    big_relation = uniform_dataset((64, 64), 16000, seed=seed + 2)
    big_storage = WaveletStorage.build(big_relation.frequency_distribution())
    big_batch = partition_count_batch(
        big_relation.shape, (4, 4), rng=np.random.default_rng(seed + 3)
    )
    big_storage.rewrite_batch(big_batch)  # same memo state for both runs
    for name, chunk in (("advance_vectorized", 64), ("advance_scalar", 1)):
        service = ProgressiveQueryService(big_storage, chunk_size=chunk)
        session_id = service.submit(big_batch)
        while service.advance(session_id, 128):
            pass
        session = service._session(session_id)[0]
        scenarios[name] = _account_result(
            [session.costs],
            extra_counters={
                "master_keys": session.plan.num_keys,
                "chunk": chunk,
            },
        )
    return scenarios


def run_service_scenarios(seed: int = 0) -> dict:
    """Concurrent service sharing plus resilient degraded mode.

    Clients are driven *sequentially* (submit all, then exhaust one at a
    time): the sharing and degradation counters are then pure functions
    of the seeds, which is what lets the gate compare them exactly.
    """
    from repro.data.synthetic import uniform_dataset
    from repro.queries.workload import partition_count_batch
    from repro.service.server import ProgressiveQueryService
    from repro.storage.faults import chaos_stack
    from repro.storage.wavelet_store import WaveletStorage

    import numpy as np

    relation = uniform_dataset((32, 32), 4000, seed=seed)
    storage = WaveletStorage.build(relation.frequency_distribution())
    scenarios: dict[str, dict] = {}

    # --- cross-batch I/O sharing ------------------------------------
    service = ProgressiveQueryService(storage)
    batches = [
        partition_count_batch(
            relation.shape, (3, 3), rng=np.random.default_rng(seed + 10 + i)
        )
        for i in range(3)
    ]
    # The first two clients run concurrently-registered (their overlap
    # is shared deliveries); the third submits *after* they finish, so
    # its overlapping keys are served from the coefficient cache.
    session_ids = [service.submit(batch) for batch in batches[:2]]
    for session_id in session_ids:
        service.run_to_completion(session_id)
    session_ids.append(service.submit(batches[2]))
    service.run_to_completion(session_ids[-1])
    metrics = service.metrics()
    accounts = [
        service._session(session_id).session.costs for session_id in session_ids
    ]
    scenarios["sharing"] = _account_result(
        accounts,
        extra_counters={
            "store_retrievals": metrics.retrievals,
            "shared_deliveries": metrics.shared_deliveries,
        },
    )

    # --- sharded cluster: one schedule over 2 stateless shards --------
    # The same two overlapping batches through an inline 2-shard cluster
    # (hash partitioner, shared paged file).  Counters are deterministic:
    # the router runs the single-process scheduler over a scatter-gather
    # store, so retrievals/deliveries are pure functions of the seeds.
    # Supervision is attached and ticked between sessions: on healthy
    # shards a tick fetches nothing and delivers nothing, so the counters
    # must stay exactly at the unsupervised baseline (the bench gates
    # ISSUE 9's "no-fault supervision is free" claim).
    import tempfile
    from pathlib import Path as _Path

    from repro.cluster import build_cluster

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        router = build_cluster(
            storage,
            _Path(tmp) / "bench.pages",
            2,
            process_shards=False,
            buffer_pages=32,
            supervise=True,
        )
        try:
            cluster_batches = [
                partition_count_batch(
                    relation.shape, (3, 3),
                    rng=np.random.default_rng(seed + 10 + i),
                )
                for i in range(2)
            ]
            cluster_ids = [router.submit(batch) for batch in cluster_batches]
            for session_id in cluster_ids:
                router.run_to_completion(session_id)
                router.supervisor.tick()
            cluster_metrics = router.metrics()
            accounts = [
                router._session(session_id).session.costs
                for session_id in cluster_ids
            ]
            scenarios["cluster_sharing"] = _account_result(
                accounts,
                extra_counters={
                    "shard_retrievals": cluster_metrics.retrievals,
                    "shard_deliveries": cluster_metrics.deliveries,
                    "shards": cluster_metrics.num_shards,
                },
            )
        finally:
            router.close()

    # --- degraded-but-bounded mode ----------------------------------
    # Permanently black out a few keys under a zero-delay resilient
    # wrapper: retries and skips are deterministic (single client,
    # sequential advances, seeded injector).  Blackouts are drawn from
    # the batch's *master list* so the session is guaranteed to degrade.
    batch = partition_count_batch(
        relation.shape, (3, 3), rng=np.random.default_rng(seed + 10)
    )
    from repro.core.plan import QueryPlan

    master_keys = QueryPlan.from_batch(storage, batch).keys
    blackout = np.random.default_rng(seed + 99).choice(
        master_keys, size=5, replace=False
    )
    resilient = chaos_stack(
        storage.store,
        {"seed": seed + 100, "transient_rate": 0.2,
         "blackout_keys": blackout, "max_attempts": 3},
    )
    chaos_service = ProgressiveQueryService(storage.with_store(resilient))
    session_id = chaos_service.submit(batch)
    while not chaos_service.poll(session_id).is_exact:
        if chaos_service.advance(session_id, 64) == 0:
            break
    snapshot = chaos_service.poll(session_id)
    account = chaos_service._session(session_id).session.costs
    scenarios["degraded"] = _account_result(
        [account],
        extra_counters={"session_skipped": snapshot.skipped_count},
    )
    return scenarios


_FAMILIES = {
    "progressive": run_progressive_scenarios,
    "service": run_service_scenarios,
}


def run_family(family: str, seed: int = 0) -> dict:
    """Run one scenario family; returns its schema-versioned document."""
    from repro.obs import set_enabled

    runner = _FAMILIES[family]
    previous = set_enabled(True)
    try:
        _fresh_run_state()
        scenarios = runner(seed=seed)
    finally:
        set_enabled(previous)
        _fresh_run_state()
    return {
        "schema": SCHEMA,
        "family": family,
        "seed": int(seed),
        "scenarios": scenarios,
    }


def run_all(seed: int = 0) -> dict[str, dict]:
    """Every family's document, keyed by family name."""
    return {family: run_family(family, seed=seed) for family in _FAMILIES}


# ----------------------------------------------------------------------
# Validation, persistence, and the regression gate
# ----------------------------------------------------------------------


def validate(doc: dict) -> list[str]:
    """Schema-check one bench document; returns human-readable problems."""
    problems: list[str] = []
    if doc.get("schema") != SCHEMA:
        problems.append(
            f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}"
        )
        return problems
    if doc.get("family") not in _FAMILIES:
        problems.append(f"unknown family {doc.get('family')!r}")
    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, dict) or not scenarios:
        problems.append("scenarios must be a non-empty object")
        return problems
    for name, result in scenarios.items():
        where = f"scenario {name!r}"
        counters = result.get("counters")
        if not isinstance(counters, dict):
            problems.append(f"{where}: missing counters")
            continue
        for key, value in counters.items():
            if not isinstance(value, int) or value < 0:
                problems.append(
                    f"{where}: counter {key}={value!r} must be a "
                    "non-negative int"
                )
        stages = result.get("stages")
        if not isinstance(stages, dict):
            problems.append(f"{where}: missing stages")
            continue
        for stage, cell in stages.items():
            if not isinstance(cell.get("calls"), int) or cell["calls"] <= 0:
                problems.append(f"{where}: malformed stage {stage!r}: {cell}")
    return problems


def write_bench(out_dir, documents: dict[str, dict]) -> list[Path]:
    """Write each family document to ``out_dir``; returns the paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for family, doc in documents.items():
        path = out_dir / BENCH_FILES[family]
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        paths.append(path)
    return paths


def load_baseline(baseline_dir, family: str) -> dict | None:
    path = Path(baseline_dir) / BENCH_FILES[family]
    if not path.exists():
        return None
    return json.loads(path.read_text())


def compare(current: dict, baseline: dict) -> list[str]:
    """The regression gate; returns the violations (empty = pass).

    Every baseline scenario must be present and its counters must match
    exactly (they are deterministic in the seeds).
    """
    problems: list[str] = []
    if current.get("schema") != baseline.get("schema"):
        return [
            f"schema drift: current {current.get('schema')!r} vs "
            f"baseline {baseline.get('schema')!r} (re-baseline required)"
        ]
    for name, base in baseline.get("scenarios", {}).items():
        mine = current.get("scenarios", {}).get(name)
        if mine is None:
            problems.append(f"scenario {name!r} missing from current run")
            continue
        for key, expected in base["counters"].items():
            got = mine["counters"].get(key)
            if got != expected:
                problems.append(
                    f"scenario {name!r}: counter {key} drifted "
                    f"{expected} -> {got} (counters are deterministic; "
                    "an intentional change needs new baselines)"
                )
    return problems


def vectorized_gate(doc: dict) -> list[str]:
    """The chunked-engine gate on a ``progressive`` document.

    The ``advance_vectorized`` and ``advance_scalar`` scenarios must
    agree on every resource counter (the engine may change *when* work
    happens, never *how much*), and the vectorized engine must reach the
    store in fewer ``fetch`` calls — the gathers that are its point.
    """
    scenarios = doc.get("scenarios", {})
    scalar = scenarios.get("advance_scalar")
    vector = scenarios.get("advance_vectorized")
    if not scalar or not vector:
        return [
            "vectorized gate: advance_scalar/advance_vectorized scenarios "
            "missing from the progressive document"
        ]
    problems: list[str] = []
    for key, expected in scalar["counters"].items():
        if key == "chunk":
            continue
        got = vector["counters"].get(key)
        if got != expected:
            problems.append(
                f"vectorized gate: counter {key} differs between engines "
                f"(scalar {expected} vs vectorized {got}; the chunked "
                "engine must be bit-equal)"
            )
    scalar_fetches = scalar["stages"].get("fetch", {}).get("calls", 0)
    vector_fetches = vector["stages"].get("fetch", {}).get("calls", 0)
    if vector_fetches >= scalar_fetches:
        problems.append(
            f"vectorized gate: chunked engine made {vector_fetches} fetch "
            f"calls, not fewer than the scalar engine's {scalar_fetches}"
        )
    return problems
