"""Service-layer sharing: retrievals per coefficient vs. concurrent batches.

Observation 1 shows I/O sharing *within* one batch; the service layer
extends the merge *across* concurrently live batches.  This bench submits
K overlapping partition batches to one :class:`ProgressiveQueryService`,
drains them to exactness, and reports:

* total coefficient retrievals vs. K x the single-batch master list (the
  cost of running each batch in its own evaluator);
* retrievals per distinct coefficient in the union workload (1.0 means
  the scheduler never fetched a key twice);
* the shared-delivery ratio (fraction of coefficient applications that
  were free rides on another session's fetch).

The paper's absolute counts depend on the domain; the reproducible shape
is that total retrievals equal the union-of-master-lists size, strictly
below K x the single-batch count whenever the supports overlap.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch import BatchBiggestB
from repro.queries.workload import partition_count_batch
from repro.service.server import ProgressiveQueryService
from repro.storage.wavelet_store import WaveletStorage

SHAPE = (32, 32, 16)
CELLS = (4, 4, 2)
MAX_CLIENTS = 8
SEED = 3


def _setup():
    rng = np.random.default_rng(SEED)
    delta = rng.poisson(1.5, size=SHAPE).astype(float)
    storage = WaveletStorage.build(delta, wavelet="db2")
    batches = [
        partition_count_batch(SHAPE, CELLS, rng=np.random.default_rng(SEED + 1 + i))
        for i in range(MAX_CLIENTS)
    ]
    return storage, batches


def _drain_all(storage, batches):
    service = ProgressiveQueryService(storage)
    sessions = [service.submit(batch) for batch in batches]
    for session_id in sessions:
        service.run_to_completion(session_id)
    return service


def test_service_sharing_vs_concurrency(report, benchmark):
    storage, batches = _setup()
    evaluators = [BatchBiggestB(storage, batch) for batch in batches]
    single = evaluators[0].master_list_size

    lines = [
        f"{'K':>3} {'shared':>10} {'K x single':>11} {'saving':>8} "
        f"{'per coeff':>10} {'free rides':>11}"
    ]
    for k in (1, 2, 4, 8):
        storage.reset_stats()
        service = _drain_all(storage, batches[:k])
        counts = service.scheduler.counts()
        retrievals, deliveries = counts["retrievals"], counts["deliveries"]
        union = len(set().union(*(e.plan.keys.tolist() for e in evaluators[:k])))
        independent = sum(e.master_list_size for e in evaluators[:k])
        lines.append(
            f"{k:>3} {retrievals:>10,} {k * single:>11,} "
            f"{independent / retrievals:>7.2f}x "
            f"{retrievals / union:>10.2f} "
            f"{1 - retrievals / deliveries:>10.1%}"
        )
        # Every distinct coefficient is fetched exactly once...
        assert retrievals == union
        # ...so K concurrent batches cost strictly less than K independent
        # evaluations whenever supports overlap (K >= 2 here by design).
        if k >= 2:
            assert retrievals < k * single
            assert retrievals < independent
    report("Service-layer cross-batch I/O sharing", lines)

    def drain_four():
        storage.reset_stats()
        return _drain_all(storage, batches[:4])

    service = benchmark.pedantic(drain_four, rounds=3, iterations=1)
    assert service.scheduler.live_sessions == 4


def test_paged_backend_equivalence(report, tmp_path):
    """The paged tier serves the same schedule with the same retrievals."""
    storage, batches = _setup()
    service_mem = _drain_all(storage, batches[:2])
    paged = storage.paged(tmp_path / "coeff.pages", page_size=512, buffer_pages=64)
    service_disk = _drain_all(paged, batches[:2])
    mem, disk = service_mem.scheduler.counts(), service_disk.scheduler.counts()
    assert disk["retrievals"] == mem["retrievals"]
    assert disk["deliveries"] == mem["deliveries"]
    pages = paged.store.page_counts()
    requests = pages["hits"] + pages["misses"]
    report(
        "Paged backend under the shared schedule",
        [
            f"retrievals: {disk['retrievals']:,} (same as in-memory)",
            f"page requests: {requests:,} ({pages['hits'] / requests:.1%} "
            f"buffer hits, {pages['evictions']:,} evictions)",
        ],
    )
    paged.store.close()
