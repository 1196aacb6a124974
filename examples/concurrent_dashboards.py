"""Concurrent dashboards sharing one progressive query service.

N dashboard threads each watch their own partition of the same domain —
think several analysts drilling into the same cube at once.  Every
dashboard submits its batch to one :class:`ProgressiveQueryService` and
advances in small chunks (rendering progressively, like Section 4's user
stories), while the shared retrieval scheduler merges all the schedules:
a wavelet coefficient needed by several dashboards is fetched from the
paged disk store once and delivered to all of them.

The example reports the scheduler's counts against the independent-evaluation
baseline (sum of per-batch master lists) — the cross-batch generalization
of the paper's Observation 1 — plus the paged store's buffer-pool
behaviour.

Run:  python examples/concurrent_dashboards.py
"""

import tempfile
import threading
from pathlib import Path

import numpy as np

from repro import BatchBiggestB, ProgressiveQueryService, WaveletStorage
from repro.queries.workload import partition_sum_batch


def main() -> None:
    shape = (16, 16, 8, 16)
    n_dashboards = 5
    rng = np.random.default_rng(7)
    delta = rng.poisson(2.0, size=shape).astype(float)
    storage = WaveletStorage.build(delta, wavelet="db2")

    # Each dashboard partitions the whole domain its own way, so their
    # wavelet supports overlap heavily at the coarse scales.
    batches = [
        partition_sum_batch(
            shape, (4, 4, 2), measure_attribute=3,
            rng=np.random.default_rng(100 + i), min_width=2,
        )
        for i in range(n_dashboards)
    ]
    exact = [batch.exact_dense(delta) for batch in batches]

    with tempfile.TemporaryDirectory(prefix="repro-dash-") as tmp:
        paged = storage.paged(
            Path(tmp) / "coefficients.pages", page_size=512, buffer_pages=128
        )
        service = ProgressiveQueryService(paged)
        answers: dict[int, np.ndarray] = {}

        def dashboard(idx: int) -> None:
            session_id = service.submit(batches[idx])
            snapshot = service.poll(session_id)
            while not snapshot.is_exact:
                service.advance(session_id, 32)  # one render tick
                snapshot = service.poll(session_id)
            answers[idx] = snapshot.estimates

        threads = [
            threading.Thread(target=dashboard, args=(i,)) for i in range(n_dashboards)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        counts = service.scheduler.counts()
        retrievals, deliveries = counts["retrievals"], counts["deliveries"]
        independent = sum(
            BatchBiggestB(storage, batch).master_list_size for batch in batches
        )
        print(f"{n_dashboards} dashboards x {batches[0].size} range-sums each")
        print(f"independent retrievals : {independent:>8,}")
        print(f"shared retrievals      : {retrievals:>8,} "
              f"({independent / retrievals:.2f}x saving)")
        print(f"deliveries             : {deliveries:>8,} "
              f"({1 - retrievals / deliveries:.1%} free rides)")
        pages = paged.store.page_counts()
        print(f"page buffer pool       : {pages['hits']:,} hits, "
              f"{pages['misses']:,} misses, {pages['evictions']:,} evictions")

        for i in range(n_dashboards):
            assert np.allclose(answers[i], exact[i], rtol=1e-7, atol=1e-6)
        print("every dashboard converged to the exact answers")
        paged.store.close()


if __name__ == "__main__":
    main()
