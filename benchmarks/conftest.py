"""Shared fixtures for the benchmark harness.

The experiment substrate mirrors Section 6 of the paper at laptop scale:

* the paper: 15.7M temperature observations; 5 attributes (latitude,
  longitude, altitude, time, temperature); 512 randomly sized ranges
  partitioning the whole domain; SUM(temperature) per range; Db4 (4-tap)
  wavelets.
* here: a synthetic temperature relation (see DESIGN.md for the
  substitution argument) on a ``16 x 32 x 8 x 16 x 16`` domain with 500k
  records, the same 512-cell partition workload, and the same 4-tap filter
  (named ``db2`` in this codebase).

Every bench prints the table/series the corresponding paper artifact
reports; ``EXPERIMENTS.md`` records the paper-vs-measured comparison.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.batch import BatchBiggestB
from repro.core.penalties import SsePenalty
from repro.data.synthetic import temperature_dataset
from repro.obs import REGISTRY, get_recorder
from repro.queries.workload import partition_sum_batch
from repro.storage.wavelet_store import WaveletStorage
from repro.wavelets.query_transform import clear_cache

#: Paper-scale-in-miniature experiment parameters.
SHAPE = (16, 32, 8, 16, 16)
N_RECORDS = 500_000
CELLS_PER_DIM = (8, 8, 2, 4)  # 512 cells over (lat, lon, alt, time)
MEASURE = 4  # temperature
WAVELET = "db2"  # 4 taps == the paper's "Db4"
SEED_DATA = 11
SEED_PARTITION = 9


@dataclass
class Section6Setup:
    """Everything the Section 6 benches share."""

    relation: object
    delta: np.ndarray
    storage: WaveletStorage
    batch: object
    exact: np.ndarray
    evaluator: BatchBiggestB  # SSE-ordered Batch-Biggest-B, plan prebuilt


@pytest.fixture(scope="session")
def section6() -> Section6Setup:
    relation = temperature_dataset(shape=SHAPE, n_records=N_RECORDS, seed=SEED_DATA)
    delta = relation.frequency_distribution()
    storage = WaveletStorage.build(delta, wavelet=WAVELET)
    # min_width=2 keeps the randomly-sized cells non-degenerate: the
    # paper's ranges partition continuous dimensions (latitude etc.), so
    # they never collapse to single quantization bins with near-empty sums.
    batch = partition_sum_batch(
        SHAPE,
        CELLS_PER_DIM,
        measure_attribute=MEASURE,
        rng=np.random.default_rng(SEED_PARTITION),
        min_width=2,
    )
    exact = batch.exact_dense(delta)
    evaluator = BatchBiggestB(storage, batch, penalty=SsePenalty())
    return Section6Setup(
        relation=relation,
        delta=delta,
        storage=storage,
        batch=batch,
        exact=exact,
        evaluator=evaluator,
    )


@pytest.fixture(autouse=True)
def fresh_rewrite_caches():
    """Drop every rewrite-path memo (dense oracle and sparse cascade) and
    zero the telemetry state (metric samples, trace ring) before each
    trial, so no bench inherits another's warm caches or counters and
    timings stay comparable across runs.

    This also covers shard-federated state left by cluster scenarios
    (``cluster_sharing`` and friends): ``REGISTRY.reset()`` drops the
    router's shard-labeled series (``repro_cluster_shard_up``, the
    pipe-RTT histograms), ``recorder.clear()`` drops absorbed worker
    spans *and* the ``repro-shard-<i>`` process-lane names.  Cost
    accounts and the federated snapshot caches live on each session and
    ``ClusterRouter`` instance and die with them.
    """
    clear_cache()
    REGISTRY.reset()
    get_recorder().clear()
    yield


@pytest.fixture
def report(capsys):
    """Print a results block to the real stdout, bypassing capture."""

    def _report(title: str, lines: list[str]) -> None:
        with capsys.disabled():
            print(f"\n===== {title} =====", file=sys.stdout)
            for line in lines:
                print(line, file=sys.stdout)
            sys.stdout.flush()

    return _report
