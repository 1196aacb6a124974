"""``repro.cluster`` — the sharded multi-process progressive service.

The single-process :class:`~repro.service.server.ProgressiveQueryService`
scales until one process's schedule loop saturates; this package shards
the coefficient key space across worker processes behind a threaded HTTP
edge while keeping the paper's contract intact — an N-shard cluster
serves answers and Theorem-1 bounds *bit-identical* to the 1-process
service at every poll point (gated by ``tests/test_cluster.py``).

Layers, bottom up:

* :mod:`repro.cluster.partition` — deterministic key -> shard placement
  (Fibonacci-hash scatter or contiguous level ranges);
* :mod:`repro.cluster.worker` — a stateless shard: a remote
  ``fetch(keys)`` (in-process or spawned, pipe protocol, shared-mmap
  store slices);
* :mod:`repro.cluster.store` — ``ShardedStore``, the scatter-gather
  ``fetch`` the scheduler sees as its store;
* :mod:`repro.cluster.router` — authoritative sessions, the one shared
  scheduler over that store, shard-outage shedding and healing;
* :mod:`repro.cluster.http` / :mod:`~repro.cluster.client` — the JSON
  edge with bounded admission (429 + Retry-After) and its client;
* :func:`build_cluster` — one call from a storage strategy to a running
  router.

``repro serve --shards N`` wires the whole stack up from the command
line; see ``docs/CLUSTER.md`` for the tour.
"""

from __future__ import annotations

from repro.cluster.client import ClusterApiError, ClusterBusyError, ClusterClient
from repro.cluster.codec import (
    CodecError,
    decode_batch,
    decode_penalty,
    encode_batch,
    encode_query,
    snapshot_to_json,
)
from repro.cluster.http import ClusterHttpServer
from repro.cluster.partition import (
    HashPartitioner,
    LevelRangePartitioner,
    Partitioner,
    make_partitioner,
)
from repro.cluster.router import ClusterMetrics, ClusterRouter
from repro.cluster.store import ShardedStore
from repro.cluster.supervise import (
    SHARD_STATE_VALUES,
    RestartPolicy,
    ShardSupervisor,
)
from repro.cluster.worker import (
    InlineShard,
    ProcessShard,
    ShardLostError,
    ShardWorker,
    inline_shard,
    spawn_shard,
)

__all__ = [
    "ClusterApiError",
    "ClusterBusyError",
    "ClusterClient",
    "ClusterHttpServer",
    "ClusterMetrics",
    "ClusterRouter",
    "CodecError",
    "HashPartitioner",
    "InlineShard",
    "LevelRangePartitioner",
    "Partitioner",
    "ProcessShard",
    "RestartPolicy",
    "SHARD_STATE_VALUES",
    "ShardLostError",
    "ShardSupervisor",
    "ShardWorker",
    "ShardedStore",
    "build_cluster",
    "decode_batch",
    "decode_penalty",
    "encode_batch",
    "encode_query",
    "inline_shard",
    "make_partitioner",
    "snapshot_to_json",
    "spawn_shard",
]


def build_cluster(
    storage,
    path,
    num_shards: int,
    partitioner: str = "hash",
    page_size: int = 1024,
    buffer_pages: int = 64,
    process_shards: bool = True,
    chaos: dict | None = None,
    chaos_shard: int | None = None,
    registry=None,
    chunk_size: int | None = None,
    trace: bool = False,
    supervise: bool = False,
    restart_policy: RestartPolicy | None = None,
) -> ClusterRouter:
    """Serialize ``storage`` to a paged file and stand up an N-shard router.

    ``storage`` is any :class:`~repro.storage.base.LinearStorage` (its
    store must fit in memory once for serialization); the coefficients
    land in one paged file at ``path`` which every shard worker and the
    router map with ``shared=True`` — one OS page cache serves the whole
    cluster.  ``process_shards=False`` runs the workers in-process
    (tests, benchmarks, and environments that cannot spawn).  ``chaos``
    forwards a fault spec to :func:`~repro.cluster.worker.build_shard_store`
    on every shard, or on ``chaos_shard`` alone.  ``trace`` turns span
    recording on inside process workers so ``pull_telemetry`` can merge
    their spans into one cluster-wide Chrome trace (inline shards follow
    the process-wide tracing switch instead).

    ``supervise=True`` attaches a
    :class:`~repro.cluster.supervise.ShardSupervisor` that respawns a
    dead worker from the same spec the original was started with — the
    shard becomes ``recovering`` instead of permanently shed, and on
    respawn the router re-drives the skipped keys so answers heal back
    to bit-exact (``restart_policy`` tunes the backoff and flap cap).

    The returned router owns the shards and its store slice: ``close()``
    (or the context manager) tears the whole cluster down.
    """
    from repro.storage.paged import PagedCoefficientStore, write_paged_file

    write_paged_file(path, storage.store.as_dense(), page_size=page_size)
    router_store = PagedCoefficientStore(
        path, buffer_pages=buffer_pages, shared=True
    )

    def factory(index: int):
        """Start shard ``index`` (at build time and on every respawn)."""
        shard_chaos = chaos if chaos_shard in (None, index) else None
        if not process_shards:
            return inline_shard(
                path, index, buffer_pages=buffer_pages, chaos=shard_chaos
            )
        return spawn_shard(
            path, index, buffer_pages=buffer_pages, chaos=shard_chaos, trace=trace
        )

    shards = []
    try:
        for index in range(num_shards):
            shards.append(factory(index))
    except BaseException:
        for shard in shards:
            shard.close()
        raise
    router = ClusterRouter(
        storage.with_store(router_store),
        shards,
        make_partitioner(partitioner, num_shards, router_store.key_space_size),
        registry=registry,
        chunk_size=chunk_size,
    )
    if supervise:
        router.attach_supervisor(
            ShardSupervisor(router, factory, policy=restart_policy)
        )
    return router
