"""The concurrent progressive query service layer.

One :class:`~repro.service.server.ProgressiveQueryService` serves many
concurrent clients over a single coefficient store (in-memory or the
paged disk tier in :mod:`repro.storage.paged`); it is the only
definition of the session API, and the cluster router
(:mod:`repro.cluster`) is the same service over shard workers.  A
:class:`~repro.service.scheduler.SharedRetrievalScheduler` merges the
retrieval schedules of every live session into one global importance order
— the cross-batch generalization of the paper's Observation 1 — so
overlapping batches fetch each shared coefficient exactly once.

See ``docs/SERVICE.md`` for the architecture and
``examples/concurrent_dashboards.py`` for a multi-threaded demonstration
of the sharing savings.
"""

from repro.service.scheduler import SharedRetrievalScheduler
from repro.service.server import (
    ProgressiveQueryService,
    ServiceMetrics,
    SessionSnapshot,
)

__all__ = [
    "ProgressiveQueryService",
    "ServiceMetrics",
    "SessionSnapshot",
    "SharedRetrievalScheduler",
]
