"""``repro.obs`` — the unified telemetry subsystem.

One dependency-free layer carries all operational visibility for the
progressive pipeline:

* :mod:`repro.obs.metrics` — a thread-safe metric registry (counters,
  gauges, log-bucket histograms, labels) with Prometheus text and JSON
  exposition; the process-global default is :data:`REGISTRY`, and the
  one HTTP front serving it (``/metrics``, ``/costs.json``) is the
  cluster edge, :mod:`repro.cluster.http`;
* :mod:`repro.obs.trace` — nested wall-clock :func:`span`\\ s recorded
  into a bounded ring, exported as Chrome ``chrome://tracing`` JSON, with
  cross-process collection from pool workers (portable span shipping);
* :mod:`repro.obs.ledger` — the per-query/per-session cost ledger:
  wall/CPU time per pipeline stage plus retrievals, bytes, cache hits,
  retries and skipped keys, attributed to the session that spent them;
* :mod:`repro.obs.convergence` — per-session ``(B, retrievals, bound,
  wall_time)`` event logs, the paper's Figures 5-7 from live telemetry;
* :mod:`repro.obs.profile` — sampling-profiler hooks (thread- or
  signal-based, off by default) emitting collapsed flamegraph stacks;
* :mod:`repro.obs.bench` — the continuous benchmark harness behind
  ``repro bench`` (imported lazily: it pulls in the whole pipeline).

Both collection systems are switchable: :func:`set_enabled` gates
metrics, the cost ledger and convergence events (default on),
:func:`set_tracing` gates spans (default off).  Disabled telemetry costs
one boolean check per call site — enforced by
``tests/test_telemetry_overhead.py``.

See ``docs/OBSERVABILITY.md`` for the full tour.
"""

from repro.obs.convergence import (
    ConvergenceLog,
    ConvergenceRecord,
    ConvergenceTrajectory,
)
from repro.obs.ledger import LEDGER, CostAccount, CostLedger
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    REGISTRY,
    enabled,
    merge_registry_snapshots,
    set_enabled,
    snapshot_to_prometheus,
)
from repro.obs.profile import SamplingProfiler, profile_run
from repro.obs.trace import (
    SpanRecord,
    TraceRecorder,
    absorb_portable,
    current_request_id,
    drain_portable,
    export_portable,
    get_recorder,
    set_tracing,
    span,
    trace_context,
    tracing_enabled,
)

__all__ = [
    "REGISTRY",
    "LEDGER",
    "DEFAULT_TIME_BUCKETS",
    "ConvergenceLog",
    "ConvergenceRecord",
    "ConvergenceTrajectory",
    "CostAccount",
    "CostLedger",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "SamplingProfiler",
    "SpanRecord",
    "TraceRecorder",
    "absorb_portable",
    "current_request_id",
    "drain_portable",
    "enabled",
    "export_portable",
    "get_recorder",
    "merge_registry_snapshots",
    "profile_run",
    "set_enabled",
    "set_tracing",
    "snapshot_to_prometheus",
    "span",
    "tracing_enabled",
    "trace_context",
]
