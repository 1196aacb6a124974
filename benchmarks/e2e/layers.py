"""The traced pass: where the wall of a workload went, layer by layer.

Nothing in ``src/`` is instrumented for this.  The numbers come from
outside: the client's own call timings, deltas of series the server
already exports on ``/metrics.json`` (scraped before and after the
workload, never inside a timed call), the per-session cost ledgers on
``/sessions/<id>/costs``, and timed calls into each layer's public
functions (*probes*) on the workload's own first batch.

Layer names are module names.  Every ``*_s`` layer metric is a total over
the measured window, so the rows of the budget add up to ``budget.wall_s``
with ``budget.unattributed_s`` closing the sum.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.cluster.client import ClusterClient
from repro.cluster.codec import decode_batch, encode_batch, snapshot_to_json
from repro.cluster.worker import spawn_shard
from repro.core.penalties import SsePenalty
from repro.core.plan import QueryPlan
from repro.queries.vector_query import QueryBatch
from repro.service.server import ProgressiveQueryService, SessionSnapshot
from repro.storage.paged import PagedCoefficientStore, write_paged_file
from repro.storage.wavelet_store import WaveletStorage

from drive import Ops, UnitResult
from workloads import Scale, Workload

#: ``/metrics.json`` serves shard series from a cache this old at most
#: (``repro.cluster.http._SCRAPE_MAX_AGE``); waiting it out on an idle
#: server makes the next scrape read every shard afresh.
SCRAPE_SETTLE_S = 1.05

SESSION_ROUTES = (
    "POST /sessions",
    "GET /sessions/{id}",
    "POST /sessions/{id}/advance",
    "POST /sessions/{id}/penalty",
    "DELETE /sessions/{id}",
)
ADVANCE_ROUTE = "POST /sessions/{id}/advance"

#: The rows of the budget, in request order; ``budget.unattributed_s`` is
#: the wall they leave over.
BUDGET_ROWS = (
    "cluster.client.self_s",
    "cluster.http.self_s",
    "cluster.router.self_s",
    "core.session.apply_s",
    "cluster.worker.pipe_self_s",
    "service.scheduler.schedule_s",
    "storage.paged.fetch_s",
    "wavelets.rewrite_s",
    "core.plan.build_s",
)


class Scrape:
    """One ``/metrics.json`` body, summable by series name and labels."""

    def __init__(self, client: ClusterClient) -> None:
        self.families = client.metrics()

    def total(self, name: str, field: str = "value", **labels: str) -> float:
        """Sum ``field`` (``value``; ``sum``/``count`` of a histogram) over
        the samples of ``name`` whose labels include ``labels``."""
        family = self.families.get(name)
        if family is None:
            return 0.0
        return float(sum(
            sample[field]
            for sample in family["samples"]
            if all(sample["labels"].get(k) == v for k, v in labels.items())
        ))


class Delta:
    """What the server's series gained between two scrapes."""

    def __init__(self, before: Scrape, after: Scrape) -> None:
        self.before, self.after = before, after

    def __call__(self, name: str, field: str = "value", **labels: str) -> float:
        return self.after.total(name, field, **labels) - self.before.total(
            name, field, **labels
        )

    def routes(self, name: str, field: str) -> float:
        """The gain summed over the session routes."""
        return sum(self(name, field, route=route) for route in SESSION_ROUTES)


def response_bytes(delta: Delta) -> float:
    """Response bytes the edge wrote on the session routes."""
    return delta.routes("repro_edge_response_bytes", "sum")


def _stage(sessions, stage: str) -> float:
    return sum(
        s.costs["stages"].get(stage, {}).get("wall_s", 0.0)
        for s in sessions if s.costs
    )


def layer_metrics(
    units: list[UnitResult], delta: Delta, ops: Ops, probes: dict[str, float]
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced workload, name -> (value, unit)."""
    sessions = [s for unit in units for s in unit.sessions if s.done]
    wall = sum(unit.wall_s for unit in units)
    advances = [seconds for s in sessions for seconds in s.advance_s]
    client_advance = sum(advances)
    retrievals = sum(s.gained for s in sessions)

    edge_advance = delta("repro_edge_request_seconds", "sum", route=ADVANCE_ROUTE)
    router_advance = delta("repro_cluster_advance_seconds", "sum")
    pipe_rtt = delta("repro_cluster_pipe_roundtrip_seconds", "sum")
    shard_calls = delta("repro_cluster_pipe_roundtrip_seconds", "count")
    schedule, fetch = _stage(sessions, "schedule"), _stage(sessions, "fetch")
    apply_s = _stage(sessions, "apply")
    hits = delta("repro_paged_page_hits_total")
    misses = delta("repro_paged_page_misses_total")
    deliveries = delta("repro_scheduler_deliveries_total")
    fetched = delta("repro_scheduler_retrievals_total")
    set_penalty = [s.set_penalty_s for s in sessions if s.set_penalty_s is not None]

    m: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        m[name] = (float(value), unit)

    def median(attr: str) -> float:
        return statistics.median(getattr(s, attr) for s in sessions)

    # Times to a bound are windows of a few seconds: too short to be steady
    # on a noisy box, so they are reported here and carry no bound.
    put("cluster.client.first_answer_s", median("first_answer_s"), "s")
    put("cluster.client.bound_1pct_s", median("bound_1pct_s"), "s")
    put("cluster.client.bound_0.1pct_s", median("bound_tenth_pct_s"), "s")
    put("cluster.client.sessions_per_s", len(sessions) / wall, "1/s")
    # The request path, outermost layer first: each self time is what the
    # layer's own clock saw minus what the layer below it saw.
    put("cluster.client.self_s", client_advance - edge_advance, "s")
    put("cluster.client.calls", sum(1 for s in ops.spans if s[0] != "session"), "count")
    p95, p99 = np.percentile(advances, [95, 99])
    put("cluster.client.advance_p95_ms", p95 * 1e3, "ms")
    put("cluster.client.advance_p99_ms", p99 * 1e3, "ms")
    put("cluster.client.advance_max_ms", max(advances) * 1e3, "ms")
    put("cluster.http.self_s", edge_advance - router_advance, "s")
    put("cluster.http.request_s", delta.routes("repro_edge_request_seconds", "sum"), "s")
    put("cluster.http.requests", delta.routes("repro_edge_request_seconds", "count"), "count")
    put("cluster.http.shed", delta("repro_edge_shed_total"), "count")
    put("cluster.router.self_s", router_advance - pipe_rtt - apply_s, "s")
    put("cluster.router.advance_s", router_advance, "s")
    put("cluster.router.shard_calls", shard_calls, "count")
    put("cluster.router.keys_per_shard_call", fetched / shard_calls if shard_calls else 0.0, "count")
    put("core.session.apply_s", apply_s, "s")
    put("core.session.poll_ms", median("poll_s") * 1e3, "ms")
    put("cluster.worker.pipe_self_s", pipe_rtt - schedule, "s")
    put("cluster.worker.pipe_rtt_s", pipe_rtt, "s")
    put("service.scheduler.schedule_s", schedule - fetch, "s")
    put("service.scheduler.stale_pops", delta("repro_scheduler_stale_pops_total"), "count")
    put(
        "service.scheduler.shared_delivery_ratio",
        (deliveries - fetched) / deliveries if deliveries else 0.0, "ratio",
    )
    put("service.scheduler.cache_deliveries", delta("repro_scheduler_cache_deliveries_total"), "count")
    put("storage.paged.fetch_s", fetch, "s")
    put("storage.paged.hit_ratio", hits / (hits + misses) if hits + misses else 0.0, "ratio")
    put("storage.paged.misses", misses, "count")
    put("storage.paged.evictions", delta("repro_paged_page_evictions_total"), "count")
    # The submit path.
    put("wavelets.rewrite_s", _stage(sessions, "rewrite"), "s")
    put("core.plan.build_s", _stage(sessions, "plan"), "s")
    put("core.plan.master_keys", sessions[0].master_keys, "count")
    put(
        "core.penalties.set_penalty_ms",
        statistics.median(set_penalty) * 1e3 if set_penalty else 0.0, "ms",
    )

    attributed = sum(m[row][0] for row in BUDGET_ROWS)
    put("budget.wall_s", wall, "s")
    put("budget.unattributed_s", wall - attributed, "s")
    for row in BUDGET_ROWS:
        put("budget.share." + row[: -len("_s")], m[row][0] / wall, "ratio")
    put("budget.unattributed_share", (wall - attributed) / wall, "ratio")

    # What the tracing itself cost: ledger reads between sessions, as a
    # share of the wall they were kept out of.  The traced throughput is
    # there to compare with the untraced pass's ``coeffs_per_s``.
    put("trace.overhead_share", ops.trace_pause_s / (wall + ops.trace_pause_s), "ratio")
    put("trace.coeffs_per_s", retrievals / client_advance if client_advance else 0.0, "1/s")

    for name, value in probes.items():
        m[name] = (float(value), PROBE_UNITS[name])
    put(
        "core.plan.entries_per_key",
        probes["core.plan.entries"] / sessions[0].master_keys, "count",
    )
    return m


# -- probes ---------------------------------------------------------------

PROBE_UNITS = {
    "storage.wavelet_store.transform_s": "s",
    "storage.wavelet_store.write_paged_s": "s",
    "wavelets.rewrite_probe_cold_s": "s",
    "wavelets.rewrite_probe_warm_s": "s",
    "core.plan.entries": "count",
    "core.plan.probe_build_ms": "ms",
    "core.penalties.importance_ms": "ms",
    "storage.paged.probe_small_pool_us_per_key": "us",
    "storage.paged.probe_large_pool_us_per_key": "us",
    "cluster.worker.ping_p50_us": "us",
    "cluster.codec.encode_batch_ms": "ms",
    "cluster.codec.decode_batch_ms": "ms",
    "cluster.codec.snapshot_json_ms": "ms",
    "cluster.codec.snapshot_bytes": "B",
    "obs.enabled_overhead_share": "ratio",
}

#: Queries of the first batch the plan/fetch/telemetry probes run on: the
#: full db2 plan is ~12 s and 2 GiB to build, a 32-query slice of it has
#: the same entries-per-key and fits a probe.
PROBE_QUERIES = 32
PINGS = 1000
OBS_PROBE_QUERIES = 8
OBS_PROBE_STEPS = 2048


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def _median_ms(fn, *args, repeats: int = 5) -> float:
    return statistics.median(_timed(fn, *args)[1] for _ in range(repeats)) * 1e3


def run_probes(
    workload: Workload, scale: Scale, delta: np.ndarray, batch: QueryBatch,
    exact: np.ndarray, workdir: Path,
) -> dict[str, float]:
    """Time each layer's public entry points, in this process, on ``batch``
    (the workload's first).  Runs after the server is gone, so nothing
    competes for the two cores."""
    p: dict[str, float] = {}
    storage, p["storage.wavelet_store.transform_s"] = _timed(
        lambda: WaveletStorage.build(delta, wavelet=workload.wavelet)
    )
    path = workdir / "probe.pages"
    _, p["storage.wavelet_store.write_paged_s"] = _timed(
        write_paged_file, path, storage.store.as_dense(), scale.page_size
    )

    rewrites, p["wavelets.rewrite_probe_cold_s"] = _timed(storage.rewrite_batch, batch)
    _, p["wavelets.rewrite_probe_warm_s"] = _timed(storage.rewrite_batch, batch)
    p["core.plan.entries"] = sum(int(np.asarray(r.indices).size) for r in rewrites)

    head = rewrites[:PROBE_QUERIES]
    plan, seconds = _timed(QueryPlan.from_rewrites, head)
    p["core.plan.probe_build_ms"] = seconds * 1e3
    del rewrites
    penalty = SsePenalty()
    p["core.penalties.importance_ms"] = _median_ms(plan.importance, penalty)

    keys = plan.keys[plan.order(penalty)]
    for label, pages in (("small", scale.pool_small), ("large", scale.pool_large)):
        with PagedCoefficientStore(path, buffer_pages=pages, shared=True) as store:
            _, seconds = _timed(
                lambda: [store.fetch(keys[i : i + 64]) for i in range(0, keys.size, 64)]
            )
        p[f"storage.paged.probe_{label}_pool_us_per_key"] = seconds / keys.size * 1e6

    shard = spawn_shard(path, 0, buffer_pages=scale.pool_small)
    try:
        shard.call("ping")
        pings = [_timed(shard.call, "ping")[1] for _ in range(PINGS)]
    finally:
        shard.close()
    p["cluster.worker.ping_p50_us"] = statistics.median(pings) * 1e6

    wire = encode_batch(batch)
    p["cluster.codec.encode_batch_ms"] = _median_ms(encode_batch, batch)
    p["cluster.codec.decode_batch_ms"] = _median_ms(decode_batch, wire)
    snapshot = SessionSnapshot("s0", exact, 0, int(plan.num_keys), 1.0, False)
    p["cluster.codec.snapshot_json_ms"] = _median_ms(
        lambda: json.dumps(snapshot_to_json(snapshot))
    )
    p["cluster.codec.snapshot_bytes"] = len(json.dumps(snapshot_to_json(snapshot)))

    p["obs.enabled_overhead_share"] = _obs_overhead(storage, QueryBatch(batch.queries[:OBS_PROBE_QUERIES]))
    return p


def _obs_overhead(storage, batch: QueryBatch, repeats: int = 3) -> float:
    """Share of an in-process service run that ``repro.obs`` costs while
    enabled: the same submit + advance with telemetry on and off, best of
    ``repeats`` each (the box's noise only ever adds time)."""

    def once() -> float:
        service = ProgressiveQueryService(storage)
        t0 = time.perf_counter()
        sid = service.submit(batch)
        service.advance(sid, OBS_PROBE_STEPS)
        seconds = time.perf_counter() - t0
        service.cancel(sid)
        return seconds

    was = obs.enabled()
    on, off = [], []
    try:
        once()  # memo and import warm-up, counted on neither side
        for _ in range(repeats):
            obs.set_enabled(True)
            on.append(once())
            obs.set_enabled(False)
            off.append(once())
    finally:
        obs.set_enabled(was)
    return (min(on) - min(off)) / min(on)


# -- the span file --------------------------------------------------------


def write_chrome_trace(path: Path, workload: str, spans, origin: float) -> None:
    """Flush the in-memory spans as Chrome ``chrome://tracing`` JSON: one
    lane (tid) per session, a ``session`` span parenting its client calls."""
    events = [
        {
            "name": name, "ph": "X", "pid": 1, "tid": lane,
            "ts": (start - origin) * 1e6, "dur": seconds * 1e6,
            "cat": workload,
            "args": {"session": lane, "parent": None if name == "session" else "session"},
        }
        for name, lane, start, seconds in spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
