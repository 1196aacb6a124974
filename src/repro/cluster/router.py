"""The cluster router: the service over stateless shards.

:class:`ClusterRouter` *is* the
:class:`~repro.service.server.ProgressiveQueryService` — every session
method (``submit`` / ``advance`` / ``poll`` / ``set_penalty`` /
``retry_skipped`` / ``cancel`` / ...) is inherited, none is defined
here — with the scheduler's store pointed at a
:class:`~repro.cluster.store.ShardedStore`, whose ``fetch(keys)`` splits
each chunk with the deterministic
:class:`~repro.cluster.partition.Partitioner`, sends every shard its
slice before receiving from any, and reassembles the values in request
order — one overlapped round-trip per shard per chunk.  Because the
router runs literally the loop the bit-identical suites use as their
reference, an N-shard cluster is *bit-identical at every poll* to the
1-process service by construction (``tests/test_cluster.py``).  What
this module adds is cluster-specific: shard lifecycle, telemetry
federation, ``status`` / ``healthz`` and ``close``.

Shard outages degrade, never crash: a worker that stops answering is
*shed* — every session's still-pending keys it owns are marked skipped,
which keeps ``worst_case_bound()`` a valid Theorem-1 upper bound
(``docs/RESILIENCE.md``) — and the surviving shards keep serving.
Shards hold no session state, so a supervised shed is not final:
:meth:`ClusterRouter.reintegrate_shard` swaps a respawned worker in and
re-drives the skipped keys, healing back to bit-exact answers.
"""

from __future__ import annotations

import time

import numpy as np

from repro.cluster.codec import encode_session_status
from repro.cluster.partition import Partitioner
from repro.cluster.store import ShardedStore
from repro.cluster.supervise import SHARD_STATE_VALUES
from repro.obs import MetricRegistry, span
from repro.obs.metrics import merge_registry_snapshots, snapshot_to_prometheus
from repro.obs.trace import absorb_portable, get_recorder
from repro.service.server import ProgressiveQueryService
from repro.storage.base import LinearStorage


def _quantile(sorted_values, q: float) -> float | None:
    """Nearest-rank quantile of an ascending list (None when empty)."""
    if not sorted_values:
        return None
    rank = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values))))
    return float(sorted_values[rank])


class ClusterRouter(ProgressiveQueryService):
    """The progressive query service over shard workers.

    Thread-safe like its base: one lock serializes the client surface, so
    the HTTP edge can drive it from a worker thread while tests poke it
    directly.
    """

    FRONT = "cluster"
    SUBMITTED_LABELS = ()

    def __init__(
        self,
        storage: LinearStorage,
        shards,
        partitioner: Partitioner,
        registry: MetricRegistry | None = None,
        chunk_size: int | None = None,
    ) -> None:
        if not shards:
            raise ValueError("a cluster needs at least one shard")
        if partitioner.num_shards != len(shards):
            raise ValueError(
                f"partitioner expects {partitioner.num_shards} shards, "
                f"got {len(shards)}"
            )
        # ``storage`` is the query-rewrite strategy; its store is only
        # read for the Theorem-1 aggregates (all fetching happens in the
        # workers).  ``chunk_size`` caps the keys per gather (1 reproduces
        # the per-key loop literally; None = one gather per advance).
        super().__init__(storage, registry, chunk_size)
        registry = self.registry
        self.partitioner = partitioner
        self._shard_up = registry.gauge(
            "repro_cluster_shard_up",
            "1 while the shard worker answers, 0 once shed",
            ("shard",),
        )
        self._shard_restarts = registry.counter(
            "repro_cluster_shard_restarts_total",
            "Shard worker restart attempts, by outcome "
            "(respawned, failed, gave_up)",
            ("shard", "outcome"),
        )
        self._shard_state = registry.gauge(
            "repro_cluster_shard_state",
            "Shard lifecycle state (0=up, 1=recovering, 2=down)",
            ("shard",),
        )
        #: The store the base's scheduler is re-pointed at (it was built
        #: over the local one); ``_shards``/``_dead`` alias its tables.
        self.store = self.scheduler.store = ShardedStore(
            shards,
            partitioner,
            registry.histogram(
                "repro_cluster_pipe_roundtrip_seconds",
                "Router-to-shard command round-trip latency",
                ("shard",),
            ),
            on_lost=self._shed_shard,
            readahead=registry.counter(
                "repro_cluster_readahead_keys_total",
                "Keys sent to the shards ahead of the next advance, by outcome",
                ("outcome",),
            ),
        )
        self._shards = self.store.shards
        self._dead = self.store.dead
        if len(self._shards) != len(shards):
            raise ValueError("shard indices must be unique")
        #: The attached ShardSupervisor (None = outages shed permanently).
        self.supervisor = None
        #: Recovery epoch: bumped once per successful reintegration.
        self._recovery_epoch = 0
        #: Latest telemetry payload per shard; retained after shard death
        #: so the federated /metrics keeps the dead shard's last series.
        self._telemetry: dict[int, dict] = {}
        for index in self._shards:
            self._publish_state(index)

    # ------------------------------------------------------------------
    # Supervision and recovery
    # ------------------------------------------------------------------

    def attach_supervisor(self, supervisor) -> None:
        """Enable self-healing: shed shards become ``recovering``."""
        with self._lock:
            self.supervisor = supervisor

    def shard_handles(self) -> dict[int, object]:
        """Live shard handles by index (a snapshot; supervision reads it)."""
        with self._lock:
            return {
                index: shard
                for index, shard in self._shards.items()
                if index not in self._dead
            }

    def dead_shards(self) -> tuple[int, ...]:
        with self._lock:
            return tuple(sorted(self._dead))

    def mark_lost(self, index: int, reason: str = "") -> None:
        """Shed a shard the supervisor (or a test) found dead."""
        with self._lock:
            self._shed_shard(index)

    def ping(self, index: int) -> bool:
        """Heartbeat probe; a failed probe sheds the shard."""
        with self._lock:
            return self.store.call(index, "ping") is not None

    def last_reply_age(self, index: int) -> float | None:
        """Seconds since the shard's last reply (None = never)."""
        with self._lock:
            last = self.store.last_reply.get(index)
            return time.monotonic() - last if last is not None else None

    def record_restart(self, index: int, outcome: str) -> None:
        """Count a restart attempt; ``gave_up`` pins the shard ``down``."""
        with self._lock:
            self._shard_restarts.inc(shard=str(index), outcome=outcome)
            self._publish_state(index)

    def shard_state(self, index: int) -> str:
        """The shard's lifecycle state: ``up`` / ``recovering`` / ``down``."""
        with self._lock:
            return self._shard_state_name(index)

    def reintegrate_shard(self, index: int, shard) -> int:
        """Swap a fresh worker in for a shed shard and heal the sessions.

        The recovery commit point (the supervisor calls it once its
        respawn probe succeeded).  A shard holds no session state, so
        there is nothing to replay: the new handle replaces the dead
        one and every session's skipped keys are re-driven through
        :meth:`retry_skipped`.  Served keys are never fetched again, so
        once the heal drains the answers are bit-identical to a
        never-crashed run.  Returns the number of keys re-queued.
        """
        with self._lock, span("cluster.reintegrate", shard=index):
            if index not in self._shards:
                raise KeyError(f"unknown shard {index}")
            if index not in self._dead:
                raise ValueError(f"shard {index} is not down")
            self._shards[index] = shard
            self._dead.discard(index)
            self.store.rtt[index].clear()
            self._shard_restarts.inc(shard=str(index), outcome="respawned")
            self._publish_state(index)
            self._recovery_epoch += 1
            return sum(
                self.retry_skipped(session_id)
                for session_id in sorted(self._sessions)
            )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def cost_report(self, session_id: str) -> dict:
        """The session's bill plus ``shards``, the owners of its master
        keys.  The ledger lives router-side (``fetch`` contains the pipe
        round-trips), so this issues no shard command."""
        with self._lock:
            report = super().cost_report(session_id)
            report["shards"] = self._owners(self._session(session_id).session)
            return report

    def pull_telemetry(self, max_age: float | None = None) -> dict[int, dict]:
        """Federate shard telemetry into the router.

        Calls every live shard's ``telemetry`` RPC, absorbing process
        workers' drained spans into the local trace ring
        (``repro-shard-<i>`` lanes in the Chrome export) and caching
        each payload — health, registry snapshot, and the ``backlog`` of
        pending keys the shard owns across the live sessions (counted
        here: shards hold no session state).  Inline shards are pulled
        health-only: their metrics and spans already live in this
        process.  ``max_age`` skips shards whose cached payload is
        younger, so the periodic edge pull and an on-demand scrape don't
        double-poll.  A shard's last payload is retained after it dies.
        """
        with self._lock:
            now = time.monotonic()
            backlog = None
            for index in sorted(self._shards):
                cached = self._telemetry.get(index)
                if (
                    max_age is not None
                    and cached is not None
                    and now - cached["pulled_at"] < max_age
                ):
                    continue
                portable = bool(getattr(self._shards[index], "is_process", False))
                payload = self.store.call(index, "telemetry", portable)
                if payload is None:
                    continue
                if backlog is None:
                    backlog = self._backlog()
                payload.update(
                    backlog=int(backlog[index]), pulled_at=time.monotonic()
                )
                spans = payload.pop("spans", None)
                if spans:
                    absorb_portable(spans)
                if portable:
                    get_recorder().set_process_name(
                        int(payload["pid"]), f"repro-shard-{index}"
                    )
                self._telemetry[index] = payload
            return dict(self._telemetry)

    def federated_metrics_json(self) -> dict:
        """The cluster-wide registry snapshot (local + cached shards).

        Process shards' series arrive tagged ``shard="<i>"``; local
        series (router, edge, inline shards) stay unlabeled.  Reads the
        :meth:`pull_telemetry` cache only: a scrape never blocks on a
        slow worker.
        """
        with self._lock:
            self.scheduler.land()
            tagged = [
                (payload["metrics"], {"shard": str(index)})
                for index, payload in sorted(self._telemetry.items())
                if payload.get("metrics")
            ]
            return merge_registry_snapshots(self.registry.to_json(), tagged)

    def federated_metrics_text(self) -> str:
        """The federated snapshot in Prometheus 0.0.4 text form."""
        return snapshot_to_prometheus(self.federated_metrics_json())

    def status(self, trajectory_tail: int = 32) -> dict:
        """The /status body: session convergence plus shard health.

        Sessions report their progressive state with the tail of the
        Theorem-1 bound trajectory; shards add, to their :meth:`healthz`
        entry, the pid, pipe round-trip p50/p99 over the last
        ``RTT_WINDOW`` commands, and the backlog/breaker view cached by
        the latest telemetry pull.  Everything is JSON-ready.
        """
        with self._lock:
            self.scheduler.land()
            health = self.healthz()
            shards = {}
            for entry in health["shards"]:
                payload = self._telemetry.get(entry["shard"]) or {}
                window = sorted(self.store.rtt[entry["shard"]])
                shards[str(entry["shard"])] = {
                    **entry,
                    "pid": payload.get("pid"),
                    "rtt_p50_s": _quantile(window, 0.5),
                    "rtt_p99_s": _quantile(window, 0.99),
                    "backlog": payload.get("backlog"),
                    "breaker": payload.get("breaker"),
                }
            return {
                "sessions": {
                    session_id: encode_session_status(
                        entry.session,
                        shard_ids=self._owners(entry.session),
                        trajectory_tail=trajectory_tail,
                    )
                    for session_id, entry in sorted(self._sessions.items())
                },
                "shards": shards,
                "live_sessions": health["live_sessions"],
                "shed_shards": health["shed_shards"],
                "recovery_epoch": self._recovery_epoch,
                "supervised": self.supervisor is not None,
                "partitioner": health["partitioner"],
            }

    def healthz(self) -> dict:
        """Liveness summary for the HTTP edge.

        ``ok`` rolls up to False as soon as any shard has been shed (the
        edge maps that to HTTP 503); the per-shard entries carry
        liveness, lifecycle ``state`` (``up`` / ``recovering`` /
        ``down``) and seconds since the last pipe reply.
        """
        with self._lock:
            now = time.monotonic()
            shards = []
            for index in sorted(self._shards):
                last = self.store.last_reply.get(index)
                shards.append(
                    {
                        "shard": index,
                        "up": index not in self._dead,
                        "alive": index not in self._dead,
                        "state": self._shard_state_name(index),
                        "last_reply_age_s": (
                            now - last if last is not None else None
                        ),
                    }
                )
            return {
                "ok": not self._dead,
                "shards": shards,
                "partitioner": self.partitioner.describe(),
                "live_sessions": len(self._sessions),
                "shed_shards": sorted(self._dead),
            }

    @property
    def live_shards(self) -> int:
        with self._lock:
            return len(self._shards) - len(self._dead)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut down every shard worker; idempotent."""
        with self._lock:
            # Detach supervision first: a closed cluster must never be
            # "recovering", and a late tick must not respawn workers.
            self.supervisor = None
            self.store.drop_ahead()
            for index, shard in self._shards.items():
                if index not in self._dead:
                    shard.close()
            self._dead.update(self._shards)
            close = getattr(self.storage.store, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _unavailable(self, keys: np.ndarray) -> np.ndarray:
        """Keys whose owning shard is shed: nobody can serve them."""
        if not self._dead:
            return super()._unavailable(keys)
        return np.isin(self.partitioner.shard_of(keys), sorted(self._dead))

    def _owners(self, session) -> list[int]:
        """The shards that own ``session``'s master keys."""
        counts = np.bincount(self.partitioner.shard_of(session.plan.keys))
        return np.flatnonzero(counts).tolist()

    def _shard_state_name(self, index: int) -> str:
        """Lifecycle name under the router lock (no supervisor lock —
        the supervisor's membership reads are lock-free by design)."""
        if index not in self._dead:
            return "up"
        supervisor = self.supervisor
        if supervisor is not None and supervisor.is_recovering(index):
            return "recovering"
        return "down"

    def _publish_state(self, index: int) -> None:
        state = self._shard_state_name(index)
        self._shard_up.set(int(state == "up"), shard=str(index))
        self._shard_state.set(SHARD_STATE_VALUES[state], shard=str(index))

    def _backlog(self) -> np.ndarray:
        """Pending keys per owning shard, summed over the live sessions."""
        self.scheduler.land()
        backlog = np.zeros(self.partitioner.num_shards, dtype=np.int64)
        for entry in self._sessions.values():
            keys, _ = entry.session.pending()
            backlog += np.bincount(
                self.partitioner.shard_of(keys), minlength=backlog.size
            )
        return backlog

    def _shed_shard(self, index: int) -> None:
        """Degrade every session's keys owned by a lost shard."""
        if index in self._dead:
            return
        self._dead.add(index)
        self.store.drop_ahead()
        self._publish_state(index)
        self._shards[index].abandon()
        self.scheduler.shed(lambda keys: self.partitioner.shard_of(keys) == index)
