"""Shard supervision: detect dead workers, respawn, heal.

The router's shedding path (``docs/CLUSTER.md``) turns a dead shard into
a permanent amputation: its pending keys are skipped in every session
and ``retry_skipped`` refuses to resurrect them.  That keeps answers
degraded-but-bounded, but Theorem 1 says the skipped mass is fully
recoverable — nothing about a crashed *process* is unrecoverable when
the coefficients live in a shared paged file.  This module closes the
loop:

* :class:`RestartPolicy` — deterministic bounded exponential backoff
  between respawn attempts plus a flap cap, mirroring
  :class:`~repro.storage.resilient.RetryPolicy` /
  :class:`~repro.storage.resilient.CircuitBreaker` semantics: more than
  ``max_restarts`` attempts inside ``window`` seconds and the supervisor
  gives up, falling back to today's permanent shed.
* :class:`ShardSupervisor` — a tick-driven loop (the HTTP edge drives it
  from its periodic task, alongside the telemetry pull; tests call
  :meth:`ShardSupervisor.tick` directly with an injected clock) that
  detects a dead worker via process liveness / heartbeat age, marks the
  shard ``recovering``, respawns it through a factory callable, probes
  the fresh worker with a ``ping``, and hands it to
  :meth:`~repro.cluster.router.ClusterRouter.reintegrate_shard` — which
  swaps the handle in and re-drives the skipped keys through the
  existing ``retry_skipped`` path.

Lifecycle (surfaced per shard in ``/healthz`` and ``/status``, and as
the ``repro_cluster_shard_state`` gauge)::

      up ──(worker dies)──▶ recovering ──(respawn + re-fetch)──▶ up
                                │
                                │ max_restarts attempts in window
                                ▼
                              down   (permanent shed, as before)

Because the authoritative :class:`~repro.core.session.ProgressiveSession`
objects never leave the router and a shard holds no session state,
there is no journal to replay: the fresh worker maps the same paged
file and ``retry_skipped`` re-queues the keys the outage skipped.
Served keys are never fetched again — the sessions already hold their
coefficients — so after the heal drains, ``exact_answers()`` recomputes
answers bit-identical to a never-crashed single-process run, while every
poll during the outage kept a valid Theorem-1 bound
(``tests/test_cluster_recovery.py`` gates both).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.cluster.worker import ShardLostError

#: Gauge encoding of the shard lifecycle, mirroring
#: ``repro.storage.resilient.BREAKER_STATE_VALUES``.
SHARD_STATE_VALUES = {"up": 0, "recovering": 1, "down": 2}


@dataclass(frozen=True)
class RestartPolicy:
    """When and how often a dead shard may be respawned.

    Backoff is deterministic (no jitter), exactly like
    :class:`~repro.storage.resilient.RetryPolicy`: the gate before
    restart attempt ``r`` (1-based, counted inside the rolling
    ``window``) is ``min(max_delay, base_delay * multiplier**(r-1))``,
    and the first attempt after a death is immediate.  The flap cap is
    the circuit-breaker analogue: once ``max_restarts`` attempts land
    inside ``window`` seconds the supervisor gives up and the shard is
    permanently shed (state ``down``).
    """

    #: Restart attempts tolerated inside ``window`` before giving up.
    max_restarts: int = 5
    #: Rolling flap-detection window, seconds.
    window: float = 60.0
    #: Backoff before the second attempt, seconds.
    base_delay: float = 0.05
    #: Exponential growth factor between attempts.
    multiplier: float = 2.0
    #: Backoff cap, seconds.
    max_delay: float = 2.0
    #: Probe a silent shard once its last reply is older than this
    #: (None disables heartbeat probing; pipe failures still detect).
    heartbeat_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_restarts < 1:
            raise ValueError("max_restarts must be at least 1")
        if self.window <= 0:
            raise ValueError("window must be positive")

    def delay(self, restarts: int) -> float:
        """Seconds to wait after ``restarts`` attempts (0 -> immediate)."""
        if restarts <= 0:
            return 0.0
        return min(
            self.max_delay, self.base_delay * self.multiplier ** (restarts - 1)
        )


class ShardSupervisor:
    """Tick-driven shard recovery for one :class:`ClusterRouter`.

    ``factory(index)`` must return a fresh, ready shard handle (a
    :class:`~repro.cluster.worker.ProcessShard` or
    :class:`~repro.cluster.worker.InlineShard`) for that shard index —
    :func:`repro.cluster.build_cluster` wires one up from the cluster's
    own spawn parameters.  ``clock`` is injectable (monotonic seconds)
    so the backoff/flap arithmetic is deterministic under test.

    :meth:`tick` is safe to call from any thread (the router's lock
    serializes the actual shard surgery); the read-only state accessors
    (:meth:`is_recovering`, :meth:`gave_up`) take no lock so the
    router's ``/healthz`` path can consult them while holding its own
    lock without a lock-order cycle.
    """

    def __init__(
        self,
        router,
        factory,
        policy: RestartPolicy | None = None,
        clock=time.monotonic,
        poll_interval: float = 0.25,
    ) -> None:
        self.router = router
        self.factory = factory
        self.policy = policy if policy is not None else RestartPolicy()
        self.clock = clock
        #: Cadence hint for the edge's periodic task, seconds.
        self.poll_interval = float(poll_interval)
        self._lock = threading.Lock()
        #: Attempt timestamps per shard inside the rolling window.
        self._attempts: dict[int, list[float]] = {}
        #: Earliest clock() at which the next attempt may run.
        self._next_try: dict[int, float] = {}
        self._given_up: set[int] = set()

    # -- state the router reads (no lock: plain set membership) ---------

    def is_recovering(self, index: int) -> bool:
        """True while a dead shard is still eligible for respawn."""
        return index not in self._given_up

    def gave_up(self, index: int) -> bool:
        return index in self._given_up

    # -- the loop -------------------------------------------------------

    def tick(self) -> list[tuple[int, str]]:
        """One supervision pass; returns ``[(shard, outcome), ...]``.

        Outcomes: ``"lost"`` (a silent death detected and shed),
        ``"respawned"`` (worker replaced, skipped keys re-queued), ``"failed"`` (a respawn attempt errored; backoff
        scheduled), ``"gave_up"`` (flap cap tripped; permanent shed).
        """
        if getattr(self.router, "supervisor", None) is not self:
            return []  # detached (router closed) — never resurrect
        with self._lock:
            actions = self._detect()
            actions += self._recover()
            return actions

    def _detect(self) -> list[tuple[int, str]]:
        """Shed shards whose process died or heartbeat went silent."""
        actions: list[tuple[int, str]] = []
        timeout = self.policy.heartbeat_timeout
        for index, shard in self.router.shard_handles().items():
            if not getattr(shard, "process_alive", shard.alive):
                self.router.mark_lost(index, "worker process died")
                actions.append((index, "lost"))
            elif timeout is not None:
                age = self.router.last_reply_age(index)
                if age is not None and age > timeout:
                    if not self.router.ping(index):
                        actions.append((index, "lost"))
        return actions

    def _recover(self) -> list[tuple[int, str]]:
        """Attempt due respawns for every shed-but-recoverable shard."""
        actions: list[tuple[int, str]] = []
        for index in self.router.dead_shards():
            if index in self._given_up:
                continue
            now = self.clock()
            if now < self._next_try.get(index, 0.0):
                continue  # still backing off
            window = self._attempts.setdefault(index, [])
            window[:] = [t for t in window if now - t < self.policy.window]
            if len(window) >= self.policy.max_restarts:
                self._given_up.add(index)
                self.router.record_restart(index, "gave_up")
                actions.append((index, "gave_up"))
                continue
            window.append(now)
            self._next_try[index] = now + self.policy.delay(len(window))
            shard = None
            try:
                shard = self.factory(index)
                shard.call("ping")  # the probe: a worker that can't
                # answer its first command must not be reintegrated
                self.router.reintegrate_shard(index, shard)
            except Exception:  # noqa: BLE001 - a failed spawn is a retry
                if shard is not None:
                    try:
                        shard.close()
                    except (OSError, ShardLostError):
                        pass
                self.router.record_restart(index, "failed")
                actions.append((index, "failed"))
            else:
                actions.append((index, "respawned"))
        return actions

    def restart_attempts(self, index: int) -> int:
        """Attempts currently counted inside the flap window (tests)."""
        with self._lock:
            return len(self._attempts.get(index, ()))
