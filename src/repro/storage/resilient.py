"""Fault-tolerant coefficient retrieval: retries and circuit breaking.

The progressive engine's promise is that a partially evaluated batch is a
*useful* answer with a provable Theorem-1 bound.  That promise is only as
good as the store underneath it: a paged memmap tier can hit a transient
``OSError``, a remote shard can go dark.  :class:`ResilientStore` wraps
any :class:`~repro.storage.counter.CountingStore` duck type with the two
standard availability mechanisms:

* a :class:`RetryPolicy` — bounded exponential backoff with a per-fetch
  wall-clock deadline, so transient faults are absorbed without changing
  a single answer (retried fetches return identical coefficients, so the
  progressive step order is bit-reproducible);
* a closed/open/half-open :class:`CircuitBreaker` — after enough
  *exhausted* fetches (retries included) the breaker opens and further
  fetches fail fast instead of hammering a dying store; after
  ``reset_timeout`` a half-open probe decides whether to close again.

When both mechanisms give up, the store raises :class:`RetrievalError`.
That exception is the contract with the layers above: the shared
scheduler and :class:`~repro.core.session.ProgressiveSession` catch it,
mark the key *skipped* (not retrieved), and keep serving — the skipped
coefficient stays in the Theorem-1 bound mass, so every degraded snapshot
still carries a valid worst-case guarantee (see ``docs/RESILIENCE.md``).

Retry, failure and breaker-state telemetry is registered in the
:mod:`repro.obs` registry (``repro_resilient_*`` series) and therefore
shows up on the ``/metrics`` endpoint.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.obs import REGISTRY, MetricRegistry, span, stage
from repro.obs.ledger import note as _ledger_note
from repro.storage.counter import StoreWrapper

#: Distinguishes resilient-store instances inside the process-global registry.
_INSTANCE_IDS = itertools.count()

#: Breaker-state gauge encoding (documented in docs/OBSERVABILITY.md).
BREAKER_STATE_VALUES = {"closed": 0, "half_open": 1, "open": 2}


class RetrievalError(RuntimeError):
    """A coefficient fetch failed permanently (retries/breaker exhausted).

    Attributes
    ----------
    keys:
        The keys the failed fetch asked for (list of ints, possibly empty
        when unknown).
    attempts:
        How many attempts were made before giving up (0 for a fail-fast
        rejection by an open circuit breaker).
    """

    def __init__(self, message: str, keys=(), attempts: int = 0) -> None:
        super().__init__(message)
        self.keys = [int(k) for k in keys]
        self.attempts = int(attempts)


class CircuitOpenError(RetrievalError):
    """Fail-fast rejection: the circuit breaker is open."""


def charged_fetch(store, keys: np.ndarray, span=None, histogram=None) -> np.ndarray:
    """One store call as every evaluator counts it.

    A :func:`~repro.obs.stage` region: one ``fetch`` stage call on the
    thread's active account (plus ``span`` / ``histogram`` when given),
    then ``keys.size`` retrievals — once the call returns.  An abandoned
    call raises through and leaves only its span.
    """
    with stage("fetch", span=span, histogram=histogram, keys=keys.size):
        values = np.asarray(store.fetch(keys), dtype=np.float64)
    _ledger_note(retrievals=int(keys.size))
    return values


def fetch_degrading(store, keys: np.ndarray, span=None, histogram=None):
    """One gather; an abandoned multi-key gather degrades to per-key fetches.

    The single home of the degradation rule every evaluator shares: the
    scheduler's serve and the session's (behind ``advance``, ``run_until``,
    the top-k ranker and every :class:`~repro.core.batch.BatchBiggestB`
    surface).
    Returns ``(values, failed)``: the values aligned with ``keys`` and the
    indices (ascending, usually none) of the keys whose own fetch was
    abandoned as well, so one unavailable key costs only itself, not its
    chunk.  A one-key gather *is* its own per-key fetch and fails
    directly — one-key chunks keep the per-key loop's store-call pattern
    exactly.  Every store call is a :func:`charged_fetch`.
    """
    try:
        return charged_fetch(store, keys, span, histogram), []
    except RetrievalError:
        if keys.size == 1:
            return np.zeros(1), [0]
    values, failed = np.zeros(keys.size), []
    for i in range(keys.size):
        try:
            values[i] = charged_fetch(store, keys[i : i + 1], span, histogram)[0]
        except RetrievalError:
            failed.append(i)
    return values, failed


def available_runs(size: int, failed: list[int]):
    """Split a fetched chunk of ``size`` keys at its ``failed`` indices.

    Yields ``(start, stop)`` per maximal run of available keys, in chunk
    order; ``stop < size`` says key ``stop`` failed.  Applying the runs
    and skipping the failures in this order lands every estimate update,
    counter and bound record exactly where the per-key loop would.
    """
    start = 0
    for stop in (*failed, size):
        yield start, stop
        start = stop + 1


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for coefficient fetches.

    The delay before retry ``n`` (1-based) is
    ``min(max_delay, base_delay * multiplier ** (n - 1))`` — deliberately
    jitter-free so chaos runs replay deterministically.  ``deadline``
    bounds the *whole* fetch (attempts plus sleeps) in wall-clock
    seconds; when the next backoff would overshoot it, the fetch gives up
    immediately instead of sleeping past the budget.
    """

    max_attempts: int = 4
    base_delay: float = 0.005
    multiplier: float = 2.0
    max_delay: float = 0.5
    deadline: float | None = None
    #: Exception types worth retrying; everything else propagates raw.
    retryable: tuple[type[BaseException], ...] = (OSError, TimeoutError)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0 or self.multiplier < 1:
            raise ValueError("delays must be >= 0 and multiplier >= 1")

    def delay(self, retry: int) -> float:
        """Backoff before the ``retry``-th retry (1-based)."""
        if retry < 1:
            raise ValueError("retry is 1-based")
        return min(self.max_delay, self.base_delay * self.multiplier ** (retry - 1))


class CircuitBreaker:
    """A closed/open/half-open breaker over whole resilient fetches.

    One *failure* is one fetch that exhausted its retry policy — the
    breaker sits outside the retry loop, so a store that recovers within
    a fetch's retries never trips it.  After ``failure_threshold``
    consecutive failures the breaker opens; ``allow()`` then rejects
    until ``reset_timeout`` seconds pass, at which point the breaker
    goes half-open and admits probe calls whose outcome decides between
    closing (success) and re-opening (failure).

    ``clock`` is injectable so tests can drive the state machine without
    real waiting.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Callable[[str], None] | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout < 0:
            raise ValueError("reset_timeout must be non-negative")
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout = float(reset_timeout)
        self._clock = clock
        self.on_transition = on_transition
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        """The current state, accounting for open->half-open expiry."""
        if (
            self._state == self.OPEN
            and self._clock() - self._opened_at >= self.reset_timeout
        ):
            self._set_state(self.HALF_OPEN)
        return self._state

    def allow(self) -> bool:
        """True when a fetch may proceed (closed, or a half-open probe)."""
        return self.state != self.OPEN

    def record_success(self) -> None:
        self._failures = 0
        if self._state != self.CLOSED:
            self._set_state(self.CLOSED)

    def record_failure(self) -> None:
        self._failures += 1
        if self._state == self.HALF_OPEN or self._failures >= self.failure_threshold:
            self._opened_at = self._clock()
            if self._state != self.OPEN:
                self._set_state(self.OPEN)

    def _set_state(self, state: str) -> None:
        self._state = state
        if self.on_transition is not None:
            self.on_transition(state)


class ResilientStore(StoreWrapper):
    """Retry + circuit-breaker wrapper around a coefficient store.

    Overrides only ``fetch``: peeks, aggregates, stats, writes and
    ``close`` go to the wrapped store through
    :class:`~repro.storage.counter.StoreWrapper`.  ``sleep``/``clock``
    are injectable so chaos tests run at full speed with zero-delay
    policies.
    """

    def __init__(
        self,
        inner,
        policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        registry: MetricRegistry | None = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(inner)
        self.policy = policy if policy is not None else RetryPolicy()
        self.registry = REGISTRY if registry is None else registry
        self._sleep = sleep
        self._clock = clock
        self._instance = str(next(_INSTANCE_IDS))
        self._retries = self.registry.counter(
            "repro_resilient_retries_total",
            "Fetch attempts retried after a transient store failure",
            ("store",),
        )
        self._failures = self.registry.counter(
            "repro_resilient_fetch_failures_total",
            "Fetches abandoned permanently, by reason "
            "(exhausted | deadline | circuit_open)",
            ("store", "reason"),
        )
        self._transitions = self.registry.counter(
            "repro_resilient_breaker_transitions_total",
            "Circuit breaker state transitions, by entered state",
            ("store", "state"),
        )
        self._state_gauge = self.registry.gauge(
            "repro_resilient_breaker_state",
            "Circuit breaker state (0=closed, 1=half_open, 2=open)",
            ("store",),
        )
        self.breaker = (
            breaker if breaker is not None else CircuitBreaker(clock=clock)
        )
        self.breaker.on_transition = self._on_breaker_transition
        self._state_gauge.set(
            BREAKER_STATE_VALUES[self.breaker.state], store=self._instance
        )

    def fetch(self, keys: np.ndarray) -> np.ndarray:
        """Retrieve ``keys`` with retries behind the circuit breaker.

        Raises :class:`RetrievalError` (or its :class:`CircuitOpenError`
        subclass) when the fetch is abandoned; any non-retryable
        exception from the wrapped store propagates unchanged.
        """
        key_list = np.asarray(keys, dtype=np.int64).ravel().tolist()
        if not self.breaker.allow():
            self._failures.inc(store=self._instance, reason="circuit_open")
            raise CircuitOpenError(
                f"circuit breaker is open; rejecting fetch of {len(key_list)} keys",
                keys=key_list,
            )
        policy = self.policy
        start = self._clock()
        attempt = 0
        with span("resilient.fetch", keys=len(key_list)):
            while True:
                attempt += 1
                try:
                    values = self.inner.fetch(keys)
                except policy.retryable as exc:
                    if attempt >= policy.max_attempts:
                        self._give_up("exhausted")
                        raise RetrievalError(
                            f"fetch failed after {attempt} attempts: {exc}",
                            keys=key_list,
                            attempts=attempt,
                        ) from exc
                    delay = policy.delay(attempt)
                    if (
                        policy.deadline is not None
                        and self._clock() - start + delay > policy.deadline
                    ):
                        self._give_up("deadline")
                        raise RetrievalError(
                            f"fetch deadline of {policy.deadline}s exhausted "
                            f"after {attempt} attempts: {exc}",
                            keys=key_list,
                            attempts=attempt,
                        ) from exc
                    self._retries.inc(store=self._instance)
                    # Attribute the retry to whichever session's fetch is
                    # active on this thread (see repro.obs.ledger).
                    _ledger_note(retries=1)
                    self._sleep(delay)
                else:
                    self.breaker.record_success()
                    return values

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def breaker_state(self) -> str:
        return self.breaker.state

    def retry_count(self) -> int:
        return int(self._retries.value(store=self._instance))

    def failure_count(self, reason: str) -> int:
        return int(self._failures.value(store=self._instance, reason=reason))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _give_up(self, reason: str) -> None:
        self._failures.inc(store=self._instance, reason=reason)
        self.breaker.record_failure()

    def _on_breaker_transition(self, state: str) -> None:
        self._transitions.inc(store=self._instance, state=state)
        self._state_gauge.set(BREAKER_STATE_VALUES[state], store=self._instance)
