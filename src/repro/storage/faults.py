"""Deterministic fault injection for the coefficient store tier.

The paper's cost model assumes every coefficient retrieval succeeds; a
production serving tier cannot.  :class:`FaultInjectingStore` is the chaos
harness the resilience layer (:mod:`repro.storage.resilient`, the shared
scheduler's degraded mode, the chaos property tests) is exercised against:
it wraps any :class:`~repro.storage.counter.CountingStore` duck type and
injects failures on the *counted* read path —

* **transient errors** — each ``fetch`` independently fails with a
  configurable probability, drawn from a seeded generator, so a retried
  call eventually succeeds and whole runs replay bit-identically;
* **permanent blackouts** — a set of keys whose fetches always fail, the
  model of a lost page/shard: retries never help, only degradation does;
* **injected latency** — a fixed sleep per fetch, for exercising
  wall-clock deadlines without a genuinely slow device;
* **fail-after-N** — the store serves ``fail_after`` fetch calls and then
  fails every subsequent one, the model of a tier going down mid-run.

All injected failures raise :class:`InjectedFault`, an :class:`OSError`
subclass — the same family a real memmap/file tier raises — so the retry
policy in :class:`~repro.storage.resilient.ResilientStore` treats injected
and genuine I/O faults identically.  ``peek`` is left fault-free: it is
the oracle path tests use to read ground truth.

Determinism: with a fixed ``seed``, the fault sequence is a pure function
of the sequence of ``fetch`` calls, so chaos tests across seeds are
exactly reproducible.
"""

from __future__ import annotations

import time

import numpy as np

from repro.storage.counter import StoreWrapper
from repro.storage.resilient import CircuitBreaker, ResilientStore, RetryPolicy


class InjectedFault(OSError):
    """A failure injected by :class:`FaultInjectingStore`."""


class FaultInjectingStore(StoreWrapper):
    """A :class:`CountingStore` wrapper that injects read failures.

    Parameters
    ----------
    inner:
        The wrapped store (anything with ``fetch``/``peek``).
    seed:
        Seed for the transient-fault generator; fixes the fault sequence.
    transient_rate:
        Probability in ``[0, 1)`` that a ``fetch`` call raises a
        transient :class:`InjectedFault` (independently per call, so a
        retry re-rolls).
    blackout_keys:
        Keys whose fetches *always* fail — retries cannot recover these
        until :meth:`heal` is called.
    latency:
        Seconds to sleep at the top of every ``fetch`` call.
    fail_after:
        Serve this many ``fetch`` calls, then fail every later one.
    """

    def __init__(
        self,
        inner,
        *,
        seed: int = 0,
        transient_rate: float = 0.0,
        blackout_keys=(),
        latency: float = 0.0,
        fail_after: int | None = None,
    ) -> None:
        if not 0.0 <= transient_rate < 1.0:
            raise ValueError(f"transient_rate must be in [0, 1), got {transient_rate}")
        if latency < 0.0:
            raise ValueError("latency must be non-negative")
        super().__init__(inner)
        self.transient_rate = float(transient_rate)
        self.blackout_keys = {int(k) for k in blackout_keys}
        self.latency = float(latency)
        self.fail_after = fail_after
        self._rng = np.random.default_rng(seed)
        #: Total ``fetch`` calls seen (including the failed ones).
        self.calls = 0
        #: Injected failures by kind.
        self.injected_transient = 0
        self.injected_blackout = 0
        self.injected_outage = 0

    def fetch(self, keys: np.ndarray) -> np.ndarray:
        """Retrieve ``keys`` through the fault gauntlet."""
        self.calls += 1
        if self.latency:
            time.sleep(self.latency)
        if self.fail_after is not None and self.calls > self.fail_after:
            self.injected_outage += 1
            raise InjectedFault(
                f"injected outage: store down after {self.fail_after} fetches"
            )
        if self.blackout_keys:
            flat = np.asarray(keys, dtype=np.int64).ravel()
            dark = [k for k in flat.tolist() if k in self.blackout_keys]
            if dark:
                self.injected_blackout += 1
                raise InjectedFault(f"injected blackout for keys {dark}")
        if self.transient_rate and self._rng.random() < self.transient_rate:
            self.injected_transient += 1
            raise InjectedFault("injected transient fault")
        return self.inner.fetch(keys)

    # ------------------------------------------------------------------
    # Fault control
    # ------------------------------------------------------------------

    def heal(self) -> None:
        """Clear every permanent fault mode (the store 'recovers').

        Transient faults, blackouts, outages and latency all stop; the
        seeded generator is left untouched so a healed store keeps its
        deterministic call accounting.
        """
        self.transient_rate = 0.0
        self.blackout_keys.clear()
        self.fail_after = None
        self.latency = 0.0


def chaos_stack(store, chaos: dict) -> ResilientStore:
    """Wrap ``store`` in the seeded chaos harness described by ``chaos``::

        {"seed", "transient_rate", "blackout_keys", "latency", "max_attempts"}

    (every key optional).  The :class:`FaultInjectingStore` sits under a
    zero-delay :class:`~repro.storage.resilient.ResilientStore` — it is
    the result's ``inner`` — so transients are retried at full speed and
    a blacked-out key degrades the interested sessions instead of
    crashing the serving loop.  The one wiring behind ``repro serve
    --fault-rate/--blackout`` (every cluster shard).
    """
    injector = FaultInjectingStore(
        store,
        seed=int(chaos.get("seed", 0)),
        transient_rate=float(chaos.get("transient_rate", 0.0)),
        blackout_keys=chaos.get("blackout_keys", ()),
        latency=float(chaos.get("latency", 0.0)),
    )
    return ResilientStore(
        injector,
        policy=RetryPolicy(
            max_attempts=int(chaos.get("max_attempts", 8)),
            base_delay=0.0,
            max_delay=0.0,
        ),
        breaker=CircuitBreaker(failure_threshold=10_000),
        sleep=lambda _s: None,
    )
