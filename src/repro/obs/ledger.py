"""Per-query/per-session cost ledger: "what did *this* query cost?".

The paper's whole premise is a cost/accuracy trade-off — Batch-Biggest-B
spends a retrieval budget where importance says it buys the most penalty
reduction — so the system must be able to attribute cost to the unit
that spent it.  The metric registry answers "what did the *process* do";
this ledger answers "what did *this session* do", stage by stage:

``rewrite -> plan -> schedule -> fetch -> apply``

Every :class:`~repro.core.session.ProgressiveSession` and
:class:`~repro.core.batch.BatchBiggestB` owns a :class:`CostAccount`;
the pipeline charges it with wall time and per-thread CPU time per
stage (:meth:`CostAccount.stage`) and with resource counters
(retrievals, coefficient bytes, cache hits, deliveries, retries,
skipped keys).  Deep layers that cannot see the session — the resilient
store retrying a fetch, the shared scheduler serving a key — charge the
*active* account bound to the current thread with :func:`activate` /
:func:`note`, so a retry three layers down still lands on the session
that asked for the coefficient.

Exposition:

* ``ProgressiveQueryService.cost_report(session_id)`` — one session;
* the process-global :data:`LEDGER` — every account, served as
  ``/costs.json`` by the metrics endpoint and printed by ``repro cost``;
* :mod:`repro.obs.bench` — per-stage timings in the BENCH JSON files.

Accounting honours the module-level telemetry switch
(:func:`repro.obs.set_enabled`): disabled, a stage context and a
counter charge are each one boolean check — enforced by
``tests/test_telemetry_overhead.py``.
"""

from __future__ import annotations

import itertools
import threading
import time

from repro.obs.metrics import _switch

#: The pipeline stages a cost account itemizes, in execution order.
STAGES = ("rewrite", "plan", "schedule", "fetch", "apply")

#: Stored coefficient width: every retrieval moves one float64.
COEFFICIENT_BYTES = 8


class _NoopStage:
    """The disabled-telemetry stage context (shared singleton)."""

    __slots__ = ()

    def __enter__(self) -> "_NoopStage":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NOOP_STAGE = _NoopStage()


class _Stage:
    """Times one stage region: wall clock plus calling-thread CPU."""

    __slots__ = ("_account", "_name", "_t0", "_c0")

    def __init__(self, account: "CostAccount", name: str) -> None:
        self._account = account
        self._name = name

    def __enter__(self) -> "_Stage":
        self._t0 = time.perf_counter()
        self._c0 = time.thread_time()
        return self

    def __exit__(self, *exc) -> bool:
        self._account.add_stage(
            self._name,
            time.perf_counter() - self._t0,
            time.thread_time() - self._c0,
        )
        return False


class CostAccount:
    """Cost attribution for one progressive evaluation (session or batch).

    Thread-safe: a service session is charged by its own client thread
    (rewrite, plan) *and* by whichever thread drives the shared schedule
    when a coefficient is delivered to it (apply), so every mutation
    happens under the account lock.
    """

    __slots__ = (
        "owner",
        "queries",
        "_lock",
        "_stages",
        "retrievals",
        "bytes_fetched",
        "cache_hits",
        "deliveries",
        "retries",
        "skipped_keys",
    )

    def __init__(self, owner: str = "", queries: int = 0) -> None:
        self.owner = owner
        self.queries = int(queries)
        self._lock = threading.Lock()
        #: stage name -> [calls, wall seconds, cpu seconds]
        self._stages: dict[str, list] = {}
        self.retrievals = 0
        self.bytes_fetched = 0
        self.cache_hits = 0
        self.deliveries = 0
        self.retries = 0
        self.skipped_keys = 0

    # -- charging ------------------------------------------------------

    def stage(self, name: str):
        """Context manager charging wall + CPU time to stage ``name``.

        One boolean check when telemetry is disabled.
        """
        if not _switch.enabled:
            return _NOOP_STAGE
        return _Stage(self, name)

    def add_stage(
        self, name: str, wall_s: float, cpu_s: float = 0.0, calls: int = 1
    ) -> None:
        """Charge a pre-measured stage duration (inline hot-path form)."""
        if not _switch.enabled:
            return
        with self._lock:
            cell = self._stages.get(name)
            if cell is None:
                cell = [0, 0.0, 0.0]
                self._stages[name] = cell
            cell[0] += calls
            cell[1] += wall_s
            cell[2] += cpu_s

    def add(
        self,
        retrievals: int = 0,
        cache_hits: int = 0,
        deliveries: int = 0,
        retries: int = 0,
        skipped_keys: int = 0,
    ) -> None:
        """Charge resource counters (bytes follow retrievals at 8 B each)."""
        if not _switch.enabled:
            return
        with self._lock:
            self.retrievals += retrievals
            self.bytes_fetched += retrievals * COEFFICIENT_BYTES
            self.cache_hits += cache_hits
            self.deliveries += deliveries
            self.retries += retries
            self.skipped_keys += skipped_keys

    def add_fetch(self, retrievals: int, wall_s: float, cpu_s: float = 0.0) -> None:
        """Charge one chunked gather: fetch-stage time plus ``retrievals``
        keys (and their bytes) under a single lock acquisition — the bulk
        form of ``stage("fetch")`` + ``add(retrievals=...)`` the
        vectorized serve engine uses once per chunk instead of per key.
        """
        if not _switch.enabled:
            return
        with self._lock:
            cell = self._stages.get("fetch")
            if cell is None:
                cell = [0, 0.0, 0.0]
                self._stages["fetch"] = cell
            cell[0] += 1
            cell[1] += wall_s
            cell[2] += cpu_s
            self.retrievals += retrievals
            self.bytes_fetched += retrievals * COEFFICIENT_BYTES

    # -- reading -------------------------------------------------------

    def stage_totals(self) -> dict[str, dict[str, float]]:
        """``{stage: {"calls", "wall_s", "cpu_s"}}`` in pipeline order."""
        with self._lock:
            items = dict(self._stages)
        ordered = [s for s in STAGES if s in items]
        ordered += [s for s in sorted(items) if s not in STAGES]
        return {
            name: {
                "calls": items[name][0],
                "wall_s": items[name][1],
                "cpu_s": items[name][2],
            }
            for name in ordered
        }

    def total_wall_s(self) -> float:
        """Summed stage wall clock (stages may nest; see docstrings)."""
        with self._lock:
            return float(sum(cell[1] for cell in self._stages.values()))

    def to_dict(self) -> dict:
        """A JSON-friendly snapshot of the whole account."""
        with self._lock:
            counters = {
                "retrievals": self.retrievals,
                "bytes_fetched": self.bytes_fetched,
                "cache_hits": self.cache_hits,
                "deliveries": self.deliveries,
                "retries": self.retries,
                "skipped_keys": self.skipped_keys,
            }
        return {
            "owner": self.owner,
            "queries": self.queries,
            "stages": self.stage_totals(),
            "counters": counters,
        }


class CostLedger:
    """A named registry of cost accounts (the process-wide roll-up).

    The service registers each session's account under its session id;
    standalone evaluators can register themselves.  Name collisions
    (two services both handing out ``s1``) are disambiguated with a
    ``#n`` suffix — :meth:`register` returns the name actually used.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._accounts: dict[str, CostAccount] = {}
        self._dedup = itertools.count(2)

    def register(self, name: str, account: CostAccount) -> str:
        with self._lock:
            actual = name
            while actual in self._accounts:
                actual = f"{name}#{next(self._dedup)}"
            self._accounts[actual] = account
            return actual

    def get(self, name: str) -> CostAccount | None:
        with self._lock:
            return self._accounts.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._accounts)

    def accounts(self) -> dict[str, CostAccount]:
        with self._lock:
            return dict(self._accounts)

    def to_json(self) -> dict:
        """Every account's snapshot, keyed by registered name."""
        return {
            name: account.to_dict()
            for name, account in sorted(self.accounts().items())
        }

    def unregister(self, name: str) -> None:
        """Drop one account (the router does this when a session is
        cancelled, so a long-lived service's ledger does not grow without
        bound).  Unknown names are ignored."""
        with self._lock:
            self._accounts.pop(name, None)

    def reset(self) -> None:
        """Forget every account (benchmarks do this between trials)."""
        with self._lock:
            self._accounts.clear()


#: The process-global ledger ``/costs.json`` and ``repro cost`` expose.
LEDGER = CostLedger()


# ----------------------------------------------------------------------
# The active account: deep-layer attribution without plumbing
# ----------------------------------------------------------------------

_active = threading.local()


class activate:
    """Bind ``account`` to the current thread for the enclosed region.

    Layers that cannot see the session — the resilient store counting a
    retry, the shared scheduler issuing a fetch on a session's behalf —
    charge whatever account is active via :func:`note` /
    :func:`active_stage`.  Activations nest (a stack per thread).
    """

    __slots__ = ("_account",)

    def __init__(self, account: CostAccount | None) -> None:
        self._account = account

    def __enter__(self) -> "activate":
        stack = getattr(_active, "stack", None)
        if stack is None:
            stack = _active.stack = []
        stack.append(self._account)
        return self

    def __exit__(self, *exc) -> bool:
        _active.stack.pop()
        return False


def active_account() -> CostAccount | None:
    """The account bound to this thread, or None."""
    stack = getattr(_active, "stack", None)
    return stack[-1] if stack else None


def note(**counters: int) -> None:
    """Charge counters to the thread's active account (no-op without one)."""
    if not _switch.enabled:
        return
    account = active_account()
    if account is not None:
        account.add(**counters)


def note_fetch(retrievals: int, wall_s: float, cpu_s: float = 0.0) -> None:
    """Charge a chunked gather to the thread's active account in one lock
    acquisition (see :meth:`CostAccount.add_fetch`); no-op without one."""
    if not _switch.enabled:
        return
    account = active_account()
    if account is not None:
        account.add_fetch(retrievals, wall_s, cpu_s)


def active_stage(name: str):
    """A stage context on the thread's active account (no-op without one)."""
    if not _switch.enabled:
        return _NOOP_STAGE
    account = active_account()
    if account is None:
        return _NOOP_STAGE
    return _Stage(account, name)
