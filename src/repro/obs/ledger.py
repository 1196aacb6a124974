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
stage and with resource counters (retrievals, coefficient bytes, cache
hits, deliveries, retries, skipped keys).  Deep layers that cannot see
the session — the resilient store retrying a fetch, the shared scheduler
serving a key — charge the *active* account bound to the current thread
with :func:`activate` / :func:`note`, so a retry three layers down still
lands on the session that asked for the coefficient.

Every timed region is a :func:`stage`, charged *exclusive* of the
stages nested in it: a thread's stages are disjoint and add up to its
time.  ``cost_report(session_id)`` (``/sessions/<id>/costs``) reads one
account.  With telemetry off (:func:`repro.obs.set_enabled`) a charge is
one boolean check — ``tests/test_telemetry_overhead.py``.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext

from repro.obs.metrics import _switch
from repro.obs.trace import record_span

#: The pipeline stages a cost account itemizes, in execution order.
STAGES = ("rewrite", "plan", "schedule", "fetch", "apply")

#: Stored coefficient width: every retrieval moves one float64.
COEFFICIENT_BYTES = 8


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

    def add_stage(
        self, name: str, wall_s: float, cpu_s: float = 0.0, calls: int = 1
    ) -> None:
        """Charge a measured stage duration (what a :func:`stage` region
        charges on exit)."""
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


# ----------------------------------------------------------------------
# The active account: deep-layer attribution without plumbing
# ----------------------------------------------------------------------


class _Local(threading.local):
    """Per-thread state: the active accounts and the open ledger stages."""

    def __init__(self) -> None:
        self.accounts: list[CostAccount | None] = []
        self.stages: list[_Region] = []


_local = _Local()


class activate:
    """Bind ``account`` to the current thread for the enclosed region.

    Layers that cannot see the session — the resilient store counting a
    retry, the shared scheduler issuing a fetch on a session's behalf —
    charge whatever account is active via :func:`note` and
    :func:`stage`.  Activations nest (a stack per thread).
    """

    __slots__ = ("_account",)

    def __init__(self, account: CostAccount | None) -> None:
        self._account = account

    def __enter__(self) -> "activate":
        _local.accounts.append(self._account)
        return self

    def __exit__(self, *exc) -> bool:
        _local.accounts.pop()
        return False


def active_account() -> CostAccount | None:
    """The account bound to this thread, or None."""
    accounts = _local.accounts
    return accounts[-1] if accounts else None


def note(**counters: int) -> None:
    """Charge counters to the thread's active account (no-op without one)."""
    if not _switch.enabled:
        return
    account = active_account()
    if account is not None:
        account.add(**counters)


# ----------------------------------------------------------------------
# The one timed region
# ----------------------------------------------------------------------

_OFF = nullcontext()


def stage(
    name: str | None = None,
    account: CostAccount | None = None,
    histogram=None,
    span: str | None = None,
    calls: int = 1,
    **attrs: object,
):
    """Time one region with one clock pair, feeding up to three sinks.

    * ``span`` — a trace span of that name (with ``attrs``), when
      tracing is on;
    * ``histogram`` — observes the region's full (inclusive) wall time;
    * ``name`` — the ledger stage charged on ``account`` (None: the
      thread's active account), ``calls`` calls and the region's wall
      and CPU time *exclusive* of the stages nested in it on this thread.

    A region that raises leaves only its span (its time stays in the
    enclosing stage).  A region that charges no stage — no ``name``, no
    account — is transparent: its nested stages come off the enclosing
    one.  With telemetry and tracing both off it is one boolean check.
    """
    if not _switch.timing:
        return _OFF
    return _Region(name, account, histogram, span, calls, attrs)


class _Region:
    __slots__ = (
        "name", "account", "histogram", "span", "calls", "attrs",
        "t0", "c0", "nested_wall", "nested_cpu",
    )

    def __init__(self, name, account, histogram, span, calls, attrs) -> None:
        self.name, self.account, self.histogram = name, account, histogram
        self.span, self.calls, self.attrs = span, calls, attrs

    def __enter__(self) -> "_Region":
        account = None
        if self.name is not None and _switch.enabled:
            account = self.account if self.account is not None else active_account()
        self.account = account
        if account is not None:
            self.nested_wall = self.nested_cpu = 0.0
            _local.stages.append(self)
            self.c0 = time.thread_time()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, traceback) -> bool:
        wall = time.perf_counter() - self.t0
        account = self.account
        if account is not None:
            cpu = time.thread_time() - self.c0
            stages = _local.stages
            stages.pop()
            if exc_type is None:
                if stages:
                    outer = stages[-1]
                    outer.nested_wall += wall
                    outer.nested_cpu += cpu
                account.add_stage(
                    self.name, wall - self.nested_wall, cpu - self.nested_cpu, self.calls
                )
        if exc_type is None and self.histogram is not None:
            self.histogram.observe(wall)
        if self.span is not None and _switch.tracing:
            record_span(self.span, self.t0, wall, self.attrs)
        return False
