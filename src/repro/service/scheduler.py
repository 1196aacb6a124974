"""Cross-batch I/O sharing: one retrieval schedule over many sessions.

Observation 1 merges the supports of *one* batch so each coefficient is
fetched once.  A service runs many batches at once, and their supports
overlap too — whole-domain partitions share every coarse wavelet key.  The
:class:`SharedRetrievalScheduler` extends the merge across sessions:

* the scheduler serves the globally most important pending coefficient —
  the max of the per-session importances (Definition 3), which is the
  natural batch importance of the union workload under a max-combined
  penalty;
* the coefficient is fetched from the store **once** and delivered to
  every session whose master list still lacks it
  (:meth:`ProgressiveSession.deliver_at`), so concurrent batches never
  pay for the same key twice;
* fetched coefficients stay cached while any live session that ever had
  them pending is registered, so a session submitted later gets
  overlapping keys served without new I/O (the Storyboard-style reuse of
  precomputed state).  The cache is three union-aligned columns — value,
  *has* mask, holder count — read by gather and released in one pass.

The scheduler keeps no loop of its own: ``advance_session`` hands its
*pick* and *serve* to the driving session's loop
(:meth:`ProgressiveSession._drive`), which owns the deadline clock, the
chunk caps and the account binding.  An ``advance`` without a deadline is
served as **one chunk** (an explicit ``chunk_size``,
:data:`~repro.core.session.MAX_CHUNK_KEYS`, or a deadline's
:data:`~repro.core.session.DEFAULT_CHUNK` cut it into several), and a
chunk is one pass over the live sessions.  Two
structures, built at ``register``, ``deregister``, ``reprioritize`` and
``shed`` and never inside ``advance``, make that so:

* **the union index** — the sorted union of the live master lists (a
  cancel's keys leave it at the next registration), and per registration
  an int32 row: the master position of each union key (-1: absent).  A
  chunk is union indices; a session reads its positions with one row
  gather, and the cache columns move with the union when it is rebuilt;
* **the merged queue** — the union keys pending somewhere, in the
  one-key loop's order (max pending importance desc, key asc), with a
  *done* mask.  A key leaves every holder's pending set at once — a
  delivery reaches every session that lacks it, an abandoned fetch is
  skipped everywhere — so a key not done keeps its max pending
  importance: the order holds until a session joins, leaves with keys
  pending, re-ranks or loses a shard.

The layout is one for any number of sessions.  A lone session
registered alone has its master list as the union and the identity as
its row, and its queue is its own pending rank order (no sort): only the
queue build reads how many sessions are live.  A chunk is:

* **pick** — the queue from its cursor, past done keys, up to the key
  that brings the advancing session its ``k``-th gain (a key it lacks,
  pending or skipped, read off its row) — *exact*, not a heuristic;
* **fetch** — :func:`~repro.storage.resilient.fetch_degrading`: one store
  gather for the uncached keys; an abandoned gather degrades to per-key
  fetches so only the still-failing keys are skipped;
* **apply** — one :meth:`ProgressiveSession.deliver_at` per run of
  available keys into the advancing session; every other session keeps
  the run in an *inbox* and lands all of it with one ``deliver_at`` when
  next read (:meth:`land`), so a shared advance costs one session's work.

Without a deadline or a chunk cap, an advance ends by reading ahead the
first L keys of the schedule's head, L the longest last pick of a live
session: whichever session advances next, its pick is a prefix of them.

Answers, delivery order, counters, and degraded-state semantics are
identical for every ``chunk_size`` (1 reproduces the fetch-per-coefficient
loop literally, store-call pattern included).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from repro.core.session import MAX_CHUNK_KEYS, ProgressiveSession
from repro.obs import REGISTRY, MetricRegistry
from repro.storage.resilient import available_runs, fetch_degrading

#: Distinguishes scheduler instances inside the process-global registry.
_INSTANCE_IDS = itertools.count()


@dataclass
class _Registration:
    session: ProgressiveSession
    #: Master positions this session ever had pending while registered
    #: (at ``register`` or a later ``reprioritize``): the keys whose
    #: cached coefficients it keeps alive.
    held: np.ndarray
    #: Union index -> master position (-1: not in this master list).
    row: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int32))
    #: ``(picked, values, cached, stamp)`` runs served, not landed here yet.
    inbox: list = field(default_factory=list)
    #: Keys picked by this session's last advance.
    picked: int = 0

    def on_union(self, mask: np.ndarray) -> np.ndarray:
        """A mask over master positions as a mask over the union index."""
        union = self.row >= 0
        union[union] = mask
        return union


class SharedRetrievalScheduler:
    """A global biggest-B schedule over many progressive sessions.

    Thread-safe: every public method holds the scheduler lock, so client
    threads can drive different sessions concurrently against one store.

    ``chunk_size`` caps the keys served per store gather (None, the
    default: an ``advance`` is one gather); 1 reproduces the scalar
    fetch-per-coefficient loop exactly, store-call pattern included.
    """

    def __init__(
        self,
        store,
        registry: MetricRegistry | None = None,
        chunk_size: int | None = None,
    ) -> None:
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        #: The shared coefficient store (a CountingStore or a
        #: PagedCoefficientStore — anything with ``fetch``).
        self.store = store
        self.chunk_size = chunk_size
        self.registry = REGISTRY if registry is None else registry
        self._instance = str(next(_INSTANCE_IDS))
        #: The schedule's counters (this scheduler's ``scheduler=`` sample
        #: of each ``repro_scheduler_<name>_total``); see :meth:`counts`.
        self._counters = {
            name: self.registry.counter(
                f"repro_scheduler_{name}_total", help_text, ("scheduler",)
            )
            for name, help_text in (
                ("retrievals", "Coefficient fetches issued against the store "
                 "(the paper's cost)"),
                ("deliveries", "Coefficient applications into sessions"),
                ("cache_deliveries", "Deliveries served from the cross-session "
                 "coefficient cache"),
                ("skipped_keys", "Keys marked unavailable after the store "
                 "abandoned their fetch"),
            )
        }
        self._live_sessions = self.registry.gauge(
            "repro_scheduler_live_sessions",
            "Sessions currently registered with the shared schedule",
            ("scheduler",),
        )
        self._live_sessions.set(0, scheduler=self._instance)
        self._fetch_seconds = self.registry.histogram(
            "repro_scheduler_fetch_seconds",
            "Wall-clock latency of store fetches (one gather of a chunk's "
            "uncached keys, or one key of a degraded gather)",
        )
        self._lock = threading.RLock()
        self._registrations: dict[int, _Registration] = {}
        self._ids = itertools.count()
        #: The union index and its cache columns: each key's value, whether
        #: it is cached, and how many live registrations hold it; the
        #: merged queue, its done mask and cursor (module docstring).
        self._union = self._queue = np.empty(0, dtype=np.int64)
        self._value, self._has = np.empty(0), np.zeros(0, dtype=bool)
        self._holders, self._done = np.zeros(0, dtype=np.int32), np.zeros(0, dtype=bool)
        self._cursor = 0

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def register(self, session: ProgressiveSession) -> int:
        """Add a live session; returns its scheduler id."""
        with self._lock:
            sid = next(self._ids)
            self._registrations[sid] = reg = _Registration(session, session.pending_mask())
            self._live_sessions.inc(scheduler=self._instance)
            self._index(union=True)
            self._holders += reg.on_union(reg.held)
            return sid

    def deregister(self, sid: int) -> None:
        """Drop a session; cached keys nobody else holds are released.

        A key stays cached while any *other* live registration ever had
        it pending — a late submitter still gets it as a cache delivery
        after the session that paid for the fetch is gone.
        """
        with self._lock:
            reg = self._registrations.pop(sid, None)
            if reg is None:
                return
            self._land(reg)
            self._live_sessions.dec(scheduler=self._instance)
            self._holders -= reg.on_union(reg.held)
            self._has &= self._holders > 0
            if reg.session.pending_mask().any():  # its keys' max may drop
                self._index()

    def reprioritize(self, sid: int) -> None:
        """Note a session's re-queue (penalty switch, ``retry_skipped``).

        The session already re-sorted or rewound its own queue; the
        merged queue is rebuilt from it, and the keys that entered its
        pending set since registration (un-skipped after a heal) are
        kept cached like the rest.
        """
        with self._lock:
            reg = self._registrations[sid]
            new = reg.session.pending_mask() & ~reg.held
            reg.held |= new
            self._holders += reg.on_union(new)
            self._index()

    def shed(self, lost: Callable[[np.ndarray], np.ndarray]) -> None:
        """Skip, in every live session, the pending keys ``lost(keys)``
        marks (a shed shard's slice), and rebuild the queue without them
        so no later chunk asks the store for one."""
        with self._lock:
            self.land()
            for reg in self._registrations.values():
                keys, _ = reg.session.pending()
                reg.session.skip_many(keys[lost(keys)])
            self._index()

    @property
    def live_sessions(self) -> int:
        with self._lock:
            return len(self._registrations)

    def counts(self) -> dict[str, int]:
        """This scheduler's counters, read from the registry.

        ``retrievals`` are store fetches (the paper's cost); ``deliveries``
        are coefficient applications into sessions — with sharing they
        exceed retrievals, the surplus being I/O another session paid;
        ``cache_deliveries`` needed no fetch at all (a still-live session
        retrieved the key); ``skipped_keys`` were marked unavailable after
        the store abandoned their fetch — the affected sessions degrade,
        their Theorem-1 bounds staying valid, instead of crashing the loop.
        """
        with self._lock:  # no serve between the landing and the read
            self.land()
            return {
                name: int(counter.value(scheduler=self._instance))
                for name, counter in self._counters.items()
            }

    def land(self, sid: int | None = None) -> None:
        """Land session ``sid``'s inbox (None: every one): whoever reads a
        session or :meth:`counts` lands first, so no count is seen lagging."""
        with self._lock:
            for reg in self._registrations.values() if sid is None else (self._registrations[sid],):
                self._land(reg)

    def _count(self, name: str, amount: int = 1) -> None:
        self._counters[name].inc(amount, scheduler=self._instance)

    # ------------------------------------------------------------------
    # The shared schedule
    # ------------------------------------------------------------------

    def advance_session(self, sid: int, k: int = 1, deadline: float | None = None) -> int:
        """Run the shared schedule until session ``sid`` gains ``k`` keys.

        Other sessions receive every served coefficient they need along
        the way — that is the point.  Without a ``deadline`` the request
        is one chunk — one pick ending at the target's ``k``-th gain
        (:meth:`_pick`), one store gather, one vectorized update per
        session — never past ``k``, so the set and order of served keys
        are those of the scalar loop.  The loop is the session's
        (:meth:`ProgressiveSession._drive`): it picks again only when a
        key was skipped or a cap cut the chunk — ``chunk_size``,
        :data:`~repro.core.session.MAX_CHUNK_KEYS`, or under a
        ``deadline`` :data:`~repro.core.session.DEFAULT_CHUNK`.  Returns
        the number of coefficients the target session actually gained
        (less than ``k`` at exhaustion, when the remaining keys are
        unavailable, or once ``deadline`` seconds have elapsed).  The
        front's ``advance`` times the call: its one region is the driving
        session's ``schedule`` stage.
        """
        with self._lock:
            reg = self._registrations[sid]
            self._land(reg)
            reg.picked = 0
            # The driving session's loop with this schedule's pick and serve:
            # it pays for the fetches it requested and any retries, though
            # other sessions receive coefficients along the way; their
            # accounts are charged deliveries/cache hits as they land.
            gained = reg.session._drive(
                k, deadline, self.chunk_size, partial(self._pick, reg),
                partial(self._serve_batch, reg),
            )
            # Send the schedule's next keys while this advance folds and replies.
            read_ahead = None if self.chunk_size else getattr(self.store, "read_ahead", None)
            if read_ahead and deadline is None:
                span = max(other.picked for other in self._registrations.values())
                read_ahead(lambda: self._uncached(self._pick(None, span, MAX_CHUNK_KEYS)))
            return gained

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _index(self, union: bool = False) -> None:
        """Rebuild the merged queue — pending union keys by max pending
        importance desc, key asc; one live session's own pending rank order
        needs no sort — after the union index and its columns if ``union``."""
        self.land()
        regs = list(self._registrations.values())
        if union:
            kept = np.zeros(self._union.size, dtype=bool)
            for reg in regs[:-1]:  # less the keys of departed sessions
                kept |= reg.row >= 0
            old, own = self._union[kept], regs[-1].session.plan.keys
            self._union = keys = np.union1d(old, own) if old.size else own
            moved = np.searchsorted(keys, old)
            for name in ("_value", "_has", "_holders"):
                column = getattr(self, name)
                setattr(self, name, np.zeros(keys.size, dtype=column.dtype))
                getattr(self, name)[moved] = column[kept]
            for reg in regs:
                own = reg.session.plan.keys
                reg.row = np.full(keys.size, -1, dtype=np.int32)
                at = np.searchsorted(keys, own) if own.size < keys.size else slice(None)
                reg.row[at] = np.arange(own.size, dtype=np.int32)  # equal sizes: the identity
        if len(regs) == 1:
            order = regs[0].session._order
            order = order[regs[0].session.pending_mask()[order]]
            queue = np.flatnonzero(regs[0].row >= 0)[order]
        else:
            best = np.full(self._union.size, -np.inf)
            for reg in regs:
                pending = reg.session.pending_mask()
                where = reg.on_union(pending)
                best[where] = np.maximum(best[where], reg.session._importance[pending])
            queue = np.flatnonzero(best > -np.inf)
            queue = queue[np.argsort(-best[queue], kind="stable")]
        self._queue, self._done, self._cursor = queue, np.zeros(self._union.size, dtype=bool), 0

    def _pick(self, reg: _Registration | None, need: int, limit: int) -> np.ndarray:
        """Union indices of the merged pending order up to the key that
        brings ``reg``'s session its ``need``-th gain, at most ``limit``.

        Every key it lacks is a gain, pending or skipped (a delivery
        un-skips it); lacking nothing pending anywhere (degraded), it is
        served the merged remainder.  ``reg`` None: every key is a gain
        (the schedule's head).
        """
        queue, done = self._queue, self._done
        scan, width, blocks, gains = self._cursor, need, [], 0
        while need and scan < queue.size and limit:  # doubling blocks past done keys
            block = queue[scan : scan + width]
            scan, width = scan + block.size, width * 2
            block = block[~done[block]][:limit]
            if not block.size:
                if not blocks:
                    self._cursor = scan  # a done prefix: never scanned again
                continue
            gained = np.arange(1, block.size + 1) if reg is None else np.cumsum(
                ((pos := reg.row[block]) >= 0) & ~reg.session._retrieved[pos]
            )
            if gains + gained[-1] >= need:
                blocks.append(block[: int(np.searchsorted(gained, need - gains)) + 1])
                break
            blocks.append(block)
            limit -= block.size
            gains += int(gained[-1])
        return np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)

    def _uncached(self, picked: np.ndarray) -> np.ndarray:
        return self._union[picked[~self._has[picked]]]

    def _serve_batch(self, driver: _Registration, picked: np.ndarray) -> None:
        """Fetch and deliver one chunk of picked union indices, in serve
        order.

        Cached keys are read off the columns; the rest go to the store as
        **one** gather (:func:`~repro.storage.resilient.fetch_degrading`
        owns the per-key fallback).  Deliveries are applied as maximal
        runs of available keys between failures, so per-session estimate
        updates, counters, and bound records land in exactly the scalar
        order: into ``driver`` now, into the others' inboxes.
        """
        driver.picked += picked.size
        keys, cached, values = self._union[picked], self._has[picked], self._value[picked]
        failed: list[int] = []
        if not cached.all():
            missing = np.flatnonzero(~cached)
            values[missing], lost = fetch_degrading(
                self.store, keys[missing], "scheduler.fetch", self._fetch_seconds
            )
            failed = missing[lost].tolist()
            fetched = np.delete(missing, lost) if lost else missing
            self._value[picked[fetched]], self._has[picked[fetched]] = values[fetched], True
            self._count("retrievals", fetched.size)
        stamp = driver.session.stamp()
        for lo, hi in available_runs(keys.size, failed):
            if hi > lo:
                run = (picked[lo:hi], values[lo:hi], cached[lo:hi], stamp)
                for reg in self._registrations.values():
                    if reg is driver:
                        self._deliver(reg, *run)
                    else:
                        reg.inbox.append(run)
            # An abandoned key is skipped by every session waiting on it.
            if hi < keys.size and sum(
                reg.session.skip_many(keys[hi : hi + 1])
                for reg in self._registrations.values()
            ):
                self._count("skipped_keys")
        self._done[picked] = True  # delivered or skipped wherever pending

    def _land(self, reg: _Registration) -> None:
        """Deliver ``reg``'s inbox as one run, each key keeping its serve's stamp."""
        inbox, reg.inbox = reg.inbox, []
        if inbox:
            picked, values, cached = (np.concatenate([run[i] for run in inbox]) for i in range(3))
            stamps = [run[3] or (np.nan, -1) for run in inbox]
            stamp = tuple(
                np.repeat(column, [run[0].size for run in inbox]) for column in zip(*stamps)
            ) if any(run[3] for run in inbox) else None
            self._deliver(reg, picked, values, cached, stamp)

    def _deliver(self, reg: _Registration, picked, values, cached, stamp) -> None:
        applied = reg.session.deliver_at(reg.row[picked], values, stamp)
        deliveries = int(np.count_nonzero(applied))
        if deliveries:
            self._count("deliveries", deliveries)
        hits = int(np.count_nonzero(applied & cached)) if cached.any() else 0
        if hits:
            self._count("cache_deliveries", hits)
            # The receiving session got the keys without any I/O:
            # cross-session cache hits on *its* account.
            reg.session.costs.add(cache_hits=hits)
