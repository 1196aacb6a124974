"""The closed-loop client: sessions, timings, and the correctness checks.

One ``ClusterClient`` on one keep-alive connection drives every session
from the main thread; the next request is sent only after the previous
reply arrived.  Every client call and every check is an *operation*
(:class:`Ops`); a failed one is counted, never swallowed, and the command
exits non-zero if there is any.

Replies are kept and checked against the dense oracle when the session
ends, so the checks cost nothing inside the timed path.
"""

from __future__ import annotations

import http.client
import time
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.client import ClusterApiError, ClusterClient
from repro.queries.vector_query import QueryBatch

from workloads import Scale, Workload, cursor_penalty, wave_sizes

#: Bound targets, as shares of the bound polled right after submit.
ONE_PCT, TENTH_PCT = 1e-2, 1e-3
REL_TOL = 1e-9


class OpFailed(RuntimeError):
    """A client call failed; the unit it belonged to is abandoned."""


class Ops:
    """Operation accounting, plus the span list of a traced pass."""

    def __init__(self, traced: bool) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: ``(name, lane, start, seconds)`` per client call and session,
        #: recorded only in a traced pass and written out at exit.
        self.spans: list[tuple[str, int, float, float]] | None = [] if traced else None
        #: Seconds spent on the tracing itself (scrapes between units).
        self.trace_pause_s = 0.0

    def call(self, name: str, lane: int, fn, *args):
        """One timed client call; returns ``(result, seconds)``."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except (ClusterApiError, OSError, http.client.HTTPException) as exc:
            self.fail(f"{name} (session lane {lane}): {exc!r}")
            raise OpFailed(name) from exc
        seconds = time.perf_counter() - t0
        self.span(name, lane, t0, seconds)
        return result, seconds

    def span(self, name: str, lane: int, start: float, seconds: float) -> None:
        if self.spans is not None:
            self.spans.append((name, lane, start, seconds))

    def check(self, held, message: str, count: int = 1) -> None:
        """``count`` checks of one kind, of which ``held`` passed (a bool
        when it is a single check)."""
        held = int(held)
        self.attempted += count
        if held < count:
            self.failed += count - held
            self._note(f"{message} ({count - held} of {count})")

    def fail(self, message: str) -> None:
        self.failed += 1
        self._note(message)

    def _note(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)


@dataclass
class SessionRun:
    """One session's inputs, timings and kept replies."""

    lane: int
    batch: QueryBatch
    exact: np.ndarray
    k: int
    stop: str
    sid: str = ""
    t0: float = 0.0
    initial_bound: float = 0.0
    master_keys: int = 0
    submit_s: float = 0.0
    poll_s: float = 0.0
    set_penalty_s: float | None = None
    first_answer_s: float | None = None
    bound_1pct_s: float | None = None
    bound_tenth_pct_s: float | None = None
    session_s: float | None = None
    retrievals_to_1pct: int | None = None
    advance_s: list[float] = field(default_factory=list)
    gained: int = 0
    #: Kept replies: bound, estimates, steps_taken, remaining, is_exact.
    bounds: list[float] = field(default_factory=list)
    estimates: list[list[float]] = field(default_factory=list)
    last: dict = field(default_factory=dict)
    #: Reply index of the first snapshot taken under the retargeted penalty.
    retargeted_at: int | None = None
    costs: dict | None = None
    done: bool = False

    # -- the session API, timed ----------------------------------------

    def open(self, client: ClusterClient, ops: Ops) -> None:
        self.t0 = time.perf_counter()
        self.sid, self.submit_s = ops.call("submit", self.lane, client.submit, self.batch)
        snapshot, self.poll_s = ops.call("poll", self.lane, client.poll, self.sid)
        self.initial_bound = float(snapshot["worst_case_bound"])
        self.master_keys = int(snapshot["remaining"])
        self._keep(snapshot)

    def advance(self, client: ClusterClient, ops: Ops) -> None:
        reply, seconds = ops.call("advance", self.lane, client.advance, self.sid, self.k)
        now = time.perf_counter() - self.t0
        self.advance_s.append(seconds)
        self.gained += int(reply["gained"])
        snapshot = reply["snapshot"]
        self._keep(snapshot)
        bound = float(snapshot["worst_case_bound"])
        if self.first_answer_s is None:
            self.first_answer_s = now
        if self.bound_1pct_s is None and bound <= ONE_PCT * self.initial_bound:
            self.bound_1pct_s = now
            self.retrievals_to_1pct = int(snapshot["steps_taken"])
        if self.bound_tenth_pct_s is None and bound <= TENTH_PCT * self.initial_bound:
            self.bound_tenth_pct_s = now
        if snapshot["is_exact"] or (
            self.stop == "bound" and self.bound_tenth_pct_s is not None
        ):
            self.session_s = now
            self.done = True
        elif not reply["gained"]:
            ops.fail(f"session {self.sid} stalled: advance gained 0 before its stop")
            raise OpFailed("advance")

    def retarget(self, client: ClusterClient, ops: Ops) -> None:
        snapshot, self.set_penalty_s = ops.call(
            "set_penalty", self.lane, client.set_penalty, self.sid,
            cursor_penalty(self.batch.size),
        )
        self.retargeted_at = len(self.bounds)
        self._keep(snapshot)

    def finish(self, client: ClusterClient, ops: Ops) -> None:
        """Cancel the session; a traced pass reads its cost ledger first
        (the ledger dies with the session) and books that as a pause."""
        if not self.sid:
            return
        try:
            if ops.spans is not None and self.done:
                t0 = time.perf_counter()
                self.costs = client.session_costs(self.sid)
                ops.trace_pause_s += time.perf_counter() - t0
            ops.call("cancel", self.lane, client.cancel, self.sid)
        except (OpFailed, ClusterApiError, OSError, http.client.HTTPException):
            pass  # counted already, or the session died with the server
        ops.span("session", self.lane, self.t0, time.perf_counter() - self.t0)

    def _keep(self, snapshot: dict) -> None:
        self.bounds.append(float(snapshot["worst_case_bound"]))
        self.estimates.append(snapshot["estimates"])
        self.last = snapshot

    # -- the oracle and the invariants -----------------------------------

    def check(self, ops: Ops) -> None:
        name = f"session {self.sid} ({self.batch.name})"
        bounds = np.asarray(self.bounds)
        estimates = np.asarray(self.estimates, dtype=np.float64)
        scale = float(np.max(np.abs(self.exact))) or 1.0
        sse = np.sum((estimates - self.exact) ** 2, axis=1)
        # Theorem 1 under the submitted (SSE) penalty: the bound dominates
        # the true error at every reply, up to float round-off at exact.
        upto = len(bounds) if self.retargeted_at is None else self.retargeted_at
        ops.check(
            np.count_nonzero(sse[:upto] <= bounds[:upto] * (1 + REL_TOL) + REL_TOL * scale**2),
            f"{name}: worst_case_bound below the actual SSE",
            count=upto,
        )
        falls = bounds[1:] <= bounds[:-1] * (1 + REL_TOL)
        if self.retargeted_at is not None:
            falls[self.retargeted_at - 1] = True  # a new penalty rescales the bound
        ops.check(np.count_nonzero(falls), f"{name}: bound increased", count=len(falls))
        if self.stop == "exact":
            ops.check(
                bool(self.last["is_exact"]) and int(self.last["remaining"]) == 0
                and int(self.last["steps_taken"]) == self.master_keys,
                f"{name}: exact after {self.last['steps_taken']} retrievals, "
                f"master list has {self.master_keys}",
            )
            ops.check(
                np.allclose(estimates[-1], self.exact, rtol=REL_TOL, atol=REL_TOL * scale),
                f"{name}: final estimates differ from the dense oracle",
            )
        else:
            ops.check(
                bounds[-1] <= TENTH_PCT * self.initial_bound,
                f"{name}: stopped above 0.1% of the initial bound",
            )
        self.estimates = []  # the replies are checked; free them


@dataclass
class UnitResult:
    """One unit of offered load: a session, or a wave of drill sessions."""

    wall_s: float
    sessions: list[SessionRun]


def unit_lanes(workload: Workload, scale: Scale, units: int) -> list[range]:
    """Session numbers of each unit — drill sessions come in bounded waves."""
    if workload.kind != "drill":
        return [range(u, u + 1) for u in range(units)]
    lanes, first = [], 0
    for size in wave_sizes(units * scale.wave, scale.wave):
        lanes.append(range(first, first + size))
        first += size
    return lanes


def run_unit(
    client: ClusterClient, ops: Ops, workload: Workload, scale: Scale,
    seed: int, oracle, lanes: range,
) -> UnitResult:
    """Submit the unit's sessions, then advance them round-robin until
    each reaches its stop and is cancelled.  The wall covers every client
    call of the unit; oracle checks run after it, ledger reads are paused."""
    k = scale.k_drill if workload.kind == "drill" else scale.k_partition
    runs = []
    for lane in lanes:
        batch = workload.batch(scale, seed, lane)
        runs.append(SessionRun(lane, batch, oracle(batch), k, workload.stop))
    paused = ops.trace_pause_s
    t0 = time.perf_counter()
    live: list[SessionRun] = []
    try:
        for run in runs:
            run.open(client, ops)
            live.append(run)
        rounds = 0
        while live:
            rounds += 1
            for run in list(live):
                run.advance(client, ops)
                if run.done:
                    live.remove(run)
                    run.finish(client, ops)
                elif (
                    workload.kind == "drill"
                    and rounds == scale.penalty_round
                    and run.lane % 2 == 0
                ):
                    run.retarget(client, ops)
    except OpFailed:
        for run in runs:
            if not run.done:
                run.finish(client, ops)
    wall_s = time.perf_counter() - t0 - (ops.trace_pause_s - paused)
    for run in runs:
        if run.done:
            run.check(ops)
    return UnitResult(wall_s, runs)
