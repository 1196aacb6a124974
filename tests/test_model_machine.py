"""Stateful check of every session front against ``tests/model.py``.

Hypothesis interleaves every public operation — submit, advance, poll,
set_penalty, cancel, a key blackout, heal + retry_skipped — for chunk
sizes 1, 7, 64 and the default (None: the pick sizes itself, one chunk
per advance), and after every rule compares the service with the
reference model: snapshots bit for bit, counters, the Theorem-1 bound
against the true penalty, and the fetch-once rule at the store.

The same machine runs on every front: the in-process
``ProgressiveQueryService`` and ``ClusterRouter`` over 1 or 2 inline
shards (hash and range partitioners) whose workers all read the
machine's one ``RecordingStore -> FaultInjectingStore -> ResilientStore``
stack, so a blackout and the fetch record mean the same thing everywhere.
The fifth front is the 2-shard hash router over inline shards that
report themselves as process shards, so it reads ahead: the model
predicts every read-ahead and whether the next store touch uses it, and
the recorder sees the fresh keys plus the read-aheads dropped.

The heal rule re-queues *every* live session, like
``ClusterRouter.reintegrate_shard``; a key skipped for the advancing
session yet pending for another is reached by a scripted regression
below instead.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cluster import ClusterRouter, InlineShard, ShardWorker, make_partitioner
from repro.core.penalties import CursoredSsePenalty, LpPenalty, SsePenalty
from repro.core.plan import QueryPlan
from repro.obs import MetricRegistry
from repro.queries.workload import partition_count_batch
from repro.service.server import ProgressiveQueryService
from repro.storage.faults import FaultInjectingStore
from repro.storage.resilient import CircuitBreaker, ResilientStore, RetryPolicy
from repro.storage.wavelet_store import WaveletStorage
from tests.model import Model

SHAPE = (16, 16)
STORAGE = WaveletStorage.build(
    np.random.default_rng(99).poisson(3.0, size=SHAPE).astype(np.float64),
    wavelet="db2",
)
#: Overlapping workloads: every partition of the domain shares the
#: coarse wavelet keys, so cross-session sharing is the common case.
BATCHES = [
    partition_count_batch(SHAPE, cells, rng=np.random.default_rng(seed))
    for seed, cells in enumerate([(2, 2), (2, 2), (3, 2), (2, 3)])
]
PENALTIES = st.sampled_from(
    [SsePenalty(), LpPenalty(1.5), LpPenalty(3.0), ("cursor", 0), ("cursor", 2)]
)


def make_penalty(spec, batch_size):
    if isinstance(spec, tuple):
        return CursoredSsePenalty(batch_size, high_priority=[spec[1]])
    return spec


class RecordingStore:
    """Base of the store stack: sees only fetches that got past the faults."""

    def __init__(self, inner):
        self.inner, self.fetched = inner, []

    def fetch(self, keys):
        self.fetched.extend(np.asarray(keys).ravel().tolist())
        return self.inner.fetch(keys)

    def __getattr__(self, name):
        return getattr(self.inner, name)


#: Chunk caps under test; None is the default (the pick sizes itself).
CHUNKS = [1, 7, 64, None]


class ProcessLikeShard(InlineShard):
    """An inline shard the router takes for a process shard: it reads
    ahead over it, and the command runs at ``recv``."""

    is_process = True


def make_front(shards, partitioner, chunk, shard_type=InlineShard):
    """``(service, fault injector, recorder)``: the in-process service, or
    a router over ``shards`` shards of ``shard_type``, on one recorded
    store stack."""
    recorder = RecordingStore(STORAGE.store)
    faults = FaultInjectingStore(recorder)
    store = ResilientStore(
        faults,
        policy=RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0),
        breaker=CircuitBreaker(failure_threshold=10**9),
        sleep=lambda _s: None,
        registry=MetricRegistry(),
    )
    storage = STORAGE.with_store(store)
    if shards:
        service = ClusterRouter(
            storage,
            [shard_type(ShardWorker(store, i)) for i in range(shards)],
            make_partitioner(partitioner, shards, store.key_space_size),
            registry=MetricRegistry(),
            chunk_size=chunk,
        )
    else:
        service = ProgressiveQueryService(
            storage, registry=MetricRegistry(), chunk_size=chunk
        )
    return service, faults, recorder


class ServiceMachine(RuleBasedStateMachine):
    """The in-process front; subclasses set ``SHARDS`` to run the same
    rules against a router over that many inline shards."""

    SHARDS = 0
    PARTITIONER = "hash"
    SHARD_TYPE = InlineShard
    sessions = Bundle("sessions")

    @initialize(chunk=st.sampled_from(CHUNKS))
    def start(self, chunk):
        if self.SHARD_TYPE.is_process:
            chunk = None  # a chunk cap turns read-ahead off
        self.service, self.faults, self.recorder = make_front(
            self.SHARDS, self.PARTITIONER, chunk, self.SHARD_TYPE
        )
        self.model = Model(STORAGE, reads_ahead=self.SHARD_TYPE.is_process)
        self.last_bound = {}
        self.cancelled = False
        self.last_advance = None

    @rule(target=sessions, which=st.integers(0, len(BATCHES) - 1), spec=PENALTIES)
    def submit(self, which, spec):
        batch = BATCHES[which]
        penalty = make_penalty(spec, batch.size)
        sid = self.service.submit(batch, penalty)
        plan = QueryPlan.from_batch(STORAGE, batch)
        self.model.submit(sid, plan, penalty)
        return sid

    @rule(sid=sessions, k=st.integers(0, 40))
    def advance(self, sid, k):
        cached, seen = set(self.model.cache), len(self.recorder.fetched)
        assert self.service.advance(sid, k) == self.model.advance(sid, k)
        self.last_advance = (sid, k)
        # Fetched once, and never while the cache already held the key,
        # besides the read-aheads dropped.  (Across shards a gather one
        # owner abandoned is re-driven per key, so while keys are dark a
        # healthy owner's slice of that chunk can reach the base store a
        # second time.)
        self.fetched_since(seen, set(self.model.cache) - cached)

    @precondition(lambda self: self.last_advance and self.last_advance[0] in self.model.sessions)
    @rule()
    def advance_again(self):
        """A client's loop: the same session, the same ``k``."""
        self.advance(*self.last_advance)

    def fetched_since(self, seen, fresh):
        """The recorder saw ``fresh`` and the dropped read-aheads' slices
        that no dark key failed, since ``seen``."""
        fetched, dropped = self.recorder.fetched[seen:], []
        for keys in self.model.dropped:
            for owned, *_ in self.service.partitioner.split(np.array(keys)):
                if not self.model.blackout & set(owned.tolist()):
                    dropped += owned.tolist()
        self.model.dropped.clear()
        assert set(fetched) == fresh | set(dropped)
        if self.SHARDS < 2 or not self.model.blackout:
            assert len(fetched) == len(fresh) + len(dropped)

    @rule(sid=sessions)
    def poll(self, sid):
        self.service.poll(sid)

    @rule(sid=sessions, spec=PENALTIES)
    def set_penalty(self, sid, spec):
        penalty = make_penalty(spec, self.model.sessions[sid].plan.batch_size)
        self.service.set_penalty(sid, penalty)
        self.model.requeue(sid, penalty)
        self.last_bound.pop(sid, None)

    @rule(sid=consumes(sessions))
    def cancel(self, sid):
        seen = len(self.recorder.fetched)
        self.service.cancel(sid)
        self.model.cancel(sid)
        self.fetched_since(seen, set())
        self.last_bound.pop(sid, None)
        self.cancelled = True

    @rule(seed=st.integers(0, 2**16), count=st.integers(1, 6))
    def blackout(self, seed, count):
        pending = sorted(set().union(*(s.pending() for s in self.model.sessions.values())))
        if pending:
            dark = np.random.default_rng(seed).choice(pending, size=count).tolist()
            self.faults.blackout_keys.update(dark)
            self.model.blackout.update(dark)

    @rule()
    def heal(self):
        self.faults.heal()
        self.model.blackout.clear()
        for sid, s in self.model.sessions.items():
            assert self.service.retry_skipped(sid) == len(s.skipped)
            self.model.requeue(sid)

    @invariant()
    def service_matches_model(self):
        union = set()
        for sid, s in self.model.sessions.items():
            snap = self.service.poll(sid)
            assert snap.estimates.tobytes() == s.answers().tobytes()
            assert snap.steps_taken == len(s.retrieved)
            assert snap.remaining == len(s.keys - s.retrieved)
            assert snap.is_exact == (s.retrieved == s.keys)
            assert snap.skipped_count == len(s.skipped)
            assert snap.degraded == bool(s.skipped)
            assert snap.worst_case_bound == s.bound(self.model.k_const)
            # Theorem 1: the bound covers the true penalty, and only a
            # penalty switch may raise it.
            true_penalty = s.penalty(snap.estimates - s.exact)
            assert snap.worst_case_bound >= true_penalty * (1 - 1e-9) - 1e-9
            assert snap.worst_case_bound <= self.last_bound.get(sid, np.inf)
            self.last_bound[sid] = snap.worst_case_bound
            # One convergence record per applied coefficient, carrying the
            # bound the one-key-at-a-time loop saw right after it.
            assert [
                (r.steps_taken, r.worst_case_bound)
                for r in self.service.convergence(sid)
            ] == s.records
            union |= s.keys
        m = self.service.scheduler.counts()
        assert m == {
            "retrievals": self.model.retrievals,
            "deliveries": self.model.deliveries,
            "cache_deliveries": self.model.cache_deliveries,
            "skipped_keys": self.model.skipped_keys,
        }
        if self.SHARDS:
            readahead = self.service.store._readahead
            assert (readahead.value(outcome="used"), readahead.value(outcome="unused")) == (
                self.model.used, self.model.unused
            )
        if not self.cancelled:
            # Observation 1 across sessions: the union is fetched once.
            assert m["retrievals"] <= len(union)
            if all(s.retrieved == s.keys for s in self.model.sessions.values()):
                assert m["retrievals"] == len(union)


class RouterMachine1(ServiceMachine):
    SHARDS = 1


class RouterMachine2Hash(ServiceMachine):
    SHARDS = 2


class RouterMachine2Range(ServiceMachine):
    SHARDS, PARTITIONER = 2, "range"


class RouterMachine2ReadAhead(ServiceMachine):
    SHARDS, SHARD_TYPE = 2, ProcessLikeShard


#: The 40 examples the in-process machine used to run, split over the
#: first four fronts; the front that reads ahead gets 40 of its own.
for _machine, _examples in (
    (ServiceMachine, 10), (RouterMachine1, 10), (RouterMachine2Hash, 10),
    (RouterMachine2Range, 10), (RouterMachine2ReadAhead, 40),
):
    _machine.TestCase.settings = settings(
        max_examples=_examples, stateful_step_count=30, deadline=None, derandomize=True
    )
TestServiceMachine = ServiceMachine.TestCase
TestRouterMachine1 = RouterMachine1.TestCase
TestRouterMachine2Hash = RouterMachine2Hash.TestCase
TestRouterMachine2Range = RouterMachine2Range.TestCase
TestRouterMachine2ReadAhead = RouterMachine2ReadAhead.TestCase


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize(
    "shards, partitioner", [(0, "hash"), (1, "hash"), (2, "hash"), (2, "range")]
)
def test_degraded_target_with_nothing_pending_serves_the_merged_remainder(
    shards, partitioner, chunk
):
    """The corner the pick's floor rule must not break: a target with
    nothing pending yet not exact (all it lacks is skipped) sets no floor,
    so its ``advance`` serves what every other session still has pending,
    as the model does.
    """
    service, faults, _ = make_front(shards, partitioner, chunk)
    model = Model(STORAGE)
    sids = []
    for batch in (BATCHES[0], BATCHES[2]):
        sids.append(service.submit(batch))
        model.submit(sids[-1], QueryPlan.from_batch(STORAGE, batch), SsePenalty())
    a, b = sids
    dark = model.sessions[a].keys
    faults.blackout_keys.update(dark)
    model.blackout.update(dark)
    for sid, k in ((a, 5), (b, 3)):
        assert service.advance(sid, k) == model.advance(sid, k)
        for session_id, s in model.sessions.items():
            snap = service.poll(session_id)
            assert snap.estimates.tobytes() == s.answers().tobytes()
            assert (snap.steps_taken, snap.skipped_count) == (
                len(s.retrieved), len(s.skipped)
            )
            assert snap.worst_case_bound == s.bound(model.k_const)
        # A's first advance gained nothing, ran A dry, and went on to
        # serve B every key B does not share with A.
        assert service.poll(a).skipped_count == len(dark)
        assert service.poll(b).steps_taken == len(model.sessions[b].keys - dark) > 5
    m = service.scheduler.counts()
    assert (m["retrievals"], m["deliveries"], m["skipped_keys"]) == (
        model.retrievals, model.deliveries, model.skipped_keys
    )


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize(
    "shards, partitioner", [(0, "hash"), (1, "hash"), (2, "hash"), (2, "range")]
)
@pytest.mark.parametrize("dark", ["shared", "all"])
def test_keys_skipped_for_the_target_count_toward_its_k(shards, partitioner, chunk, dark):
    """A key the target skipped, pending for a session submitted after the
    heal, is delivered to the target too: the pick must count it as one of
    the target's ``k`` gains, or one chunk overshoots ``k`` (21 or more
    keys for ``advance(a, 3)``) where the one-key loop stops at 3.
    ``dark="all"`` leaves the target nothing pending at all.
    """
    service, faults, _ = make_front(shards, partitioner, chunk)
    model = Model(STORAGE)
    batch_a = partition_count_batch(SHAPE, (4, 4), rng=np.random.default_rng(2))
    batch_b = partition_count_batch(SHAPE, (4, 2), rng=np.random.default_rng(3))
    a = service.submit(batch_a)
    model.submit(a, QueryPlan.from_batch(STORAGE, batch_a), SsePenalty())
    keys_a = model.sessions[a].keys
    blackout = keys_a
    if dark == "shared":
        blackout = keys_a & set(QueryPlan.from_batch(STORAGE, batch_b).keys.tolist())
    faults.blackout_keys.update(blackout)
    model.blackout.update(blackout)
    while not service.poll(a).degraded:
        assert service.advance(a, 8) == model.advance(a, 8)
    faults.heal()
    model.blackout.clear()
    b = service.submit(batch_b)
    model.submit(b, QueryPlan.from_batch(STORAGE, batch_b), SsePenalty())
    for sid in (a, a, b):
        assert service.advance(sid, 3) == model.advance(sid, 3) == 3
        for session_id, s in model.sessions.items():
            snap = service.poll(session_id)
            assert snap.estimates.tobytes() == s.answers().tobytes()
            assert (snap.steps_taken, snap.skipped_count) == (
                len(s.retrieved), len(s.skipped)
            )
            assert snap.worst_case_bound == s.bound(model.k_const)
    m = service.scheduler.counts()
    assert (m["retrievals"], m["deliveries"], m["skipped_keys"]) == (
        model.retrievals, model.deliveries, model.skipped_keys
    )
