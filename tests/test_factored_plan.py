"""A plan built from per-dimension factors is the dense plan.

``QueryPlan.from_batch`` plans a grid batch from its per-axis factors and
builds columns lazily; ``QueryPlan.from_rewrites`` flattens the rewritten
tensors.  Everything but the last bits of the SSE importance must be the
same object either way, whatever was built when.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.plan as plan_module
from repro.core.penalties import (
    CursoredSsePenalty,
    LaplacianPenalty,
    LpPenalty,
    SsePenalty,
)
from repro.core.plan import QueryPlan
from repro.queries.polynomial import Polynomial
from repro.queries.range import HyperRect
from repro.queries.vector_query import QueryBatch, VectorQuery
from repro.queries.workload import (
    drill_down_batch,
    partition_count_batch,
    partition_sum_batch,
    random_rectangles,
)
from repro.service.server import ProgressiveQueryService
from repro.storage.faults import FaultInjectingStore
from repro.storage.prefix_sum import PrefixSumStorage
from repro.storage.resilient import CircuitBreaker, ResilientStore, RetryPolicy
from repro.storage.wavelet_store import WaveletStorage

SHAPES = [(16, 8), (8, 4, 8), (4, 8, 2, 4)]


def wavelet_storage(shape, wavelet, seed=0):
    data = np.random.default_rng(seed).poisson(2.0, size=shape).astype(np.float64)
    return WaveletStorage.build(data, wavelet=wavelet)


@st.composite
def grid_cases(draw):
    shape = draw(st.sampled_from(SHAPES))
    wavelet = draw(st.sampled_from(["haar", "db2", "matched"]))
    if wavelet == "matched":
        wavelet = ["haar"] * (len(shape) - 1) + ["db2"]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = tuple(int(rng.integers(1, min(side, 3) + 1)) for side in shape)
    kind = draw(st.sampled_from(["count", "sum", "drill"]))
    if kind == "count":
        batch = partition_count_batch(shape, cells, rng=rng)
    elif kind == "sum":
        measure = len(shape) - 1
        batch = partition_sum_batch(shape, cells[:-1], measure, rng=rng)
    else:
        parent = HyperRect(tuple((1, max(1, side - 2)) for side in shape))
        cells = tuple(min(c, hi) for c, (_, hi) in zip(cells, parent.bounds))
        batch = drill_down_batch(parent, cells, rng=rng, measure_attribute=0)
    if draw(st.booleans()):  # any query order is still the same grid
        batch = QueryBatch([batch[i] for i in rng.permutation(batch.size)])
    return wavelet_storage(shape, wavelet), batch, rng


@settings(max_examples=40, deadline=None)
@given(case=grid_cases())
def test_factored_plan_is_the_dense_plan(case):
    storage, batch, rng = case
    plan = QueryPlan.from_batch(storage, batch)
    dense = QueryPlan.from_rewrites(storage.rewrite_batch(batch))
    assert plan._grid is not None and dense._grid is None

    np.testing.assert_array_equal(plan.keys, dense.keys)
    np.testing.assert_array_equal(plan.counts, dense.counts)
    np.testing.assert_array_equal(plan.per_query_nnz, dense.per_query_nnz)
    assert plan.num_entries == dense.num_entries
    assert plan.total_query_coefficients == dense.total_query_coefficients

    sse, sse_dense = plan.importance(SsePenalty()), dense.importance(SsePenalty())
    np.testing.assert_allclose(sse, sse_dense, rtol=1e-12, atol=0.0)
    assert plan._used == 0, "ranking a grid batch under SSE builds no column"

    # Columns, read in an order of their own and in uneven chunks.
    order = rng.permutation(plan.num_keys)
    for chunk in np.array_split(order, 5):
        for got, want in zip(plan.chunk_segments(chunk), dense.chunk_segments(chunk)):
            np.testing.assert_array_equal(got, want)
    for name in ("entry_key_pos", "entry_qid", "entry_val"):
        np.testing.assert_array_equal(getattr(plan, name), getattr(dense, name))

    penalties = [LpPenalty(1.5), CursoredSsePenalty(batch.size, high_priority=[0])]
    if batch.size > 1:
        penalties.append(LaplacianPenalty.chain(batch.size))
    for penalty in penalties:
        np.testing.assert_array_equal(
            plan.importance(penalty), dense.importance(penalty)
        )
    coefficients = rng.normal(size=plan.num_keys)
    np.testing.assert_array_equal(
        plan.exact_estimates(coefficients), dense.exact_estimates(coefficients)
    )


@settings(max_examples=15, deadline=None)
@given(case=grid_cases(), block=st.integers(1, 400))
def test_fallbacks_on_a_partially_built_plan(case, block):
    """A non-factoring penalty, the flat entry view and the exact
    reduction build what is missing, whatever was built before."""
    storage, batch, rng = case
    dense = QueryPlan.from_rewrites(storage.rewrite_batch(batch))
    penalty = CursoredSsePenalty(batch.size, high_priority=[batch.size - 1])
    coefficients = rng.normal(size=dense.num_keys)
    old = plan_module.COLUMN_BLOCK
    plan_module.COLUMN_BLOCK = block
    try:
        for use in ("importance", "exact", "entries"):
            plan = QueryPlan.from_batch(storage, batch)
            plan.ranking(SsePenalty())
            plan.build_next_block()
            plan.chunk_segments(rng.permutation(plan.num_keys)[:3])  # stragglers
            if use == "importance":
                got, want = plan.importance(penalty), dense.importance(penalty)
            elif use == "exact":
                got = plan.exact_estimates(coefficients)
                want = dense.exact_estimates(coefficients)
            else:
                got, want = plan.entry_val, dense.entry_val
            np.testing.assert_array_equal(got, want)
            assert plan._used == plan.num_entries
    finally:
        plan_module.COLUMN_BLOCK = old


class TestFallsBackToTheDensePlan:
    """Grid-ness and separability are read off the input."""

    storage = wavelet_storage((16, 16), "db2")
    grid = partition_count_batch((16, 16), (2, 3), rng=np.random.default_rng(5))

    def assert_dense(self, storage, batch):
        plan = QueryPlan.from_batch(storage, batch)
        assert plan._grid is None
        ref = QueryPlan.from_rewrites([storage.rewrite(q) for q in batch])
        np.testing.assert_array_equal(plan.keys, ref.keys)
        np.testing.assert_array_equal(plan.entry_qid, ref.entry_qid)
        np.testing.assert_array_equal(plan.entry_val, ref.entry_val)

    def test_the_grid_itself_is_factored(self):
        assert QueryPlan.from_batch(self.storage, self.grid)._grid is not None

    def test_random_rectangles(self):
        rects = random_rectangles((16, 16), 6, rng=np.random.default_rng(2))
        self.assert_dense(self.storage, QueryBatch([VectorQuery.count(r) for r in rects]))

    def test_a_duplicated_query(self):
        self.assert_dense(self.storage, QueryBatch(list(self.grid) + [self.grid[0]]))

    def test_a_missing_cell(self):
        self.assert_dense(self.storage, QueryBatch(list(self.grid)[:-1]))

    def test_a_two_monomial_query(self):
        two = Polynomial.attribute(2, 0) + Polynomial.attribute(2, 1)
        queries = list(self.grid)
        queries[0] = VectorQuery.polynomial_range_sum(queries[0].rect, two)
        self.assert_dense(self.storage, QueryBatch(queries))

    def test_a_prefix_sum_storage(self):
        data = np.random.default_rng(0).poisson(2.0, size=(16, 16)).astype(np.float64)
        self.assert_dense(PrefixSumStorage.build(data), self.grid)


# ----------------------------------------------------------------------
# Block edges are unobservable
# ----------------------------------------------------------------------


def scripted_service_run(block, monkeypatch):
    """SSE -> cursored -> SSE, a blackout healed by ``retry_skipped`` and
    a second overlapping session, polled after every step."""
    monkeypatch.setattr(plan_module, "COLUMN_BLOCK", block)
    base = wavelet_storage((32, 32), "db2", seed=7)
    first = partition_count_batch((32, 32), (5, 4), rng=np.random.default_rng(71))
    second = partition_count_batch((32, 32), (5, 4), rng=np.random.default_rng(72))
    head = QueryPlan.from_batch(base, first)
    dark = head.keys[head.ranking(SsePenalty())[1][[2, 9, 40, 300]]].tolist()
    faults = FaultInjectingStore(base.store, blackout_keys=dark)
    store = ResilientStore(
        faults,
        policy=RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0),
        breaker=CircuitBreaker(failure_threshold=10**9),
        sleep=lambda _s: None,
    )
    service = ProgressiveQueryService(base.with_store(store), chunk_size=16)
    sids = [service.submit(first)]
    trace, built = [], []

    def poll():
        for sid in sids:
            plan = service._session(sid)[0].plan
            built.append(plan._used / plan.num_entries)
            snap = service.poll(sid)
            trace.append(
                (sid, snap.estimates.tobytes(), snap.steps_taken, snap.remaining,
                 snap.worst_case_bound, snap.is_exact, snap.skipped_count)
            )

    for k in (5, 40, 17):
        service.advance(sids[0], k)
        poll()
    service.set_penalty(
        sids[0], CursoredSsePenalty(first.size, high_priority=[0, 1])
    )
    service.advance(sids[0], 23)
    poll()
    service.set_penalty(sids[0], SsePenalty())
    poll()
    sids.append(service.submit(second))
    for k in (9, 64, 30):
        for sid in sids:
            service.advance(sid, k)
        poll()
    faults.heal()
    assert service.retry_skipped(sids[0]) > 0
    while not all(service.poll(sid).is_exact for sid in sids):
        for sid in sids:
            service.advance(sid, 97)
        poll()
    return trace, built


def test_block_edges_are_unobservable(monkeypatch):
    whole, built = scripted_service_run(1 << 23, monkeypatch)
    assert set(built) == {1.0}, "a plan that fits one block is built at submit"
    for block in (150, 700):
        trace, built = scripted_service_run(block, monkeypatch)
        assert trace == whole, f"block={block}"
        assert len({share for share in built if share < 1.0}) > 1, "blocks were built lazily"


def test_small_blocks_build_only_what_a_session_reads(monkeypatch):
    monkeypatch.setattr(plan_module, "COLUMN_BLOCK", 200)
    storage = wavelet_storage((32, 32), "db2", seed=7)
    batch = partition_count_batch((32, 32), (5, 4), rng=np.random.default_rng(71))
    service = ProgressiveQueryService(storage, chunk_size=16)
    sid = service.submit(batch)
    plan = service._session(sid)[0].plan
    assert 200 <= plan._used < 200 + batch.size
    service.advance(sid, 40)
    assert plan._used < plan.num_entries // 2


# ----------------------------------------------------------------------
# Exact answers: summed in key order, block by block, nothing re-packed
# ----------------------------------------------------------------------


def key_major_answers(dense: QueryPlan, coefficients: np.ndarray) -> np.ndarray:
    """One ``bincount`` over the key-major store: the reference reduction."""
    assert dense._by_key
    return np.bincount(
        dense.entry_qid,
        weights=dense.entry_val * np.repeat(coefficients, dense.counts),
        minlength=dense.batch_size,
    )


def exact_cases():
    for wavelet in ("haar", "db2"):
        storage = wavelet_storage((16, 16), wavelet, seed=3)
        grid = partition_count_batch((16, 16), (3, 5), rng=np.random.default_rng(31))
        rects = random_rectangles((16, 16), 7, rng=np.random.default_rng(32))
        yield f"{wavelet}-grid", storage, grid
        yield f"{wavelet}-rectangles", storage, QueryBatch(
            [VectorQuery.count(r) for r in rects]
        )


@pytest.mark.parametrize("block", [1, 9, 64, 1 << 10])
@pytest.mark.parametrize(
    "storage, batch",
    [pytest.param(s, b, id=name) for name, s, b in exact_cases()],
)
def test_blocked_exact_estimates_equal_the_key_major_bincount(
    storage, batch, block, monkeypatch
):
    monkeypatch.setattr(plan_module, "_EXACT_BLOCK_KEYS", block)
    dense = QueryPlan.from_rewrites(storage.rewrite_batch(batch))
    assert block == 1 or dense.num_keys % block, "the last block is a short one"
    coefficients = np.random.default_rng(33).normal(size=dense.num_keys)
    want = key_major_answers(dense, coefficients)
    np.testing.assert_array_equal(dense.exact_estimates(coefficients), want)

    plan = QueryPlan.from_batch(storage, batch)  # factored when a grid
    np.testing.assert_array_equal(plan.exact_estimates(coefficients), want)
    assert not plan._by_key or plan._grid is None
    # A non-SSE penalty re-packs a factored plan by key: same sum after.
    plan.importance(CursoredSsePenalty(batch.size, high_priority=[1]))
    assert plan._by_key
    np.testing.assert_array_equal(plan.exact_estimates(coefficients), want)


def test_exact_answers_leave_a_factored_plan_as_it_was():
    storage = wavelet_storage((32, 32), "db2", seed=7)
    batch = partition_count_batch((32, 32), (5, 4), rng=np.random.default_rng(71))
    service = ProgressiveQueryService(storage)
    sid = service.submit(batch)
    session = service._session(sid).session
    plan = session.plan
    assert plan._grid is not None
    service.advance(sid, plan.num_keys)
    store = (plan._used, plan._qid.size, plan._val.size, plan._starts.copy())
    snapshot = service.poll(sid)
    assert snapshot.is_exact
    np.testing.assert_array_equal(snapshot.estimates, session.exact_answers())
    np.testing.assert_array_equal(
        snapshot.estimates,
        key_major_answers(
            QueryPlan.from_rewrites(storage.rewrite_batch(batch)),
            session._coefficients,
        ),
    )
    assert not plan._by_key
    assert (plan._used, plan._qid.size, plan._val.size) == store[:3]
    np.testing.assert_array_equal(plan._starts, store[3])
