"""Property-based tests for the extension substrates.

Covers the invariants of the modules added beyond the paper's core:
derived batches, the progressive session, certified intervals, and the
agreement of the three linear storage strategies.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import BatchBiggestB
from repro.core.session import ProgressiveSession
from repro.core.topk import ProgressiveRanker
from repro.queries.derived import DerivedBatch
from repro.queries.range import HyperRect
from repro.queries.vector_query import QueryBatch, VectorQuery
from repro.storage.wavelet_store import WaveletStorage


@st.composite
def square_data(draw, sizes=(4, 8, 16)):
    n = draw(st.sampled_from(sizes))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).random((n, n))


@st.composite
def rect_in(draw, n: int):
    lo0 = draw(st.integers(0, n - 1))
    hi0 = draw(st.integers(lo0, n - 1))
    lo1 = draw(st.integers(0, n - 1))
    hi1 = draw(st.integers(lo1, n - 1))
    return HyperRect.from_bounds([(lo0, hi0), (lo1, hi1)])


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_derived_batch_commutes_with_evaluation(data):
    """T(exact answers) == exact answers of the derived view."""
    arr = data.draw(square_data(sizes=(8, 16)))
    n = arr.shape[0]
    rects = [data.draw(rect_in(n)) for _ in range(data.draw(st.integers(2, 5)))]
    batch = QueryBatch([VectorQuery.count(r) for r in rects])
    storage = WaveletStorage.build(arr, wavelet="haar")
    answers = BatchBiggestB(storage, batch).run()
    derived = DerivedBatch.differences(batch)
    np.testing.assert_allclose(
        derived.apply(answers),
        derived.apply(batch.exact_dense(arr)),
        atol=1e-7,
    )


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_session_penalty_switches_preserve_exactness(data):
    """Any sequence of penalty switches still ends exact, fetching each
    master key exactly once."""
    from repro.core.penalties import CursoredSsePenalty, SsePenalty

    arr = data.draw(square_data(sizes=(8,)))
    rects = [data.draw(rect_in(8)) for _ in range(3)]
    batch = QueryBatch([VectorQuery.count(r) for r in rects])
    storage = WaveletStorage.build(arr, wavelet="haar")
    session = ProgressiveSession(storage, batch)
    storage.reset_stats()
    switches = data.draw(st.integers(0, 3))
    for _ in range(switches):
        session.advance(data.draw(st.integers(0, 10)))
        hp = data.draw(st.integers(0, batch.size - 1))
        session.set_penalty(CursoredSsePenalty(batch.size, high_priority=[hp]))
    answers = session.run_to_completion()
    np.testing.assert_allclose(answers, batch.exact_dense(arr), atol=1e-8)
    assert storage.stats.retrievals == session.plan.num_keys


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_certified_intervals_contain_truth_at_random_depths(data):
    arr = data.draw(square_data(sizes=(8, 16)))
    n = arr.shape[0]
    rects = [data.draw(rect_in(n)) for _ in range(3)]
    batch = QueryBatch([VectorQuery.count(r) for r in rects])
    storage = WaveletStorage.build(arr, wavelet="haar")
    exact = batch.exact_dense(arr)
    ranker = ProgressiveRanker(storage, batch)
    depth = data.draw(st.integers(0, ranker.plan.num_keys))
    ranker.advance(depth)
    iv = ranker.intervals()
    assert np.all(iv[:, 0] <= exact + 1e-7)
    assert np.all(iv[:, 1] >= exact - 1e-7)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_all_strategies_agree(data):
    """The three linear strategies, one answer."""
    arr = data.draw(square_data(sizes=(8,)))
    rect = data.draw(rect_in(8))
    q = VectorQuery.count(rect)
    expected = q.evaluate_dense(arr)
    from repro.storage.identity import IdentityStorage
    from repro.storage.prefix_sum import PrefixSumStorage

    strategies = [
        WaveletStorage.build(arr, wavelet="db2"),
        PrefixSumStorage.build(arr),
        IdentityStorage.build(arr),
    ]
    for storage in strategies:
        assert abs(storage.answer(q, counted=False) - expected) < 1e-7
