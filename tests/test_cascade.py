"""The sparse cascade engine vs the dense oracle, and the batch-rewrite
front end built on top of it."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.plan import QueryPlan
from repro.queries.range import HyperRect
from repro.queries.vector_query import QueryBatch, VectorQuery
from repro.queries.workload import random_rectangles
from repro.storage.wavelet_store import WaveletStorage
from repro.util import log2_int
from repro.wavelets import cascade
from repro.wavelets.cascade import cascade_coefficients_1d
from repro.wavelets.filters import get_filter
from repro.wavelets.query_transform import (
    METHODS,
    clear_cache,
    haar_indicator_coefficients,
    vector_coefficients_1d,
)
from repro.wavelets.transform import wavedec

#: Every Daubechies filter the spectral factorization constructs reliably
#: (db13+ fail validation in the filter registry itself).
ALL_FILTERS = ["haar", "db2", "db3", "db4", "db5", "db7", "db10", "db12"]


def dense_reference(filt, n: int, lo: int, hi: int, degree: int) -> np.ndarray:
    out = np.zeros(n)
    xs = np.arange(lo, hi + 1, dtype=np.float64)
    out[lo : hi + 1] = xs**degree
    return wavedec(out, filt)


def assert_matches_dense(filt, n, lo, hi, degree, rtol=1e-10):
    sv = cascade_coefficients_1d(filt, n, lo, hi, degree=degree)
    ref = dense_reference(filt, n, lo, hi, degree)
    scale = float(np.max(np.abs(ref))) or 1.0
    np.testing.assert_allclose(
        sv.to_dense(),
        ref,
        atol=rtol * scale,
        err_msg=f"filt={filt} n={n} range=[{lo},{hi}] degree={degree}",
    )


class TestCascadeMatchesDense:
    """The ISSUE's property sweep: every filter, degrees 0..3, random
    ranges, N in {8..1024} — cascade == dense wavedec to 1e-10 relative."""

    @pytest.mark.parametrize("filt", ALL_FILTERS)
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_randomized_sweep(self, filt, degree):
        rng = np.random.default_rng(hash((filt, degree)) % 2**32)
        for _ in range(8):
            n = 2 ** int(rng.integers(3, 11))  # N in {8 .. 1024}
            lo = int(rng.integers(0, n))
            hi = int(rng.integers(lo, n))
            assert_matches_dense(filt, n, lo, hi, degree)

    @pytest.mark.parametrize("filt", ["haar", "db2", "db4", "db10"])
    @pytest.mark.parametrize(
        "n,lo,hi",
        [
            (8, 0, 7),  # full range, tiny domain (dense-tail path for db10)
            (8, 0, 0),
            (8, 7, 7),
            (2, 0, 1),
            (2, 0, 0),
            (1024, 0, 1023),  # full range
            (1024, 0, 0),  # single point at the left edge
            (1024, 1023, 1023),  # single point at the wrap boundary
            (1024, 511, 512),  # range straddling the midpoint
            (1024, 0, 511),  # exactly half
            (256, 1, 254),  # boundaries one off the edges
        ],
    )
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_edge_ranges(self, filt, n, lo, hi, degree):
        assert_matches_dense(filt, n, lo, hi, degree)

    def test_insufficient_vanishing_moments_still_exact(self):
        """Haar on degree >= 1 has a genuinely dense transform; the cascade
        must reproduce it (via the interior detail polynomial), not assume
        sparsity."""
        for degree in (1, 2, 3):
            sv = cascade_coefficients_1d("haar", 64, 10, 50, degree=degree)
            assert sv.nnz > 2 * log2_int(64) + 1  # really dense
            assert_matches_dense("haar", 64, 10, 50, degree)

    def test_agrees_with_haar_closed_form(self):
        """Second independent oracle: the O(log n) Haar indicator path."""
        rng = np.random.default_rng(77)
        for _ in range(20):
            n = 2 ** int(rng.integers(3, 13))
            lo = int(rng.integers(0, n))
            hi = int(rng.integers(lo, n))
            closed = haar_indicator_coefficients(n, lo, hi)
            sv = cascade_coefficients_1d("haar", n, lo, hi, degree=0)
            np.testing.assert_allclose(
                sv.to_dense(), closed.to_dense(), atol=1e-10 * max(1.0, hi - lo + 1)
            )

    def test_sparsity_is_logarithmic(self):
        """The whole point: nnz ~ O(filter_length * log N), N-independent."""
        for name, budget_per_level in [("db2", 8), ("db4", 16), ("db10", 40)]:
            for e in (10, 16, 20):
                n = 2**e
                sv = cascade_coefficients_1d(name, n, n // 3, (2 * n) // 3, degree=1)
                assert sv.nnz <= budget_per_level * e + 1, (name, e, sv.nnz)

    def test_memoized_identity(self):
        a = cascade_coefficients_1d("db3", 64, 5, 40, degree=2)
        b = cascade_coefficients_1d("db3", 64, 5, 40, degree=2)
        assert a is b

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            cascade_coefficients_1d("haar", 16, 5, 3)
        with pytest.raises(ValueError):
            cascade_coefficients_1d("haar", 12, 0, 3)
        with pytest.raises(ValueError):
            cascade_coefficients_1d("haar", 16, 0, 3, degree=-1)


class TestDiscreteMoments:
    def test_lowpass_zeroth_moment_is_sqrt2(self):
        for name in ALL_FILTERS:
            low, _ = get_filter(name).discrete_moments(0)
            assert low[0] == pytest.approx(np.sqrt(2.0))

    def test_highpass_moments_vanish_below_p(self):
        """sum_j g[j] j**s == 0 for s < vanishing_moments — the fact that
        empties the cascade's interior detail band."""
        for name in ALL_FILTERS:
            filt = get_filter(name)
            _, high = filt.discrete_moments(filt.vanishing_moments - 1)
            degrees = np.arange(filt.vanishing_moments, dtype=np.float64)
            # Cancellation noise grows with j**s, so normalize each moment by
            # the magnitude of the terms being cancelled.
            scale = np.abs(filt.highpass) @ (
                np.arange(filt.length, dtype=np.float64)[:, None] ** degrees
            )
            np.testing.assert_allclose(high / scale, 0.0, atol=1e-9)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            get_filter("haar").discrete_moments(-1)


class TestMethodFlag:
    def test_methods_agree(self):
        a = vector_coefficients_1d("db2", 256, 17, 200, degree=1, method="cascade")
        b = vector_coefficients_1d("db2", 256, 17, 200, degree=1, method="dense")
        scale = float(np.max(np.abs(b.to_dense())))
        np.testing.assert_allclose(a.to_dense(), b.to_dense(), atol=1e-10 * scale)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            vector_coefficients_1d("haar", 16, 0, 3, method="magic")
        assert "cascade" in METHODS and "dense" in METHODS

    def test_clear_cache_clears_every_engine(self):
        """Satellite: clear_cache must drop the cascade memo too, not just
        the dense one."""
        a_cascade = vector_coefficients_1d("db2", 32, 3, 20, method="cascade")
        a_dense = vector_coefficients_1d("db2", 32, 3, 20, method="dense")
        assert cascade.cache_size() > 0
        clear_cache()
        assert cascade.cache_size() == 0
        assert vector_coefficients_1d("db2", 32, 3, 20, method="cascade") is not a_cascade
        assert vector_coefficients_1d("db2", 32, 3, 20, method="dense") is not a_dense


class TestRewriteBatch:
    def _batch(self, rng, count=10, shape=(32, 32)):
        rects = random_rectangles(shape, count, rng=rng)
        return QueryBatch([VectorQuery.sum(r, 0) for r in rects])

    def test_sequential_default_matches_rewrite(self, rng, data_2d):
        storage = WaveletStorage.build(np.pad(data_2d, ((0, 16), (0, 16))))
        batch = self._batch(rng)
        for got, q in zip(storage.rewrite_batch(batch), batch):
            want = storage.rewrite(q)
            np.testing.assert_array_equal(got.indices, want.indices)
            np.testing.assert_array_equal(got.values, want.values)

    def test_query_plan_from_batch(self, rng, data_2d):
        storage = WaveletStorage.build(data_2d, wavelet="db2")
        batch = QueryBatch(
            [VectorQuery.count(r) for r in random_rectangles((16, 16), 6, rng=rng)]
        )
        plan = QueryPlan.from_batch(storage, batch)
        ref = QueryPlan.from_rewrites([storage.rewrite(q) for q in batch])
        np.testing.assert_array_equal(plan.keys, ref.keys)
        np.testing.assert_array_equal(plan.entry_val, ref.entry_val)
        assert plan.batch_size == ref.batch_size


class TestLargeDomainEquivalence:
    def test_rewrite_on_large_1d_domain_answers_exactly(self):
        """End-to-end on a domain where the dense path would be wasteful:
        cascade-rewritten queries answer exactly against sparse data."""
        n = 2**16
        storage = WaveletStorage.empty((n,), wavelet="db2", backend="hash")
        rng = np.random.default_rng(5)
        coords = rng.integers(0, n, size=60)
        for c in coords:
            storage.insert((int(c),))
        q = VectorQuery.sum(HyperRect(((1000, 50000),)), 0)
        got = storage.answer(q)
        want = float(
            sum(int(c) for c in coords if 1000 <= int(c) <= 50000)
        )
        assert got == pytest.approx(want, rel=1e-9, abs=1e-6)
