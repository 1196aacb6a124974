"""Unit tests for the retrieval-counting store."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.storage.counter import CountingStore, IOStatistics
from repro.storage.paged import PagedCoefficientStore


class TestIOStatistics:
    def test_record_and_reset(self):
        stats = IOStatistics()
        stats.record(np.array([1, 2, 2]))
        assert stats.retrievals == 3
        stats.reset()
        assert stats.retrievals == 0


@pytest.mark.parametrize("backend", ["dense", "hash"])
class TestCountingStore:
    def test_fetch_counts(self, backend):
        store = CountingStore(8, backend=backend, values=np.arange(8.0))
        got = store.fetch(np.array([3, 5, 3]))
        np.testing.assert_allclose(got, [3.0, 5.0, 3.0])
        assert store.stats.retrievals == 3

    def test_peek_does_not_count(self, backend):
        store = CountingStore(8, backend=backend, values=np.arange(8.0))
        store.peek(np.array([1, 2]))
        assert store.stats.retrievals == 0

    def test_zero_values_still_cost(self, backend):
        store = CountingStore(4, backend=backend, values=np.array([0.0, 1.0, 0.0, 2.0]))
        store.fetch(np.array([0, 2]))
        assert store.stats.retrievals == 2

    def test_add_accumulates(self, backend):
        store = CountingStore(4, backend=backend)
        store.add(np.array([1, 1, 3]), np.array([1.0, 2.0, -1.0]))
        np.testing.assert_allclose(store.peek(np.array([0, 1, 2, 3])), [0, 3, 0, -1])

    def test_total_l1(self, backend):
        store = CountingStore(4, backend=backend, values=np.array([1.0, -2.0, 0.0, 3.0]))
        assert store.total_l1() == pytest.approx(6.0)

    def test_nonzero_count(self, backend):
        store = CountingStore(4, backend=backend, values=np.array([1.0, 0.0, 0.0, 3.0]))
        assert store.nonzero_count() == 2

    def test_as_dense(self, backend):
        values = np.array([0.0, 1.5, 0.0, -2.0])
        store = CountingStore(4, backend=backend, values=values)
        np.testing.assert_allclose(store.as_dense(), values)

    def test_key_out_of_range(self, backend):
        store = CountingStore(4, backend=backend)
        with pytest.raises(KeyError):
            store.fetch(np.array([4]))
        with pytest.raises(KeyError):
            store.add(np.array([-1]), np.array([1.0]))

    def test_reset_stats(self, backend):
        store = CountingStore(4, backend=backend, values=np.ones(4))
        store.fetch(np.array([0]))
        store.reset_stats()
        assert store.stats.retrievals == 0


class TestBackendSpecific:
    def test_hash_removes_cancelled_entries(self):
        store = CountingStore(4, backend="hash")
        store.add(np.array([2]), np.array([1.0]))
        store.add(np.array([2]), np.array([-1.0]))
        assert store.nonzero_count() == 0

    def test_dense_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            CountingStore(4, backend="dense", values=np.ones(3))

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            CountingStore(4, backend="tape")

    def test_rejects_empty_key_space(self):
        with pytest.raises(ValueError):
            CountingStore(0)

    def test_hash_from_dict(self):
        store = CountingStore(8, backend="hash", values={3: 2.0, 5: 0.0})
        assert store.nonzero_count() == 1
        np.testing.assert_allclose(store.peek(np.array([3, 5])), [2.0, 0.0])


@pytest.mark.parametrize("kind", ["counting", "paged"])
def test_fetching_distinct_keys_keeps_no_per_key_state(kind, tmp_path):
    """A store's book is one counter: 300,000 distinct keys fetched in
    128-key gathers leave under 1 MiB behind, whatever the key set."""
    size = 2**20
    if kind == "counting":
        store = CountingStore(size)
    else:
        # Shared mode, as shard workers open the file.
        store = PagedCoefficientStore.from_dense(
            np.zeros(size), tmp_path / "keys.pages", buffer_pages=4, shared=True
        )
    keys = np.random.default_rng(0).permutation(size)[:300_000]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for start in range(0, keys.size, 128):
            store.fetch(keys[start : start + 128])
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        if kind == "paged":
            store.close()
    assert store.stats.retrievals == keys.size
    assert retained < 2**20
