"""Unit tests for the paged on-disk coefficient store."""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import BatchBiggestB
from repro.obs import MetricRegistry
from repro.queries.workload import partition_count_batch
from repro.storage.counter import CountingStore
from repro.storage.paged import PagedCoefficientStore, write_paged_file
from repro.storage.wavelet_store import WaveletStorage


@pytest.fixture
def values(rng):
    vals = rng.normal(size=1000)
    vals[rng.random(1000) < 0.3] = 0.0
    return vals


@pytest.fixture
def paged(values, tmp_path):
    store = PagedCoefficientStore.from_dense(
        values, tmp_path / "coeff.pages", page_size=64, buffer_pages=4
    )
    yield store
    store.close()


class TestRoundTrip:
    def test_matches_in_memory_store(self, values, paged):
        memory = CountingStore(values.size, values=values)
        keys = np.arange(values.size)
        np.testing.assert_array_equal(paged.fetch(keys), memory.fetch(keys))

    def test_partial_page_is_padded_not_truncated(self, tmp_path, rng):
        vals = rng.normal(size=100)  # 100 keys, 64-value pages -> 2 pages
        store = PagedCoefficientStore.from_dense(
            vals, tmp_path / "odd.pages", page_size=64
        )
        assert store.num_pages == 2
        np.testing.assert_array_equal(store.as_dense(), vals)
        store.close()

    def test_aggregates_from_header(self, values, paged):
        memory = CountingStore(values.size, values=values)
        assert paged.total_l1() == pytest.approx(memory.total_l1())
        assert paged.total_l2_squared() == pytest.approx(memory.total_l2_squared())
        assert paged.nonzero_count() == memory.nonzero_count()

    def test_from_store(self, values, tmp_path):
        memory = CountingStore(values.size, values=values)
        paged = PagedCoefficientStore.from_store(memory, tmp_path / "s.pages")
        np.testing.assert_array_equal(paged.as_dense(), memory.as_dense())
        paged.close()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a paged file at all")
        with pytest.raises(ValueError, match="not a paged coefficient file"):
            PagedCoefficientStore(path)

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            write_paged_file(tmp_path / "e.pages", np.array([]))

    def test_read_only(self, paged):
        with pytest.raises(TypeError, match="read-only"):
            paged.add(np.array([0]), np.array([1.0]))


class TestCounting:
    def test_fetch_counts_peek_does_not(self, paged):
        paged.fetch(np.array([1, 2, 3]))
        paged.peek(np.array([4, 5]))
        assert paged.stats.retrievals == 3

    def test_key_range_checked(self, paged):
        with pytest.raises(KeyError):
            paged.fetch(np.array([paged.key_space_size]))
        with pytest.raises(KeyError):
            paged.peek(np.array([-1]))


class TestLruPool:
    def test_eviction_counts(self, values, tmp_path):
        # 1000 values / page_size 64 -> 16 pages; capacity 4.
        store = PagedCoefficientStore.from_dense(
            values, tmp_path / "l.pages", page_size=64, buffer_pages=4
        )
        # Touch every page once: 16 misses, 12 evictions (first 4 fill).
        store.fetch(np.arange(0, 1000, 64))
        assert store.page_counts() == {"hits": 0, "misses": 16, "evictions": 12}
        assert store.buffered_pages == 4
        # The 4 most recent pages (12..15) are resident: re-reads are hits.
        store.fetch(np.arange(12 * 64, 1000, 64))
        counts = store.page_counts()
        assert counts["hits"] == 4
        assert counts["hits"] / (counts["hits"] + counts["misses"]) == pytest.approx(
            4 / 20
        )
        store.close()

    def test_lru_order_not_fifo(self, values, tmp_path):
        store = PagedCoefficientStore.from_dense(
            values, tmp_path / "o.pages", page_size=64, buffer_pages=2
        )
        store.fetch(np.array([0]))     # page 0      pool: [0]
        store.fetch(np.array([64]))    # page 1      pool: [0, 1]
        store.fetch(np.array([1]))     # page 0 hit  pool: [1, 0]
        store.fetch(np.array([128]))   # page 2      pool: [0, 2] (evicts 1)
        store.fetch(np.array([2]))     # page 0 must still be resident
        counts = store.page_counts()
        assert counts["hits"] == 2
        assert counts["evictions"] == 1
        store.close()

    def test_zero_capacity_disables_buffering(self, values, tmp_path):
        store = PagedCoefficientStore.from_dense(
            values, tmp_path / "z.pages", page_size=64, buffer_pages=0
        )
        store.fetch(np.array([0, 1, 2]))
        counts = store.page_counts()
        assert counts["hits"] == 0
        assert counts["misses"] == 3
        assert store.buffered_pages == 0
        store.close()

    def test_reset_and_clear(self, paged):
        paged.fetch(np.arange(10))
        paged.reset_stats()
        assert paged.stats.retrievals == 0
        assert paged.page_counts() == {"hits": 0, "misses": 0, "evictions": 0}
        paged.clear_buffer()
        assert paged.buffered_pages == 0


REFEREE_VALUES = np.random.default_rng(3).normal(size=300)
REFEREE_PAGE = 16  # 300 keys -> 19 pages, the last one partial


@pytest.fixture(scope="module")
def referee_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("referee") / "referee.pages"
    write_paged_file(path, REFEREE_VALUES, page_size=REFEREE_PAGE)
    return path


class LruReferee:
    """The buffer pool's contract, one key at a time: an ``OrderedDict``
    of pages in least-recently-used order, capped at ``capacity``."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.pool: OrderedDict[int, None] = OrderedDict()
        self.hits = self.misses = self.evictions = 0

    def fetch(self, keys) -> np.ndarray:
        for key in keys:
            page = key // REFEREE_PAGE
            if page in self.pool:
                self.pool.move_to_end(page)
                self.hits += 1
                continue
            self.misses += 1
            if self.capacity:
                self.pool[page] = None
                if len(self.pool) > self.capacity:
                    self.pool.popitem(last=False)
                    self.evictions += 1
        return REFEREE_VALUES[list(keys)]


class TestPoolAccountingIsExact:
    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.sampled_from([0, 1, 2, 7, 64]),
        shared=st.booleans(),
        gathers=st.lists(
            st.lists(
                st.integers(0, 299) | st.sampled_from([0, 1, 15, 16, 299]),
                max_size=40,
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_counters_and_values_match_a_per_key_lru(
        self, referee_path, capacity, shared, gathers
    ):
        referee = LruReferee(capacity)
        with PagedCoefficientStore(
            referee_path, buffer_pages=capacity, registry=MetricRegistry(),
            shared=shared,
        ) as store:
            for keys in gathers:
                got = store.fetch(np.array(keys, dtype=np.int64))
                assert got.tobytes() == referee.fetch(keys).tobytes()
                assert (store.page_counts(), store.buffered_pages) == (
                    {
                        "hits": referee.hits,
                        "misses": referee.misses,
                        "evictions": referee.evictions,
                    },
                    len(referee.pool),
                )


class TestClose:
    def test_reads_after_close_raise_clear_error(self, paged):
        paged.close()
        with pytest.raises(ValueError, match="store is closed"):
            paged.fetch(np.array([0]))
        with pytest.raises(ValueError, match="store is closed"):
            paged.peek(np.array([0]))
        with pytest.raises(ValueError, match="store is closed"):
            paged.as_dense()

    def test_close_is_idempotent(self, paged):
        assert not paged.closed
        paged.close()
        assert paged.closed
        paged.close()  # second close is a no-op, not an error
        assert paged.closed

    def test_context_manager_closes(self, values, tmp_path):
        with PagedCoefficientStore.from_dense(
            values, tmp_path / "cm.pages", page_size=64
        ) as store:
            assert not store.closed
        assert store.closed


class TestThreadSafety:
    def test_concurrent_fetches_are_consistent(self, values, tmp_path):
        store = PagedCoefficientStore.from_dense(
            values, tmp_path / "t.pages", page_size=32, buffer_pages=3
        )
        errors: list[Exception] = []

        def worker(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for _ in range(50):
                    keys = rng.integers(0, values.size, size=20)
                    got = store.fetch(keys)
                    if not np.array_equal(got, values[keys]):
                        raise AssertionError("corrupted read")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert store.stats.retrievals == 8 * 50 * 20
        assert store.buffered_pages <= 3
        store.close()


class TestAsLinearStorageBackend:
    def test_wavelet_strategy_on_paged_store(self, data_2d, tmp_path):
        storage = WaveletStorage.build(data_2d, wavelet="db2")
        paged = storage.paged(tmp_path / "w.pages", page_size=32, buffer_pages=8)
        batch = partition_count_batch(
            (16, 16), (2, 2), rng=np.random.default_rng(5)
        )
        memory_answers = BatchBiggestB(storage, batch).run()
        paged_answers = BatchBiggestB(paged, batch).run()
        np.testing.assert_array_equal(paged_answers, memory_answers)
        assert paged.store.stats.retrievals == storage.store.stats.retrievals
        assert paged.total_l1() == pytest.approx(storage.total_l1())
        paged.store.close()


class TestSharedMapping:
    """The ``shared=`` flag: mmap-backed page views across processes."""

    WRITER = (
        "import struct, sys\n"
        "path, offset, value = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])\n"
        "with open(path, 'r+b') as fh:\n"
        "    fh.seek(offset)\n"
        "    fh.write(struct.pack('<d', value))\n"
        "    fh.flush()\n"
    )

    def _rewrite_key_in_subprocess(self, path, key: int, value: float) -> None:
        import subprocess
        import sys

        from repro.storage.paged import _HEADER_SIZE

        result = subprocess.run(
            [
                sys.executable, "-c", self.WRITER,
                str(path), str(_HEADER_SIZE + key * 8), repr(value),
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr

    def test_two_processes_one_write_through_shared_mapping(
        self, values, tmp_path
    ):
        """A reader process sees another process's write without refetching.

        The shard workers rely on this: every worker opens the paged file
        ``shared=True``, so pages live once in the OS page cache instead
        of being copied into each worker's pool — which also means an
        external writer is visible through already-buffered pages.
        """
        path = tmp_path / "shared.pages"
        store = PagedCoefficientStore.from_dense(
            values, path, page_size=64, buffer_pages=4, shared=True
        )
        key = 7
        np.testing.assert_array_equal(
            store.fetch(np.array([key])), values[[key]]
        )
        assert store.buffered_pages == 1  # the page is pooled...
        self._rewrite_key_in_subprocess(path, key, 123.5)
        # ...yet the write is visible: the pool holds mmap views, and the
        # mapping is shared with the writing process via the page cache.
        np.testing.assert_array_equal(store.fetch(np.array([key])), [123.5])
        np.testing.assert_array_equal(store.peek(np.array([key])), [123.5])
        store.close()

    def test_copy_mode_keeps_private_buffers(self, values, tmp_path):
        """Default (non-shared) pools copy pages: external writes are NOT
        visible through a buffered page — the contrast that makes the
        shared-mode regression test above meaningful."""
        path = tmp_path / "private.pages"
        store = PagedCoefficientStore.from_dense(
            values, path, page_size=64, buffer_pages=4, shared=False
        )
        key = 7
        store.fetch(np.array([key]))  # buffer the page as a copy
        self._rewrite_key_in_subprocess(path, key, 321.25)
        np.testing.assert_array_equal(
            store.fetch(np.array([key])), values[[key]]
        )
        store.close()

    def test_shared_flag_threads_through_constructors(self, values, tmp_path):
        from repro.storage.counter import CountingStore

        a = PagedCoefficientStore.from_dense(
            values, tmp_path / "a.pages", shared=True
        )
        b = PagedCoefficientStore.from_store(
            CountingStore(values.size, values=values),
            tmp_path / "b.pages",
            shared=True,
        )
        c = PagedCoefficientStore(tmp_path / "a.pages")
        assert a.shared and b.shared and not c.shared
        keys = np.arange(values.size)
        np.testing.assert_array_equal(a.fetch(keys), values)
        np.testing.assert_array_equal(b.fetch(keys), values)
        for store in (a, b, c):
            store.close()
