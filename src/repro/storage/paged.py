"""A paged, buffered on-disk coefficient tier.

The paper's cost model treats the coefficient store as constant-time keyed
storage; its conclusion asks what happens when the coefficients live on
disk in blocks behind a buffer.  This module implements that: a
:class:`PagedCoefficientStore` serializes any
:class:`~repro.storage.counter.CountingStore` into fixed-size pages in a
single flat file (plain ``struct`` header + raw little-endian float64
values — no dependencies beyond numpy) and serves reads through a
thread-safe LRU buffer pool with exact hit/miss/eviction counters.

The store quacks like a read-only :class:`CountingStore` — ``fetch`` /
``peek`` / the aggregate methods / ``stats`` — so any
:class:`~repro.storage.base.LinearStorage` strategy can sit on it
unchanged (see :meth:`LinearStorage.with_store` and
:meth:`LinearStorage.paged`), and so can the shared retrieval scheduler in
:mod:`repro.service`.

File layout (version 1)::

    bytes 0..8    magic  b"RPRPAGE1"
    bytes 8..56   struct "<qqqddq": key_space_size, page_size, num_pages,
                  total_l1, total_l2_squared, nonzero_count
    bytes 56..    num_pages * page_size float64 values (zero padded)

The aggregates are computed once at serialization time, so Theorem-1/2
constants never require scanning the file.
"""

from __future__ import annotations

import itertools
import struct
import threading
from collections import OrderedDict

import numpy as np

from repro.obs import REGISTRY, MetricRegistry
from repro.storage.counter import IOStatistics

_MAGIC = b"RPRPAGE1"
_HEADER = struct.Struct("<qqqddq")
_HEADER_SIZE = len(_MAGIC) + _HEADER.size

#: Distinguishes paged-store instances inside the process-global registry.
_INSTANCE_IDS = itertools.count()


def write_paged_file(path, values: np.ndarray, page_size: int = 1024) -> int:
    """Serialize a dense coefficient vector into the paged file format.

    Returns the number of pages written.
    """
    if page_size < 1:
        raise ValueError("page size must be >= 1")
    values = np.asarray(values, dtype="<f8").ravel()
    if values.size == 0:
        raise ValueError("cannot serialize an empty coefficient vector")
    num_pages = -(-values.size // page_size)
    header = _MAGIC + _HEADER.pack(
        values.size,
        int(page_size),
        num_pages,
        float(np.sum(np.abs(values))),
        float(np.sum(values**2)),
        int(np.count_nonzero(values)),
    )
    pad = num_pages * page_size - values.size
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(values.tobytes())
        if pad:
            fh.write(np.zeros(pad, dtype="<f8").tobytes())
    return num_pages


class PagedCoefficientStore:
    """Read-only coefficient store over fixed-size disk pages.

    Parameters
    ----------
    path:
        A file written by :func:`write_paged_file` / :meth:`from_store`.
    buffer_pages:
        LRU buffer-pool capacity in pages.  Zero disables buffering (every
        page request reads the file).
    shared:
        When True, values are read straight from the read-only memmap
        (one gather per fetch) and the pool only keeps the LRU books, so
        every process that opens the file ``shared=True`` reads through
        the OS page cache — one physical buffer pool for co-located shard
        workers — and a write to the file is visible without reopening.
        The default (False) keeps private page copies: a buffered page is
        immutable until evicted.  Both modes count pool traffic alike.

    All read paths are thread-safe: the buffer pool, the retrieval
    counters, and the underlying memmap are guarded by one lock, so many
    service sessions can fetch concurrently.
    """

    #: Read-only tier — the store never mutates, so version is constant
    #: (sessions use this to keep their Theorem-1 constant cached).
    version = 0

    def __init__(
        self,
        path,
        buffer_pages: int = 64,
        registry: MetricRegistry | None = None,
        shared: bool = False,
    ) -> None:
        if buffer_pages < 0:
            raise ValueError("buffer capacity must be non-negative")
        self.path = path
        self.buffer_pages = int(buffer_pages)
        self.shared = bool(shared)
        self.registry = REGISTRY if registry is None else registry
        self._instance = str(next(_INSTANCE_IDS))
        with open(path, "rb") as fh:
            magic = fh.read(len(_MAGIC))
            if magic != _MAGIC:
                raise ValueError(f"{path!r} is not a paged coefficient file")
            (
                self.key_space_size,
                self.page_size,
                self.num_pages,
                self._total_l1,
                self._total_l2_squared,
                self._nonzero_count,
            ) = _HEADER.unpack(fh.read(_HEADER.size))
        self._mm = np.memmap(
            path,
            dtype="<f8",
            mode="r",
            offset=_HEADER_SIZE,
            shape=(self.num_pages * self.page_size,),
        )
        #: The mapping as a plain ``ndarray``: gathers and page slices skip
        #: ``np.memmap``'s subclass machinery (~10x cheaper).
        self._values = np.asarray(self._mm)
        #: Buffered pages in LRU order: a private copy, or None in shared
        #: mode, where the pool is accounting only.
        self._pool: OrderedDict[int, np.ndarray | None] = OrderedDict()
        self._lock = threading.RLock()
        self.stats = IOStatistics()
        #: The pool's traffic: ``repro_paged_page_<name>_total{store=}``.
        self._page_counters = {
            name: self.registry.counter(
                f"repro_paged_page_{name}_total", help, ("store",)
            )
            for name, help in (
                ("hits", "Page requests satisfied from the buffer pool"),
                ("misses", "Page requests that had to read the file (page faults)"),
                ("evictions", "Pages dropped to respect the pool capacity"),
            )
        }

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_store(
        cls,
        store,
        path,
        page_size: int = 1024,
        buffer_pages: int = 64,
        shared: bool = False,
    ) -> "PagedCoefficientStore":
        """Serialize a :class:`CountingStore` (or anything with
        ``as_dense``) and open the result."""
        return cls.from_dense(store.as_dense(), path, page_size, buffer_pages, shared)

    @classmethod
    def from_dense(
        cls,
        values: np.ndarray,
        path,
        page_size: int = 1024,
        buffer_pages: int = 64,
        shared: bool = False,
    ) -> "PagedCoefficientStore":
        """Serialize a dense value vector and open the result."""
        write_paged_file(path, values, page_size=page_size)
        return cls(path, buffer_pages=buffer_pages, shared=shared)

    # ------------------------------------------------------------------
    # Reads (the CountingStore duck type)
    # ------------------------------------------------------------------

    def fetch(self, keys: np.ndarray) -> np.ndarray:
        """Retrieve values for ``keys`` (counted), through the buffer pool."""
        keys = self._check_keys(keys)
        with self._lock:
            self._require_open()
            values = self._gather(keys)
            self.stats.record(keys)
        return values

    def peek(self, keys: np.ndarray) -> np.ndarray:
        """Read values without counting retrievals or touching the pool."""
        keys = self._check_keys(keys)
        with self._lock:
            self._require_open()
            return self._mm[keys].astype(np.float64, copy=True)

    def add(self, keys: np.ndarray, deltas: np.ndarray) -> None:
        raise TypeError(
            "PagedCoefficientStore is a read-only serving tier; "
            "apply updates to the in-memory store and re-serialize"
        )

    # ------------------------------------------------------------------
    # Aggregates (precomputed in the file header)
    # ------------------------------------------------------------------

    def total_l1(self) -> float:
        """``K = sum |value|`` (Theorem 1's constant), from the header."""
        return float(self._total_l1)

    def total_l2_squared(self) -> float:
        """``sum value**2`` (Cauchy-Schwarz bounds), from the header."""
        return float(self._total_l2_squared)

    def nonzero_count(self) -> int:
        """Number of nonzero stored coefficients, from the header."""
        return int(self._nonzero_count)

    def as_dense(self) -> np.ndarray:
        """Materialize the full value vector (tests and inverses only)."""
        with self._lock:
            self._require_open()
            return np.asarray(
                self._mm[: self.key_space_size], dtype=np.float64
            ).copy()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def page_counts(self) -> dict[str, int]:
        """The buffer pool's page ``hits``, ``misses`` (reads of the file:
        page faults) and ``evictions``, read from the registry."""
        return {
            name: int(counter.value(store=self._instance))
            for name, counter in self._page_counters.items()
        }

    def reset_stats(self) -> None:
        """Zero the retrieval and buffer-pool counters (the pool's samples
        leave the registry)."""
        with self._lock:
            self.stats.reset()
            for counter in self._page_counters.values():
                counter.remove(store=self._instance)

    def clear_buffer(self) -> None:
        """Drop every buffered page (counters are kept)."""
        with self._lock:
            self._pool.clear()

    def close(self) -> None:
        """Release the memmap; idempotent.

        Reads after close raise ``ValueError("store is closed")`` instead
        of an opaque ``TypeError`` from the dropped memmap.
        """
        with self._lock:
            self._pool.clear()
            mm = self._mm
            self._mm = self._values = None
            if mm is not None and hasattr(mm, "_mmap"):
                mm._mmap.close()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has released the memmap."""
        with self._lock:
            return self._mm is None

    def _require_open(self) -> None:
        if self._mm is None:
            raise ValueError("store is closed")

    def __enter__(self) -> "PagedCoefficientStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def buffered_pages(self) -> int:
        with self._lock:
            return len(self._pool)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _check_keys(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64).ravel()
        if keys.size and (keys.min() < 0 or keys.max() >= self.key_space_size):
            raise KeyError("key outside the store's key space")
        return keys

    def _gather(self, keys: np.ndarray) -> np.ndarray:
        """Values of ``keys`` in order; the loop walks the pool per key, in
        request order, so hits, misses and evictions are exact.  Shared
        mode reads the values with one gather from the map; copy mode
        reads each from its page's private copy."""
        size, capacity, pool = self.page_size, self.buffer_pages, self._pool
        copy = not self.shared
        out = np.empty(keys.size) if copy else self._values[keys]
        hits = misses = evictions = 0
        for i, page in enumerate((keys // size).tolist()):
            if page in pool:
                pool.move_to_end(page)
                hits += 1
            else:
                misses += 1
                if capacity:
                    pool[page] = (
                        self._values[page * size : (page + 1) * size].copy()
                        if copy
                        else None
                    )
                    if len(pool) > capacity:
                        pool.popitem(last=False)
                        evictions += 1
            if copy:
                key = int(keys[i])
                out[i] = pool[page][key - page * size] if capacity else self._values[key]
        # One registry update per fetch keeps the loop free of metric locks.
        for name, n in (("hits", hits), ("misses", misses), ("evictions", evictions)):
            if n:
                self._page_counters[name].inc(n, store=self._instance)
        return out
