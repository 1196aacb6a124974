"""The linear storage/evaluation strategy abstraction.

"We can use any linear transformation of the data that has a left inverse
as a storage strategy.  We can use the left inverse to rewrite query vectors
to their representation in the transformation domain, giving us an
evaluation strategy." (Section 1.2)

A :class:`LinearStorage` owns a :class:`~repro.storage.counter.CountingStore`
of transformed coefficients and knows how to *rewrite* a
:class:`~repro.queries.vector_query.VectorQuery` into a sparse vector over
the store's key space such that

    answer(q) = sum_k  rewrite(q)[k] * store[k].

Batch-Biggest-B (:mod:`repro.core.batch`) is written purely against this
interface, so the same progressive engine runs over wavelet, prefix-sum and
identity stores.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.obs import span
from repro.queries.vector_query import VectorQuery
from repro.storage.counter import CountingStore


@dataclass(frozen=True)
class KeyedVector:
    """A sparse vector over a store's integer key space.

    Shares the ``indices`` / ``values`` duck type with
    :class:`~repro.wavelets.sparse.SparseTensor`, which is what
    :class:`WaveletStorage` returns from ``rewrite``.
    """

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        indices = np.asarray(self.indices, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        if indices.ndim != 1 or values.ndim != 1 or indices.size != values.size:
            raise ValueError("indices and values must be 1-D arrays of equal size")
        if indices.size > 1 and np.any(np.diff(indices) <= 0):
            order = np.argsort(indices, kind="stable")
            indices = indices[order]
            values = values[order]
            if np.any(np.diff(indices) == 0):
                # Merge duplicates by summation.
                uniq, inverse = np.unique(indices, return_inverse=True)
                values = np.bincount(inverse, weights=values, minlength=uniq.size)
                indices = uniq
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)


class LinearStorage(ABC):
    """Base class for linear storage/evaluation strategies."""

    #: Human-readable strategy name for benchmark output.
    strategy_name: str = "linear"

    def __init__(self, shape: tuple[int, ...], store: CountingStore) -> None:
        self.shape = tuple(int(s) for s in shape)
        self.store = store

    @abstractmethod
    def rewrite(self, query: VectorQuery):
        """Rewrite a vector query into the store's key space.

        Returns an object with sorted unique ``indices`` (int64) and aligned
        ``values`` (float64) such that the exact answer is
        ``sum(values * store[indices])``.
        """

    def rewrite_batch(self, queries) -> list:
        """``[self.rewrite(q) for q in queries]`` under one span.

        Batch queries share most per-dimension factors (that sharing is
        where the paper's I/O savings come from, and it applies to rewrite
        CPU just the same); the factor memo makes every repeat a hit.
        """
        queries = list(queries)
        with span(
            "rewrite.batch", queries=len(queries), strategy=self.strategy_name
        ):
            return [self.rewrite(q) for q in queries]

    def rewrite_factors(self, query: VectorQuery) -> "list | None":
        """``query``'s rewrite as per-axis sparse factors, or None.

        When not None, ``rewrite(query)`` *is*
        ``SparseTensor.from_outer(factors)`` — same vectors, multiplied
        left to right, keys flat in C order over the factors' lengths —
        so :meth:`~repro.core.plan.QueryPlan.from_batch` can plan a grid
        batch without building any tensor.  None (the default) when the
        rewrite is not one separable term.
        """
        return None

    def rewrite_batch_factors(self, queries) -> "list | None":
        """:meth:`rewrite_factors` of every query, or None as soon as one
        has none.  The factors are memoized, so falling back to
        :meth:`rewrite_batch` after a non-None answer recomputes none."""
        queries = list(queries)
        if not queries or self.rewrite_factors(queries[0]) is None:
            return None
        with span(
            "rewrite.batch", queries=len(queries), strategy=self.strategy_name,
            form="factors",
        ):
            factors = [self.rewrite_factors(query) for query in queries]
            return None if any(f is None for f in factors) else factors

    # ------------------------------------------------------------------
    # Conveniences shared by all strategies.
    # ------------------------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def domain_size(self) -> int:
        size = 1
        for s in self.shape:
            size *= s
        return size

    def answer(self, query: VectorQuery, counted: bool = True) -> float:
        """Exact single-query answer through the store."""
        rewritten = self.rewrite(query)
        reader = self.store.fetch if counted else self.store.peek
        coeffs = reader(rewritten.indices)
        return float(coeffs @ rewritten.values)

    def total_l1(self) -> float:
        """``K = sum_k |store[k]|`` — the constant in Theorem 1's bound."""
        return self.store.total_l1()

    def total_l2_squared(self) -> float:
        """``sum_k store[k]**2`` — for Cauchy-Schwarz error bounds."""
        return self.store.total_l2_squared()

    def with_store(self, store) -> "LinearStorage":
        """A shallow clone of this strategy bound to a different store.

        Rewrites depend only on the strategy's shape/filters, so the clone
        produces identical query plans while reading coefficients from
        ``store`` — e.g. a :class:`~repro.storage.paged.PagedCoefficientStore`
        serving the same coefficients from disk.
        """
        clone = copy.copy(self)
        clone.store = store
        return clone

    def paged(
        self, path, page_size: int = 1024, buffer_pages: int = 64
    ) -> "LinearStorage":
        """Serialize the current store to ``path`` and serve it paged.

        Returns a clone of this strategy whose coefficients are read
        through a :class:`~repro.storage.paged.PagedCoefficientStore`
        (fixed-size disk pages behind a thread-safe LRU buffer pool).
        """
        from repro.storage.paged import PagedCoefficientStore

        store = PagedCoefficientStore.from_store(
            self.store, path, page_size=page_size, buffer_pages=buffer_pages
        )
        return self.with_store(store)

    def reset_stats(self) -> None:
        """Zero the retrieval counters."""
        self.store.reset_stats()

    @property
    def stats(self):
        """The store's :class:`~repro.storage.counter.IOStatistics`."""
        return self.store.stats
