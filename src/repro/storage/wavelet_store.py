"""Wavelet storage: the paper's primary strategy.

The data frequency distribution is transformed by a full tensor-product
orthonormal DWT (:func:`repro.wavelets.transform.wavedec_nd`) and the
coefficients are stored keyed by flat index.  Because the transform is
orthonormal, ``<q, Delta> = <q_hat, Delta_hat>`` (Equation 2), so the
rewritten query vector is simply the sparse wavelet transform of the query
function — computable without touching the data.

The store supports streaming inserts: adding a tuple updates only the
``O((2*delta + 1)**d log**d N)`` coefficients in the transform of a point
mass (:mod:`repro.wavelets.point`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.queries.vector_query import VectorQuery
from repro.storage.base import LinearStorage
from repro.storage.counter import CountingStore
from repro.util import check_shape
from repro.wavelets.filters import WaveletFilter, get_filter, resolve_filters
from repro.wavelets.point import point_tensor
from repro.wavelets.query_transform import monomial_factors
from repro.wavelets.sparse import SparseTensor
from repro.wavelets.transform import wavedec_nd, waverec_nd


class WaveletStorage(LinearStorage):
    """Data frequency distribution stored as wavelet coefficients."""

    strategy_name = "wavelet"

    def __init__(
        self,
        shape: Sequence[int],
        store: CountingStore,
        wavelet: "WaveletFilter | str | Sequence[WaveletFilter | str]" = "db2",
    ) -> None:
        shape = check_shape(shape)
        super().__init__(shape, store)
        # One filter per axis (matched filters): e.g. Haar on grouping
        # dimensions and db2 only on a degree-1 measure dimension keeps
        # query rewrites as sparse as possible.
        self.filters = resolve_filters(wavelet, len(shape))

    @property
    def filter(self) -> WaveletFilter:
        """The filter of axis 0 (all axes share it unless matched filters
        were configured)."""
        return self.filters[0]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        data: np.ndarray,
        wavelet: "WaveletFilter | str | Sequence[WaveletFilter | str]" = "db2",
        backend: str = "dense",
    ) -> "WaveletStorage":
        """Transform a dense data frequency distribution and store it.

        Parameters
        ----------
        data:
            Dense array of tuple counts (or any measure) over a power-of-two
            domain.
        wavelet:
            Filter (or name).  For degree-``delta`` queries choose at least
            ``delta + 1`` vanishing moments (``db2`` covers degree 1 — the
            paper's "Db4", i.e. 4 taps).
        backend:
            ``"dense"`` (array-based) or ``"hash"`` (hash-based, nonzeros
            only) — the two storage options named in Section 1.3.
        """
        data = np.asarray(data, dtype=np.float64)
        shape = check_shape(data.shape)
        filters = resolve_filters(wavelet, len(shape))
        coeffs = wavedec_nd(data, filters)
        store = CountingStore(coeffs.size, backend=backend, values=coeffs.ravel())
        return cls(shape=shape, store=store, wavelet=filters)

    @classmethod
    def empty(
        cls,
        shape: Sequence[int],
        wavelet: WaveletFilter | str = "db2",
        backend: str = "hash",
    ) -> "WaveletStorage":
        """An empty store to be populated by streaming :meth:`insert` calls."""
        shape = check_shape(shape)
        size = 1
        for s in shape:
            size *= s
        store = CountingStore(size, backend=backend)
        return cls(shape=shape, store=store, wavelet=wavelet)

    # ------------------------------------------------------------------
    # The LinearStorage interface
    # ------------------------------------------------------------------

    def rewrite(self, query: VectorQuery) -> SparseTensor:
        """Sparse wavelet transform of the query vector (Equation 2)."""
        return query.wavelet_tensor(self.filters, self.shape)

    def rewrite_factors(self, query: VectorQuery):
        """The per-axis factors of a one-monomial query; None otherwise
        (a sum of outer products is not an outer product)."""
        terms = query.polynomial.terms
        if len(terms) != 1:
            return None
        query.rect.validate_for(self.shape)
        exponents, coefficient = terms[0]
        return monomial_factors(
            self.filters, self.shape, query.rect.bounds, exponents, coefficient
        )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def insert(self, coords: Sequence[int], weight: float = 1.0) -> int:
        """Stream one tuple into the store.

        Adds ``weight`` times the transform of a point mass at ``coords``.
        Returns the number of coefficients touched (the paper's update
        cost).
        """
        tensor = point_tensor(self.filters, self.shape, coords)
        self.store.add(tensor.indices, tensor.values * weight)
        return tensor.nnz

    def insert_many(self, records: np.ndarray) -> int:
        """Stream many tuples; returns total coefficients touched."""
        records = np.asarray(records, dtype=np.int64)
        if records.ndim != 2 or records.shape[1] != self.ndim:
            raise ValueError(f"expected an (m, {self.ndim}) record array")
        touched = 0
        for row in records:
            touched += self.insert(tuple(int(v) for v in row))
        return touched

    # ------------------------------------------------------------------
    # Inversion (the left inverse exists: the transform is orthonormal)
    # ------------------------------------------------------------------

    def reconstruct_data(self) -> np.ndarray:
        """Invert the stored coefficients back to the data distribution."""
        coeffs = self.store.as_dense().reshape(self.shape)
        return waverec_nd(coeffs, self.filters)
