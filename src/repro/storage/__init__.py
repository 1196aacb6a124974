"""Linear storage/evaluation strategies and the I/O cost model.

Section 1.2 of the paper observes that *any* invertible linear transform of
the data frequency distribution is a storage strategy: the left inverse
rewrites query vectors into the transform domain, and Batch-Biggest-B turns
the rewritten batch into an I/O-efficient progressive evaluation.  This
package implements that abstraction (:class:`~repro.storage.base.LinearStorage`)
with three strategies:

* :class:`~repro.storage.wavelet_store.WaveletStorage` — the paper's main
  strategy (update-efficient, sparse query rewrites);
* :class:`~repro.storage.prefix_sum.PrefixSumStorage` — Ho et al.'s
  prefix-sum cubes, generalized to higher moments;
* :class:`~repro.storage.identity.IdentityStorage` — no precomputation.

The I/O model is the paper's: coefficients live in array- or hash-based
storage with constant-time access; every fetched key counts as one
retrieval (:class:`~repro.storage.counter.CountingStore`).
"""

from repro.storage.base import KeyedVector, LinearStorage
from repro.storage.counter import CountingStore, IOStatistics, StoreWrapper
from repro.storage.faults import FaultInjectingStore, InjectedFault, chaos_stack
from repro.storage.identity import IdentityStorage
from repro.storage.paged import PagedCoefficientStore, write_paged_file
from repro.storage.prefix_sum import PrefixSumStorage
from repro.storage.resilient import (
    CircuitBreaker,
    CircuitOpenError,
    ResilientStore,
    RetrievalError,
    RetryPolicy,
)
from repro.storage.wavelet_store import WaveletStorage

__all__ = [
    "KeyedVector",
    "LinearStorage",
    "CircuitBreaker",
    "CircuitOpenError",
    "CountingStore",
    "FaultInjectingStore",
    "InjectedFault",
    "IOStatistics",
    "IdentityStorage",
    "PagedCoefficientStore",
    "PrefixSumStorage",
    "ResilientStore",
    "RetrievalError",
    "RetryPolicy",
    "StoreWrapper",
    "WaveletStorage",
    "chaos_stack",
    "write_paged_file",
]
