"""Progressive evaluation of batches of range-sum queries with wavelets.

This package is a from-scratch reproduction of

    Rolfe Schmidt and Cyrus Shahabi,
    "How to Evaluate Multiple Range-Sum Queries Progressively",
    PODS 2002.

The public API is re-exported here.  The typical flow is:

>>> import numpy as np
>>> from repro import (Relation, WaveletStorage, VectorQuery, HyperRect,
...                    QueryBatch, BatchBiggestB, SsePenalty)
>>> rel = Relation.from_tuples([(1, 2), (3, 1), (1, 2)], shape=(4, 4))
>>> store = WaveletStorage.build(rel.frequency_distribution(), wavelet="haar")
>>> batch = QueryBatch([VectorQuery.count(HyperRect.from_bounds([(0, 1), (0, 3)]))])
>>> evaluator = BatchBiggestB(store, batch, penalty=SsePenalty())
>>> results = evaluator.run()
>>> float(results[0])
2.0

Subpackages
-----------
``repro.wavelets``
    Orthogonal wavelet filters, dense periodized DWT, sparse wavelet-domain
    vectors, and the sparse query/point transforms (the ProPolyne machinery).
``repro.queries``
    Ranges, multivariate polynomials, polynomial range-sum vector queries,
    batches, and workload generators.
``repro.storage``
    Linear storage/evaluation strategies (wavelet, prefix-sum, identity) and
    the retrieval-counting I/O cost model.
``repro.core``
    Structural error penalty functions, importance functions, and the
    Batch-Biggest-B progressive evaluator with its optimality bounds.
``repro.data``
    Relations, data frequency distributions, and synthetic dataset
    generators (including the global-temperature substitute).
``repro.stats``
    Range-level derived statistics (average, variance, covariance,
    regression, ANOVA) built on vector queries.
``repro.service``
    The concurrent progressive query service: many live sessions over one
    store with cross-batch I/O sharing and an optional paged disk tier.
    The one definition of the session API.
``repro.cluster``
    That same service over shard workers (``ClusterRouter``), behind an
    HTTP edge with one thread per connection.
"""

from repro.core.batch import BatchBiggestB, ProgressiveStep
from repro.core.baselines import (
    NaiveScanEvaluator,
    RoundRobinEvaluator,
    exact_answers,
)
from repro.core.explain import explain
from repro.core.penalties import (
    CombinedPenalty,
    CursoredSsePenalty,
    DifferencePenalty,
    LaplacianPenalty,
    LpPenalty,
    QuadraticFormPenalty,
    SsePenalty,
    WeightedSsePenalty,
)
from repro.core.session import ProgressiveSession
from repro.core.synopsis import DataSynopsis
from repro.core.topk import ProgressiveRanker
from repro.data.relation import Relation, Schema
from repro.data.synthetic import (
    employee_dataset,
    gaussian_mixture_dataset,
    temperature_dataset,
    uniform_dataset,
    zipf_dataset,
)
from repro.queries.derived import DerivedBatch
from repro.queries.polynomial import Polynomial
from repro.queries.range import HyperRect
from repro.queries.vector_query import QueryBatch, VectorQuery
from repro.queries.workload import (
    drill_down_batch,
    random_partition,
    random_rectangles,
    sliding_cursor_batches,
)
from repro.service.scheduler import SharedRetrievalScheduler
from repro.service.server import (
    ProgressiveQueryService,
    ServiceMetrics,
    SessionSnapshot,
)
from repro.storage.counter import CountingStore, IOStatistics
from repro.storage.identity import IdentityStorage
from repro.storage.local_prefix_sum import LocalPrefixSumStorage
from repro.storage.nonstandard_store import NonstandardWaveletStorage
from repro.storage.paged import PagedCoefficientStore
from repro.storage.prefix_sum import PrefixSumStorage
from repro.storage.wavelet_store import WaveletStorage
from repro.wavelets.filters import WaveletFilter, daubechies_filter, get_filter
from repro.wavelets.transform import wavedec, wavedec_nd, waverec, waverec_nd

__version__ = "1.0.0"

__all__ = [
    "BatchBiggestB",
    "ProgressiveStep",
    "NaiveScanEvaluator",
    "RoundRobinEvaluator",
    "exact_answers",
    "CombinedPenalty",
    "CursoredSsePenalty",
    "DifferencePenalty",
    "LaplacianPenalty",
    "LpPenalty",
    "QuadraticFormPenalty",
    "SsePenalty",
    "WeightedSsePenalty",
    "Relation",
    "Schema",
    "employee_dataset",
    "gaussian_mixture_dataset",
    "temperature_dataset",
    "uniform_dataset",
    "zipf_dataset",
    "Polynomial",
    "HyperRect",
    "QueryBatch",
    "VectorQuery",
    "drill_down_batch",
    "random_partition",
    "random_rectangles",
    "sliding_cursor_batches",
    "CountingStore",
    "IOStatistics",
    "IdentityStorage",
    "LocalPrefixSumStorage",
    "PagedCoefficientStore",
    "ProgressiveQueryService",
    "ProgressiveSession",
    "ServiceMetrics",
    "SessionSnapshot",
    "SharedRetrievalScheduler",
    "ProgressiveRanker",
    "DataSynopsis",
    "DerivedBatch",
    "NonstandardWaveletStorage",
    "explain",
    "PrefixSumStorage",
    "WaveletStorage",
    "WaveletFilter",
    "daubechies_filter",
    "get_filter",
    "wavedec",
    "wavedec_nd",
    "waverec",
    "waverec_nd",
    "__version__",
]
