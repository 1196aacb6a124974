"""Wavelet substrate: filters, dense transforms, sparse vectors and the
sparse query/point transforms that power ProPolyne and Batch-Biggest-B.

Everything here is implemented from scratch on top of numpy:

``filters``
    Orthonormal wavelet filter banks.  Daubechies filters for any number of
    vanishing moments are derived by spectral factorization, not hardcoded.
``transform``
    Dense periodized orthonormal multilevel DWT/IDWT in one and many
    dimensions, using a packed ``[cA_J | cD_J | ... | cD_1]`` layout so that
    the d-dimensional transform is simply the 1-D transform applied along
    every axis (the standard tensor-product basis).
``sparse``
    Sparse vectors over the packed coefficient index space, and sparse
    tensors formed as outer products of per-dimension sparse vectors.
``query_transform``
    The wavelet transform of polynomial range-sum query vectors — sparse by
    construction, independent of the data (Sections 2-3 of the paper).
``cascade``
    The sparse cascade engine behind ``query_transform``: per-dimension
    factors in ``O(filter_length**2 * log N)`` via boundary propagation and
    a closed-form interior moment recurrence (no dense length-``N`` pass).
``point``
    The sparse wavelet transform of a point mass, used for streaming
    single-tuple updates of a wavelet-transformed data cube.
"""

from repro.wavelets.filters import WaveletFilter, daubechies_filter, get_filter
from repro.wavelets.sparse import SparseTensor, SparseVector
from repro.wavelets.transform import (
    dwt_level,
    idwt_level,
    wavedec,
    wavedec_nd,
    waverec,
    waverec_nd,
)
from repro.wavelets.cascade import cascade_coefficients_1d
from repro.wavelets.query_transform import (
    haar_indicator_coefficients,
    query_tensor,
    vector_coefficients_1d,
)
from repro.wavelets.point import point_tensor, point_coefficients_1d

__all__ = [
    "WaveletFilter",
    "daubechies_filter",
    "get_filter",
    "SparseTensor",
    "SparseVector",
    "dwt_level",
    "idwt_level",
    "wavedec",
    "wavedec_nd",
    "waverec",
    "waverec_nd",
    "cascade_coefficients_1d",
    "haar_indicator_coefficients",
    "query_tensor",
    "vector_coefficients_1d",
    "point_tensor",
    "point_coefficients_1d",
]
