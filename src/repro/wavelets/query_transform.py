"""Wavelet transforms of polynomial range-sum query vectors.

The crucial fact behind ProPolyne and Batch-Biggest-B (Sections 2-3): a
polynomial range-sum query vector

    q[x] = p(x) * chi_R(x),   R a hyper-rectangle,

is, per monomial of ``p``, a *separable* function of the coordinates, so its
tensor-product wavelet transform is an outer product of per-dimension 1-D
transforms of ``x**k * chi_[lo, hi](x)``.  Each 1-D factor has only
``O(filter_length * log N)`` nonzero coefficients (for Daubechies filters
with enough vanishing moments for the degree), hence the whole query vector
has ``O((4*delta + 2)**d * log**d N)`` nonzeros — independent of the data.

This module computes those sparse factors and assembles query tensors.  Two
interchangeable 1-D factor engines are provided:

``"cascade"`` (the default)
    The sparse cascade of :mod:`repro.wavelets.cascade`:
    ``O(filter_length**2 * log N)`` per factor, independent of ``N`` —
    boundary windows are propagated level by level and the polynomial
    interior follows a closed-form moment recurrence.

``"dense"`` (the oracle)
    A dense length-``N`` :func:`~repro.wavelets.transform.wavedec` followed
    by exact sparsification — ``O(N)`` per factor.  Reachable only as
    ``vector_coefficients_1d(..., method="dense")``: the independent
    cross-check the cascade is verified against, and the naive baseline
    of the rewrite bench.  Every tensor and plan uses the cascade.

Both engines memoize per-dimension factors in lock-guarded tables (batch
queries share many of them — that sharing is where the paper's I/O savings
come from), so a batch rewritten in process computes each distinct factor
once.  A closed-form ``O(log N)`` Haar path for indicator
functions doubles as a second independent correctness check.
"""

from __future__ import annotations

import threading
from math import sqrt
from typing import Sequence

import numpy as np

from repro.obs.trace import span as _span
from repro.util import check_power_of_two, log2_int
from repro.wavelets import cascade as _cascade_mod
from repro.wavelets.cascade import cascade_coefficients_1d
from repro.wavelets.filters import WaveletFilter, get_filter, resolve_filters
from repro.wavelets.sparse import DEFAULT_RTOL, SparseTensor, SparseVector
from repro.wavelets.transform import wavedec

#: The factor engines selectable via ``method=``.
METHODS = ("cascade", "dense")


def _validate_range(n: int, lo: int, hi: int) -> None:
    check_power_of_two(n, what="dimension size")
    if not (0 <= lo <= hi < n):
        raise ValueError(f"range [{lo}, {hi}] not inside [0, {n})")


# ----------------------------------------------------------------------
# The dense oracle (memoized like the cascade)
# ----------------------------------------------------------------------

_dense_memo: dict[tuple, SparseVector] = {}
_dense_memo_lock = threading.Lock()


def _dense_coefficients(
    filter_name: str, n: int, lo: int, hi: int, degree: int, rtol: float
) -> SparseVector:
    key = (filter_name, int(n), int(lo), int(hi), int(degree), float(rtol))
    with _dense_memo_lock:
        hit = _dense_memo.get(key)
    if hit is not None:
        return hit
    filt = get_filter(filter_name)
    dense = np.zeros(n, dtype=np.float64)
    xs = np.arange(lo, hi + 1, dtype=np.float64)
    dense[lo : hi + 1] = xs**degree
    result = SparseVector.from_dense(wavedec(dense, filt), rtol=rtol)
    with _dense_memo_lock:
        return _dense_memo.setdefault(key, result)


# ----------------------------------------------------------------------
# Factor computation: the 1-D front door
# ----------------------------------------------------------------------


def vector_coefficients_1d(
    filt: WaveletFilter | str,
    n: int,
    lo: int,
    hi: int,
    degree: int = 0,
    rtol: float = DEFAULT_RTOL,
    method: str = "cascade",
) -> SparseVector:
    """Sparse wavelet transform of the 1-D vector ``x**degree * chi_[lo, hi]``.

    Parameters
    ----------
    filt:
        Orthonormal filter (or registry name).  For sparse results the filter
        needs ``degree + 1`` vanishing moments; any filter is *correct*.
    n:
        Dimension size (power of two).
    lo, hi:
        Inclusive integer range bounds, ``0 <= lo <= hi < n``.
    degree:
        Monomial degree of this dimension's factor.
    rtol:
        Relative sparsification tolerance.
    method:
        Factor engine: ``"cascade"`` (sparse, ``O(log n)``, the default) or
        ``"dense"`` (the ``O(n)`` oracle).

    Returns
    -------
    SparseVector over the packed coefficient layout of :func:`wavedec`.
    Results are memoized, since batch queries share many per-dimension
    factors (that sharing is where the paper's I/O savings come from).
    """
    filt = get_filter(filt)
    _validate_range(n, lo, hi)
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree}")
    if method == "cascade":
        with _span("rewrite.cascade", filter=filt.name, n=n, lo=lo, hi=hi,
                   degree=degree):
            return cascade_coefficients_1d(filt, n, lo, hi, degree=degree, rtol=rtol)
    if method == "dense":
        with _span("rewrite.dense", filter=filt.name, n=n, lo=lo, hi=hi,
                   degree=degree):
            return _dense_coefficients(filt.name, n, lo, hi, degree, rtol)
    raise ValueError(f"method must be one of {METHODS}, got {method!r}")


def clear_cache() -> None:
    """Drop every rewrite-path memo (dense oracle *and* sparse cascade).

    Benchmarks call this between trials so each timing pays the full
    rewrite cost instead of a memo hit.
    """
    with _dense_memo_lock:
        _dense_memo.clear()
    _cascade_mod.clear_cache()


# ----------------------------------------------------------------------
# Closed-form Haar indicator path (independent cross-check)
# ----------------------------------------------------------------------


def haar_indicator_coefficients(n: int, lo: int, hi: int) -> SparseVector:
    """Closed-form Haar transform of an indicator function in O(log n).

    With orthonormal periodized Haar, the detail coefficient of level ``j``
    at block ``i`` is ``2**(-j/2) * (|range ∩ left half| - |range ∩ right
    half|)`` and is nonzero only for the (at most two) blocks containing a
    range boundary; the single full-depth scaling coefficient is
    ``(hi - lo + 1) / sqrt(n)``.  Used as a fast path and as an independent
    cross-check of the dense and cascade engines.
    """
    _validate_range(n, lo, hi)
    levels = log2_int(n)
    items: list[tuple[int, float]] = [(0, (hi - lo + 1) / sqrt(n))]
    for j in range(1, levels + 1):
        block = 1 << j
        half = block >> 1
        scale = 2.0 ** (-j / 2.0)
        for i in sorted({lo >> j, hi >> j}):
            a = max(lo, i * block)
            b = min(hi, (i + 1) * block - 1)
            if a > b:
                continue
            mid = i * block + half
            left = max(0, min(b, mid - 1) - a + 1)
            right = max(0, b - max(a, mid) + 1)
            value = (left - right) * scale
            if value != 0.0:
                items.append(((n >> j) + i, value))
    return SparseVector.from_items(n, items)


# ----------------------------------------------------------------------
# Tensor assembly
# ----------------------------------------------------------------------


def monomial_factors(
    filt: "WaveletFilter | str | Sequence[WaveletFilter | str]",
    shape: Sequence[int],
    bounds: Sequence[tuple[int, int]],
    exponents: Sequence[int],
    coefficient: float = 1.0,
    rtol: float = DEFAULT_RTOL,
) -> list[SparseVector]:
    """Per-axis 1-D factors of ``coefficient * prod_i x_i**e_i * chi_R``.

    ``bounds`` gives the inclusive per-dimension range and ``exponents`` the
    per-dimension monomial exponents; ``coefficient`` is scaled into the
    first factor.  ``filt`` may be a single filter or one per axis (matched
    filters).  The monomial's transform is the outer product of these
    vectors, left to right (:func:`monomial_tensor`); a factored
    :class:`~repro.core.plan.QueryPlan` multiplies the same vectors in the
    same order without building the tensor.
    """
    shape = tuple(int(s) for s in shape)
    filters = resolve_filters(filt, len(shape))
    if not (len(shape) == len(bounds) == len(exponents)):
        raise ValueError("shape, bounds and exponents must have equal lengths")
    factors = [
        vector_coefficients_1d(f, n, lo, hi, degree=e, rtol=rtol)
        for f, n, (lo, hi), e in zip(filters, shape, bounds, exponents)
    ]
    if coefficient != 1.0:
        factors = [factors[0].scaled(coefficient)] + factors[1:]
    return factors


def monomial_tensor(
    filt: "WaveletFilter | str | Sequence[WaveletFilter | str]",
    shape: Sequence[int],
    bounds: Sequence[tuple[int, int]],
    exponents: Sequence[int],
    coefficient: float = 1.0,
    rtol: float = DEFAULT_RTOL,
) -> SparseTensor:
    """Sparse transform of ``coefficient * prod_i x_i**e_i * chi_R``: the
    outer product of its :func:`monomial_factors`."""
    return SparseTensor.from_outer(
        monomial_factors(filt, shape, bounds, exponents, coefficient, rtol)
    )


def query_tensor(
    filt: "WaveletFilter | str | Sequence[WaveletFilter | str]",
    shape: Sequence[int],
    bounds: Sequence[tuple[int, int]],
    monomials: Sequence[tuple[tuple[int, ...], float]],
    rtol: float = DEFAULT_RTOL,
) -> SparseTensor:
    """Sparse transform of a full polynomial range-sum query vector.

    ``monomials`` is a sequence of ``(exponent_tuple, coefficient)`` pairs —
    the polynomial ``p`` in monomial form.  The transform is the sum over
    monomials of :func:`monomial_tensor`.
    """
    if not monomials:
        raise ValueError("polynomial must have at least one monomial")
    tensors = [
        monomial_tensor(filt, shape, bounds, exps, coeff, rtol=rtol)
        for exps, coeff in monomials
    ]
    return SparseTensor.sum_of(tensors, rtol=rtol)
