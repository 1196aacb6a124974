"""Sparse cascade DWT of polynomial range factors: O(L^2 log N), N-free.

The dense path (:mod:`repro.wavelets.query_transform`'s oracle) transforms
``x**k * chi_[lo, hi]`` by materializing all ``N`` samples and running a
full :func:`~repro.wavelets.transform.wavedec` — ``O(N)`` work per factor,
the dominant front-end cost of batch rewrites on large domains.  But the
paper's Lemma 1 promises only ``O(L log N)`` nonzero outputs (``L`` the
filter length), and the *input* has just as much structure: at every
decomposition level the running approximation signal is

    a_l[i]  =  p_l(i) * chi_[lo_l, hi_l](i)  +  (O(L) boundary corrections),

a polynomial on a contiguous interval plus a few explicit values near the
range boundaries.  This module propagates exactly that representation level
by level:

* **Interior (moment recurrence).**  For output windows fully inside the
  interval, one level maps the interior polynomial ``p`` to

      q(i) = sum_j h[j] p(2i + j)
           = sum_t [ 2**t sum_{r>=t} c_r C(r, t) M_{r-t} ] i**t,

  where ``M_s = sum_j h[j] j**s`` are the filter's discrete moments
  (:meth:`~repro.wavelets.filters.WaveletFilter.discrete_moments`) — a
  closed-form degree-preserving update of the ``k+1`` coefficients.  The
  same recurrence with the highpass moments gives the interior *detail*
  polynomial, which is identically zero whenever the filter has more than
  ``deg p`` vanishing moments (the sparse case); otherwise it is evaluated
  directly, reproducing the genuinely dense transform (e.g. Haar on a
  degree-1 factor) without a special case.
* **Boundaries (window propagation).**  Only the ``O(L)`` output windows
  that straddle ``lo``, ``hi``, or the periodic wrap are computed
  explicitly; their approximation values become next level's corrections
  and their detail values are emitted.  Corrections stay within ``O(L)`` of
  the shrinking boundaries, so the per-level work is ``O(L**2)``.
* **Tail (dense fallback).**  Once the signal is shorter than ``2 L`` the
  remaining levels are done densely on the materialized ``O(L)``-length
  signal — the packed coefficients of a length-``m`` prefix are final
  packed positions ``[0, m)``, so they are emitted verbatim.

Total: ``O(L**2 log N)`` time and memory per factor, independent of ``N``,
for every registered Daubechies filter and every monomial degree.  Results
are memoized in one lock-guarded table shared by every thread, so a batch
rewrite (:meth:`LinearStorage.rewrite_batch`) computes each distinct factor
once.
"""

from __future__ import annotations

import threading
from math import comb
from typing import Sequence

import numpy as np

from repro.util import check_power_of_two
from repro.wavelets.filters import WaveletFilter, get_filter
from repro.wavelets.sparse import DEFAULT_RTOL, SparseVector
from repro.wavelets.transform import wavedec

__all__ = [
    "cascade_coefficients_1d",
    "clear_cache",
    "cache_size",
]


# ----------------------------------------------------------------------
# Polynomial helpers (coefficients ascending, plain Python floats)
# ----------------------------------------------------------------------


def _polyval(coeffs: Sequence[float], x: float) -> float:
    """Horner evaluation of an ascending-coefficient polynomial."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _step_poly(coeffs: Sequence[float], moments: Sequence[float]) -> list[float]:
    """One-level polynomial update ``q(i) = sum_j f[j] p(2i + j)``.

    ``moments[s]`` must be ``sum_j f[j] j**s`` for the channel filter ``f``.
    The degree is preserved: ``q_t = 2**t sum_{r>=t} p_r C(r, t) M_{r-t}``.
    """
    k = len(coeffs) - 1
    out = []
    for t in range(k + 1):
        acc = 0.0
        for r in range(t, k + 1):
            acc += coeffs[r] * comb(r, t) * moments[r - t]
        out.append(acc * float(2**t))
    return out


# ----------------------------------------------------------------------
# The cascade
# ----------------------------------------------------------------------


def _materialize(
    m: int, coeffs: list[float] | None, interval: tuple[int, int] | None, corr: dict
) -> np.ndarray:
    """Dense length-``m`` signal of the (polynomial, interval, corrections)
    representation."""
    dense = np.zeros(m, dtype=np.float64)
    if interval is not None:
        lo, hi = interval
        xs = np.arange(lo, hi + 1, dtype=np.float64)
        acc = np.zeros(xs.size, dtype=np.float64)
        for c in reversed(coeffs):
            acc = acc * xs + c
        dense[lo : hi + 1] = acc
    for pos, v in corr.items():
        dense[pos] += v
    return dense


def _cascade(
    filt: WaveletFilter, n: int, lo: int, hi: int, degree: int, rtol: float
) -> SparseVector:
    taps = filt.length
    h = filt.lowpass.tolist()
    g = filt.highpass.tolist()
    mom_low, mom_high = filt.discrete_moments(degree)
    mom_low = mom_low.tolist()
    mom_high = mom_high.tolist()
    # Interior details vanish identically iff the wavelet annihilates the
    # interior polynomial (discrete vanishing moments are exact for
    # Daubechies filters up to roundoff, which rtol absorbs).
    details_vanish = filt.vanishing_moments > degree

    coeffs: list[float] | None = [0.0] * degree + [1.0]  # p(x) = x**degree
    interval: tuple[int, int] | None = (lo, hi)
    corr: dict[int, float] = {}
    items: list[tuple[int, float]] = []

    m = n
    while m > 1:
        if m <= 2 * taps:
            # Tail: the remaining packed coefficients occupy [0, m) of the
            # final layout verbatim, so finish densely on O(L) samples.
            packed = wavedec(_materialize(m, coeffs, interval, corr), filt)
            items.extend(
                (i, v) for i, v in enumerate(packed.tolist()) if v != 0.0
            )
            return SparseVector.from_items(n, items, rtol=rtol)

        half = m // 2
        new_corr: dict[int, float] = {}
        details: dict[int, float] = {}

        if interval is not None:
            ilo_, ihi_ = interval
            # Output windows [2i, 2i + taps - 1] fully inside the interval.
            in_lo = (ilo_ + 1) // 2
            in_hi = (ihi_ - taps + 1) // 2
            # Explicit windows: those containing a range boundary plus the
            # (at most ceil((L-1)/2)) windows that wrap past the period.
            cand: set[int] = set()
            for p in (ilo_, ihi_):
                for j in range(taps):
                    t = (p - j) % m
                    if t % 2 == 0:
                        cand.add(t // 2)
            for i in range((m - taps + 2) // 2, half):
                cand.add(i)
            for i in cand:
                if 2 * i >= ilo_ and 2 * i + taps - 1 <= ihi_:
                    continue  # interior window, closed form below
                a_val = 0.0
                d_val = 0.0
                base = 2 * i
                for j in range(taps):
                    p = (base + j) % m
                    if ilo_ <= p <= ihi_:
                        v = _polyval(coeffs, float(p))
                        a_val += h[j] * v
                        d_val += g[j] * v
                if a_val != 0.0:
                    new_corr[i] = new_corr.get(i, 0.0) + a_val
                if d_val != 0.0:
                    details[i] = details.get(i, 0.0) + d_val
            if in_lo <= in_hi:
                if not details_vanish:
                    # Dense interior band (filter too short for the degree):
                    # evaluate the detail polynomial directly.
                    r = _step_poly(coeffs, mom_high)
                    xs = np.arange(in_lo, in_hi + 1, dtype=np.float64)
                    acc = np.zeros(xs.size, dtype=np.float64)
                    for c in reversed(r):
                        acc = acc * xs + c
                    for i, v in zip(range(in_lo, in_hi + 1), acc.tolist()):
                        if v != 0.0:
                            details[i] = details.get(i, 0.0) + v
                coeffs = _step_poly(coeffs, mom_low)
                interval = (in_lo, in_hi)
            else:
                # The interval shrank below one full window: every output
                # touching it was computed explicitly above.
                coeffs = None
                interval = None

        # Corrections feed the next level through both channels.
        for pos, v in corr.items():
            for j in range(taps):
                t = (pos - j) % m
                if t % 2:
                    continue
                i = t // 2
                new_corr[i] = new_corr.get(i, 0.0) + h[j] * v
                details[i] = details.get(i, 0.0) + g[j] * v

        # Level details are final: they land at packed positions
        # [half, m), never touched by coarser levels.
        items.extend((half + i, v) for i, v in details.items() if v != 0.0)
        corr = new_corr
        m = half

    # Full depth reached: the single scaling coefficient sits at index 0.
    final = corr.get(0, 0.0)
    if interval is not None and interval[0] <= 0 <= interval[1]:
        final += _polyval(coeffs, 0.0)
    if final != 0.0:
        items.append((0, final))
    return SparseVector.from_items(n, items, rtol=rtol)


# ----------------------------------------------------------------------
# Memoized public entry point (process-seedable)
# ----------------------------------------------------------------------

_memo: dict[tuple, SparseVector] = {}
_memo_lock = threading.Lock()


def _memo_key(
    name: str, n: int, lo: int, hi: int, degree: int, rtol: float
) -> tuple:
    return (name, int(n), int(lo), int(hi), int(degree), float(rtol))


def cascade_coefficients_1d(
    filt: WaveletFilter | str,
    n: int,
    lo: int,
    hi: int,
    degree: int = 0,
    rtol: float = DEFAULT_RTOL,
) -> SparseVector:
    """Sparse-cascade transform of ``x**degree * chi_[lo, hi]``.

    Produces the same packed-layout coefficients as the dense
    ``wavedec``-then-sparsify oracle (to roundoff; the suite checks 1e-10
    relative) in ``O(filter_length**2 * log n)`` time, independent of
    ``n``.  Results are memoized.
    """
    filt = get_filter(filt)
    check_power_of_two(n, what="dimension size")
    if not (0 <= lo <= hi < n):
        raise ValueError(f"range [{lo}, {hi}] not inside [0, {n})")
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree}")
    key = _memo_key(filt.name, n, lo, hi, degree, rtol)
    with _memo_lock:
        hit = _memo.get(key)
    if hit is not None:
        return hit
    result = _cascade(filt, n, lo, hi, degree, rtol)
    with _memo_lock:
        return _memo.setdefault(key, result)


def cache_size() -> int:
    """Number of memoized factors."""
    with _memo_lock:
        return len(_memo)


def clear_cache() -> None:
    """Drop all memoized cascade factors."""
    with _memo_lock:
        _memo.clear()
