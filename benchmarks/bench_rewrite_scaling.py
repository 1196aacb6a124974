#!/usr/bin/env python
"""Rewrite-scaling perf harness: sparse cascade vs the dense oracle.

Measures the query-rewrite front end — the cost every submit pays *before*
a single coefficient is retrieved — along two axes:

1. **Domain size.**  One 1-D factor ``x**degree * chi_[lo, hi]`` per
   ``N = 2**10 .. 2**22``: the cascade engine should be ~flat per doubling
   (``O(L**2 log N)``) while the dense oracle grows ~linearly (``O(N)``).
2. **Batch size.**  Full 2-D batch rewrites through
   ``LinearStorage.rewrite_batch``, showing the shared-factor memo
   amortizing the per-query cost.

Every timing clears the rewrite memos first (``query_transform.clear_cache``)
so each trial pays the real cost, and takes the best of ``--repeats`` runs.

Results land in ``BENCH_rewrite.json`` at the repo root so future PRs have a
trajectory to compare against; see ``docs/PERFORMANCE.md`` for how to read
it.  ``--smoke`` runs the small sizes only and *asserts* the cascade is at
least 5x faster than the dense path at ``N = 2**18`` for ``db4`` — the CI
regression gate for this optimization.

Run as a script (CI) or read the JSON (humans):

    PYTHONPATH=src python benchmarks/bench_rewrite_scaling.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro.queries.range import HyperRect
from repro.queries.vector_query import QueryBatch, VectorQuery
from repro.storage.wavelet_store import WaveletStorage
from repro.storage.counter import CountingStore
from repro.wavelets.query_transform import clear_cache, vector_coefficients_1d

#: The gate the CI smoke run enforces: cascade >= 5x dense at this size.
GATE_FILTER = "db4"
GATE_N = 2**18
GATE_MIN_SPEEDUP = 5.0


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        clear_cache()
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def time_single_factors(
    exponents: list[int], filters: list[str], degree: int, dense_cap: int, repeats: int
) -> list[dict]:
    rows = []
    for name in filters:
        for e in exponents:
            n = 2**e
            lo, hi = n // 7, (5 * n) // 7
            cascade_s = _best_of(
                lambda: vector_coefficients_1d(
                    name, n, lo, hi, degree=degree, method="cascade"
                ),
                repeats,
            )
            dense_s = None
            if n <= dense_cap:
                dense_s = _best_of(
                    lambda: vector_coefficients_1d(
                        name, n, lo, hi, degree=degree, method="dense"
                    ),
                    repeats,
                )
            rows.append(
                {
                    "filter": name,
                    "degree": degree,
                    "n": n,
                    "cascade_s": cascade_s,
                    "dense_s": dense_s,
                    "speedup": (dense_s / cascade_s) if dense_s else None,
                }
            )
            print(
                f"  {name:>5}  N=2^{e:<2}  cascade {cascade_s * 1e3:9.3f} ms"
                + (
                    f"   dense {dense_s * 1e3:10.3f} ms   ({dense_s / cascade_s:8.1f}x)"
                    if dense_s
                    else "   dense      (skipped)"
                )
            )
    return rows


def time_batch_rewrites(batch_sizes: list[int], n: int, repeats: int) -> list[dict]:
    shape = (n, n)
    # Rewrite cost is data-independent: an all-zero store is enough.
    storage = WaveletStorage(
        shape, CountingStore(n * n, backend="hash"), wavelet="db2"
    )
    rng = np.random.default_rng(7)
    rows = []
    for size in batch_sizes:
        queries = []
        for _ in range(size):
            lo0, lo1 = (int(v) for v in rng.integers(0, n - 2, 2))
            hi0 = int(rng.integers(lo0, n))
            hi1 = int(rng.integers(lo1, n))
            queries.append(VectorQuery.sum(HyperRect(((lo0, hi0), (lo1, hi1))), 0))
        batch = QueryBatch(queries)
        seconds = _best_of(lambda: storage.rewrite_batch(batch), repeats)
        rows.append(
            {
                "batch_size": size,
                "n_per_dim": n,
                "seconds": seconds,
                "per_query_s": seconds / size,
            }
        )
        print(
            f"  batch={size:<4} rewrite {seconds * 1e3:9.3f} ms"
            f"  ({seconds / size * 1e3:7.3f} ms/query)"
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes only, and fail unless the cascade beats the dense "
        f"path by >= {GATE_MIN_SPEEDUP}x at N=2^18 for {GATE_FILTER}",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_rewrite.json",
        help="output JSON path (default: BENCH_rewrite.json at the repo root)",
    )
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    if args.smoke:
        exponents = [10, 12, 14, 16, 18]
        dense_cap = GATE_N
        batch_sizes = [1, 8, 32]
    else:
        exponents = list(range(10, 23, 2))
        dense_cap = 2**20
        batch_sizes = [1, 8, 32, 128]

    print(f"== single-factor rewrite scaling (degree 1, best of {args.repeats}) ==")
    single = time_single_factors(
        exponents, ["db2", GATE_FILTER], degree=1, dense_cap=dense_cap, repeats=args.repeats
    )
    print("== batch rewrite scaling (2-D db2 SUM queries, 1024 x 1024) ==")
    batches = time_batch_rewrites(batch_sizes, n=1024, repeats=args.repeats)

    gate = next(
        (r for r in single if r["filter"] == GATE_FILTER and r["n"] == GATE_N), None
    )
    speedup = gate["speedup"] if gate else None
    result = {
        "bench": "rewrite_scaling",
        "mode": "smoke" if args.smoke else "full",
        "repeats": args.repeats,
        "single_factor": single,
        "batch_rewrite": batches,
        "gate": {
            "filter": GATE_FILTER,
            "n": GATE_N,
            "min_speedup": GATE_MIN_SPEEDUP,
            "measured_speedup": speedup,
        },
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}")

    if speedup is not None:
        print(
            f"gate: {GATE_FILTER} at N=2^18 cascade is {speedup:.1f}x faster "
            f"than dense (required >= {GATE_MIN_SPEEDUP}x)"
        )
    if args.smoke:
        if speedup is None or speedup < GATE_MIN_SPEEDUP:
            print("FAIL: cascade speedup below the regression gate", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
