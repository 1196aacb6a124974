"""The four end-to-end workloads and their deterministic batch generators.

Everything the server receives is generated here from ``--seed``: the
dataset seed goes on the ``repro serve`` command line, and every batch is
the workload's *base batch* of that index mirrored along the grouping
axes the seed selects.  One seed always yields the same JSON on the wire;
two seeds yield different partitions.  The workload names and the "why"
strings are mirrored in ``BENCHMARK.json`` (``test_smoke.py`` checks it).

Why not a fresh random partition per seed: random partitions differ a lot
in what they cost.  Over 1500 draws the master list of a 512-cell Haar
partition spans 54k-100k keys and the retrievals to 1 % of the bound span
1.5k-5.7k; even with those pinned, the per-advance cost of two partitions
differed by 15-20 %.  A run has time for one such session, so the seed
would decide the result.  Hence two steps:

* the base batch is *pinned*: its RNG (seeded by workload and index only)
  is drawn from until the batch's cost profile - computed from its
  per-dimension wavelet factors alone, no server involved - is close to
  the workload's nominal (median) one;
* the seed *mirrors* it: ``x -> n-1-x`` along each grouping axis whose bit
  is set in the seed.  A mirrored interval has the mirrored Haar support
  (same size, same squared coefficients, level by level), so every cell
  moves while master-list size, entry count and the importance profile
  stay put; for db2 this holds to within a few percent.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from functools import lru_cache, reduce

import numpy as np

from repro.queries.range import HyperRect
from repro.queries.vector_query import QueryBatch, VectorQuery
from repro.queries.workload import (
    drill_down_batch,
    partition_sum_batch,
    random_partition,
)
from repro.wavelets.query_transform import vector_coefficients_1d


@dataclass(frozen=True)
class Scale:
    """The substrate shared by all workloads (dataset, paging, batch shapes)."""

    shape: tuple[int, ...]
    records: int
    page_size: int
    pool_small: int  # buffer pages when the pool is 1/16 of the file
    pool_large: int  # buffer pages when the whole file fits the pool
    partition_cells: tuple[int, ...]  # over the four grouping dimensions
    drill_parent: tuple[tuple[int, int], ...]
    drill_cells: tuple[int, ...]
    k_partition: int
    k_drill: int
    wave: int  # drill sessions offered at once
    penalty_round: int  # round after which even drill sessions retarget
    #: Nominal cost profile per (workload kind, wavelet); batches are drawn
    #: until they match it.  A kind without an entry is not pinned.
    nominal: dict[tuple[str, str], "Profile"] = field(
        default_factory=dict, hash=False, compare=False
    )

    @property
    def measure(self) -> int:
        """``temperature`` is the last attribute of the synthetic relation."""
        return len(self.shape) - 1


@dataclass(frozen=True)
class Profile:
    """What a grid batch costs, whatever the data: master-list keys, plan
    entries, and the retrievals that bring the Theorem-1 bound of an SSE
    session to 1 % and 0.1 % of its initial value."""

    keys: int
    entries: int
    to_1pct: int
    to_tenth_pct: int

    #: How far a pinned batch may sit from the nominal profile, per field.
    #: Time to exact follows keys and time to first answer follows entries,
    #: so those are tight; the bound targets add little time and are loose.
    TOLERANCE = (0.03, 0.03, 0.10, 0.10)

    def close_to(self, nominal: "Profile") -> bool:
        mine = (self.keys, self.entries, self.to_1pct, self.to_tenth_pct)
        want = (nominal.keys, nominal.entries, nominal.to_1pct, nominal.to_tenth_pct)
        return all(
            abs(a - b) <= tol * b for a, b, tol in zip(mine, want, self.TOLERANCE)
        )


def grid_profile(
    intervals: list[list[tuple[int, int]]], wavelet: str, shape, measure: int
) -> Profile:
    """Profile of the batch that sums ``measure`` over every cell of the
    grid ``intervals[0] x intervals[1] x ...``.

    The grid holds every combination of its per-dimension intervals, so
    the union of the queries' coefficient supports is the product of the
    per-dimension unions, the entry count is the product of the
    per-dimension sums, and the SSE importance of key ``(k_0, k_1, ...)``
    is ``prod_d g_d[k_d]`` with ``g_d`` the squared 1-D coefficients summed
    over dimension ``d``'s intervals.  The bound is the importance of the
    best unused key, so the retrievals to reach a share of the initial
    bound are the keys whose importance exceeds that share of the maximum.
    """
    masses, entries = [], 1
    for d, (n, dim_intervals) in enumerate(zip(shape, intervals)):
        mass, nonzeros = np.zeros(n), 0
        for lo, hi in dim_intervals:
            factor = vector_coefficients_1d(
                wavelet, n, lo, hi, degree=1 if d == measure else 0
            )
            mass[factor.indices] += factor.values**2
            nonzeros += factor.indices.size
        masses.append(mass[mass > 0])
        entries *= nonzeros
    importance = reduce(np.multiply.outer, masses).ravel()
    top = float(importance.max())
    return Profile(
        keys=int(importance.size),
        entries=int(entries),
        to_1pct=int(np.count_nonzero(importance > 1e-2 * top)),
        to_tenth_pct=int(np.count_nonzero(importance > 1e-3 * top)),
    )


#: Section 6 of the paper, scaled to what a 2-core box serves in seconds:
#: 2^20 cells = an 8 MiB paged file of 1024 pages, 512-query batches.
PAPER = Scale(
    shape=(16, 32, 8, 16, 16),
    records=1_000_000,
    page_size=1024,
    pool_small=64,
    pool_large=2048,
    partition_cells=(8, 8, 4, 2),
    drill_parent=((2, 13), (4, 27), (0, 7), (2, 13), (0, 15)),
    drill_cells=(4, 4, 1, 2, 1),
    k_partition=128,
    k_drill=32,
    wave=8,
    penalty_round=20,
    # Medians over 1500 random draws each (README, "Pinned batches").
    nominal={
        ("partition", "haar"): Profile(69_120, 4_377_600, 3_545, 10_118),
        ("partition", "db2"): Profile(203_840, 25_716_768, 3_750, 17_784),
        ("drill", "db2"): Profile(22_176, 280_917, 680, 2_879),
    },
)

#: The smoke test's miniature: 2^12 cells, 16-query batches, same code.
MINI = Scale(
    shape=(4, 8, 2, 4, 16),
    records=20_000,
    page_size=64,
    pool_small=4,
    pool_large=64,
    partition_cells=(2, 2, 2, 2),
    drill_parent=((0, 3), (1, 6), (0, 1), (0, 3), (0, 15)),
    drill_cells=(2, 2, 2, 2, 1),
    k_partition=16,
    k_drill=8,
    wave=3,
    penalty_round=2,
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    wavelet: str
    shards: int
    inline: bool
    warm_pool: bool
    kind: str  # "partition": sequential sessions; "drill": round-robin waves
    stop: str  # "exact" or "bound" (cancel at 0.1 % of the initial bound)
    #: Seconds one unit (a session; a wave for ``drill``) takes on the
    #: reference 2-core box; ``--seconds`` buys ``seconds // unit_s`` units.
    unit_s: float
    #: Distinct partitions to cycle through (0 = a fresh one per session).
    alternate: int = 0

    def units(self, seconds: float) -> int:
        return max(1, int(seconds // self.unit_s))

    def server_flags(self, scale: Scale) -> list[str]:
        flags = [
            "--wavelet", self.wavelet,
            "--shards", str(self.shards),
            "--buffer-pages",
            str(scale.pool_large if self.warm_pool else scale.pool_small),
        ]
        if self.inline:
            flags.append("--inline-shards")
        return flags

    def batch(self, scale: Scale, seed: int, index: int) -> QueryBatch:
        """Batch number ``index`` of this workload under ``seed``."""
        if self.alternate:
            index %= self.alternate
        return _mirrored(_base_batch(self, scale, index), scale, seed)

    def warmup(self, scale: Scale, seed: int) -> QueryBatch:
        """The untimed session's batch: of the workload's size class, so the
        server's heap has grown to its working size before anything is
        timed (first-touch page faults cost anything from nothing to
        seconds on the sandbox), but a batch no timed session submits, so
        the rewrite memo is not pre-filled with the measured factors."""
        return replace(self, alternate=0).batch(scale, seed, WARMUP_INDEX)


def _intervals(batch: QueryBatch, ndim: int) -> list[list[tuple[int, int]]]:
    """The distinct ``(lo, hi)`` of a grid batch's cells, per dimension."""
    return [sorted({q.rect.bounds[d] for q in batch}) for d in range(ndim)]


WARMUP_INDEX = 1_000_000

#: Draws a pinned batch may take; one in ~100 fits, so this never binds.
MAX_DRAWS = 20_000


def _draw(workload: "Workload", scale: Scale, rng, name: str, nominal) -> QueryBatch | None:
    """The RNG's next batch, or None when it is not close to ``nominal``."""
    ndim = len(scale.shape)
    if workload.kind == "drill":
        batch = drill_down_batch(
            HyperRect(scale.drill_parent), scale.drill_cells, rng=rng,
            measure_attribute=scale.measure, name=name,
        )
        intervals = _intervals(batch, ndim)
    else:
        # Building 512 queries per rejected draw would cost seconds.
        # random_partition cuts one dimension after the other, so one
        # 1-D call per dimension draws the very same cuts; the accepted
        # draw is replayed through partition_sum_batch and compared.
        state = rng.bit_generator.state
        intervals = [
            [cell.bounds[0] for cell in random_partition((side,), (pieces,), rng=rng)]
            for side, pieces in zip(scale.shape, scale.partition_cells)
        ] + [[(0, scale.shape[scale.measure] - 1)]]
        batch = None
    if nominal is not None and not grid_profile(
        intervals, workload.wavelet, scale.shape, scale.measure
    ).close_to(nominal):
        return None
    if batch is None:
        rng.bit_generator.state = state
        batch = partition_sum_batch(
            scale.shape, scale.partition_cells, measure_attribute=scale.measure,
            rng=rng, name=name,
        )
        if _intervals(batch, ndim) != intervals:
            raise RuntimeError("partition_sum_batch no longer replays random_partition's cuts")
    return batch


@lru_cache(maxsize=None)
def _base_batch(workload: Workload, scale: Scale, index: int) -> QueryBatch:
    """The seed-independent batch ``index`` of ``workload``: the first draw
    of its RNG whose profile is close to the scale's nominal one."""
    rng = np.random.default_rng([zlib.crc32(workload.name.encode()), int(index)])
    nominal = scale.nominal.get((workload.kind, workload.wavelet))
    for _ in range(MAX_DRAWS):
        batch = _draw(workload, scale, rng, f"{workload.name}-{index}", nominal)
        if batch is not None:
            return batch
    raise RuntimeError(
        f"{workload.name}: no batch close to {nominal} in {MAX_DRAWS} draws (index {index})"
    )


def _mirrored(batch: QueryBatch, scale: Scale, seed: int) -> QueryBatch:
    """``batch`` reflected along grouping axis ``d`` when bit ``d`` of
    ``seed`` is set (the measure axis always spans its full range)."""
    sides = [n if (int(seed) >> d) & 1 and d != scale.measure else 0
             for d, n in enumerate(scale.shape)]
    if not any(sides):
        return batch
    queries = []
    for q in batch:
        bounds = tuple(
            (n - 1 - hi, n - 1 - lo) if n else (lo, hi)
            for n, (lo, hi) in zip(sides, q.rect.bounds)
        )
        queries.append(VectorQuery.sum(HyperRect(bounds), scale.measure, label=q.label))
    return QueryBatch(queries, name=batch.name)


WORKLOADS = (
    Workload(
        name="paper_db2",
        why="Paper Section 6: 512-cell partition under db2 over 2 process shards, stopped "
        "at 0.1% of the initial bound; the largest plans (26M entries), never run to exact.",
        wavelet="db2", shards=2, inline=False, warm_pool=False,
        kind="partition", stop="bound", unit_s=10.0,
    ),
    Workload(
        name="haar_exact",
        why="Cheap Haar plan run to exact: the serving loop is the wall - scheduler, "
        "pipe round-trips, router merge, paged store with the pool at 1/16 of the file.",
        wavelet="haar", shards=2, inline=False, warm_pool=False,
        kind="partition", stop="exact", unit_s=20.0,
    ),
    Workload(
        name="local_warm",
        why="Control: one inline shard and a pool that holds the file bypass pipe, "
        "pickle and page faults; a data-plane or paging change must not move it.",
        wavelet="haar", shards=1, inline=True, warm_pool=True,
        kind="partition", stop="exact", unit_s=5.0, alternate=2,
    ),
    Workload(
        name="drill_dash",
        why="Waves of 8 round-robin db2 drill-downs over one parent region with "
        "mid-run set_penalty and cancels: small submits, cross-session sharing, small requests.",
        wavelet="db2", shards=2, inline=False, warm_pool=False,
        kind="drill", stop="exact", unit_s=20.0,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def wave_sizes(total: int, cap: int) -> list[int]:
    """Split ``total`` offered sessions into waves of at most ``cap``.

    Full waves first, the remainder last — so memory stays bounded by
    ``cap`` live sessions whatever ``total`` is.
    """
    if total < 0 or cap < 1:
        raise ValueError(f"need total >= 0 and cap >= 1, got {total}, {cap}")
    full, rest = divmod(total, cap)
    return [cap] * full + ([rest] if rest else [])


def cursor_penalty(batch_size: int) -> dict:
    """The retarget even drill sessions send: the first quarter is "near the cursor"."""
    return {
        "kind": "cursored_sse",
        "high_priority": list(range(max(1, batch_size // 4))),
        "high_weight": 10.0,
    }
