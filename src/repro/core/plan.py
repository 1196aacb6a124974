"""Master-list construction: steps 2-4 of the Batch-Biggest-B algorithm.

A :class:`QueryPlan` is the sorted master list of distinct store keys a
batch needs plus, per key, its *column*: the ``(query id, coefficient)``
pairs of the rewritten queries that touch the key, query ids ascending.
Columns live in one CSR store that two fillers feed:

* :meth:`QueryPlan.from_rewrites` — the dense filler: flatten the
  rewritten query vectors, group them by key with one stable sort, keep
  everything.  Works for any batch over any storage.
* the factored filler behind :meth:`QueryPlan.from_batch` — for a *grid*
  batch (every combination of per-dimension intervals: partitions,
  drill-downs) over a storage with separable rewrites, keys, per-key
  entry counts and SSE importance are outer products of per-dimension
  tables, and columns are multiplied out of the same per-dimension
  factors only when somebody reads them: one block
  (:data:`COLUMN_BLOCK` entries) of the SSE rank order at a time, the
  first at submit, each later one when the cursor reaches it.  A session
  that stops at 0.1 % of its bound never builds the other 90 %.

Everything downstream reads columns through :meth:`chunk_segments`, so
estimates do not depend on which filler built a column or when:
``docs/THEORY.md`` ("Plans from factors") has the identities and the one
thing that does differ, the last bits of the SSE importance.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

import numpy as np

from repro.core.penalties import Penalty, SsePenalty
from repro.obs import span, stage

#: Entry budget of one block of lazily built columns (12 bytes an entry,
#: so ~100 MB).  A block closes on the key that reaches the budget; block
#: edges follow from the plan and its SSE rank order alone.  Sized so the
#: paper's Section-6 session — 3.4-4.2M of 26M entries to reach 0.1 % of
#: the initial bound — ends well inside the block built at submit: a
#: block costs 0.1-0.2 s, which must not land inside an ``advance``.
COLUMN_BLOCK = 1 << 23

#: Entries multiplied out at a time while a block is built: 4 MB of
#: float64 scratch.
_SCRATCH_ENTRIES = 1 << 19

#: Keys summed at a time by :meth:`QueryPlan.exact_estimates`: at most
#: ``batch_size`` entries a key, so a few MB of gathered columns.
_EXACT_BLOCK_KEYS = 1 << 10


def _outer(op: np.ufunc, per_axis: Sequence[np.ndarray]) -> np.ndarray:
    return reduce(op.outer, per_axis).ravel()


def _c_strides(dims: Sequence[int]) -> np.ndarray:
    return np.cumprod([1] + list(dims[:0:-1]))[::-1]


class _GridFactors:
    """Per-dimension factor tables of a grid batch.

    Axis ``d`` has ``m_d`` distinct factors over a union support of
    ``u_d`` coefficient indices.  Column ``i`` of the ``(m_d, u_d)`` tables
    ``member[d]``/``values[d]`` lists the factors that hold support index
    ``i`` — ascending, ``width[d][i]`` of them, the rest is padding — and
    their coefficients there.  Each query is one combination (C order
    over the ``m_d``) of one factor per axis, each combination once.
    """

    @classmethod
    def of(cls, factors: Sequence[Sequence]) -> "_GridFactors | None":
        """Tables for per-query per-axis ``factors``, or None when the
        queries are not exactly the Cartesian product of the per-axis
        distinct factors (random rectangles, a duplicated query)."""
        batch_size = len(factors)
        support, tables, masks, codes, sizes = [], [], [], [], []
        for per_query in zip(*factors):
            distinct: dict = {}
            codes.append(np.array([
                distinct.setdefault((f.indices.tobytes(), f.values.tobytes()), len(distinct))
                for f in per_query
            ]))
            members = [per_query[q] for q in np.unique(codes[-1], return_index=True)[1]]
            sizes.append(len(members))
            if len({f.n for f in members}) != 1 or np.prod(sizes) > batch_size:
                return None
            support.append(np.unique(np.concatenate([f.indices for f in members])))
            tables.append(np.zeros((support[-1].size, len(members))))
            masks.append(np.zeros(tables[-1].shape, dtype=bool))
            for j, f in enumerate(members):
                rows = np.searchsorted(support[-1], f.indices)
                tables[-1][rows, j] = f.values
                masks[-1][rows, j] = True
        combo = np.ravel_multi_index(codes, sizes)
        if np.prod(sizes) != batch_size or np.unique(combo).size != batch_size:
            return None
        grid = cls()
        grid.batch_size = batch_size
        grid.shape = tuple(s.size for s in support)
        grid.width = [m.sum(axis=1) for m in masks]
        # Present factors first, ascending; strides make a combination.
        first = [np.argsort(~m, axis=1, kind="stable") for m in masks]
        grid.member = [
            (f * k).T.astype(np.int32) for f, k in zip(first, _c_strides(sizes))
        ]
        grid.values = [
            np.take_along_axis(t, f, axis=1).T.copy() for t, f in zip(tables, first)
        ]
        #: Query of each combination; None when the queries already
        #: enumerate the grid in C order.
        grid.query_of = None
        if not np.array_equal(combo, np.arange(batch_size)):
            grid.query_of = np.argsort(combo).astype(np.int32)
        # The product identities: keys (flat, C order: ascending), entries
        # per key, entries per query, and (the product of the per-axis
        # ``mass``) sum_q q_hat[key]**2 per key.
        strides = _c_strides([f.n for f in factors[0]])
        grid.keys = _outer(np.add, [s * k for s, k in zip(support, strides)])
        grid.counts = _outer(np.multiply, grid.width)
        grid.per_query_nnz = np.prod(
            [m.sum(axis=0)[code] for m, code in zip(masks, codes)], axis=0
        )
        grid.mass = [(t * t).sum(axis=1) for t in tables]
        return grid

    def fill(self, positions: np.ndarray, qid: np.ndarray, val: np.ndarray) -> np.ndarray:
        """Write the columns of ``positions`` into ``qid``/``val`` (query
        ids ascending within a key) and return where each one starts.

        A key's column is the product of its per-axis member lists, so
        keys with equal list widths are multiplied out together as one
        rectangular broadcast — left to right, ``(((f0*f1)*f2)*f3)*f4``
        with the monomial coefficient already inside ``f0``, exactly as
        ``SparseTensor.from_outer`` does: every value equals the dense
        filler's bit for bit.
        """
        index = np.unravel_index(positions, self.shape)
        widths = [w[i] for w, i in zip(self.width, index)]
        kind = np.ravel_multi_index(widths, [w.max() + 1 for w in self.width])
        by_shape = np.argsort(kind, kind="stable")
        edges = np.flatnonzero(np.diff(kind[by_shape], prepend=-1, append=-1))
        starts = np.empty(positions.size, dtype=np.int64)
        at = 0
        for lo, hi in zip(edges[:-1], edges[1:]):
            width = [int(w[by_shape[lo]]) for w in widths]
            size = int(np.prod(width))
            step = max(1, _SCRATCH_ENTRIES // size)
            for lo in range(lo, hi, step):
                rows = by_shape[lo : min(lo + step, hi)]
                # (entries of a key, keys): the long axis innermost.
                q = self.member[0][: width[0]].take(index[0][rows], axis=1)
                v = self.values[0][: width[0]].take(index[0][rows], axis=1)
                for d in range(1, len(index)):
                    member = self.member[d][: width[d]].take(index[d][rows], axis=1)
                    factor = self.values[d][: width[d]].take(index[d][rows], axis=1)
                    q = (q[:, None] + member).reshape(-1, rows.size)
                    v = (v[:, None] * factor).reshape(-1, rows.size)
                if self.query_of is not None:
                    q = self.query_of[q]
                    ascending = np.argsort(q, axis=0)
                    q = np.take_along_axis(q, ascending, axis=0)
                    v = np.take_along_axis(v, ascending, axis=0)
                starts[rows] = at + size * np.arange(rows.size)
                qid[at : at + q.size].reshape(rows.size, size)[...] = q.T
                val[at : at + q.size].reshape(rows.size, size)[...] = v.T
                at += q.size
        return starts


class QueryPlan:
    """Master list and key columns of one batch.

    Attributes
    ----------
    batch_size:
        Number of queries ``s``.
    keys:
        Sorted distinct store keys needed by the batch (the master list).
    counts:
        Entries (nonzero query coefficients) per master key.
    per_query_nnz:
        Nonzero count of each rewritten query — the retrievals a
        *non-sharing* evaluator would spend on it.
    """

    def __init__(self, batch_size, keys, counts, per_query_nnz, grid=None) -> None:
        self.batch_size = int(batch_size)
        self.keys = keys
        self.counts = counts
        self.per_query_nnz = per_query_nnz
        self.num_entries = int(counts.sum())
        self._grid: _GridFactors | None = grid
        # The column store: key position p's column is
        # ``_qid/_val[_starts[p] : _starts[p] + counts[p]]``; -1 = not built.
        self._starts = np.full(keys.size, -1, dtype=np.int64)
        self._qid = np.empty(0, dtype=np.int32)
        self._val = np.empty(0, dtype=np.float64)
        self._used = 0
        self._by_key = False  # the store holds every column, in key order
        self._sse_order: np.ndarray | None = None  # what blocks are cut along

    @classmethod
    def from_rewrites(cls, rewrites: Sequence) -> "QueryPlan":
        """Merge rewritten queries (objects with ``indices``/``values``).

        The dense filler: one stable sort of the concatenated keys groups
        the entries by key and keeps the queries ascending within a key.
        """
        if not rewrites:
            raise ValueError("need at least one rewritten query")
        with span("plan.from_rewrites", queries=len(rewrites)):
            nnz = np.array(
                [int(np.asarray(r.indices).size) for r in rewrites], dtype=np.int64
            )
            all_keys = np.concatenate(
                [np.asarray(r.indices, dtype=np.int64) for r in rewrites]
            )
            by_key = np.argsort(all_keys, kind="stable")
            all_keys = all_keys[by_key]
            starts = np.flatnonzero(
                np.concatenate(([True], all_keys[1:] != all_keys[:-1]))
            )[: all_keys.size]
            keys = all_keys[starts]
            del all_keys
            plan = cls(
                batch_size=len(rewrites),
                keys=keys,
                counts=np.diff(starts, append=by_key.size),
                per_query_nnz=nnz,
            )
            plan._starts = starts
            plan._val = np.concatenate(
                [np.asarray(r.values, dtype=np.float64) for r in rewrites]
            )[by_key]
            plan._qid = np.repeat(np.arange(len(rewrites), dtype=np.int32), nnz)[by_key]
            plan._used, plan._by_key = by_key.size, True
            return plan

    @classmethod
    def from_batch(cls, storage, batch) -> "QueryPlan":
        """Plan ``batch`` over ``storage``: the front door of every evaluator.

        A grid batch of one-monomial queries over a storage with
        separable rewrites (:meth:`~repro.storage.base.LinearStorage.rewrite_factors`)
        is planned from its per-dimension factors and builds columns
        lazily; anything else is rewritten
        (:meth:`~repro.storage.base.LinearStorage.rewrite_batch`) and
        goes through
        :meth:`from_rewrites`.  Which of the two is read off the input.
        Charges the thread's active cost account: factor tables or
        rewrites under ``rewrite``, the master list under ``plan``.
        """
        queries = list(batch)
        with span("plan.from_batch", queries=len(queries)):
            with stage("rewrite"):
                factors = storage.rewrite_batch_factors(queries)
                grid = None if factors is None else _GridFactors.of(factors)
                if grid is None:
                    rewrites = storage.rewrite_batch(queries)
            with stage("plan"):
                if grid is None:
                    return cls.from_rewrites(rewrites)
                with span("plan.from_factors", queries=len(queries)):
                    return cls(
                        len(queries), grid.keys, grid.counts, grid.per_query_nnz, grid
                    )

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------

    @property
    def num_keys(self) -> int:
        """Master-list length — the retrievals a sharing evaluator spends."""
        return int(self.keys.size)

    @property
    def total_query_coefficients(self) -> int:
        """Sum of per-query nonzeros — retrievals *without* I/O sharing."""
        return int(self.per_query_nnz.sum())

    # ------------------------------------------------------------------
    # Importance and ordering
    # ------------------------------------------------------------------

    def _factors_rank(self, penalty: Penalty) -> bool:
        """Plain SSE over a factored plan: importance is a product."""
        return self._grid is not None and type(penalty) is SsePenalty

    def importance(self, penalty: Penalty) -> np.ndarray:
        """``iota_p`` for every master-list key (Definition 3).

        SSE over a factored plan is a product of per-dimension masses and
        builds nothing (it equals the sum over a key's column to a few
        ulps).  Anything else evaluates ``penalty`` over all the columns:
        on a factored plan, the full cost of the dense plan.
        """
        if self._factors_rank(penalty):
            return _outer(np.multiply, self._grid.mass)
        return penalty.importance_entries(
            self.entry_key_pos,
            self.entry_qid,
            self.entry_val,
            self.num_keys,
            self.batch_size,
        )

    def ranking(self, penalty: Penalty) -> tuple[np.ndarray, np.ndarray]:
        """``(importance, order)``: every key's ``iota_p`` and the key
        positions in descending importance (ties: ascending key).

        ``order`` is the biggest-B progression of Definition 3/4 — for a
        fixed penalty the whole delivery order is known here, at plan
        time, and every evaluator walks this one array with a cursor.
        """
        iota = self.importance(penalty)
        return iota, np.lexsort((self.keys, -iota))

    def order(self, penalty: Penalty) -> np.ndarray:
        """The ``order`` half of :meth:`ranking`."""
        return self.ranking(penalty)[1]

    # ------------------------------------------------------------------
    # The column store
    # ------------------------------------------------------------------

    def build_next_block(self) -> None:
        """Build the next block of missing columns: the next
        :data:`COLUMN_BLOCK` entries down the SSE rank order (everything,
        when the whole plan fits one block).  Sessions call this at
        submit so the first block is not built inside the first
        ``advance``; a dense plan has nothing missing.
        """
        self._build(self._next_block())

    def _next_block(self) -> np.ndarray:
        if self._used == self.num_entries:
            return np.empty(0, dtype=np.int64)
        if self.num_entries <= COLUMN_BLOCK:
            return np.flatnonzero(self._starts < 0)
        if self._sse_order is None:  # kept: a straggler's miss asks again
            self._sse_order = self.order(SsePenalty())
        order = self._sse_order
        missing = order[self._starts[order] < 0]
        budget = np.cumsum(self.counts[missing])
        return missing[: int(np.searchsorted(budget, COLUMN_BLOCK)) + 1]

    def _build(self, positions: np.ndarray) -> None:
        """Append the (missing, distinct) columns of ``positions``."""
        if not positions.size:
            return
        total = int(self.counts[positions].sum())
        with span("plan.build_columns", keys=positions.size, entries=total):
            end = self._used + total
            if end > self._qid.size:
                room = min(self.num_entries, max(end, 2 * self._qid.size))
                # Copy only the used part: the tail is filled below.
                qid, val = np.empty(room, np.int32), np.empty(room)
                qid[: self._used], val[: self._used] = self._qid[: self._used], self._val[: self._used]
                self._qid, self._val = qid, val
            self._starts[positions] = self._used + self._grid.fill(
                positions, self._qid[self._used : end], self._val[self._used : end]
            )
            self._used = end

    def chunk_segments(
        self, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The columns of a chunk of key positions, concatenated.

        Returns ``(qid, val, counts)``: the query ids and coefficients of
        ``positions[0]``'s column, then ``positions[1]``'s, ...; column
        ``i`` is ``counts[i]`` long.  Every apply path updates a whole
        chunk's estimates from this one gather; applying the entries in
        this order is bit-identical to applying the keys one at a time
        (``np.add.at`` accumulates element by element in array order).

        A position whose column is not built yet builds the next block
        of the rank order if it lies in it (the cursor reached the
        block's edge), else just the missing columns (another session's
        fetch delivered a key from far down this plan's order).
        """
        positions = np.asarray(positions, dtype=np.int64)
        starts = self._starts[positions]
        if starts.size and starts.min() < 0:
            missing = np.unique(positions[starts < 0])
            block = self._next_block()
            if np.isin(missing, block).any():
                self._build(block)
                missing = missing[self._starts[missing] < 0]
            self._build(missing)
            starts = self._starts[positions]
        counts = self.counts[positions]
        total = int(counts.sum())
        # Vectorized concatenation of the [starts[i], starts[i]+counts[i])
        # ranges: a global arange shifted per segment.
        ends = np.cumsum(counts)
        entries = np.arange(total, dtype=np.int64) + np.repeat(
            starts - (ends - counts), counts
        )
        return self._qid[entries], self._val[entries], counts

    def column(self, key_pos: int) -> np.ndarray:
        """Dense coefficient column ``(q_hat_i[key])_i`` for one key."""
        qid, val, _ = self.chunk_segments(np.array([key_pos]))
        col = np.zeros(self.batch_size)
        col[qid] = val
        return col

    def _key_major(self) -> tuple[np.ndarray, np.ndarray]:
        """Every column, in key order: what a non-SSE :meth:`importance`
        (and the flat ``entry_*`` view) reads.  On a factored plan this is
        the total fallback: build all that is missing and re-pack the
        store by key, once — from then on the plan is the dense plan, at
        the dense plan's cost."""
        if not self._by_key:
            self._build(np.flatnonzero(self._starts < 0))
            self._qid, self._val, _ = self.chunk_segments(np.arange(self.num_keys))
            self._starts = np.cumsum(self.counts) - self.counts
            self._by_key = True
        return self._qid, self._val

    @property
    def entry_key_pos(self) -> np.ndarray:
        """Key position of every entry, key-major; with :attr:`entry_qid`
        and :attr:`entry_val` the flat ``(key, query, value)`` view:
        ``q_hat[entry_qid[e]][keys[entry_key_pos[e]]] == entry_val[e]``.
        O(entries) per read, and a full build on a factored plan."""
        return np.repeat(np.arange(self.num_keys), self.counts)

    @property
    def entry_qid(self) -> np.ndarray:
        return self._key_major()[0]

    @property
    def entry_val(self) -> np.ndarray:
        return self._key_major()[1]

    def exact_estimates(self, coefficients_by_key: np.ndarray) -> np.ndarray:
        """Final answers given the data coefficient of every master key.

        Sums every query's terms in ascending key order, whatever order
        the columns were built in: one gather and one ``np.add.at`` per
        :data:`_EXACT_BLOCK_KEYS` keys, which accumulates element by
        element in array order exactly as a single pass over the
        key-major store would, without re-packing the store by key.
        """
        coefficients_by_key = np.asarray(coefficients_by_key, dtype=np.float64)
        if coefficients_by_key.shape != (self.num_keys,):
            raise ValueError(f"expected {self.num_keys} coefficients")
        self._build(np.flatnonzero(self._starts < 0))
        answers = np.zeros(self.batch_size)
        for lo in range(0, self.num_keys, _EXACT_BLOCK_KEYS):
            block = np.arange(lo, min(lo + _EXACT_BLOCK_KEYS, self.num_keys))
            qid, val, counts = self.chunk_segments(block)
            np.add.at(answers, qid, val * np.repeat(coefficients_by_key[block], counts))
        return answers
