"""Master-list construction: steps 2-4 of the Batch-Biggest-B algorithm.

A :class:`QueryPlan` flattens the rewritten query vectors of a batch into
three aligned entry arrays — (key position, query id, coefficient value) —
plus the sorted master list of distinct store keys.  Everything downstream
(importance evaluation, progression ordering, progressive estimation) is a
vectorized pass over these arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.penalties import Penalty
from repro.obs import span


@dataclass
class QueryPlan:
    """Flattened batch of rewritten queries over a common key space.

    Attributes
    ----------
    batch_size:
        Number of queries ``s``.
    keys:
        Sorted distinct store keys needed by the batch (the master list).
    entry_key_pos, entry_qid, entry_val:
        Aligned arrays, one entry per nonzero query coefficient:
        ``q_hat[entry_qid[e]][keys[entry_key_pos[e]]] == entry_val[e]``.
    per_query_nnz:
        Nonzero count of each rewritten query — the retrievals a
        *non-sharing* evaluator would spend on it.
    """

    batch_size: int
    keys: np.ndarray
    entry_key_pos: np.ndarray
    entry_qid: np.ndarray
    entry_val: np.ndarray
    per_query_nnz: np.ndarray
    _csr_cache: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def from_rewrites(cls, rewrites: Sequence) -> "QueryPlan":
        """Merge rewritten queries (objects with ``indices``/``values``)."""
        if not rewrites:
            raise ValueError("need at least one rewritten query")
        with span("plan.from_rewrites", queries=len(rewrites)):
            all_keys = np.concatenate(
                [np.asarray(r.indices, dtype=np.int64) for r in rewrites]
            )
            all_vals = np.concatenate(
                [np.asarray(r.values, dtype=np.float64) for r in rewrites]
            )
            nnz = np.array(
                [int(np.asarray(r.indices).size) for r in rewrites], dtype=np.int64
            )
            qids = np.repeat(np.arange(len(rewrites), dtype=np.int64), nnz)
            uniq, inverse = np.unique(all_keys, return_inverse=True)
            return cls(
                batch_size=len(rewrites),
                keys=uniq,
                entry_key_pos=inverse.astype(np.int64),
                entry_qid=qids,
                entry_val=all_vals,
                per_query_nnz=nnz,
            )

    @classmethod
    def from_batch(cls, storage, batch, workers: int | None = None) -> "QueryPlan":
        """Rewrite ``batch`` through ``storage`` and merge the result.

        The one-stop front door for steps 1-3 of Figure 1: delegates the
        rewrites to :meth:`~repro.storage.base.LinearStorage.rewrite_batch`
        (which dedups shared per-dimension factors and can compute the
        distinct ones on a ``workers``-wide process pool) and builds the
        master list from them.
        """
        with span("plan.from_batch", queries=len(batch)):
            return cls.from_rewrites(storage.rewrite_batch(batch, workers=workers))

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------

    @property
    def num_keys(self) -> int:
        """Master-list length — the retrievals a sharing evaluator spends."""
        return int(self.keys.size)

    @property
    def num_entries(self) -> int:
        return int(self.entry_val.size)

    @property
    def total_query_coefficients(self) -> int:
        """Sum of per-query nonzeros — retrievals *without* I/O sharing."""
        return int(self.per_query_nnz.sum())

    # ------------------------------------------------------------------
    # Importance and ordering
    # ------------------------------------------------------------------

    def importance(self, penalty: Penalty) -> np.ndarray:
        """``iota_p`` for every master-list key (Definition 3)."""
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

    def column(self, key_pos: int) -> np.ndarray:
        """Dense coefficient column ``(q_hat_i[key])_i`` for one key."""
        col = np.zeros(self.batch_size)
        mask = self.entry_key_pos == key_pos
        np.add.at(col, self.entry_qid[mask], self.entry_val[mask])
        return col

    # ------------------------------------------------------------------
    # CSR grouping by key (used by the step-by-step evaluator)
    # ------------------------------------------------------------------

    def csr_by_key(self) -> tuple[np.ndarray, np.ndarray]:
        """Group entries by key position.

        Returns ``(entry_order, offsets)``: entries ``entry_order[offsets[k]
        : offsets[k+1]]`` belong to key position ``k``.
        """
        if self._csr_cache is None:
            entry_order = np.argsort(self.entry_key_pos, kind="stable")
            counts = np.bincount(self.entry_key_pos, minlength=self.num_keys)
            offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
            self._csr_cache = (entry_order, offsets)
        return self._csr_cache

    def chunk_segments(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated CSR segments for a chunk of key positions.

        Returns ``(entries, counts)``: ``entries`` indexes the
        ``entry_*`` arrays, grouped by key position in the order given,
        and ``counts[i]`` is the segment length of ``positions[i]``.
        The batched apply paths (``ProgressiveSession.deliver_many``,
        the scheduler's chunked serve, ``BatchBiggestB.steps``) gather a
        whole chunk's estimate updates through one fancy index instead
        of slicing the CSR arrays once per key.  Applying the entries in
        this order is bit-identical to applying the keys one at a time:
        ``np.add.at`` accumulates element by element in array order.
        """
        entry_order, offsets = self.csr_by_key()
        positions = np.asarray(positions, dtype=np.int64)
        starts = offsets[positions]
        counts = offsets[positions + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64), counts
        # Vectorized concatenation of the [starts[i], starts[i]+counts[i])
        # ranges: a global arange shifted per segment.
        ends = np.cumsum(counts)
        shift = np.repeat(starts - (ends - counts), counts)
        return entry_order[np.arange(total, dtype=np.int64) + shift], counts

    def exact_estimates(self, coefficients_by_key: np.ndarray) -> np.ndarray:
        """Final answers given the data coefficient of every master key."""
        coefficients_by_key = np.asarray(coefficients_by_key, dtype=np.float64)
        if coefficients_by_key.shape != (self.num_keys,):
            raise ValueError(f"expected {self.num_keys} coefficients")
        return np.bincount(
            self.entry_qid,
            weights=self.entry_val * coefficients_by_key[self.entry_key_pos],
            minlength=self.batch_size,
        )
