"""Block-granularity retrieval and buffering: the paper's future work.

The conclusion calls for generalizing importance functions "to disk blocks
rather than individual tuples" and for smart buffer management.  This module
provides the simulation substrate for that study:

* :class:`LruBuffer` — a fixed-capacity LRU page buffer;
* :class:`BlockedStore` — wraps a :class:`~repro.storage.counter.CountingStore`
  so that fetching any key loads its whole block (``key // block_size``),
  counting *block* I/Os, with optional buffering;
* :func:`block_importance` — aggregates a per-key importance array to block
  granularity, giving the block-level biggest-B progression the conclusion
  sketches.

The ablation benchmark ``benchmarks/bench_ablation_blocks.py`` uses these to
show how block size and buffering change the retrieval counts of
Batch-Biggest-B schedules.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.storage.counter import CountingStore


class LruBuffer:
    """A fixed-capacity LRU set of block ids."""

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = int(capacity)
        self._blocks: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, block: int) -> bool:
        """Touch a block; returns True on a buffer hit."""
        block = int(block)
        if self.capacity == 0:
            self.misses += 1
            return False
        if block in self._blocks:
            self._blocks.move_to_end(block)
            self.hits += 1
            return True
        self.misses += 1
        self._blocks[block] = None
        if len(self._blocks) > self.capacity:
            self._blocks.popitem(last=False)
        return False

    def __contains__(self, block: int) -> bool:
        return int(block) in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)


class BlockedStore:
    """Block-granularity view of a coefficient store.

    Every key fetch loads the key's block; consecutive fetches within a
    buffered block are free.  ``block_ios`` counts actual device reads,
    which is the quantity a disk-layout study optimizes.
    """

    def __init__(
        self, store: CountingStore, block_size: int, buffer_capacity: int = 0
    ) -> None:
        if block_size < 1:
            raise ValueError("block size must be >= 1")
        self.store = store
        self.block_size = int(block_size)
        self.buffer = LruBuffer(buffer_capacity)
        self.block_ios = 0

    @property
    def num_blocks(self) -> int:
        return -(-self.store.key_space_size // self.block_size)

    def fetch(self, keys: np.ndarray) -> np.ndarray:
        """Fetch values, counting block I/Os through the buffer."""
        keys = np.asarray(keys, dtype=np.int64).ravel()
        for block in (keys // self.block_size).tolist():
            if not self.buffer.access(block):
                self.block_ios += 1
        return self.store.peek(keys)

    def reset(self) -> None:
        """Zero the block I/O counter and empty the buffer."""
        self.block_ios = 0
        self.buffer = LruBuffer(self.buffer.capacity)


def block_importance(
    keys: np.ndarray, importance: np.ndarray, block_size: int, num_blocks: int
) -> np.ndarray:
    """Aggregate per-key importance to block granularity (sum per block).

    This is the natural block-level importance: the worst-case-penalty
    contribution of skipping a whole block is bounded by the sum of its
    keys' importances (sub-additivity of the quadratic form over disjoint
    coefficient sets).
    """
    keys = np.asarray(keys, dtype=np.int64).ravel()
    importance = np.asarray(importance, dtype=np.float64).ravel()
    if keys.size != importance.size:
        raise ValueError("keys and importance must align")
    blocks = keys // int(block_size)
    return np.bincount(blocks, weights=importance, minlength=int(num_blocks))


def block_schedule(
    keys: np.ndarray, importance: np.ndarray, block_size: int, num_blocks: int
) -> np.ndarray:
    """Order keys by descending *block* importance, then by key importance.

    Produces a retrieval order that reads whole blocks consecutively —
    maximizing buffer hits — while still prioritizing the most important
    blocks first.  Returns an index permutation of ``keys``.
    """
    keys = np.asarray(keys, dtype=np.int64).ravel()
    importance = np.asarray(importance, dtype=np.float64).ravel()
    blk_imp = block_importance(keys, importance, block_size, num_blocks)
    blocks = keys // int(block_size)
    # Sort by (-block importance, block id, -key importance) for determinism.
    order = np.lexsort((-importance, blocks, -blk_imp[blocks]))
    return order
