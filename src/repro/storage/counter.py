"""The retrieval-counting store: the paper's I/O cost model.

"We assume that the values of Delta-hat are held in either array-based or
hash-based storage that allows constant-time access to any single value"
(Section 1.3).  The cost of a query evaluation is the number of values
retrieved; block effects and buffering are deliberately ignored (the paged
tier in :mod:`repro.storage.paged` revisits that).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class IOStatistics:
    """Counters for retrievals against a coefficient store.

    Attributes
    ----------
    retrievals:
        Total number of values fetched (duplicates included) — the paper's
        headline metric.
    nonzero_retrievals:
        Fetches that returned a nonzero value.
    unique_keys:
        Number of distinct keys fetched since the last reset.
    """

    retrievals: int = 0
    nonzero_retrievals: int = 0
    _seen: set[int] = field(default_factory=set, repr=False)

    @property
    def unique_keys(self) -> int:
        return len(self._seen)

    def record(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Record a batch of fetches."""
        self.retrievals += int(keys.size)
        self.nonzero_retrievals += int(np.count_nonzero(values))
        self._seen.update(keys.tolist())

    def reset(self) -> None:
        """Zero all counters."""
        self.retrievals = 0
        self.nonzero_retrievals = 0
        self._seen.clear()


class CountingStore:
    """Keyed coefficient storage with retrieval counting.

    Keys are non-negative integers below ``key_space_size``.  Two backends
    are supported:

    * ``dense`` — a flat numpy array holding every key's value (the paper's
      "array-based storage");
    * ``hash`` — a dict holding only nonzero values (the paper's
      "hash-based storage"); missing keys read as zero but still cost one
      retrieval, exactly like probing a hash table on disk.
    """

    def __init__(
        self,
        key_space_size: int,
        backend: str = "dense",
        values: np.ndarray | dict[int, float] | None = None,
    ) -> None:
        if key_space_size <= 0:
            raise ValueError("key space must be positive")
        if backend not in ("dense", "hash"):
            raise ValueError(f"unknown backend {backend!r}")
        self.key_space_size = int(key_space_size)
        self.backend = backend
        self.stats = IOStatistics()
        #: Mutation counter: bumped by every write so cached aggregates
        #: (e.g. a session's Theorem-1 constant) can detect staleness.
        self.version = 0
        if backend == "dense":
            if values is None:
                self._dense = np.zeros(self.key_space_size, dtype=np.float64)
            else:
                dense = np.asarray(values, dtype=np.float64).ravel()
                if dense.size != self.key_space_size:
                    raise ValueError(
                        f"dense backend needs {self.key_space_size} values, got {dense.size}"
                    )
                self._dense = dense.copy()
            self._hash: dict[int, float] | None = None
        else:
            self._dense = None
            if values is None:
                self._hash = {}
            elif isinstance(values, dict):
                self._hash = {int(k): float(v) for k, v in values.items() if v != 0.0}
            else:
                dense = np.asarray(values, dtype=np.float64).ravel()
                nz = np.nonzero(dense)[0]
                self._hash = {int(k): float(dense[k]) for k in nz}

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def fetch(self, keys: np.ndarray) -> np.ndarray:
        """Retrieve values for ``keys`` (counted)."""
        keys = np.asarray(keys, dtype=np.int64).ravel()
        values = self.peek(keys)
        self.stats.record(keys, values)
        return values

    def peek(self, keys: np.ndarray) -> np.ndarray:
        """Read values without counting (used by tests and exact oracles)."""
        keys = np.asarray(keys, dtype=np.int64).ravel()
        if keys.size and (keys.min() < 0 or keys.max() >= self.key_space_size):
            raise KeyError("key outside the store's key space")
        if self._dense is not None:
            return self._dense[keys].astype(np.float64, copy=True)
        table = self._hash
        return np.array([table.get(int(k), 0.0) for k in keys], dtype=np.float64)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def add(self, keys: np.ndarray, deltas: np.ndarray) -> None:
        """Accumulate ``deltas`` into the stored values (streaming updates)."""
        keys = np.asarray(keys, dtype=np.int64).ravel()
        deltas = np.asarray(deltas, dtype=np.float64).ravel()
        if keys.size != deltas.size:
            raise ValueError("keys and deltas must have equal sizes")
        if keys.size and (keys.min() < 0 or keys.max() >= self.key_space_size):
            raise KeyError("key outside the store's key space")
        self.version += 1
        if self._dense is not None:
            np.add.at(self._dense, keys, deltas)
            return
        table = self._hash
        for k, dv in zip(keys.tolist(), deltas.tolist()):
            new = table.get(k, 0.0) + dv
            if new == 0.0:
                table.pop(k, None)
            else:
                table[k] = new

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    def total_l1(self) -> float:
        """``K = sum |value|`` over the whole store (Theorem 1's constant)."""
        if self._dense is not None:
            return float(np.sum(np.abs(self._dense)))
        return float(sum(abs(v) for v in self._hash.values()))

    def total_l2_squared(self) -> float:
        """``sum value**2`` over the whole store (for Cauchy-Schwarz bounds).

        For an orthonormal strategy this equals ``||Delta||**2`` by
        Parseval, so it is a single precomputable data statistic.
        """
        if self._dense is not None:
            return float(np.sum(self._dense**2))
        return float(sum(v * v for v in self._hash.values()))

    def nonzero_count(self) -> int:
        """Number of nonzero stored coefficients."""
        if self._dense is not None:
            return int(np.count_nonzero(self._dense))
        return len(self._hash)

    def as_dense(self) -> np.ndarray:
        """Materialize the full value vector (tests and inverses only)."""
        if self._dense is not None:
            return self._dense.copy()
        out = np.zeros(self.key_space_size, dtype=np.float64)
        for k, v in self._hash.items():
            out[k] = v
        return out

    def reset_stats(self) -> None:
        """Zero the retrieval counters."""
        self.stats.reset()
