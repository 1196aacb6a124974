"""Unit tests for master-list construction (QueryPlan)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.penalties import SsePenalty, WeightedSsePenalty
from repro.core.plan import QueryPlan
from repro.storage.base import KeyedVector


def make_rewrites():
    """Three tiny rewritten queries over the key space {1, 3, 4, 9}."""
    return [
        KeyedVector(indices=np.array([1, 3]), values=np.array([2.0, -1.0])),
        KeyedVector(indices=np.array([3, 4]), values=np.array([0.5, 1.0])),
        KeyedVector(indices=np.array([1, 9]), values=np.array([1.0, 3.0])),
    ]


class TestConstruction:
    def test_master_list_is_union(self):
        plan = QueryPlan.from_rewrites(make_rewrites())
        np.testing.assert_array_equal(plan.keys, [1, 3, 4, 9])
        assert plan.num_keys == 4
        assert plan.num_entries == 6
        assert plan.batch_size == 3

    def test_entry_alignment(self):
        plan = QueryPlan.from_rewrites(make_rewrites())
        # Reconstruct the dense coefficient matrix from the entries.
        dense = np.zeros((plan.num_keys, plan.batch_size))
        dense[plan.entry_key_pos, plan.entry_qid] = plan.entry_val
        expected = np.array(
            [[2.0, 0.0, 1.0], [-1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 3.0]]
        )
        np.testing.assert_allclose(dense, expected)

    def test_per_query_nnz(self):
        plan = QueryPlan.from_rewrites(make_rewrites())
        np.testing.assert_array_equal(plan.per_query_nnz, [2, 2, 2])
        assert plan.total_query_coefficients == 6

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            QueryPlan.from_rewrites([])


class TestImportanceAndOrder:
    def test_sse_importance(self):
        plan = QueryPlan.from_rewrites(make_rewrites())
        iota = plan.importance(SsePenalty())
        np.testing.assert_allclose(iota, [4.0 + 1.0, 1.0 + 0.25, 1.0, 9.0])

    def test_order_descending_with_key_tiebreak(self):
        plan = QueryPlan.from_rewrites(make_rewrites())
        order = plan.order(SsePenalty())
        # Importances: key1 -> 5, key3 -> 1.25, key4 -> 1, key9 -> 9.
        np.testing.assert_array_equal(plan.keys[order], [9, 1, 3, 4])

    def test_weighted_importance_changes_order(self):
        plan = QueryPlan.from_rewrites(make_rewrites())
        # Heavily weight query 1: key 4 (only used by query 1) gains rank.
        iota = plan.importance(WeightedSsePenalty([0.0, 100.0, 0.0]))
        np.testing.assert_allclose(iota, [0.0, 25.0, 100.0, 0.0])

    def test_column(self):
        plan = QueryPlan.from_rewrites(make_rewrites())
        np.testing.assert_allclose(plan.column(0), [2.0, 0.0, 1.0])
        np.testing.assert_allclose(plan.column(3), [0.0, 0.0, 3.0])


class TestCsrAndEstimates:
    def test_chunk_segments_groups_entries(self):
        plan = QueryPlan.from_rewrites(make_rewrites())
        positions = np.array([3, 0, 2, 1])
        qid, val, counts = plan.chunk_segments(positions)
        edges = np.concatenate(([0], np.cumsum(counts)))
        for i, pos in enumerate(positions):
            of_key = plan.entry_key_pos == pos
            segment = slice(edges[i], edges[i + 1])
            np.testing.assert_array_equal(qid[segment], plan.entry_qid[of_key])
            np.testing.assert_array_equal(val[segment], plan.entry_val[of_key])
        assert edges[-1] == plan.num_entries

    def test_exact_estimates(self):
        plan = QueryPlan.from_rewrites(make_rewrites())
        coeffs = np.array([10.0, 1.0, -2.0, 0.5])  # data values at keys 1,3,4,9
        answers = plan.exact_estimates(coeffs)
        np.testing.assert_allclose(
            answers,
            [2 * 10 - 1 * 1, 0.5 * 1 + 1 * -2, 1 * 10 + 3 * 0.5],
        )

    def test_exact_estimates_shape_check(self):
        plan = QueryPlan.from_rewrites(make_rewrites())
        with pytest.raises(ValueError):
            plan.exact_estimates(np.zeros(3))
