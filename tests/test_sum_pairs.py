"""Tests for AggDurablePair-SUM (Section 5.1, Theorem 5.1)."""

import numpy as np
import pytest

from repro import TemporalPointSet, ValidationError
from repro.baselines.brute_pairs import brute_pair_witness_sum, brute_sum_pairs
from repro.core.aggregate import SumPairIndex
from repro.errors import BackendError

from conftest import random_tps


def assert_pair_sandwich(tps, tau, epsilon, records, slack=1e-6):
    got = [r.key for r in records]
    got_set = set(got)
    assert len(got) == len(got_set), "duplicate pair reported"
    must = brute_sum_pairs(tps, tau, threshold=1.0)
    may = brute_sum_pairs(tps, tau, threshold=1.0 + epsilon + slack)
    missing = must - got_set
    assert not missing, f"missed exact SUM pairs: {sorted(missing)[:5]}"
    extra = got_set - may
    assert not extra, f"reported non-ε SUM pairs: {sorted(extra)[:5]}"


class TestGuarantees:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("epsilon", [0.25, 0.5])
    def test_sandwich(self, seed, epsilon):
        tps = random_tps(n=55, seed=seed)
        idx = SumPairIndex(tps, epsilon=epsilon)
        for tau in (2.0, 5.0):
            assert_pair_sandwich(tps, tau, epsilon, idx.query(tau))

    @pytest.mark.parametrize("metric", ["l1", "linf"])
    def test_other_metrics(self, metric):
        tps = random_tps(n=45, seed=9, metric=metric)
        idx = SumPairIndex(tps, epsilon=0.5)
        assert_pair_sandwich(tps, 3.0, 0.5, idx.query(3.0))

    def test_grid_backend(self):
        tps = random_tps(n=45, seed=23)
        # The object-graph solver over the vector backend's grid cells.
        idx = SumPairIndex(tps, epsilon=0.5, backend="vector")
        assert_pair_sandwich(tps, 3.0, 0.5, idx.query(3.0))


class TestScores:
    @pytest.mark.parametrize("seed", range(3))
    def test_witness_sum_bounds(self, seed):
        """The index's ε-witness sum dominates the exact witness sum."""
        eps = 0.5
        tps = random_tps(n=40, seed=seed + 30)
        idx = SumPairIndex(tps, epsilon=eps)
        rng = np.random.default_rng(seed)
        for _ in range(20):
            p, q = rng.integers(0, tps.n, size=2)
            if p == q:
                continue
            got = idx.witness_sum(int(p), int(q))
            exact = brute_pair_witness_sum(tps, int(p), int(q), threshold=1.0)
            relaxed = brute_pair_witness_sum(
                tps, int(p), int(q), threshold=1.0 + eps + 1e-6
            )
            assert exact - 1e-9 <= got <= relaxed + 1e-9

    def test_reported_scores_at_least_tau(self):
        tps = random_tps(n=50, seed=31)
        idx = SumPairIndex(tps, epsilon=0.5)
        for r in idx.query(3.0):
            assert r.score >= 3.0

    def test_anchor_order_in_records(self):
        tps = random_tps(n=50, seed=37)
        idx = SumPairIndex(tps, epsilon=0.5)
        for r in idx.query(2.0):
            assert tps.anchor_key(r.p) > tps.anchor_key(r.q)


class TestEdgeCases:
    def test_validation(self):
        tps = random_tps(n=20, seed=1)
        with pytest.raises(ValidationError):
            SumPairIndex(tps, epsilon=2.0)
        with pytest.raises(BackendError):
            SumPairIndex(tps, backend="bogus")
        with pytest.raises(ValidationError):
            SumPairIndex(tps).query(0.0)

    def test_no_witnesses_no_pairs(self):
        # Two adjacent long-lived points with no third point: SUM = 0.
        pts = np.array([[0.0, 0.0], [0.5, 0.0]])
        tps = TemporalPointSet(pts, [0, 0], [10, 10])
        assert SumPairIndex(tps, epsilon=0.5).query(1.0) == []

    def test_single_witness_line(self):
        # p-q adjacent, witness w adjacent to both, all co-temporal.
        pts = np.array([[0.0, 0.0], [0.8, 0.0], [0.4, 0.3]])
        tps = TemporalPointSet(pts, [0, 0, 0], [10, 10, 10])
        got = {r.key for r in SumPairIndex(tps, epsilon=0.25).query(5.0)}
        # every pair has exactly one witness with overlap 10 >= 5
        assert got == {(0, 1), (0, 2), (1, 2)}

    def test_edge_durability_requirement(self):
        # Window of p,q is 1 < tau although witness sums are large.
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.2, 0.2], [0.3, 0.1]])
        tps = TemporalPointSet(
            pts, [0, 9, 0, 0], [10, 11, 20, 20]
        )  # window(0,1) = [9,10]
        got = {r.key for r in SumPairIndex(tps, epsilon=0.25).query(2.0)}
        assert (0, 1) not in got
