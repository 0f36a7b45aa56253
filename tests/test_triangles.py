"""Correctness tests for DurableTriangle (Section 3, Theorem 3.1).

The central guarantee: ``T_τ ⊆ reported ⊆ T^ε_τ``, each triangle reported
exactly once, anchored per the (I⁻, id) convention.
"""

import numpy as np
import pytest

from repro import DurableTriangleIndex, TemporalPointSet, ValidationError
from repro.baselines import brute_force_triangles, triangle_bounds

from conftest import random_tps


def assert_sandwich(tps, tau, epsilon, records):
    must, may = triangle_bounds(tps, tau, epsilon)
    got = [r.key for r in records]
    got_set = set(got)
    assert len(got) == len(got_set), "duplicate triangles reported"
    missing = must - got_set
    assert not missing, f"missed exact triangles: {sorted(missing)[:5]}"
    extra = got_set - may
    assert not extra, f"reported non-ε-triangles: {sorted(extra)[:5]}"


class TestGuarantees:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("epsilon", [0.25, 0.5, 1.0])
    def test_sandwich_l2(self, seed, epsilon):
        tps = random_tps(n=70, seed=seed)
        idx = DurableTriangleIndex(tps, epsilon=epsilon)
        for tau in (1.0, 3.0, 6.0):
            assert_sandwich(tps, tau, epsilon, idx.query(tau))

    @pytest.mark.parametrize("metric", ["l1", "linf", "l3"])
    def test_sandwich_other_metrics(self, metric):
        tps = random_tps(n=60, seed=42, metric=metric)
        idx = DurableTriangleIndex(tps, epsilon=0.5)
        assert_sandwich(tps, 2.0, 0.5, idx.query(2.0))

    # "grid": the vector backend's grid-cell decomposition (Remark 1).
    @pytest.mark.parametrize(
        "backend", ["cover-tree", pytest.param("vector", id="grid")]
    )
    def test_backends_agree_on_guarantee(self, backend):
        tps = random_tps(n=60, seed=13)
        idx = DurableTriangleIndex(tps, epsilon=0.5, backend=backend)
        assert_sandwich(tps, 2.0, 0.5, idx.query(2.0))

    def test_custom_callable_metric(self):
        tps = random_tps(n=40, seed=3)
        custom = TemporalPointSet(
            tps.points,
            tps.starts,
            tps.ends,
            metric=lambda x, y: float(np.sqrt(((x - y) ** 2).sum())),
        )
        idx = DurableTriangleIndex(custom, epsilon=0.5)
        assert_sandwich(custom, 2.0, 0.5, idx.query(2.0))

    def test_higher_dim(self):
        tps = random_tps(n=50, seed=19, dim=4, box=2.5)
        idx = DurableTriangleIndex(tps, epsilon=0.5)
        assert_sandwich(tps, 2.0, 0.5, idx.query(2.0))


class TestRecordShape:
    def test_anchor_convention(self, medium_tps):
        idx = DurableTriangleIndex(medium_tps, epsilon=0.5)
        for r in idx.query(2.0):
            pk = medium_tps.anchor_key(r.anchor)
            assert pk > medium_tps.anchor_key(r.q)
            assert pk > medium_tps.anchor_key(r.s)
            assert r.q < r.s

    def test_lifespans_correct(self, medium_tps):
        for r in DurableTriangleIndex(medium_tps, epsilon=0.5).query(2.0):
            want = medium_tps.pattern_lifespan([r.anchor, r.q, r.s])
            assert r.lifespan == want
            assert r.durability >= 2.0

    def test_durability_at_least_tau(self, medium_tps):
        idx = DurableTriangleIndex(medium_tps, epsilon=0.25)
        for tau in (1.0, 4.0):
            for r in idx.query(tau):
                assert r.durability >= tau

    def test_monotone_in_tau(self, medium_tps):
        idx = DurableTriangleIndex(medium_tps, epsilon=0.5)
        keys_small = {r.key for r in idx.query(1.0)}
        keys_big = {r.key for r in idx.query(5.0)}
        assert keys_big <= keys_small


class TestAnchoredAndCount:
    def test_query_anchored_partitions_result(self, small_tps):
        idx = DurableTriangleIndex(small_tps, epsilon=0.5)
        full = sorted(r.key for r in idx.query(2.0))
        per_anchor = sorted(
            r.key for p in range(small_tps.n) for r in idx.query_anchored(p, 2.0)
        )
        assert full == per_anchor

    def test_count_matches_query(self, small_tps):
        idx = DurableTriangleIndex(small_tps, epsilon=0.5)
        assert idx.count(2.0) == len(idx.query(2.0))

    def test_stats_shape(self, small_tps):
        info = DurableTriangleIndex(small_tps, epsilon=0.5).stats()
        assert info["n"] == small_tps.n
        assert info["groups"] >= 1


class TestEdgeCases:
    def test_invalid_epsilon(self, small_tps):
        with pytest.raises(ValidationError):
            DurableTriangleIndex(small_tps, epsilon=0.0)
        with pytest.raises(ValidationError):
            DurableTriangleIndex(small_tps, epsilon=1.5)

    def test_invalid_tau(self, small_tps):
        idx = DurableTriangleIndex(small_tps, epsilon=0.5)
        with pytest.raises(ValidationError):
            idx.query(0.0)

    def test_tau_larger_than_all_lifespans(self, small_tps):
        idx = DurableTriangleIndex(small_tps, epsilon=0.5)
        assert idx.query(1e9) == []

    def test_no_triangles_when_far_apart(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        tps = TemporalPointSet(pts, [0, 0, 0], [10, 10, 10])
        assert DurableTriangleIndex(tps, epsilon=0.5).query(1.0) == []

    def test_single_clique_all_reported(self):
        # Five co-located, co-temporal points: C(5,3) = 10 triangles.
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 0.2, size=(5, 2))
        tps = TemporalPointSet(pts, [0] * 5, [10] * 5)
        recs = DurableTriangleIndex(tps, epsilon=0.5).query(5.0)
        assert len(recs) == 10
        assert len({r.key for r in recs}) == 10

    def test_identical_starts_tie_break(self):
        # All starts equal: anchor must be the highest id of each triple.
        pts = np.zeros((4, 2))
        tps = TemporalPointSet(pts, [0, 0, 0, 0], [10, 9, 8, 7])
        recs = DurableTriangleIndex(tps, epsilon=0.5).query(1.0)
        assert len(recs) == 4  # C(4,3)
        for r in recs:
            assert r.anchor > r.s > r.q

    def test_brute_force_agrees_with_itself(self, small_tps):
        # Sanity: brute force keys unique.
        recs = brute_force_triangles(small_tps, 2.0)
        keys = [r.key for r in recs]
        assert len(keys) == len(set(keys))
