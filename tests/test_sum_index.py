"""Tests for the coverage profile (ComputeSumD, Section 5.1)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ValidationError
from repro.temporal import CoverageProfile

from conftest import random_intervals


def brute_sum(ivs, a, b):
    total = 0.0
    for lo, hi in ivs:
        total += max(0.0, min(hi, b) - max(lo, a))
    return total


STRUCTS = [CoverageProfile]


@pytest.mark.parametrize("cls", STRUCTS)
class TestComputeSumD:
    def test_empty(self, cls):
        s = cls([])
        assert s.sum_intersections(0.0, 10.0) == 0.0

    def test_single_cover(self, cls):
        s = cls([(0.0, 10.0)])
        assert s.sum_intersections(2.0, 5.0) == 3.0

    def test_single_contained(self, cls):
        s = cls([(3.0, 4.0)])
        assert s.sum_intersections(0.0, 10.0) == 1.0

    def test_single_dangling_left(self, cls):
        s = cls([(0.0, 5.0)])
        assert s.sum_intersections(3.0, 10.0) == 2.0

    def test_single_dangling_right(self, cls):
        s = cls([(5.0, 12.0)])
        assert s.sum_intersections(3.0, 10.0) == 5.0

    def test_disjoint_contributes_zero(self, cls):
        s = cls([(0.0, 1.0)])
        assert s.sum_intersections(5.0, 10.0) == 0.0

    def test_inverted_query(self, cls):
        s = cls([(0.0, 10.0)])
        assert s.sum_intersections(5.0, 3.0) == 0.0

    def test_degenerate_query(self, cls):
        s = cls([(0.0, 10.0)])
        assert s.sum_intersections(4.0, 4.0) == 0.0

    def test_rejects_inverted_interval(self, cls):
        with pytest.raises(ValidationError):
            cls([(3.0, 1.0)])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute(self, cls, seed):
        ivs = random_intervals(90, seed=seed)
        s = cls(ivs)
        rng = np.random.default_rng(seed)
        for _ in range(40):
            a = float(rng.uniform(-10, 80))
            b = a + float(rng.uniform(0, 40))
            assert math.isclose(
                s.sum_intersections(a, b), brute_sum(ivs, a, b), abs_tol=1e-6
            )

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_property_random(self, cls, seed):
        ivs = random_intervals(35, seed=seed)
        s = cls(ivs)
        rng = np.random.default_rng(seed)
        a = float(rng.uniform(-5, 60))
        b = a + float(rng.uniform(0, 30))
        assert math.isclose(
            s.sum_intersections(a, b), brute_sum(ivs, a, b), abs_tol=1e-6
        )


class TestCrossValidation:
    def test_monotone_in_query(self):
        ivs = random_intervals(60, seed=5)
        prof = CoverageProfile(ivs)
        prev = 0.0
        for b in np.linspace(0, 90, 30):
            cur = prof.sum_intersections(0.0, float(b))
            assert cur >= prev - 1e-9
            prev = cur
