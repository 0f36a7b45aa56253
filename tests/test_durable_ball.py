"""Direct tests of the durable-ball structures D and D' (Section 2.2)."""

import pytest

from repro import TemporalPointSet, ValidationError
from repro.errors import BackendError
from repro.structures import DurableBallStructure, make_decomposition

from conftest import random_tps


def brute_partners(tps, p, tau, radius):
    key = tps.anchor_key(p)
    d = tps.metric.dists(tps.points, tps.points[p])
    sp = float(tps.starts[p])
    return {
        int(q)
        for q in range(tps.n)
        if d[q] <= radius
        and tps.anchor_key(int(q)) < key
        and tps.ends[q] >= sp + tau
    }


class TestQuery:
    @pytest.mark.parametrize("seed", range(4))
    # "grid": the vector backend's grid-cell decomposition (Remark 1).
    @pytest.mark.parametrize(
        "backend", ["cover-tree", pytest.param("vector", id="grid")]
    )
    def test_sandwich_per_anchor(self, seed, backend):
        tps = random_tps(n=80, seed=seed)
        st = DurableBallStructure(tps, resolution=0.125, backend=backend)
        for p in range(0, tps.n, 7):
            for tau in (1.0, 5.0):
                got = set()
                for subset in st.query(p, tau):
                    got.update(subset.ids())
                must = brute_partners(tps, p, tau, 1.0)
                may = brute_partners(tps, p, tau, 1.0 + 2 * 0.125 + 1e-6)
                assert must <= got <= may

    def test_radius_parameter(self):
        tps = random_tps(n=60, seed=5)
        st = DurableBallStructure(tps, resolution=0.125)
        p = 10
        small = set()
        for s in st.query(p, 1.0, radius=1.0):
            small.update(s.ids())
        big = set()
        for s in st.query(p, 1.0, radius=2.0):
            big.update(s.ids())
        assert small <= big
        assert brute_partners(tps, p, 1.0, 2.0) <= big

    def test_min_end_override(self):
        tps = random_tps(n=50, seed=7)
        st = DurableBallStructure(tps, resolution=0.125)
        p = 5
        sp = float(tps.starts[p])
        loose = {q for s in st.query(p, 1.0) for q in s.ids()}
        tight = {q for s in st.query(p, 1.0, min_end=sp + 50.0) for q in s.ids()}
        assert tight <= loose
        for q in tight:
            assert tps.ends[q] >= sp + 50.0

    def test_subsets_disjoint(self):
        tps = random_tps(n=70, seed=9)
        st = DurableBallStructure(tps, resolution=0.125)
        for p in range(0, tps.n, 11):
            seen = []
            for s in st.query(p, 1.0):
                seen.extend(s.ids())
            assert len(seen) == len(set(seen))


class TestSplitQuery:
    @pytest.mark.parametrize("seed", range(3))
    def test_split_is_partition(self, seed):
        tps = random_tps(n=60, seed=seed + 20)
        st = DurableBallStructure(tps, resolution=0.125)
        for p in range(0, tps.n, 9):
            sp = float(tps.starts[p])
            plain = {q for s in st.query(p, 2.0) for q in s.ids()}
            lam_all, bar_all = set(), set()
            for s in st.query_split(p, 2.0, 6.0):
                lam_all.update(s.lam.ids())
                bar_all.update(s.lam_bar.ids())
            assert lam_all | bar_all == plain
            assert not (lam_all & bar_all)
            for q in lam_all:
                assert sp + 2.0 <= tps.ends[q] < sp + 6.0
            for q in bar_all:
                assert tps.ends[q] >= sp + 6.0

    def test_split_rejects_inverted(self):
        tps = random_tps(n=20, seed=0)
        st = DurableBallStructure(tps, resolution=0.125)
        with pytest.raises(ValidationError):
            st.query_split(0, 5.0, 2.0)

    def test_infinite_split_means_all_lam(self):
        tps = random_tps(n=30, seed=1)
        st = DurableBallStructure(tps, resolution=0.125)
        for s in st.query_split(3, 1.0, float("inf")):
            assert s.lam_bar.count == 0


class TestConstruction:
    def test_bad_resolution(self):
        tps = random_tps(n=10, seed=0)
        with pytest.raises(ValidationError):
            DurableBallStructure(tps, resolution=0.0)

    def test_unknown_backend(self):
        tps = random_tps(n=10, seed=0)
        with pytest.raises(BackendError):
            make_decomposition(tps, 0.25, backend="voronoi")

    def test_grid_backend_requires_lp(self):
        tps = random_tps(n=10, seed=0)
        custom = TemporalPointSet(
            tps.points, tps.starts, tps.ends, metric=lambda x, y: 0.0
        )
        with pytest.raises(BackendError):
            make_decomposition(custom, 0.25, backend="vector")

    def test_group_index_of(self):
        tps = random_tps(n=40, seed=3)
        st = DurableBallStructure(tps, resolution=0.25)
        for p in range(tps.n):
            g = st.groups[st.group_index_of(p)]
            assert p in g.member_ids

    def test_linked_reflexive(self):
        tps = random_tps(n=30, seed=4)
        st = DurableBallStructure(tps, resolution=0.25)
        for g in st.groups[:5]:
            assert st.linked(g, g)
