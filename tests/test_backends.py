"""Tests for the backend registry and cost-based ``auto`` dispatch
(ISSUE 4 tentpole + satellites).

Covers: registry registration/lookup semantics, the satellite-1
regression (pair/pattern kinds must *reject* ``linf-exact`` instead of
silently coercing it to ``auto``), registry-routed
``make_decomposition`` errors, deterministic ``auto`` resolution,
bit-stable cache keys for every backend name, three-way record-set
parity (cover tree, object-graph grid cells, vector) on band-free
datasets (property test),
the cost model's calibration loop, the serving layer's per-dataset
default backend + per-backend counters, and the CLI surfaces.
"""

import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import TemporalPointSet
from repro.backends import (
    BackendDescriptor,
    BackendRegistry,
    CostModel,
    default_registry,
    fit_coefficients,
)
from repro.backends.builtin import register_builtin_backends
from repro.backends.cost import FALLBACK_COEFFICIENTS, QueryFeatures
from repro.cli import main as cli_main
from repro.core.aggregate import SumPairIndex, UnionPairIndex
from repro.core.patterns import PatternIndex
from repro.core.triangles import DurableTriangleIndex
from repro.backends.vector import (
    VectorPatternIndex,
    VectorSumPairIndex,
    VectorTriangleIndex,
    VectorUnionPairIndex,
)
from repro.engine import IndexKey, QueryEngine, QuerySpec, plan_query
from repro.quadtree.tree import GridDecomposition
from repro.errors import BackendError, ValidationError
from repro.structures.durable_ball import make_decomposition

from conftest import random_tps


def fresh_registry() -> BackendRegistry:
    return register_builtin_backends(BackendRegistry())


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_names_in_registration_order(self):
        assert default_registry().names() == (
            "cover-tree", "linf-exact", "vector",
        )

    def test_unknown_backend_error_lists_registered(self):
        with pytest.raises(
            BackendError, match="cover-tree, linf-exact, vector"
        ):
            default_registry().get("annoy")

    def test_get_spatial_rejects_non_spatial(self):
        # linf-exact is registered but provides no decomposition.
        with pytest.raises(BackendError, match="spatial backends: cover-tree, vector"):
            default_registry().get_spatial("linf-exact")

    def test_duplicate_registration_needs_replace(self):
        registry = fresh_registry()
        descriptor = registry.get("vector")
        with pytest.raises(ValidationError, match="already registered"):
            registry.register(descriptor)
        registry.register(descriptor, replace=True)  # idempotent with replace

    def test_custom_backend_becomes_spec_valid_and_plannable(self):
        registry = fresh_registry()
        base = registry.get("cover-tree")
        custom = BackendDescriptor(
            name="my-cover-tree",
            kinds=base.kinds,
            exact=False,
            description="registered by a test",
            metric_requirement="any metric",
            metric_ok=lambda metric: True,
            # Reuse the stock hooks: identity still keys on *this* name.
            make_builder=base.make_builder,
            index_identity=lambda spec, fp: IndexKey(
                "triangles", fp, spec.epsilon, "my-cover-tree"
            ),
        )
        registry.register(custom)
        tps = random_tps(n=20, seed=0)
        spec = QuerySpec(kind="triangles", taus=2.0)
        plan = plan_query(
            0,
            QuerySpec(kind="triangles", taus=2.0),
            tps,
            registry=registry,
        )
        assert plan.key.backend != "my-cover-tree"  # auto still cost-ranked
        resolution = registry.resolve(spec, tps)
        assert "my-cover-tree" in resolution.costs  # ...but it competed

    def test_auto_is_not_registrable(self):
        with pytest.raises(ValidationError, match="dispatch keyword"):
            BackendDescriptor(
                name="auto",
                kinds=frozenset({"triangles"}),
                exact=False,
                description="",
                metric_requirement="",
                metric_ok=lambda m: True,
                make_builder=lambda s, t: None,
                index_identity=lambda s, f: None,
            )

    def test_describe_cards_are_json_ready(self):
        cards = default_registry().describe()
        json.dumps(cards)  # must not raise
        by_name = {c["name"]: c for c in cards}
        assert by_name["linf-exact"]["exact"] is True
        assert by_name["linf-exact"]["kinds"] == ["triangles"]
        assert by_name["vector"]["spatial"] is True
        assert by_name["cover-tree"]["cost_coefficients"]["build"] > 0


# ----------------------------------------------------------------------
# Satellite 1: unsupported kind/backend combos are rejected with the
# serving backends named (previously: silent coercion to 'auto').
# ----------------------------------------------------------------------
class TestKindBackendRejection:
    @pytest.mark.parametrize(
        "kind", ["pairs-sum", "pairs-union", "cliques", "paths", "stars"]
    )
    def test_linf_exact_rejected_for_non_triangle_kinds(self, kind):
        kwargs = {"kappa": 2} if kind == "pairs-union" else {}
        with pytest.raises(ValidationError) as err:
            QuerySpec(kind=kind, taus=2.0, backend="linf-exact", **kwargs)
        message = str(err.value)
        # The error must name the backends that DO serve the kind.
        assert "does not serve" in message
        assert "cover-tree" in message and "vector" in message

    def test_triangles_still_accept_linf_exact(self):
        spec = QuerySpec(kind="triangles", taus=2.0, backend="linf-exact")
        assert spec.backend == "linf-exact"

    def test_validate_combination_direct(self):
        registry = default_registry()
        registry.validate_combination("pairs-sum", "auto")  # never rejected
        registry.validate_combination("pairs-sum", "vector")
        with pytest.raises(ValidationError, match="serving 'pairs-sum'"):
            registry.validate_combination("pairs-sum", "linf-exact")
        with pytest.raises(ValidationError, match="unknown backend"):
            registry.validate_combination("triangles", "bogus")


# ----------------------------------------------------------------------
# Satellite 2: make_decomposition goes through the registry.
# ----------------------------------------------------------------------
class TestMakeDecomposition:
    def test_unknown_spatial_backend_lists_registered(self):
        tps = random_tps(n=10, seed=0)
        with pytest.raises(BackendError) as err:
            make_decomposition(tps, 0.25, backend="octree")
        assert "registered spatial backends: cover-tree, vector" in str(err.value)

    def test_exact_backend_is_not_a_decomposition(self):
        tps = random_tps(n=10, seed=0, metric="linf")
        with pytest.raises(BackendError, match="spatial"):
            make_decomposition(tps, 0.25, backend="linf-exact")

    def test_auto_still_builds_the_cover_tree(self):
        # Structure-level auto keeps the paper's general-metric default;
        # cost-based dispatch happens one level up, in the planner.
        tps = random_tps(n=15, seed=1)
        dec = make_decomposition(tps, 0.25, backend="auto")
        assert type(dec).__name__ == "CoverTreeDecomposition"

    def test_registered_names_build(self):
        tps = random_tps(n=15, seed=1)
        dec = make_decomposition(tps, 0.25, "vector")
        assert type(dec).__name__ == "VectorGridDecomposition"
        assert isinstance(dec, GridDecomposition)


class TestLazyApiEngine:
    def test_importing_api_allocates_no_engine(self):
        code = (
            "import repro.api as api; "
            "assert api._ENGINE is None, 'engine built at import time'; "
            "engine = api.default_engine(); "
            "assert engine is api.default_engine(); "
            "assert api._ENGINE is engine; "
            "print('ok')"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == "ok"


# ----------------------------------------------------------------------
# Deterministic auto resolution
# ----------------------------------------------------------------------
class TestAutoResolution:
    KINDS_AND_EXTRAS = [
        ("triangles", {}),
        ("pairs-sum", {}),
        ("pairs-union", {"kappa": 2}),
        ("cliques", {}),
    ]

    def test_resolution_is_deterministic_per_fingerprint(self):
        # Same dataset content (same fingerprint), fresh registry
        # instances, repeated calls: identical choice every time.
        a = random_tps(n=45, seed=7)
        b = random_tps(n=45, seed=7)
        assert a.fingerprint() == b.fingerprint()
        for kind, extras in self.KINDS_AND_EXTRAS:
            spec = QuerySpec(kind=kind, taus=(2.0, 4.0), **extras)
            names = {
                default_registry().resolve(spec, a).name,
                default_registry().resolve(spec, b).name,
                fresh_registry().resolve(spec, a).name,
                fresh_registry().resolve(spec, b).name,
            }
            assert len(names) == 1, (kind, names)

    def test_auto_plan_key_equals_resolved_explicit_plan_key(self):
        tps = random_tps(n=40, seed=3)
        for kind, extras in self.KINDS_AND_EXTRAS:
            auto_spec = QuerySpec(kind=kind, taus=3.0, **extras)
            resolved = default_registry().resolve(auto_spec, tps).name
            explicit = QuerySpec(kind=kind, taus=3.0, backend=resolved, **extras)
            assert (
                plan_query(0, auto_spec, tps).key
                == plan_query(0, explicit, tps).key
            )

    def test_auto_respects_metric_capability(self):
        # Opaque function metrics cannot grid: auto must fall back to
        # the cover tree rather than crash at build time.
        tps = random_tps(n=25, seed=2)
        opaque = TemporalPointSet(
            tps.points, tps.starts, tps.ends,
            metric=lambda x, y: float(np.abs(x - y).max()),
        )
        resolution = default_registry().resolve(
            QuerySpec(kind="pairs-sum", taus=2.0), opaque
        )
        assert resolution.name == "cover-tree"
        assert "vector" not in resolution.costs

    def test_linf_triangles_promote_to_exact_and_exact_false_opts_out(self):
        tps = random_tps(n=25, seed=2, metric="linf")
        registry = default_registry()
        promoted = registry.resolve(QuerySpec(kind="triangles", taus=2.0), tps)
        assert promoted.name == "linf-exact"
        assert "exact" in promoted.reason
        opted_out = registry.resolve(
            QuerySpec(kind="triangles", taus=2.0, exact=False), tps
        )
        assert opted_out.name in ("cover-tree", "vector")

    def test_explicit_backend_with_wrong_metric_names_alternatives(self):
        tps = random_tps(n=25, seed=2)
        opaque = TemporalPointSet(
            tps.points, tps.starts, tps.ends,
            metric=lambda x, y: float(np.abs(x - y).max()),
        )
        with pytest.raises(ValidationError, match="cover-tree"):
            default_registry().resolve(
                QuerySpec(kind="triangles", taus=2.0, backend="vector"), opaque
            )

    def test_cost_scales_choose_vector_on_lp_inputs(self):
        # The measured coefficients price the SoA vector backend far
        # below the cover tree on lp metrics — auto should agree.
        tps = random_tps(n=60, seed=4, metric="l2")
        resolution = default_registry().resolve(
            QuerySpec(kind="triangles", taus=2.0), tps
        )
        assert resolution.name == "vector"
        assert resolution.costs["vector"] < resolution.costs["cover-tree"]


# ----------------------------------------------------------------------
# Cache-key bit-stability for pre-existing backend names
# ----------------------------------------------------------------------
class TestKeyStability:
    """Keys for explicit backend names must match the historical planner
    exactly — caches (and cross-process cache-key logs) stay valid."""

    def test_explicit_name_keys_are_bit_stable(self):
        tps = random_tps(n=30, seed=9)
        fp = tps.fingerprint()
        expected = [
            (
                QuerySpec(kind="triangles", taus=3.0, backend="cover-tree"),
                IndexKey("triangles", fp, 0.5, "cover-tree", ()),
            ),
            (
                QuerySpec(kind="triangles", taus=3.0, epsilon=0.25, backend="vector"),
                IndexKey("triangles", fp, 0.25, "vector", ()),
            ),
            (
                QuerySpec(kind="pairs-sum", taus=3.0, backend="cover-tree"),
                IndexKey("pairs-sum", fp, 0.5, "cover-tree", ()),
            ),
            (
                QuerySpec(kind="pairs-union", taus=3.0, kappa=2, backend="vector"),
                IndexKey("pairs-union", fp, 0.5, "vector", ()),
            ),
            (
                QuerySpec(kind="cliques", taus=3.0, backend="cover-tree"),
                IndexKey("patterns", fp, 0.5, "cover-tree", ()),
            ),
            (
                QuerySpec(kind="paths", taus=3.0, m=4, backend="vector"),
                IndexKey("patterns", fp, 0.5, "vector", ()),
            ),
            (
                QuerySpec(kind="stars", taus=3.0, backend="cover-tree"),
                IndexKey("patterns", fp, 0.5, "cover-tree", ()),
            ),
        ]
        for spec, key in expected:
            assert plan_query(0, spec, tps).key == key, spec

    def test_vector_keys_follow_the_spatial_identity_scheme(self):
        # The vector backend mints keys through the same
        # (family, fp, ε, name) scheme as the cover tree — pinned here
        # so vector cache identities are as stable as the others.
        tps = random_tps(n=30, seed=9)
        fp = tps.fingerprint()
        expected = [
            (
                QuerySpec(kind="triangles", taus=3.0, backend="vector"),
                IndexKey("triangles", fp, 0.5, "vector", ()),
            ),
            (
                QuerySpec(kind="pairs-sum", taus=3.0, backend="vector"),
                IndexKey("pairs-sum", fp, 0.5, "vector", ()),
            ),
            (
                QuerySpec(kind="pairs-union", taus=3.0, kappa=2, backend="vector"),
                IndexKey("pairs-union", fp, 0.5, "vector", ()),
            ),
            (
                QuerySpec(kind="cliques", taus=3.0, backend="vector"),
                IndexKey("patterns", fp, 0.5, "vector", ()),
            ),
            (
                QuerySpec(kind="stars", taus=3.0, epsilon=0.25, backend="vector"),
                IndexKey("patterns", fp, 0.25, "vector", ()),
            ),
        ]
        for spec, key in expected:
            assert plan_query(0, spec, tps).key == key, spec

    def test_pattern_dsl_stage_keys_are_bit_stable(self):
        # A compiled pattern's stages mint the SAME keys the legacy
        # planner mints for the equivalent explicit-kind specs — that
        # identity is what lets DSL plans share cached sub-indexes with
        # every pre-existing query, so it is pinned bit-for-bit here.
        tps = random_tps(n=30, seed=9)
        fp = tps.fingerprint()
        spec = QuerySpec(
            kind="pattern-dsl",
            taus=3.0,
            backend="vector",
            pattern="seq(triangles(), pairs(agg=sum), gap=[0, 5])",
        )
        plan = plan_query(0, spec, tps)
        assert plan.key == IndexKey("pattern-dsl", fp, 0.5, "dsl", ())
        assert [s.key for s in plan.stages] == [
            IndexKey("triangles", fp, 0.5, "vector", ()),
            IndexKey("pairs-sum", fp, 0.5, "vector", ()),
        ]
        # Duplicate leaves fold into one stage (one shared sub-index).
        dup = QuerySpec(
            kind="pattern-dsl",
            taus=3.0,
            backend="vector",
            pattern="seq(pairs(agg=sum), pairs(agg=sum))",
        )
        assert [s.key for s in plan_query(0, dup, tps).stages] == [
            IndexKey("pairs-sum", fp, 0.5, "vector", ()),
        ]

    def test_linf_exact_key_is_bit_stable_and_epsilon_free(self):
        tps = random_tps(n=30, seed=9, metric="linf")
        fp = tps.fingerprint()
        expected = IndexKey("linf-triangles", fp, 0.0, "linf-exact", ())
        for spec in (
            QuerySpec(kind="triangles", taus=3.0, backend="linf-exact"),
            QuerySpec(kind="triangles", taus=3.0, epsilon=0.2, backend="linf-exact"),
            QuerySpec(kind="triangles", taus=3.0, exact=True),
            QuerySpec(kind="triangles", taus=3.0),  # auto-promotion
        ):
            assert plan_query(0, spec, tps).key == expected, spec

    def test_plan_key_matches_index_cache_key_hook(self):
        # The descriptor hooks and the solvers' own cache_key() must
        # agree for every explicit backend name.
        tps = random_tps(n=30, seed=9)
        engine = QueryEngine()
        for backend in ("cover-tree", "vector"):
            for spec in (
                QuerySpec(kind="triangles", taus=2.0, backend=backend),
                QuerySpec(kind="pairs-sum", taus=2.0, backend=backend),
                QuerySpec(kind="pairs-union", taus=2.0, kappa=2, backend=backend),
                QuerySpec(kind="stars", taus=2.0, backend=backend),
            ):
                plan = plan_query(0, spec, tps)
                hook = engine.get_index(tps, spec).cache_key()
                assert hook[0] == plan.key.family
                assert hook[1] == plan.key.fingerprint
                assert hook[2] == plan.key.epsilon
                assert hook[3] == plan.key.backend
                assert tuple(hook[4:]) == plan.key.extra


# ----------------------------------------------------------------------
# Three-way backend parity (identical record sets).
#
# Backend parity is NOT true for arbitrary inputs: a pair at distance
# d ∈ (1, 1+ε] is an ε-extra one decomposition may report and the other
# may not.  On a 0.5-lattice under l1/linf every pairwise distance is a
# multiple of 0.5, so with ε = 0.4 the ambiguous band (1, 1.4] is
# empty: both backends must report exactly the τ-durable set, hence
# identical records.  (Canonical balls have radius ≤ ε/4 = 0.1, so a
# ball never mixes near (≤1) and far (≥1.5) partners, and ball-level
# linkage coincides with exact unit-distance adjacency.)
# ----------------------------------------------------------------------
PARITY_EPS = 0.4

#: κ larger than any generated dataset: the UNION greedy covers every
#: witness, making its score independent of greedy tie-breaking order
#: (which legitimately differs between decompositions).
PARITY_KAPPA = 64


@st.composite
def lattice_tps(draw):
    n = draw(st.integers(min_value=8, max_value=22))
    metric = draw(st.sampled_from(["l1", "linf"]))
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)),
            min_size=n, max_size=n,
        )
    )
    starts = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    lengths = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    pts = np.asarray(cells, dtype=float) * 0.5
    s = np.asarray(starts, dtype=float)
    return TemporalPointSet(pts, s, s + np.asarray(lengths, float), metric=metric)


def _sorted_keys(records):
    return sorted(r.key for r in records)


#: Every approximate solver must agree on lattice inputs: the cover
#: tree, the object-graph grid-cell reference (the core solvers run
#: over the vector backend's grid decomposition), and the SoA
#: ``vector`` indexes, whose batched kernels must reproduce the
#: object-graph record sets exactly.
PARITY_BACKENDS = ("cover-tree", "grid-cells", "vector")

_VECTOR_CLASS = {
    DurableTriangleIndex: VectorTriangleIndex,
    SumPairIndex: VectorSumPairIndex,
    UnionPairIndex: VectorUnionPairIndex,
    PatternIndex: VectorPatternIndex,
}


def _parity_index(cls, tps, which):
    """One of the three parity solvers of family ``cls``."""
    if which == "vector":
        return _VECTOR_CLASS[cls](tps, PARITY_EPS)
    backend = "vector" if which == "grid-cells" else which
    return cls(tps, PARITY_EPS, backend=backend)


class TestBackendParity:
    @settings(max_examples=25, deadline=None)
    @given(tps=lattice_tps(), tau=st.sampled_from([1.0, 2.0, 3.0]))
    def test_all_four_query_families_agree(self, tps, tau):
        # Triangles.
        tri = {
            b: _parity_index(DurableTriangleIndex, tps, b).query(tau)
            for b in PARITY_BACKENDS
        }
        for b in PARITY_BACKENDS[1:]:
            assert _sorted_keys(tri[b]) == _sorted_keys(tri["cover-tree"]), b

        # SUM pairs: same pairs AND same witness sums (integer windows,
        # so float summation order cannot perturb them).
        sums = {
            b: {
                r.key: r.score
                for r in _parity_index(SumPairIndex, tps, b).query(tau)
            }
            for b in PARITY_BACKENDS
        }
        for b in PARITY_BACKENDS[1:]:
            assert sums[b].keys() == sums["cover-tree"].keys(), b
            for key, score in sums["cover-tree"].items():
                assert sums[b][key] == pytest.approx(score), (b, key)

        # UNION pairs (κ covers all witnesses; see PARITY_KAPPA).
        union = {
            b: _parity_index(UnionPairIndex, tps, b).query(tau, PARITY_KAPPA)
            for b in PARITY_BACKENDS
        }
        for b in PARITY_BACKENDS[1:]:
            assert _sorted_keys(union[b]) == _sorted_keys(union["cover-tree"]), b

        # Patterns: cliques, paths and stars off one shared index each.
        for iterate in ("iter_cliques", "iter_paths", "iter_stars"):
            pats = {
                b: list(
                    getattr(_parity_index(PatternIndex, tps, b), iterate)(3, tau)
                )
                for b in PARITY_BACKENDS
            }
            for b in PARITY_BACKENDS[1:]:
                assert _sorted_keys(pats[b]) == _sorted_keys(
                    pats["cover-tree"]
                ), (iterate, b)

    def test_fixed_example_parity_including_engine_path(self):
        # A deterministic anchor for the property above, driven through
        # the engine so descriptor builders (not raw classes) are used
        # for the registered backends.
        rng = np.random.default_rng(11)
        pts = rng.integers(0, 8, size=(30, 2)).astype(float) * 0.5
        starts = rng.integers(0, 9, size=30).astype(float)
        ends = starts + rng.integers(0, 7, size=30).astype(float)
        tps = TemporalPointSet(pts, starts, ends, metric="linf")
        engine = QueryEngine()
        results = {
            b: engine.run(
                tps,
                QuerySpec(
                    kind="triangles", taus=2.0, epsilon=PARITY_EPS,
                    backend=b, exact=False,
                ),
            ).records
            for b in ("cover-tree", "vector")
        }
        results["grid-cells"] = _parity_index(
            DurableTriangleIndex, tps, "grid-cells"
        ).query(2.0)
        for b in PARITY_BACKENDS[1:]:
            assert _sorted_keys(results[b]) == _sorted_keys(
                results["cover-tree"]
            ), b
        assert len(results["grid-cells"]) > 0  # the example is non-degenerate


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
class TestCostModel:
    def test_estimate_is_monotone_in_n_and_taus(self):
        model = CostModel()
        small = QueryFeatures(n=100, dim=2, metric="l2", n_taus=1)
        big = QueryFeatures(n=1000, dim=2, metric="l2", n_taus=1)
        sweep = QueryFeatures(n=100, dim=2, metric="l2", n_taus=8)
        for backend in ("cover-tree", "linf-exact", "vector"):
            assert model.estimate(backend, small) < model.estimate(backend, big)
            assert model.estimate(backend, small) < model.estimate(backend, sweep)

    def test_unknown_backend_uses_fallback(self):
        model = CostModel()
        features = QueryFeatures(n=100, dim=2, metric="l2")
        expected = features.unit * (
            FALLBACK_COEFFICIENTS.build + FALLBACK_COEFFICIENTS.query
        )
        assert model.estimate("never-registered", features) == expected

    def test_fit_round_trips_through_bench_payload(self):
        measurements = [
            {
                "backend": "vector", "n": 200, "dim": 2, "metric": "l2",
                "n_taus": 2, "build_seconds": 0.004, "query_seconds": 0.030,
            },
            {
                "backend": "cover-tree", "n": 200, "dim": 2, "metric": "l2",
                "n_taus": 2, "build_seconds": 0.016, "query_seconds": 0.040,
            },
        ]
        fitted = fit_coefficients(measurements)
        assert fitted["vector"].build < fitted["cover-tree"].build
        rebuilt = CostModel.from_bench({"measurements": measurements})
        direct = CostModel(fitted)
        features = QueryFeatures(n=500, dim=2, metric="l2", n_taus=3)
        for backend in ("vector", "cover-tree"):
            assert rebuilt.estimate(backend, features) == pytest.approx(
                direct.estimate(backend, features)
            )
        # Pre-fitted coefficients take precedence over raw measurements.
        override = CostModel.from_bench(
            {"coefficients": {"vector": {"build": 1.0, "query": 1.0}}}
        )
        assert override.estimate("vector", features) == pytest.approx(
            features.unit * (1.0 + 3 * 1.0)
        )

    def test_fit_rejects_empty_and_bad_payloads(self):
        with pytest.raises(ValidationError):
            fit_coefficients([])
        with pytest.raises(ValidationError):
            CostModel.from_bench({})
        with pytest.raises(ValidationError):
            CostModel({"vector": {"build": "fast"}})

    def test_recalibrated_registry_can_flip_the_choice(self):
        # Coefficients that price the cover tree at ~zero must flip an
        # lp dataset's auto choice away from the vector backend.
        registry = fresh_registry()
        registry.cost_model = CostModel(
            {
                "cover-tree": {"build": 1e-12, "query": 1e-12},
                "vector": {"build": 1e-3, "query": 1e-3},
            }
        )
        tps = random_tps(n=40, seed=6)
        resolution = registry.resolve(QuerySpec(kind="pairs-sum", taus=2.0), tps)
        assert resolution.name == "cover-tree"


# ----------------------------------------------------------------------
# Threshold tables: warm τ-sweeps answered from the lowest τ served
# ----------------------------------------------------------------------
def _table_calls():
    """(name, vector class, call) for every family and parameter the
    tables key on: κ for UNION pairs, (shape, m) for patterns."""
    calls = [
        ("triangles", VectorTriangleIndex, lambda ix, t: ix.query(t)),
        ("pairs-sum", VectorSumPairIndex, lambda ix, t: ix.query(t)),
    ]
    for k in (1, 2, PARITY_KAPPA):
        calls.append(
            (f"pairs-union/{k}", VectorUnionPairIndex,
             lambda ix, t, k=k: ix.query(t, k))
        )
    for shape in ("cliques", "paths", "stars"):
        for m in (3, 4):
            calls.append(
                (f"{shape}/{m}", VectorPatternIndex,
                 lambda ix, t, s=shape, m=m: list(getattr(ix, f"iter_{s}")(m, t)))
            )
    return calls


TABLE_CALLS = _table_calls()
TABLE_TAUS = [0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 6.0]


class _FreshAnswers:
    """Answers of a new index per question: no table is ever consulted."""

    def __init__(self, tps):
        self.tps = tps
        self.memo = {}

    def __call__(self, call_index, tau):
        key = (call_index, tau)
        if key not in self.memo:
            _, cls, call = TABLE_CALLS[call_index]
            self.memo[key] = call(cls(self.tps, PARITY_EPS), tau)
        return self.memo[key]


class TestThresholdTables:
    @settings(max_examples=25, deadline=None)
    @given(
        tps=lattice_tps(),
        ladder=st.lists(st.sampled_from(TABLE_TAUS), min_size=1, max_size=5),
        steps=st.lists(
            st.tuples(
                st.integers(0, len(TABLE_CALLS) - 1), st.sampled_from(TABLE_TAUS)
            ),
            max_size=25,
        ),
    )
    def test_any_tau_order_matches_a_fresh_index(self, tps, ladder, steps):
        # Per family: the ladder up, down and repeated, then random
        # (family, τ) steps interleaving κ and m on the same indexes.
        shared = {cls: cls(tps, PARITY_EPS) for _, cls, _ in TABLE_CALLS}
        fresh = _FreshAnswers(tps)
        up = sorted(ladder)
        order = [
            (c, t)
            for c in range(len(TABLE_CALLS))
            for t in up + up[::-1] + up
        ] + list(steps)
        for c, tau in order:
            name, cls, call = TABLE_CALLS[c]
            assert call(shared[cls], tau) == fresh(c, tau), (name, tau)

    @settings(max_examples=50, deadline=None)
    @given(
        runs=st.lists(
            st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=9),
            min_size=1, max_size=6,
        )
    )
    def test_run_minimum_equals_the_scalar_scan(self, runs):
        from repro.backends.vector.indexes import _run_minimum

        run_m = np.array([len(r) for r in runs])
        run_start = np.concatenate(([0], np.cumsum(run_m)[:-1]))
        values = np.array([v for r in runs for v in r])
        expected = []
        for r in runs:
            low = np.inf
            for v in r:
                low = min(low, v)
                expected.append(low)
        assert _run_minimum(values, run_start, run_m).tolist() == expected

    def test_floor_only_moves_down_and_hits_skip_the_kernel(self, monkeypatch):
        idx = VectorSumPairIndex(random_tps(n=50, seed=4), 0.5)
        idx.query(2.0)
        assert idx._tables[None].tau == 2.0

        def no_kernel(tau):
            raise AssertionError("a table hit must not run the kernel")

        monkeypatch.setattr(idx, "_table", no_kernel)
        idx.query(3.0)
        idx.query(2.0)
        monkeypatch.undo()
        assert idx._tables[None].tau == 2.0
        idx.query(1.0)
        assert idx._tables[None].tau == 1.0

    def test_parameter_slots_are_a_bounded_lru(self):
        from repro.backends.vector import indexes

        tps = random_tps(n=40, seed=2)
        pats = VectorPatternIndex(tps, 0.5)
        for m in (3, 4, 5, 3):
            list(pats.iter_cliques(m, 2.0))
        assert len(pats._tables) == indexes.TABLE_SLOTS == 2
        assert list(pats._tables) == [("clique", 5), ("clique", 3)]
        union = VectorUnionPairIndex(tps, 0.5)
        for kappa in range(1, 12):
            union.query(2.0, kappa)
        assert list(union._tables) == [10, 11]

    def test_answers_over_the_record_cap_are_not_retained(self, monkeypatch):
        from repro.backends.vector import indexes

        tps = random_tps(n=50, seed=1)
        expected = VectorTriangleIndex(tps, 0.5).query(1.0)
        assert len(expected) > 3
        monkeypatch.setattr(indexes, "TABLE_MAX_RECORDS", len(expected) - 1)
        idx = VectorTriangleIndex(tps, 0.5)
        assert idx.query(1.0) == expected
        assert not idx._tables
        # A smaller answer is retained, and a later larger one (τ below
        # the floor) does not displace it.
        small = idx.query(4.0)
        assert len(small) <= len(expected) - 1
        assert idx._tables[None].tau == 4.0
        assert idx.query(1.0) == expected
        assert idx._tables[None].tau == 4.0

    def test_fifty_distinct_taus_leave_bounded_state(self):
        idx = VectorPatternIndex(random_tps(n=40, seed=3), 0.5)
        attrs = set(vars(idx))
        for i, tau in enumerate(np.linspace(6.0, 0.5, 50)):
            shape = ("cliques", "paths", "stars")[i % 3]
            list(getattr(idx, f"iter_{shape}")(3, float(tau)))
        assert set(vars(idx)) == attrs
        assert not hasattr(idx, "_contexts")
        assert len(idx._tables) <= 2

    def test_concurrent_shuffled_ladders_match_sequential_fresh(self):
        import random
        import threading
        from concurrent.futures import ThreadPoolExecutor

        tps = random_tps(n=45, seed=9, metric="l1")
        shared = {cls: cls(tps, 0.5) for _, cls, _ in TABLE_CALLS}
        work = [(c, t) for c in range(len(TABLE_CALLS)) for t in TABLE_TAUS]
        expected = {
            (c, t): TABLE_CALLS[c][2](TABLE_CALLS[c][1](tps, 0.5), t)
            for c, t in work
        }
        barrier = threading.Barrier(4, timeout=60)

        def ladder(seed):
            mine = list(work)
            random.Random(seed).shuffle(mine)
            barrier.wait()
            return [
                ((c, t), TABLE_CALLS[c][2](shared[TABLE_CALLS[c][1]], t))
                for c, t in mine
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(ladder, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 4
        for answers in results:
            for key, got in answers:
                assert got == expected[key], key
        # A lost install would leave a single-parameter index's floor
        # above the lowest τ every thread asked for.
        for cls in (VectorTriangleIndex, VectorSumPairIndex):
            assert shared[cls]._tables[None].tau == min(TABLE_TAUS)

    def test_advance_maintains_to_answers_of_a_fresh_merged_build(self):
        from repro.engine import IndexCache

        full = random_tps(n=60, seed=12)
        base = full.subset(np.arange(45))
        merged = base.with_events(full.points[45:], full.starts[45:], full.ends[45:])
        specs = [
            QuerySpec(kind="triangles", taus=[1.0, 3.0], backend="vector"),
            QuerySpec(kind="pairs-sum", taus=[1.0, 3.0], backend="vector"),
            QuerySpec(kind="pairs-union", taus=[1.0, 3.0], kappa=2, backend="vector"),
            QuerySpec(kind="cliques", taus=[1.0, 3.0], m=3, backend="vector"),
            QuerySpec(kind="stars", taus=[1.0, 3.0], m=3, backend="vector"),
        ]
        cache = IndexCache()
        for spec in specs:
            plan = plan_query(0, spec, base)
            index = cache.get_or_build(plan.key, plan.builder).index
            for tau in spec.taus:
                plan.runner(index, tau)
        moved = cache.advance(
            base.fingerprint(), merged.fingerprint(),
            lambda key, index: index.maintained(merged),
        )
        assert not moved["invalidated"]
        for spec in specs:
            plan = plan_query(0, spec, merged)
            outcome = cache.get_or_build(plan.key, plan.builder)
            assert outcome.hit
            fresh = plan.builder()
            for tau in (3.0, 2.0, 1.0, 0.5):
                assert plan.runner(outcome.index, tau) == plan.runner(
                    fresh, tau
                ), (spec.kind, tau)

    def test_wire_ladders_ascending_then_descending_agree(self):
        import http.client

        from repro.serve import start_server_thread

        handle = start_server_thread(port=0)

        def post(path, body):
            conn = http.client.HTTPConnection(handle.host, handle.port, timeout=60)
            try:
                conn.request("POST", path, body=json.dumps(body),
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                return resp.status, resp.read()
            finally:
                conn.close()

        def records(dataset, taus):
            queries = [
                {"kind": "triangles", "taus": taus},
                {"kind": "pairs-sum", "taus": taus},
                {"kind": "pairs-union", "kappa": 2, "taus": taus},
                {"kind": "cliques", "m": 3, "taus": taus},
                {"kind": "paths", "m": 3, "taus": taus},
                {"kind": "pattern-dsl", "taus": taus,
                 "pattern": "all(clique(m=3), pairs(agg=union, kappa=2))"},
            ]
            status, data = post("/query", {
                "dataset": dataset, "queries": queries, "include_records": True,
            })
            assert status == 200
            lines = [json.loads(x) for x in data.decode().splitlines() if x]
            assert all(x.get("ok", True) for x in lines if x["type"] == "result")
            return {
                (x["query"], x["tau"]): x["records"]
                for x in lines if x["type"] == "records"
            }

        try:
            for name in ("a", "b"):
                status, _ = post("/datasets", {
                    "name": name,
                    "dataset": {"workload": "uniform", "n": 80, "seed": 5,
                                "metric": "l2"},
                })
                assert status == 201
            taus = [1.0, 2.0, 4.0, 8.0]
            # On "a" the ascending batch fills the tables at τ = 1 and the
            # descending one is served from them; on "b" a descending
            # batch lowers the floor at every τ, so each is a kernel run.
            ascending = records("a", taus)
            descending = records("a", taus[::-1])
            kernels = records("b", taus[::-1])
            assert ascending == descending == kernels
            assert sum(len(r) for r in ascending.values()) > 0
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# Serving integration: per-dataset default backend + /stats counters
# ----------------------------------------------------------------------
class TestServeIntegration:
    @pytest.fixture()
    def server(self):
        from repro.serve import start_server_thread

        handle = start_server_thread(port=0)
        try:
            yield handle
        finally:
            handle.stop()

    @staticmethod
    def _request(handle, method, path, body=None):
        import http.client

        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=30)
        try:
            conn.request(
                method,
                path,
                body=json.dumps(body) if body is not None else None,
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def test_default_backend_threads_through_query_and_stats(self, server):
        status, data = self._request(
            server, "POST", "/datasets",
            {
                "name": "pinned",
                "dataset": {"workload": "social", "n": 60, "seed": 2},
                "default_backend": "cover-tree",
            },
        )
        assert status == 201
        assert json.loads(data)["registered"]["default_backend"] == "cover-tree"

        # No backend in the query → the dataset default (cover-tree)
        # applies; an explicit backend overrides it.
        status, data = self._request(
            server, "POST", "/query",
            {
                "dataset": "pinned",
                "include_records": False,
                "queries": [
                    {"kind": "triangles", "tau": 2.0},
                    {"kind": "triangles", "tau": 2.0, "backend": "vector"},
                ],
            },
        )
        assert status == 200
        status, data = self._request(server, "GET", "/stats")
        assert status == 200
        shard_stats = json.loads(data)["shards"]["pinned"]
        backends = shard_stats["backends"]
        assert backends["cover-tree"]["queries"] == 1
        assert backends["cover-tree"]["builds"] == 1
        assert backends["vector"]["queries"] == 1
        assert backends["vector"]["builds"] == 1
        assert shard_stats["dataset"]["default_backend"] == "cover-tree"

    def test_counters_attribute_cache_hits_and_resolved_auto(self, server):
        status, _ = self._request(
            server, "POST", "/datasets",
            {"name": "auto-ds", "dataset": {"workload": "uniform", "n": 50, "seed": 3}},
        )
        assert status == 201
        body = {
            "dataset": "auto-ds",
            "include_records": False,
            "queries": [
                {"kind": "pairs-sum", "tau": 2.0},
                {"kind": "pairs-sum", "tau": 3.0},
            ],
        }
        status, _ = self._request(server, "POST", "/query", body)
        assert status == 200
        status, data = self._request(server, "GET", "/stats")
        backends = json.loads(data)["shards"]["auto-ds"]["backends"]
        # auto resolved to one concrete backend ('auto' never appears),
        # shared one build, and the second query was a cache hit.
        assert "auto" not in backends
        (name, counters), = backends.items()
        assert counters["queries"] == 2
        assert counters["builds"] == 1
        assert counters["cache_hits"] == 1

    def test_metric_incompatible_default_backend_is_a_400(self, server):
        # linf-exact cannot serve an l2 dataset: the *registration* must
        # fail, not every later defaulted query.
        status, data = self._request(
            server, "POST", "/datasets",
            {
                "name": "mismatched",
                "dataset": {"workload": "uniform", "n": 30, "metric": "l2"},
                "default_backend": "linf-exact",
            },
        )
        assert status == 400
        assert "linf" in json.loads(data)["error"]

    def test_kind_aware_default_leaves_unserved_kinds_on_auto(self, server):
        # A triangles-only default on an linf dataset pins the triangle
        # queries and leaves pair queries on cost-model dispatch.
        status, _ = self._request(
            server, "POST", "/datasets",
            {
                "name": "linf-ds",
                "dataset": {"workload": "uniform", "n": 40, "metric": "linf",
                            "seed": 4},
                "default_backend": "linf-exact",
            },
        )
        assert status == 201
        status, _ = self._request(
            server, "POST", "/query",
            {
                "dataset": "linf-ds",
                "include_records": False,
                "queries": [
                    {"kind": "triangles", "tau": 2.0},
                    {"kind": "pairs-sum", "tau": 2.0},
                ],
            },
        )
        assert status == 200
        status, data = self._request(server, "GET", "/stats")
        backends = json.loads(data)["shards"]["linf-ds"]["backends"]
        assert backends["linf-exact"]["queries"] == 1
        spatial = [n for n in backends if n != "linf-exact"]
        assert len(spatial) == 1 and backends[spatial[0]]["queries"] == 1

    def test_unknown_default_backend_is_a_400(self, server):
        status, data = self._request(
            server, "POST", "/datasets",
            {
                "name": "broken",
                "dataset": {"workload": "uniform", "n": 30},
                "default_backend": "annoy",
            },
        )
        assert status == 400
        assert "registered backends" in json.loads(data)["error"]

    @pytest.mark.parametrize(
        "query, needle",
        [
            ({"kind": "triangles", "tau": 2.0, "backend": "grid"},
             "unknown backend 'grid'"),
            ({"kind": "pairs-sum", "tau": 2.0, "sum_backend": "profile"},
             "unknown query field(s) ['sum_backend']"),
        ],
    )
    def test_removed_query_options_are_a_400_with_trace_id(
        self, server, query, needle
    ):
        status, _ = self._request(
            server, "POST", "/datasets",
            {"name": "ds", "dataset": {"workload": "uniform", "n": 30}},
        )
        assert status == 201
        status, data = self._request(
            server, "POST", "/query", {"dataset": "ds", "queries": [query]}
        )
        assert status == 400
        body = json.loads(data)
        assert needle in body["error"]
        assert body["trace_id"]

    def test_registry_level_default_backend(self):
        from repro.serve import DatasetRegistry

        registry = DatasetRegistry(default_backend="vector")
        shard = registry.register("d", random_tps(n=20, seed=1))
        assert shard.default_backend == "vector"
        override = registry.register(
            "e", random_tps(n=20, seed=2), default_backend="cover-tree"
        )
        assert override.default_backend == "cover-tree"
        with pytest.raises(ValidationError):
            DatasetRegistry(default_backend="annoy")


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
def run_cli(*argv):
    out = io.StringIO()
    code = cli_main(list(argv), out=out)
    return code, out.getvalue()


class TestCli:
    def test_backends_lists_descriptors(self):
        code, text = run_cli("backends")
        assert code == 0
        for name in ("cover-tree", "linf-exact", "vector"):
            assert name in text
        assert "exact" in text and "kinds:" in text

    def test_backends_json(self):
        code, text = run_cli("backends", "--json")
        assert code == 0
        doc = json.loads(text)
        assert {c["name"] for c in doc["backends"]} == {
            "cover-tree", "linf-exact", "vector",
        }
        assert "cover-tree" in doc["cost_coefficients"]

    def test_backends_explain_resolves_each_kind(self):
        code, text = run_cli(
            "backends", "--explain", "--n", "60", "--metric", "linf"
        )
        assert code == 0
        assert "triangles" in text and "-> linf-exact" in text
        assert "cheapest by cost model" in text

    def test_one_shot_backend_override_and_resolution_line(self):
        code, text = run_cli(
            "triangles", "--n", "80", "--tau", "4", "--backend", "cover-tree"
        )
        assert code == 0
        assert "backend: cover-tree" in text
        code, text = run_cli("triangles", "--n", "80", "--tau", "4")
        assert code == 0
        assert "backend: vector" in text  # auto → vector on the l2 workload

    def test_batch_backend_override(self, tmp_path):
        qfile = tmp_path / "queries.json"
        qfile.write_text(
            json.dumps(
                [
                    {"kind": "triangles", "tau": 3.0},
                    {"kind": "triangles", "tau": 3.0, "backend": "vector"},
                ]
            )
        )
        out = tmp_path / "results.json"
        code, _ = run_cli(
            "batch", str(qfile), "--n", "60",
            "--backend", "cover-tree", "--output", str(out), "--no-records",
        )
        assert code == 0
        payload = json.loads(out.read_text())
        backends = [q["index"]["backend"] for q in payload["queries"]]
        assert backends == ["cover-tree", "vector"]  # explicit entry wins

    def test_unknown_backend_flag_exits_2(self):
        code, _ = run_cli("triangles", "--n", "40", "--tau", "3",
                          "--backend", "annoy")
        assert code == 2

    def test_batch_unknown_backend_fails_even_with_explicit_queries(self, tmp_path):
        qfile = tmp_path / "queries.json"
        qfile.write_text(json.dumps([{"kind": "triangles", "tau": 3.0,
                                      "backend": "vector"}]))
        code, _ = run_cli("batch", str(qfile), "--n", "40", "--backend", "annoy")
        assert code == 2

    def test_batch_kind_aware_default_backend(self, tmp_path):
        # --backend linf-exact on a mixed linf batch: triangles pinned
        # to the exact solver, pairs fall back to auto dispatch.
        qfile = tmp_path / "queries.json"
        qfile.write_text(json.dumps([
            {"kind": "triangles", "tau": 2.0},
            {"kind": "pairs-sum", "tau": 2.0},
        ]))
        out = tmp_path / "results.json"
        code, _ = run_cli(
            "batch", str(qfile), "--n", "50", "--metric", "linf",
            "--backend", "linf-exact", "--output", str(out), "--no-records",
        )
        assert code == 0
        payload = json.loads(out.read_text())
        backends = [q["index"]["backend"] for q in payload["queries"]]
        assert backends[0] == "linf-exact"
        assert backends[1] in ("cover-tree", "vector")
