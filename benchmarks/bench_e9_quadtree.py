"""E9 — Remark 1 / Theorem D.1: the quadtree backend for ℓ_α metrics.

Under ``ℓ_α`` the cover tree can be replaced by a one-level grid
decomposition with the same guarantees; this ablation compares the two
decompositions under the same object-graph solver on identical
workloads (build + query).  The grid cells are the vector backend's
decomposition, so ``backend="vector"`` on the core index selects them.
"""

import pytest

from repro import DurableTriangleIndex

from helpers import TAU, workload

N = 800

#: Decomposition label → the spatial backend name that builds it.
BACKENDS = [
    pytest.param("cover-tree", id="cover-tree"),
    pytest.param("vector", id="grid"),
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("metric", ["l2", "l1"])
def test_backend_query(benchmark, backend, metric):
    idx = DurableTriangleIndex(workload(N, metric), epsilon=0.5, backend=backend)
    result = benchmark.pedantic(idx.query, args=(TAU,), rounds=3, iterations=1)
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["metric"] = metric
    benchmark.extra_info["out"] = len(result)
    benchmark.group = f"E9 backend query ({metric}, n=800)"


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_build(benchmark, backend):
    tps = workload(N)
    benchmark.pedantic(
        lambda: DurableTriangleIndex(tps, epsilon=0.5, backend=backend),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["backend"] = backend
    benchmark.group = "E9 backend build (l2, n=800)"
