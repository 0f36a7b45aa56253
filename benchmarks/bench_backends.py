#!/usr/bin/env python3
"""Per-backend build/query benchmark → ``BENCH_backends.json``.

This is the calibration loop behind ``backend="auto"``: for every
registered backend eligible for a (dataset shape, query kind) pair, the
bench builds the index from scratch (no cache — builds are the point),
times a τ-sweep query, fits cost-model coefficients from the raw
measurements (:func:`repro.backends.cost.fit_coefficients`), and
records what ``auto`` would choose per shape under both the shipped
default coefficients and the freshly fitted ones.  On ``ℓ_α`` shapes it
also times the object-graph solvers over the vector backend's grid
cells (the record-identical reference the SoA kernels replace) and
gates the vector speedup over that reference.

The output JSON is uploaded as a CI artifact next to ``BENCH_smoke.json``
and ``BENCH_serve.json``; feed it back with
``CostModel.from_bench(json.load(open("BENCH_backends.json")))`` to
recalibrate a registry for your own hardware or data.

Usage::

    python benchmarks/bench_backends.py [--n 400] [--repeat 2]
                                        [--out BENCH_backends.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

from repro.backends import CostModel, default_registry, fit_coefficients
from repro.backends.cost import QueryFeatures
from repro.core.aggregate import SumPairIndex, UnionPairIndex
from repro.core.patterns import PatternIndex
from repro.core.triangles import DurableTriangleIndex
from repro.datasets import workload_from_spec
from repro.engine import QuerySpec
from repro.engine.planner import runner_for

#: Dataset shapes (≥ 2, per the acceptance criterion): a general ℓ2
#: cloud and an ℓ∞ cloud where the exact backend competes too.
SHAPES = [
    {"name": "uniform-l2", "workload": "uniform", "metric": "l2", "seed": 0},
    {"name": "uniform-linf", "workload": "uniform", "metric": "linf", "seed": 1},
]

#: One spec per index family; the τ-sweep sizes the per-report term.
KIND_SPECS = [
    {"kind": "triangles", "taus": [4.0, 8.0]},
    {"kind": "pairs-sum", "taus": [6.0, 10.0]},
    {"kind": "pairs-union", "taus": [6.0], "kappa": 3},
    {"kind": "cliques", "taus": [4.0], "m": 3},
]


#: Object-graph solver per kind: built with ``backend="vector"`` they
#: run over the same grid cells as the SoA kernels (the grid-cell
#: reference of Remark 1).
REFERENCE_CLASS = {
    "triangles": DurableTriangleIndex,
    "pairs-sum": SumPairIndex,
    "pairs-union": UnionPairIndex,
    "cliques": PatternIndex,
}


def _measure(builder, runner, taus, repeat: int):
    """Best-of-``repeat`` build and query wall times (fresh build each)."""
    build_s, query_s = float("inf"), float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        index = builder()
        build_s = min(build_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        for tau in taus:
            runner(index, tau)
        query_s = min(query_s, time.perf_counter() - t0)
    return build_s, query_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=400, help="points per shape")
    parser.add_argument("--repeat", type=int, default=2,
                        help="timing repetitions (best-of)")
    parser.add_argument("--out", default="BENCH_backends.json")
    parser.add_argument(
        "--min-vector-speedup", type=float, default=5.0,
        help="required vector build+query speedup over the object-graph "
             "grid-cell reference (best shape); "
             "enforced only at --n >= 5000, where the SoA kernels have "
             "real batches to amortise over (0 disables the gate)",
    )
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error(f"--repeat must be >= 1, got {args.repeat}")
    if args.n < 10:
        parser.error(f"--n must be >= 10 for meaningful timings, got {args.n}")

    registry = default_registry()
    measurements = []
    reference = []
    auto_choices = {}
    for shape in SHAPES:
        spec_src = {k: v for k, v in shape.items() if k != "name"}
        tps = workload_from_spec({**spec_src, "n": args.n})
        auto_choices[shape["name"]] = {}
        for kind_spec in KIND_SPECS:
            spec = QuerySpec(**kind_spec)
            resolution = registry.resolve(spec, tps)
            auto_choices[shape["name"]][spec.kind] = {
                "chosen": resolution.name,
                "reason": resolution.reason,
                "estimated_costs": resolution.costs,
            }
            for descriptor in registry.serving(spec.kind):
                if not descriptor.supports_metric(tps.metric):
                    continue
                build_s, query_s = _measure(
                    descriptor.make_builder(spec, tps),
                    runner_for(spec),
                    spec.taus,
                    args.repeat,
                )
                row = {
                    "shape": shape["name"],
                    "kind": spec.kind,
                    "backend": descriptor.name,
                    "n": tps.n,
                    "dim": tps.dim,
                    "metric": tps.metric.name,
                    "n_taus": len(spec.taus),
                    "build_seconds": build_s,
                    "query_seconds": query_s,
                }
                measurements.append(row)
                print(
                    f"{shape['name']:>13} {spec.kind:<11} {descriptor.name:<11}"
                    f" build {build_s * 1e3:8.1f} ms  query {query_s * 1e3:8.1f} ms",
                    file=sys.stderr,
                )
            if tps.metric.supports_grid:
                cls = REFERENCE_CLASS[spec.kind]
                build_s, query_s = _measure(
                    lambda: cls(tps, epsilon=spec.epsilon, backend="vector"),
                    runner_for(spec),
                    spec.taus,
                    args.repeat,
                )
                reference.append({
                    "shape": shape["name"],
                    "kind": spec.kind,
                    "build_seconds": build_s,
                    "query_seconds": query_s,
                })
                print(
                    f"{shape['name']:>13} {spec.kind:<11} {'grid-cells':<11}"
                    f" build {build_s * 1e3:8.1f} ms  query {query_s * 1e3:8.1f} ms",
                    file=sys.stderr,
                )

    # Vector speedup ratios over the grid-cell reference per (shape,
    # kind): the SoA backend's reason to exist, recorded so regressions
    # are visible in the artifact and gated below at calibration scale.
    by_key = {(m["shape"], m["kind"], m["backend"]): m for m in measurements}
    by_key.update(
        {(m["shape"], m["kind"], "grid-cells"): m for m in reference}
    )
    speedups = {}
    for shape in SHAPES:
        for kind_spec in KIND_SPECS:
            grid = by_key.get((shape["name"], kind_spec["kind"], "grid-cells"))
            vec = by_key.get((shape["name"], kind_spec["kind"], "vector"))
            if grid is None or vec is None:
                continue
            entry = {
                "build": grid["build_seconds"] / max(vec["build_seconds"], 1e-12),
                "query": grid["query_seconds"] / max(vec["query_seconds"], 1e-12),
                "build_plus_query": (
                    (grid["build_seconds"] + grid["query_seconds"])
                    / max(vec["build_seconds"] + vec["query_seconds"], 1e-12)
                ),
            }
            speedups.setdefault(shape["name"], {})[kind_spec["kind"]] = entry
            print(
                f"{shape['name']:>13} {kind_spec['kind']:<11} vector/grid-cells"
                f" speedup: build {entry['build']:5.2f}x"
                f" query {entry['query']:5.2f}x"
                f" b+q {entry['build_plus_query']:5.2f}x",
                file=sys.stderr,
            )
    best_speedup = max(
        (
            entry["build_plus_query"]
            for per_kind in speedups.values()
            for entry in per_kind.values()
        ),
        default=0.0,
    )
    if args.n >= 5000 and args.min_vector_speedup > 0:
        if best_speedup < args.min_vector_speedup:
            print(
                f"FAIL vector best build+query speedup over grid cells is "
                f"{best_speedup:.2f}x at n={args.n}, required "
                f">= {args.min_vector_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
        print(
            f"vector speedup gate OK: best build+query {best_speedup:.2f}x "
            f">= {args.min_vector_speedup:.2f}x",
            file=sys.stderr,
        )

    fitted = fit_coefficients(measurements)
    fitted_model = CostModel(fitted)
    # Sanity gate: a fit that prices any backend at zero (or below)
    # would make auto dispatch degenerate — fail CI loudly.
    for name, coef in fitted.items():
        if coef.build <= 0 or coef.query <= 0:
            print(f"FAIL degenerate fit for {name}: {coef}", file=sys.stderr)
            return 1

    features = {
        shape["name"]: QueryFeatures(n=args.n, dim=2, metric=shape["metric"])
        for shape in SHAPES
    }
    payload = {
        "bench": "backends",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "n": args.n,
        "repeat": args.repeat,
        "shapes": SHAPES,
        "measurements": measurements,
        "grid_cell_reference": reference,
        "vector_speedup_over_grid": speedups,
        "best_vector_speedup": best_speedup,
        "coefficients": {n: c.as_dict() for n, c in fitted.items()},
        "default_coefficients": registry.cost_model.as_dict(),
        "auto_choices": auto_choices,
        "fitted_estimates": {
            name: {
                backend: fitted_model.estimate(backend, feats)
                for backend in fitted
            }
            for name, feats in features.items()
        },
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {args.out}: {len(measurements)} measurements, "
          f"{len(fitted)} backends fitted")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
