#!/usr/bin/env python3
"""CI benchmark smoke: a small engine-backed batch, timed and archived.

Runs a mixed durable-pattern batch (triangle τ-sweep, SUM/UNION pairs,
cliques) over the n≈200 benchmark workload through the shared-index
:class:`repro.engine.QueryEngine`, and writes ``BENCH_smoke.json`` with
per-query wall times, result counts and cache statistics.  CI uploads
the file as an artifact on every push so the perf trajectory of the
serving path accumulates run over run.

Usage::

    python benchmarks/smoke.py [--n 200] [--out BENCH_smoke.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

from repro import QueryEngine, QuerySpec
from repro.datasets import benchmark_workload

SPECS = [
    {"kind": "triangles", "taus": [4.0, 8.0, 12.0], "label": "tri-sweep"},
    {"kind": "triangles", "tau": 8.0, "epsilon": 0.25, "label": "tri-tight"},
    {"kind": "pairs-sum", "tau": 8.0, "label": "sum"},
    {"kind": "pairs-union", "tau": 8.0, "kappa": 3, "label": "union"},
    {"kind": "cliques", "tau": 6.0, "m": 3, "label": "triads"},
    {"kind": "stars", "tau": 6.0, "m": 3, "label": "stars"},
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=200, help="workload size")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_smoke.json")
    args = parser.parse_args(argv)

    tps = benchmark_workload(args.n, seed=args.seed)
    engine = QueryEngine()
    specs = [QuerySpec.from_dict(s) for s in SPECS]

    t0 = time.perf_counter()
    batch = engine.run_batch(tps, specs)
    wall = time.perf_counter() - t0
    if not batch.ok:
        # run_batch isolates faults per query; the smoke must still fail
        # CI loudly when any of them broke.
        for r in batch:
            if not r.ok:
                print(f"FAIL {r.spec.label}: {r.error}", file=sys.stderr)
        return 1

    payload = {
        "bench": "smoke",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workload": {"n": tps.n, "dim": tps.dim, "metric": tps.metric.name,
                     "seed": args.seed, "fingerprint": tps.fingerprint()},
        "wall_seconds": wall,
        "distinct_indexes": batch.distinct_indexes,
        "cache": batch.cache_stats,
        "queries": [
            {
                "label": r.spec.label,
                "kind": r.spec.kind,
                "taus": list(r.spec.taus),
                "count": r.count,
                "cache_hit": r.cache_hit,
                "build_seconds": r.build_seconds,
                "query_seconds": r.query_seconds,
            }
            for r in batch
        ],
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)

    for q in payload["queries"]:
        source = "cache" if q["cache_hit"] else f"build {q['build_seconds'] * 1e3:6.1f} ms"
        print(
            f"{q['label']:10s} {q['kind']:12s} -> {q['count']:5d} records "
            f"({source}, query {q['query_seconds'] * 1e3:6.1f} ms)"
        )
    print(
        f"smoke: {len(payload['queries'])} queries, "
        f"{payload['distinct_indexes']} indexes built, {wall * 1e3:.1f} ms "
        f"-> {args.out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
