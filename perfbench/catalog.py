"""What the benchmark runs and what it reports.

Everything the program receives is generated here from the run's seed:
the dataset spec registered through ``POST /datasets``, the one query
batch every request of a workload carries, and the NDJSON event batches
of ``ingest-mix``.  The metric catalogue below is the single source of
the names, units and directions in ``BENCHMARK.json``; the self-test
asserts the two agree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

#: (name, unit, better) of every end-to-end metric, printed with --trace 0.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p95_ms", "ms", "lower"),
    ("us_per_record", "us", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Per-layer metrics, printed with --trace 1.  Each entry names the
#: public call it times, the end-to-end metric it should move, and the
#: workloads where it is large and near zero.  Self times are medians
#: over replayed requests (or operations, on ingest-mix).
PER_LAYER: Tuple[Dict[str, str], ...] = (
    {"name": "serve.residual_ms", "unit": "ms", "better": "lower",
     "times": "HTTP request median minus in-process replay median: parsing, "
              "admission, executor hop, chunked writes, client read",
     "moves": "latency_p50_ms", "large": "records-stream", "small": "warm-sweep"},
    {"name": "serve.serialize_ms", "unit": "ms", "better": "lower",
     "times": "repro.engine.record_to_dict + json.dumps of the NDJSON lines",
     "moves": "us_per_record", "large": "records-stream", "small": "warm-sweep"},
    {"name": "serve.bytes_per_record", "unit": "B/record", "better": "lower",
     "times": "bytes of the records lines per reported record (a count)",
     "moves": "us_per_record", "large": "records-stream", "small": "warm-sweep"},
    {"name": "engine.plan_ms", "unit": "ms", "better": "lower",
     "times": "QuerySpec.from_dict + plan_batch (repro.lang compile included)",
     "moves": "latency_p50_ms", "large": "warm-sweep", "small": "records-stream"},
    {"name": "engine.cache_ms", "unit": "ms", "better": "lower",
     "times": "IndexCache.get_or_build",
     "moves": "latency_p50_ms, latency_p95_ms, setup_s", "large": "ingest-mix",
     "small": "warm-sweep"},
    {"name": "engine.cache_builds", "unit": "count", "better": "lower",
     "times": "index builds per operation",
     "moves": "latency_p50_ms, latency_p95_ms, setup_s", "large": "ingest-mix",
     "small": "warm-sweep"},
    {"name": "engine.cache_hit_ratio", "unit": "ratio", "better": "higher",
     "times": "cache hits over IndexCache.get_or_build calls",
     "moves": "latency_p50_ms", "large": "warm-sweep", "small": "ingest-mix"},
    {"name": "backends.query_ms", "unit": "ms", "better": "lower",
     "times": "plan.runner(index, tau) for the legacy kinds",
     "moves": "latency_p50_ms, us_per_record", "large": "warm-sweep",
     "small": "records-stream"},
    {"name": "backends.us_per_record", "unit": "us", "better": "lower",
     "times": "backends.query_ms per record the legacy runners report",
     "moves": "us_per_record", "large": "warm-sweep", "small": "records-stream"},
    {"name": "backends.records", "unit": "count", "better": "higher",
     "times": "records the legacy runners report per request (a count)",
     "moves": "us_per_record", "large": "warm-sweep", "small": "ingest-mix"},
    {"name": "lang.eval_ms", "unit": "ms", "better": "lower",
     "times": "the runner of pattern-dsl plans",
     "moves": "latency_p50_ms", "large": "warm-sweep", "small": "records-stream"},
    {"name": "serve.append_ms", "unit": "ms", "better": "lower",
     "times": "DatasetShard.append_events",
     "moves": "latency_p50_ms, latency_p95_ms", "large": "ingest-mix",
     "small": "warm-sweep"},
    {"name": "serve.maintained_families", "unit": "count", "better": "higher",
     "times": "index families append_events maintained across the epoch",
     "moves": "latency_p50_ms", "large": "ingest-mix", "small": "warm-sweep"},
    {"name": "serve.invalidated_families", "unit": "count", "better": "lower",
     "times": "index families append_events invalidated",
     "moves": "latency_p50_ms, latency_p95_ms", "large": "ingest-mix",
     "small": "warm-sweep"},
    {"name": "serve.register_s", "unit": "s", "better": "lower",
     "times": "DatasetRegistry.register",
     "moves": "setup_s", "large": "ingest-mix", "small": "records-stream"},
    {"name": "replay.other_ms", "unit": "ms", "better": "lower",
     "times": "self time of the replayed request outside every layer span",
     "moves": "latency_p50_ms", "large": "none", "small": "all"},
    {"name": "replay.request_ms", "unit": "ms", "better": "lower",
     "times": "untraced in-process replay of one request",
     "moves": "latency_p50_ms", "large": "warm-sweep", "small": "none"},
    {"name": "trace.overhead_pct", "unit": "%", "better": "lower",
     "times": "traced minus untraced replay median, over the untraced median",
     "moves": "none", "large": "none", "small": "all"},
    {"name": "host.ref_ms", "unit": "ms", "better": "lower",
     "times": "a fixed pure-Python reference loop, at the start and end of a run",
     "moves": "none (host drift)", "large": "none", "small": "none"},
)

#: Span names of the traced replay, mapped to the per-layer metric that
#: reports their self time.
SPAN_METRICS = {
    "engine.plan": "engine.plan_ms",
    "engine.cache": "engine.cache_ms",
    "backends.query": "backends.query_ms",
    "lang.eval": "lang.eval_ms",
    "serve.serialize": "serve.serialize_ms",
    "serve.append": "serve.append_ms",
    "replay.request": "replay.other_ms",
}

DSL_PATTERN = "all(clique(m=3), pairs(agg=union, kappa=3))"


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one registered dataset."""

    name: str
    why: str
    dataset: Dict[str, object]
    queries: List[Dict[str, object]]
    include_records: bool
    #: ingest-mix only: operations per cycle and events per append.
    cycle_ops: int = 0
    events_per_append: int = 0

    def dataset_spec(self, seed: int) -> Dict[str, object]:
        return dict(self.dataset, seed=seed)

    def resolve(self, points: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                metric: str) -> List[Dict[str, object]]:
        """The concrete query batch for one seed's dataset.

        Queries name their thresholds as *ranks*: τ for rank ``k`` lies
        between the ``k``-th and ``k+1``-th largest durability of the
        query's pattern in this dataset, so every seed asks for about the
        same output and the cost of a request does not swing with the
        seed.  Durabilities are computed here with numpy at distance
        threshold 1 (see :func:`durabilities`), not by the program under
        test, which may also report patterns up to distance ``1 + ε``.
        """
        near = _near(points, metric)
        out = []
        for q in self.queries:
            q = dict(q)
            scores = durabilities(q, near, starts, ends)
            q["taus"] = [_tau(scores, k) for k in q.pop("ranks")]
            out.append(q)
        return out


def _near(points: np.ndarray, metric: str) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    dist = np.abs(diff).max(axis=-1) if metric == "linf" else np.sqrt((diff ** 2).sum(-1))
    near = dist <= 1.0
    np.fill_diagonal(near, False)
    return near


def _cliques(near: np.ndarray, m: int) -> List[Tuple[int, ...]]:
    """Every ``m``-clique of the unit-distance graph, members ascending."""
    groups: List[Tuple[int, ...]] = [(i,) for i in range(len(near))]
    for _ in range(m - 1):
        groups = [
            g + (int(k),) for g in groups
            for k in np.nonzero(near[list(g)].all(axis=0))[0] if k > g[-1]
        ]
    return groups


def durabilities(query: Dict[str, object], near: np.ndarray, starts: np.ndarray,
                 ends: np.ndarray) -> np.ndarray:
    """Durabilities of the query's patterns at distance 1, largest first.

    ``triangles``: the length of the members' common lifespan.
    ``pairs-sum``: the smaller of the pair's overlap and its witnesses'
    summed overlap with it.  ``pairs-union``: the smaller of the overlap
    and the union of its witnesses' overlaps (an upper bound of the
    κ-union).  ``cliques`` and ``pattern-dsl``: the pair overlap, since
    a small dataset holds too few durable 4-cliques at distance 1 to rank.
    """
    kind = query["kind"]
    m = 3 if kind == "triangles" else 2
    groups = np.asarray(_cliques(near, m), dtype=int).reshape(-1, m)
    lo = starts[groups].max(axis=1)
    hi = ends[groups].min(axis=1)
    score = hi - lo
    if kind in ("pairs-sum", "pairs-union"):
        p, q = groups[:, 0], groups[:, 1]
        witness = near[p] & near[q]
        cover = np.clip(np.minimum(ends[None, :], hi[:, None])
                        - np.maximum(starts[None, :], lo[:, None]), 0.0, None)
        if kind == "pairs-sum":
            support = (cover * witness).sum(axis=1)
        else:
            support = np.array([
                _union_length(starts[w], ends[w], a, b)
                for w, a, b in zip(witness, lo, hi)
            ])
        score = np.minimum(score, support)
    return np.sort(score)[::-1]


def _union_length(s: np.ndarray, e: np.ndarray, lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for a, b in sorted(zip(np.maximum(s, lo), np.minimum(e, hi))):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def _tau(scores: np.ndarray, rank: int) -> float:
    # A rare seed with fewer durable patterns than the rank asks for gets
    # the largest rank it supports; the ladders below sit under the
    # supply of 99% of seeds.
    rank = min(rank, int((scores > 0).sum()) - 1)
    if rank < 1:
        raise ValueError("the dataset has fewer than two durable patterns to rank")
    return round(float(scores[rank - 1] + scores[rank]) / 2.0, 6)


def query_body(dataset_name: str, queries: List[Dict[str, object]],
               include_records: bool) -> bytes:
    return json.dumps({
        "dataset": dataset_name,
        "queries": queries,
        "include_records": include_records,
    }).encode()


#: Threshold ranks of the warm-sweep ladders (see Workload.resolve): each
#: ladder asks for about the same number of patterns on every seed.  The
#: explicit epsilon=0.1 keeps the band of patterns reported between
#: distance 1 and 1 + epsilon thin, so the ranks pin the output counts.
_PAIR_LADDER = [48, 39, 32, 26, 21, 16, 12, 9]
_TRIANGLE_LADDER = [24, 20, 16, 13, 10, 8, 6, 4]
_OVERLAP_LADDER = [105, 84, 69, 56, 44, 35, 27, 21]

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="warm-sweep",
            why="8-tau ladders of triangles, pairs-sum, pairs-union, cliques "
                "plus a DSL query on warm indexes, no records: backend kernels "
                "and planning are the request, every cache lookup hits",
            dataset={"workload": "uniform", "n": 150, "density": 8.0, "metric": "l2"},
            queries=[
                {"kind": "triangles", "ranks": _TRIANGLE_LADDER, "epsilon": 0.1},
                {"kind": "pairs-sum", "ranks": _PAIR_LADDER, "epsilon": 0.1},
                {"kind": "pairs-union", "kappa": 3, "ranks": _PAIR_LADDER, "epsilon": 0.1},
                {"kind": "cliques", "m": 4, "ranks": _OVERLAP_LADDER},
                {"kind": "pattern-dsl", "pattern": DSL_PATTERN, "ranks": [27, 17]},
            ],
            include_records=False,
        ),
        Workload(
            name="records-stream",
            why="single-tau low-threshold queries with include_records: record "
                "materialisation, JSON encoding and chunked writes dominate; "
                "no-change control for tau-sweep caching",
            dataset={"workload": "uniform", "n": 400, "density": 8.0, "metric": "l2"},
            queries=[
                {"kind": "triangles", "ranks": [80], "epsilon": 0.1},
                {"kind": "pairs-union", "kappa": 2, "ranks": [150], "epsilon": 0.1},
                {"kind": "pairs-sum", "ranks": [150], "epsilon": 0.1},
            ],
            include_records=True,
        ),
        Workload(
            name="ingest-mix",
            why="l-inf append then read-your-write query: each epoch maintains "
                "the vector index and rebuilds linf-exact, the write side of "
                "the same layers and the only auto pick of linf-exact",
            dataset={"workload": "uniform", "n": 250, "density": 8.0, "metric": "linf"},
            queries=[
                {"kind": "triangles", "ranks": [75]},
                {"kind": "pairs-sum", "ranks": [150], "epsilon": 0.1},
            ],
            include_records=False,
            cycle_ops=20,
            events_per_append=10,
        ),
    )
}


def event_batches(workload: Workload, seed: int, points: np.ndarray) -> List[str]:
    """The NDJSON append bodies of one ingest cycle, from the seed alone.

    New points fill successive strips beside the seed dataset's box, each
    strip as dense as the box, so the dataset grows in extent rather than
    in density and each operation costs about the same.  Lifespans follow
    the uniform workload's defaults (starts in [0, 60), lengths in
    [1, 20)).
    """
    rng = np.random.default_rng([seed, 0xE7E7])
    lo, hi = points.min(axis=0), points.max(axis=0)
    n, dim = points.shape
    per = workload.events_per_append
    # Strip width that keeps the box's point density.
    width = per * float(hi[0] - lo[0]) / n
    bodies = []
    for op in range(workload.cycle_ops):
        x0 = float(hi[0]) + op * width
        pts = rng.uniform(lo, hi, size=(per, dim))
        pts[:, 0] = rng.uniform(x0, x0 + width, size=per)
        starts = rng.uniform(0.0, 60.0, size=per)
        lengths = rng.uniform(1.0, 20.0, size=per)
        bodies.append("\n".join(
            json.dumps({"point": [float(v) for v in p], "start": float(s),
                        "end": float(s + length)})
            for p, s, length in zip(pts, starts, lengths)
        ))
    return bodies
