"""In-process replay of the benchmark's requests, optionally traced.

The replay calls the program's public functions in the order the serve
tier does for one request, but sequentially and in this process:
``QuerySpec.from_dict`` + ``plan_batch`` (span ``engine.plan``),
``IndexCache.get_or_build`` (``engine.cache``), ``plan.runner(index,
tau)`` (``backends.query`` for the legacy kinds, ``lang.eval`` for
``pattern-dsl``), ``record_to_dict`` + ``json.dumps`` of the NDJSON
lines (``serve.serialize``) and, on ingest-mix,
``DatasetShard.append_events`` (``serve.append``).  The root span of an
operation is ``replay.request``.

Spans are recorded by this file, not by the program: name, start, end,
parent and request id, kept in memory and written out at the end.  A
layer's self time is its span's duration minus the union of its
children's intervals, so the self times of one request sum to its root
span's duration.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, List, Optional, Tuple

from repro.engine import QuerySpec, plan_batch, record_to_dict

from catalog import SPAN_METRICS


class Tracer:
    """Collects spans of replayed requests; a disabled tracer records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        #: (span id, name, start, end, parent id, request id)
        self.spans: List[Tuple[int, str, float, float, Optional[int], int]] = []
        self._stack: List[int] = []
        self._request = 0
        self._null = nullcontext()

    def span(self, name: str):
        return self._span(name) if self.enabled else self._null

    @contextmanager
    def _span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((span_id, name, 0.0, 0.0, parent, self._request))
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent, self._request)

    def next_request(self) -> None:
        self._request += 1


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(tracer: Tracer) -> Dict[int, Dict[str, float]]:
    """Per request: per-layer metric name -> summed self time in ms.

    Also returns, under ``"_root_ms"``, the root span's duration, which
    the self times sum to.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _sid, _name, start, end, parent, _req in tracer.spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: Dict[int, Dict[str, float]] = {}
    for sid, name, start, end, parent, req in tracer.spans:
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(sid, [])]
        own = (end - start) - _union_length([c for c in clipped if c[1] > c[0]])
        per = out.setdefault(req, {})
        metric = SPAN_METRICS[name]
        per[metric] = per.get(metric, 0.0) + own * 1e3
        if parent is None:
            per["_root_ms"] = (end - start) * 1e3
    return out


def run_query(shard: Any, queries: List[Dict[str, Any]], include_records: bool,
              tracer: Tracer) -> Dict[str, Any]:
    """Replay one ``POST /query`` of ``queries`` against ``shard``."""
    counts: Dict[Tuple[int, str], int] = {}
    record_bytes = 0
    records = legacy_records = 0
    cache_calls = cache_hits = 0
    with tracer.span("engine.plan"):
        specs = [QuerySpec.from_dict(q) for q in queries]
        plans = plan_batch(specs, shard.tps)
    for i, plan in enumerate(plans):
        if plan.stages:
            target: Any = {}
            for stage in plan.stages:
                with tracer.span("engine.cache"):
                    outcome = shard.cache.get_or_build(stage.key, stage.builder)
                target[stage.name] = outcome.index
                cache_calls += 1
                cache_hits += outcome.hit
            layer = "lang.eval"
        else:
            with tracer.span("engine.cache"):
                outcome = shard.cache.get_or_build(plan.key, plan.builder)
            target = outcome.index
            cache_calls += 1
            cache_hits += outcome.hit
            layer = "backends.query"
        by_tau = {}
        for tau in plan.spec.taus:
            with tracer.span(layer):
                by_tau[tau] = plan.runner(target, tau)
        with tracer.span("serve.serialize"):
            lines = []
            if include_records:
                for tau, recs in by_tau.items():
                    line = json.dumps({
                        "type": "records", "query": i, "tau": tau,
                        "count": len(recs), "records": [record_to_dict(r) for r in recs],
                    }) + "\n"
                    record_bytes += len(line.encode())
                    lines.append(line)
            lines.append(json.dumps({
                "type": "result", "query": i, "kind": plan.spec.kind,
                "ok": True, "counts": {str(t): len(r) for t, r in by_tau.items()},
            }) + "\n")
        for tau, recs in by_tau.items():
            counts[(i, str(tau))] = len(recs)
            records += len(recs)
            if not plan.stages:
                legacy_records += len(recs)
    return {
        "counts": counts,
        "records": records,
        "legacy_records": legacy_records,
        "record_bytes": record_bytes,
        "cache_calls": cache_calls,
        "cache_hits": cache_hits,
        "cache_builds": cache_calls - cache_hits,
    }


def run_op(shard: Any, queries: List[Dict[str, Any]], include_records: bool,
           tracer: Tracer, events: Optional[str] = None) -> Dict[str, Any]:
    """One operation: an optional append, then the query; root-spanned."""
    tracer.next_request()
    report = None
    t0 = time.perf_counter()
    with tracer.span("replay.request"):
        if events is not None:
            with tracer.span("serve.append"):
                report = shard.append_events(events)
        out = run_query(shard, queries, include_records, tracer)
    out["seconds"] = time.perf_counter() - t0
    out["append"] = report
    return out
