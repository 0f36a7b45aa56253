#!/usr/bin/env python3
"""The repository benchmark: three serve workloads, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload warm-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` starts ``python -m repro serve --port 0`` (default
settings) as a subprocess, registers the workload's dataset through
``POST /datasets``, warms it, and drives it from this process over one
keep-alive connection in a closed loop for ``--seconds``.  It prints the
end-to-end metrics of ``catalog.END_TO_END``.

``--trace 1`` runs a shorter HTTP phase, then replays the same requests
in this process (``replay.py``) on a ``DatasetRegistry`` of its own,
alternating untraced and traced replays, and prints the per-layer
metrics of ``catalog.PER_LAYER``.

Every answer is checked; any mismatch makes ``correct`` false and the
exit code 1.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records provenance (seed, CPU, versions, commit, host reference loop).

``catalog.py`` defines the workloads and the metric catalogue, including
which end-to-end metric and workload each per-layer metric should move.
``test_perfbench.py`` is the benchmark's self-test at tiny sizes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import service
from catalog import END_TO_END, PER_LAYER, WORKLOADS, event_batches, query_body

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The per-layer self times of a traced request must sum to that
#: request's replay time, measured around the replay call, within this
#: share (median over the replayed requests).  The traced-vs-untraced
#: difference is reported as trace.overhead_pct, not gated: it is host
#: noise plus the tracer's own cost.
SELF_TIME_TOLERANCE = 0.02
#: Setups per run (ingest cycles at least this many); setup_s is their median.
SETUPS = 5
#: A run times at least this many operations, so ten lie beyond p95 ...
MIN_OPS = 200
#: ... unless that would stretch the timed phase past this multiple of
#: --seconds on a slow host; the run's total time stays bounded.
MAX_STRETCH = 1.5
#: Share of a --trace 1 run spent on the HTTP phase.
TRACE_HTTP_SHARE = 0.4
#: Where span dumps and the cross-run determinism record are written.
STATE_DIR = ROOT / ".perfbench"


class Failure(Exception):
    """A correctness gate tripped."""


# ----------------------------------------------------------------------
# Provenance and host drift
def host_ref_ms() -> float:
    """Median of five timings of a fixed pure-Python loop."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def provenance(seed: int) -> Dict[str, Any]:
    import numpy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "code": code_hash(),
    }


def code_hash() -> str:
    """Content hash of the program and the benchmark: "identical runs" key."""
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_determinism(key: str, exact: Dict[str, Any]) -> None:
    """Exact counts must repeat across runs of one seed on the same code.

    The first run records them under ``.perfbench/``; every later run
    with the same key compares, and a difference is nondeterminism.
    """
    STATE_DIR.mkdir(exist_ok=True)
    path = STATE_DIR / f"exact-{key}.json"
    encoded = json.loads(json.dumps(exact, sort_keys=True))
    if path.is_file():
        before = json.loads(path.read_text())
        if before != encoded:
            raise Failure(
                f"nondeterminism: exact counts differ from an earlier identical run "
                f"({path.name}): {before} != {encoded}"
            )
    else:
        path.write_text(json.dumps(encoded, sort_keys=True))


# ----------------------------------------------------------------------
def percentile(values: List[float], q: float) -> float:
    """Inclusive-method percentile (``q`` in (0, 100))."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def require(cond: bool, message: str) -> None:
    if not cond:
        raise Failure(message)


class Run:
    """State shared by the phases of one benchmark invocation."""

    def __init__(self, workload, seed: int) -> None:
        from repro.datasets import workload_from_spec

        self.wl = workload
        self.seed = seed
        self.spec = workload.dataset_spec(seed)
        self.tps = workload_from_spec(self.spec)
        self.queries = workload.resolve(
            self.tps.points, self.tps.starts, self.tps.ends, self.spec["metric"])
        self.attempted = 0
        self.failed = 0
        self.events: List[str] = []
        if workload.cycle_ops:
            self.events = event_batches(workload, seed, self.tps.points)

    def inputs_key(self) -> str:
        """Hash of everything the program receives in this run."""
        doc = json.dumps([self.spec, self.queries, self.events], sort_keys=True)
        return hashlib.sha256(doc.encode()).hexdigest()[:12]

    # ------------------------------------------------------------------
    # HTTP phase
    def http_phase(self, seconds: float, min_ops: int) -> Dict[str, Any]:
        server = service.ServerProcess(ROOT)
        client = service.Client(server.host, server.port)
        try:
            if self.wl.cycle_ops:
                out = self._http_ingest(client, seconds, min_ops)
            else:
                out = self._http_queries(client, seconds, min_ops)
            require(self.failed == 0, f"{self.failed} operations failed")
            out["peak_rss_mb"] = server.peak_rss_mb()
            return out
        finally:
            server.stop(client)
            client.close()

    def _register(self, client, name: str) -> None:
        status, doc = client.json("POST", "/datasets", {"name": name, "dataset": self.spec})
        require(status == 201, f"POST /datasets answered {status}: {doc}")

    def _query(self, client, name: str) -> Tuple[float, Dict[str, Any], bytes]:
        body = query_body(name, self.queries, self.wl.include_records)
        t0 = time.perf_counter()
        status, data = client.request("POST", "/query", body)
        dt = time.perf_counter() - t0
        if status != 200:
            return dt, {"ok": False, "status": status}, data
        return dt, service.parse_stream(data), data

    def _op_failed(self, reply: Dict[str, Any]) -> bool:
        bad = not reply["ok"] or not reply.get("record_lines_consistent", True)
        self.attempted += 1
        self.failed += bad
        return bad

    def _http_queries(self, client, seconds: float, min_ops: int) -> Dict[str, Any]:
        setups = []
        first = None
        for k in range(SETUPS):
            name = f"bench-{k}"
            t0 = time.perf_counter()
            self._register(client, name)
            _dt, reply, _ = self._query(client, name)
            setups.append(time.perf_counter() - t0)
            require(reply["ok"], f"warm-up query failed: {reply}")
            first = first or reply
            if k:
                status, _doc = client.json("DELETE", f"/datasets/bench-{k - 1}")
                require(status == 200, f"DELETE /datasets answered {status}")
        name = f"bench-{SETUPS - 1}"
        latencies: List[float] = []
        records = 0
        builds = set()
        record_bytes = set()
        t_end = time.perf_counter() + seconds
        t_cap = t_end + (MAX_STRETCH - 1) * seconds
        while ((time.perf_counter() < t_end or len(latencies) < min_ops)
               and time.perf_counter() < t_cap):
            dt, reply, _ = self._query(client, name)
            if self._op_failed(reply):
                continue
            latencies.append(dt)
            records += reply["records"]
            require(reply["counts"] == first["counts"],
                    "per-(query, tau) counts changed between identical requests")
            builds.add(reply["cache_builds"])
            record_bytes.add(reply["record_bytes"])
        require(len(builds) == 1 and len(record_bytes) == 1,
                f"cache builds {builds} or record bytes {record_bytes} moved "
                "between identical requests")
        return {
            "latencies": latencies,
            "records": records,
            "setups": setups,
            "counts": [first["counts"]],
            "exact": {
                "records_per_request": first["records"],
                "record_bytes": record_bytes.pop(),
                "cache_builds_per_request": builds.pop(),
            },
        }

    def _http_ingest(self, client, seconds: float, min_ops: int) -> Dict[str, Any]:
        latencies: List[float] = []
        records = 0
        setups = []
        cycles: List[List[Dict[str, Any]]] = []
        t_end = time.perf_counter() + seconds
        t_cap = t_end + (MAX_STRETCH - 1) * seconds
        name = None
        while len(setups) < SETUPS or (
                (time.perf_counter() < t_end or len(latencies) < min_ops)
                and time.perf_counter() < t_cap):
            if name is not None:
                status, _doc = client.json("DELETE", f"/datasets/{name}")
                require(status == 200, f"DELETE /datasets answered {status}")
            name = f"ingest-{len(cycles)}"
            t0 = time.perf_counter()
            self._register(client, name)
            _dt, reply, _ = self._query(client, name)
            setups.append(time.perf_counter() - t0)
            require(reply["ok"], f"warm-up query failed: {reply}")
            ops = []
            for body in self.events:
                t0 = time.perf_counter()
                status, data = client.request(
                    "POST", f"/datasets/{name}/events", body.encode(),
                    content_type="application/x-ndjson",
                )
                appended = json.loads(data).get("appended") if status == 200 else None
                _dt, reply, _ = self._query(client, name)
                dt = time.perf_counter() - t0
                if (appended is None or appended["rejected"]
                        or appended["accepted"] != self.wl.events_per_append):
                    reply = {"ok": False, "append": appended}
                if self._op_failed(reply):
                    ops.append({"failed": True})
                    continue
                latencies.append(dt)
                records += reply["records"]
                ops.append({
                    "counts": reply["counts"],
                    "cache_builds": reply["cache_builds"],
                    "maintained": appended["maintained_families"],
                    "invalidated": appended["invalidated_families"],
                })
            cycles.append(ops)
        require(self.failed == 0, f"{self.failed} operations failed")
        for ops in cycles[1:]:
            require(ops == cycles[0], "an ingest cycle answered differently from the first")
        # Final state: the triangle records of the last epoch, for the
        # brute-force gate (untimed).
        final_body = json.dumps({
            "dataset": name, "include_records": True,
            "queries": [self.queries[0]],
        }).encode()
        status, data = client.request("POST", "/query", final_body)
        require(status == 200, f"final records query answered {status}")
        first = cycles[0]
        return {
            "latencies": latencies,
            "records": records,
            "setups": setups,
            "counts": [op.get("counts") for op in first],
            "final_triangles": service.collect_records(data, 0),
            "exact": {
                "records_per_op": [sum(op["counts"].values()) for op in first],
                "cache_builds_per_op": [op["cache_builds"] for op in first],
                "maintained": [op["maintained"] for op in first],
                "invalidated": [op["invalidated"] for op in first],
            },
        }

    # ------------------------------------------------------------------
    # In-process replay
    def new_shard(self, registry, name: str):
        t0 = time.perf_counter()
        shard = registry.register(name, self.spec)
        return shard, time.perf_counter() - t0

    def replay_reference(self) -> List[Dict]:
        """Untraced in-process answers of one request or one ingest cycle."""
        from repro.serve.registry import DatasetRegistry

        from replay import Tracer, run_op, run_query

        registry = DatasetRegistry()
        try:
            shard, _ = self.new_shard(registry, "reference")
            tracer = Tracer(False)
            warm = run_query(shard, self.queries, self.wl.include_records, tracer)
            if not self.events:
                return [warm["counts"]]
            return [
                run_op(shard, self.queries, self.wl.include_records, tracer, body)["counts"]
                for body in self.events
            ]
        finally:
            registry.close()

    def check_ingest_final(self, final_triangles: List[Dict], last_counts) -> None:
        """Brute-force and fresh-shard gates on the merged point set."""
        import numpy as np

        from repro.baselines import brute_force_triangle_keys
        from repro.serve.registry import DatasetRegistry

        from replay import Tracer, run_query

        merged = self.tps
        for body in self.events:
            docs = [json.loads(line) for line in body.splitlines()]
            merged = merged.with_events(
                np.asarray([d["point"] for d in docs], dtype=float),
                np.asarray([d["start"] for d in docs], dtype=float),
                np.asarray([d["end"] for d in docs], dtype=float),
            )
        tau = float(self.queries[0]["taus"][0])
        server_keys = {tuple(sorted(r["ids"])) for r in final_triangles}
        truth = brute_force_triangle_keys(merged, tau)
        require(server_keys == truth,
                f"l-inf triangles after ingest differ from brute force: "
                f"{len(server_keys)} reported vs {len(truth)} true")
        registry = DatasetRegistry()
        try:
            fresh = registry.register("fresh", merged)
            counts = run_query(fresh, self.queries, self.wl.include_records,
                               Tracer(False))["counts"]
        finally:
            registry.close()
        require(counts == last_counts,
                "a fresh shard of the merged point set answers differently from "
                "the maintained shard")

    def traced_replay(self, seconds: float) -> Dict[str, Any]:
        """Alternate untraced and traced replays of the workload's operations.

        Query workloads alternate request by request between two warm
        shards.  Ingest cycles alternate whole cycles in ABBA order, each
        on a fresh shard: run in lockstep, the second shard of an epoch
        would reuse the process-wide array layouts the first one built.
        """
        from repro.serve.registry import DatasetRegistry

        from replay import Tracer, run_op, run_query, self_times

        # One untraced pass first, so process-level warm-up (first calls,
        # lazy imports) lands on neither side of the comparison.
        reference = self.replay_reference()
        registry = DatasetRegistry()
        tracers = {"plain": Tracer(False), "traced": Tracer(True)}
        ops: Dict[str, List[List[Dict[str, Any]]]] = {"plain": [], "traced": []}
        registers: List[float] = []
        t_end = time.perf_counter() + seconds

        def start(mode: str, name: str):
            shard, reg = self.new_shard(registry, name)
            registers.append(reg)
            run_query(shard, self.queries, self.wl.include_records, tracers["plain"])
            ops[mode].append([])
            return shard

        def op(mode: str, shard, body: Optional[str]) -> None:
            self.attempted += 1
            ops[mode][-1].append(run_op(shard, self.queries, self.wl.include_records,
                                        tracers[mode], body))

        try:
            if self.events:
                k = 0
                while k < 4 or time.perf_counter() < t_end:
                    mode = ("plain", "traced")[(k + k // 2) % 2]
                    shard = start(mode, f"{mode}-{k}")
                    for body in self.events:
                        op(mode, shard, body)
                    registry.remove(f"{mode}-{k}")
                    k += 1
            else:
                shards = {mode: start(mode, mode) for mode in tracers}
                k = 0
                while k < 2 or time.perf_counter() < t_end:
                    for mode in (("plain", "traced"), ("traced", "plain"))[k % 2]:
                        op(mode, shards[mode], None)
                    k += 1
        finally:
            registry.close()
        cycles = ops["plain"] + ops["traced"]
        if self.events:
            answers = [[o["counts"] for o in cycle] for cycle in cycles]
        else:
            answers = [[o["counts"]] for cycle in cycles for o in cycle]
        require(all(a == reference for a in answers),
                "traced and untraced replays disagree")
        per_request = self_times(tracers["traced"])
        return {
            "untraced_s": [o["seconds"] for cycle in ops["plain"] for o in cycle],
            "traced": [o for cycle in ops["traced"] for o in cycle],
            "self": [per_request[k] for k in sorted(per_request)],
            "registers": registers,
            "counts": reference,
            "spans": tracers["traced"].spans,
        }


# ----------------------------------------------------------------------
def end_to_end(run: Run, seconds: float) -> Dict[str, float]:
    http = run.http_phase(seconds, MIN_OPS)
    reference = run.replay_reference()
    if run.events:
        first = http["counts"]
        require(len(first) == len(reference) and all(
            a == b for a, b in zip(first, reference)),
            "server counts differ from the in-process replay")
        run.check_ingest_final(http["final_triangles"], reference[-1])
    else:
        require(http["counts"][0] == reference[0],
                "server counts differ from the in-process replay")
    check_determinism(f"{run.wl.name}-e2e-{run.inputs_key()}-{code_hash()}",
                      http["exact"])
    lat_ms = [x * 1e3 for x in http["latencies"]]
    require(http["records"] > 0, "no operation reported records")
    return {
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p95_ms": percentile(lat_ms, 95),
        "us_per_record": sum(lat_ms) * 1e3 / http["records"],
        "setup_s": statistics.median(http["setups"]),
        "peak_rss_mb": http["peak_rss_mb"],
    }


def per_layer(run: Run, seconds: float) -> Dict[str, float]:
    http = run.http_phase(seconds * TRACE_HTTP_SHARE, 1)
    rep = run.traced_replay(seconds * (1 - TRACE_HTTP_SHARE))
    first = http["counts"]
    require(all(a == b for a, b in zip(first, rep["counts"])) and rep["counts"],
            "server counts differ from the in-process replay")
    STATE_DIR.mkdir(exist_ok=True)
    with open(STATE_DIR / f"spans-{run.wl.name}-{run.seed}.jsonl", "w") as fh:
        for span in rep["spans"]:
            fh.write(json.dumps(dict(zip(
                ("id", "name", "start", "end", "parent", "request"), span))) + "\n")

    selfs = rep["self"]
    ops = rep["traced"]
    gaps = []
    for per, op in zip(selfs, ops):
        total = sum(v for k, v in per.items() if not k.startswith("_"))
        wall_ms = op["seconds"] * 1e3
        gaps.append(abs(total - wall_ms) / wall_ms)
    gap = statistics.median(gaps)
    require(len(selfs) == len(ops) and gap <= SELF_TIME_TOLERANCE,
            f"per-layer self times miss {gap:.1%} of the replayed request time "
            f"(tolerance {SELF_TIME_TOLERANCE:.0%})")
    untraced_ms = statistics.median(rep["untraced_s"]) * 1e3
    traced_ms = statistics.median(op["seconds"] for op in ops) * 1e3

    def med(metric: str) -> float:
        return statistics.median(p.get(metric, 0.0) for p in selfs)

    records = sum(o["records"] for o in ops)
    legacy = sum(o["legacy_records"] for o in ops)
    backend_ms = sum(p.get("backends.query_ms", 0.0) for p in selfs)
    calls = sum(o["cache_calls"] for o in ops)
    appends = [o["append"] for o in ops if o["append"] is not None]
    http_ms = statistics.median(http["latencies"]) * 1e3
    exact = {
        "records_per_op": [o["records"] for o in ops[: max(1, len(run.events))]],
        "record_bytes": ops[0]["record_bytes"],
        "cache_builds_per_op": [o["cache_builds"] for o in ops[: max(1, len(run.events))]],
        "families": [[a["maintained_families"], a["invalidated_families"]]
                     for a in appends[: len(run.events)]],
    }
    check_determinism(f"{run.wl.name}-trace-{run.inputs_key()}-{code_hash()}", exact)
    return {
        "serve.residual_ms": http_ms - untraced_ms,
        "serve.serialize_ms": med("serve.serialize_ms"),
        "serve.bytes_per_record": (
            sum(o["record_bytes"] for o in ops) / records if records else 0.0),
        "engine.plan_ms": med("engine.plan_ms"),
        "engine.cache_ms": med("engine.cache_ms"),
        "engine.cache_builds": statistics.median(o["cache_builds"] for o in ops),
        "engine.cache_hit_ratio": (
            sum(o["cache_hits"] for o in ops) / calls if calls else 1.0),
        "backends.query_ms": med("backends.query_ms"),
        "backends.us_per_record": backend_ms * 1e3 / legacy if legacy else 0.0,
        "backends.records": statistics.median(o["legacy_records"] for o in ops),
        "lang.eval_ms": med("lang.eval_ms"),
        "serve.append_ms": med("serve.append_ms"),
        "serve.maintained_families": (
            statistics.median(len(a["maintained_families"]) for a in appends)
            if appends else 0.0),
        "serve.invalidated_families": (
            statistics.median(len(a["invalidated_families"]) for a in appends)
            if appends else 0.0),
        "serve.register_s": statistics.median(rep["registers"]),
        "replay.other_ms": med("replay.other_ms"),
        "replay.request_ms": untraced_ms,
        "trace.overhead_pct": (traced_ms - untraced_ms) / untraced_ms * 100.0,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    run = Run(WORKLOADS[args.workload], args.seed)
    prov = provenance(args.seed)
    prov["workload"] = args.workload
    ref_start = host_ref_ms()
    correct = True
    metrics: Dict[str, float] = {}
    try:
        if args.trace:
            metrics = per_layer(run, args.seconds)
        else:
            metrics = end_to_end(run, args.seconds)
    except Failure as exc:
        print(f"correctness gate: {exc}", file=sys.stderr)
        correct = False
    ref_end = host_ref_ms()
    prov["host_ref_ms"] = {"start": ref_start, "end": ref_end}
    if args.trace:
        metrics["host.ref_ms"] = statistics.median([ref_start, ref_end])
    units = {name: unit for name, unit, _ in END_TO_END}
    units.update({m["name"]: m["unit"] for m in PER_LAYER})
    print(json.dumps({"provenance": prov}))
    print(json.dumps({
        "correct": correct and run.failed == 0,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct and run.failed == 0 else 1


if __name__ == "__main__":
    # A terminated run still stops its server (the finally clauses run).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
