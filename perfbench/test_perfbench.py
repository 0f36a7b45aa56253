"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q

It checks that ``BENCHMARK.json`` and ``catalog.py`` agree, that every
metric prints by name with its unit on every workload (``--trace 0`` and
``--trace 1``), that the correctness gate trips on a corrupted count,
and that the benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import dataclasses
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import catalog  # noqa: E402
import run  # noqa: E402
import service  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_catalog_matches_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["end_to_end"]] == [
        tuple(m) for m in catalog.END_TO_END
    ]
    assert BENCH["per_layer"] == [
        {k: m[k] for k in ("name", "unit", "better")} for m in catalog.PER_LAYER
    ]
    assert {w["name"]: w["why"] for w in BENCH["workloads"]} == {
        name: w.why for name, w in catalog.WORKLOADS.items()
    }
    assert set(catalog.SPAN_METRICS.values()) <= {m["name"] for m in catalog.PER_LAYER}


def _tiny(workload: catalog.Workload) -> catalog.Workload:
    queries = [dict(q, ranks=[max(2, k // 8) for k in q["ranks"]])
               for q in workload.queries]
    return dataclasses.replace(
        workload, dataset=dict(workload.dataset, n=60), queries=queries,
        cycle_ops=min(workload.cycle_ops, 10),
    )


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, workload in list(catalog.WORKLOADS.items()):
        monkeypatch.setitem(catalog.WORKLOADS, name, _tiny(workload))
    monkeypatch.setattr(run, "MIN_OPS", 4)
    monkeypatch.setattr(run, "SETUPS", 2)
    monkeypatch.setattr(run, "STATE_DIR", tmp_path / "state")


def _main(*args: str):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(list(args))
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]), json.loads(lines[-2])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(catalog.WORKLOADS))
def test_every_metric_prints_with_its_unit(tiny, workload, trace):
    code, result, prov = _main("--workload", workload, "--seed", "3",
                               "--seconds", "0.3", "--trace", trace)
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = BENCH["end_to_end"] if trace == "0" else BENCH["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert {"seed", "nproc", "cpu_model", "python", "numpy", "commit",
            "host_ref_ms"} <= set(prov["provenance"])


def test_gate_trips_on_a_corrupted_count(tiny, monkeypatch):
    real = service.parse_stream

    def corrupted(data):
        reply = real(data)
        key = next(iter(reply["counts"]), None)
        if key is not None:
            reply["counts"][key] += 1
        return reply

    monkeypatch.setattr(service, "parse_stream", corrupted)
    code, result, _ = _main("--workload", "records-stream", "--seed", "3",
                            "--seconds", "0.3", "--trace", "0")
    assert code != 0 and result["correct"] is False


def test_count_that_moves_between_runs_is_nondeterminism(tiny):
    args = ("--workload", "warm-sweep", "--seed", "4", "--seconds", "0.3", "--trace", "0")
    assert _main(*args)[0] == 0
    assert _main(*args)[0] == 0  # the second run compares and agrees
    (record,) = run.STATE_DIR.glob("exact-warm-sweep-e2e-*.json")
    doc = json.loads(record.read_text())
    doc["records_per_request"] += 1
    record.write_text(json.dumps(doc))
    code, result, _ = _main(*args)
    assert code != 0 and result["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "warm-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
