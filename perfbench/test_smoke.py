"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench

Checks that every metric named in BENCHMARK.json prints with its unit, that
the correctness checks run, and that the tracer leaves no wrapper behind.
The statistical checks are set for the benchmark's own sizes; at the tiny
sizes some of them may fail, so only that they ran is asserted here.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# per-layer metrics each workload must leave at zero: the bypass predictions
BYPASSED = {
    "identify": ("simulate.", "countermeasures.", "dataset.write_s", "dataset.load_s"),
    "project": ("countermeasures.", "classify."),
    "defend": ("simulate.", "dataset.write_s", "dataset.load_s"),
}


def _tiny_run(workload, trace):
    lines = []
    assert run.run_benchmark(workload, 0, 0.0, trace, tiny=True, emit=lines.append) == 0
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    from tracer import installed_wrappers

    lines, result = _tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for m in expected:
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    assert any(line.startswith("check_fail_ratio = ") for line in lines)

    saved = json.loads((run.RESULTS / f"{workload}-seed0-trace{int(trace)}.json").read_text())
    assert saved["checks"], "no correctness check ran"
    assert result["attempted"] == saved["ops"]["attempted"] + len(saved["checks"])
    assert installed_wrappers() == []
    if trace:
        nonzero = {k for k, v in result["metrics"].items()
                   if k.startswith(BYPASSED[workload]) and v["value"] != 0}
        assert not nonzero, f"bypassed layers did work on {workload}: {sorted(nonzero)}"


def test_tracer_wraps_every_binding_and_restores_it():
    run._import_program()
    from sensorprint import classify, features, metric, preprocess
    from tracer import Tracer, installed_wrappers

    before = (preprocess.build_streams, features.build_streams,
              metric.train_ldml, classify.train_ldml)
    with Tracer():
        assert features.build_streams is preprocess.build_streams
        assert features.build_streams is not before[0]
        assert classify.train_ldml is metric.train_ldml is not before[2]
        assert installed_wrappers()
    assert (preprocess.build_streams, features.build_streams,
            metric.train_ldml, classify.train_ldml) == before
    assert installed_wrappers() == []


def test_layer_metric_table_matches_benchmark_json():
    import layers

    assert [(n, u, b) for n, u, b, _ in layers.PER_LAYER] == \
        [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "identify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
