"""Smoke test of the benchmark on the bundled ``smoke_zero_vol`` config.

    python3 -m pytest -q perfbench/test_smoke.py

Runs the benchmark command on the ``smoke`` workload (not one of the measured
workloads) in both modes and checks its output contract.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


@functools.lru_cache(maxsize=None)
def run(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section):
    result = run(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_layer_self_times_add_up_to_traced_wall():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench.tracing import LAYER_SPANS

    metrics = {name: m["value"] for name, m in run(1)["metrics"].items()}
    parts = [f"{name}_s" for name in LAYER_SPANS] + ["bench.self_s"]
    assert all(metrics[part] >= 0.0 for part in parts)
    assert sum(metrics[part] for part in parts) == pytest.approx(metrics["trace.wall_s"],
                                                                 rel=1e-9)

    spans_file = ROOT / "perfbench" / "out" / f"spans-smoke-seed{SEED}.jsonl"
    spans = [json.loads(line) for line in spans_file.read_text().splitlines()]
    assert spans
    by_pass: dict[int, list] = {}
    for span in spans:
        by_pass.setdefault(span["pass"], []).append(span)
    for pass_spans in by_pass.values():
        for span in pass_spans:
            assert span["start"] <= span["end"]
            if span["parent"] >= 0:
                parent = pass_spans[span["parent"]]
                assert parent["start"] <= span["start"] and span["end"] <= parent["end"]


def test_predictions_name_real_metrics_and_workloads():
    predictions = json.loads((ROOT / "perfbench" / "predictions.json").read_text())
    metrics = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert set(predictions) == {m["name"] for m in SPEC["per_layer"]}
    for entry in predictions.values():
        assert set(entry["moves"]) <= metrics
        assert set(entry["on"]) | set(entry["unchanged_on"]) <= workloads


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"],
                                             "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
