"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/check_bench.py

They are kept out of the package's test suite (the file name does not match
`test_*.py`), because each smoke pass runs a workload for real.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import endtoend
import layers
import run
from common import PINNED_COUNTS, ROOT, WORKLOADS, Program

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(capsys, workload, trace, seed=3, seconds=0.3):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    detail = json.loads(lines[-2].removeprefix("detail "))
    return code, json.loads(lines[-1]), detail


def test_benchmark_json_matches_the_metrics_printed():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for key, table in (("end_to_end", endtoend.METRICS), ("per_layer", layers.METRICS)):
        assert {m["name"]: (m["unit"], m["better"]) for m in SPEC[key]} == {
            name: spec[:2] for name, spec in table.items()}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64
        assert UNIT.fullmatch(m["unit"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke(capsys, workload, trace):
    code, result, detail = run_bench(capsys, workload, trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["error_rate"] == 0
    table = layers.METRICS if trace else endtoend.METRICS
    assert set(result["metrics"]) == set(table)
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert metric["unit"] == table[name][0]
        assert isinstance(metric["value"], (int, float))
    if trace:
        for instance in WORKLOADS[workload]:
            counts = tuple(detail["by_instance"][f"{instance}.{c}"] for c in layers.COUNTS[:3])
            assert counts == PINNED_COUNTS[instance]
        if workload == "stream-f2_5":
            # over GF(2) every constant is 0 or 1
            assert result["metrics"]["linalg.step1.nontrivial"]["value"] == 0
            assert result["metrics"]["linalg.step3.nontrivial"]["value"] == 0


@pytest.mark.parametrize("trace", [0, 1])
def test_corrupted_product_is_counted_and_fails_the_run(capsys, monkeypatch, trace):
    multiplier = Program().engine.CompiledMultiplier
    honest = multiplier.multiply
    calls = []

    def corrupted(self, x, y):
        z, report = honest(self, x, y)
        calls.append(1)
        if len(calls) % 3 == 0:
            z = (z[0] ^ 1,) + tuple(z[1:])
        return z, report

    monkeypatch.setattr(multiplier, "multiply", corrupted)
    code, result, detail = run_bench(capsys, "stream-f2_5", trace)
    assert code != 0
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert detail["error_rate"] == result["failed"] / result["attempted"]


def test_missing_replay_attribute_reports_layers_absent(capsys, monkeypatch):
    engine = Program().engine
    compile_instance = engine.compile_instance

    class WithoutStep3Matrix:
        """A multiplier that no longer exposes `T_inv_top`."""

        def __init__(self, inner):
            self._inner = inner

        def __getattr__(self, name):
            if name == "T_inv_top":
                raise AttributeError(name)
            return getattr(self._inner, name)

    monkeypatch.setattr(engine, "compile_instance",
                        lambda spec: WithoutStep3Matrix(compile_instance(spec)))
    code, result, detail = run_bench(capsys, "stream-f2_5", 1)
    assert code == 0 and result["correct"]
    assert set(detail["absent"]) == set(layers.REPLAYED_STEPS) | {
        "linalg.step1.nontrivial", "linalg.step3.nontrivial"}
    assert not set(detail["absent"]) & set(result["metrics"])
    assert "engine.multiply.us" in result["metrics"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-f2_5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert not Path(tmp_path / "src").exists()
