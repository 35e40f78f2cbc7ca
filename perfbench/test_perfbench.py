"""The benchmark's own test, at toy sizes.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs every workload once untraced and once traced through run.py, and feeds
the divergent config of ROADMAP item 5 through the measuring loop.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workload  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def _bench(name: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("perfbench ")
    return json.loads(lines[-2][len("perfbench "):]), json.loads(lines[-1])


@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_workload_prints_every_metric_and_tracing_keeps_outputs(name):
    report, plain = _result(_bench(name, 0))
    traced_report, traced = _result(_bench(name, 1))
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in BENCH[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert report["error_rate"] == 0.0 and report["result_dev"] == 0.0
    # the wrappers must not change what the program computes
    assert traced_report["outputs"] == report["outputs"] and report["outputs"]
    assert traced["metrics"]["trace.coverage"]["value"] >= 0.9
    assert traced["metrics"]["cli.calls"]["value"] == traced["attempted"]


def test_divergent_config_is_one_failed_call(tmp_path):
    cli = importlib.import_module("dpdopt.cli").cli
    ops = workload.make_ops("ensemble", 0, "toy", str(tmp_path))
    diverging = tmp_path / "diverging.cfg"
    text = (tmp_path / "ensemble-00.cfg").read_text()
    for key, value in (("topology.n", 10), ("schedule.gamma", 0.9), ("schedule.beta", 1),
                       ("schedule.q1", 0.999), ("schedule.q2", 0.9999),
                       ("run.iterations", 500)):
        text = "\n".join(f"{key} = {value}" if line.startswith(key + " ") else line
                         for line in text.splitlines()) + "\n"
    diverging.write_text(text)
    argv = list(ops[0].argv)
    argv[argv.index("--config") + 1] = str(diverging)
    ops.append(workload.Op("diverging", argv, ops[0].check))

    samples = workload.measure(cli, ops, 0.0, None)
    assert [s.ok for s in samples] == [True, False]
    assert samples[1].problem  # today a ValueError from canonical_json_bytes


def test_deviation_is_relative_to_the_reference():
    ref = {"ratios": [0.5, None], "final.x": [1e-30]}
    assert workload.deviation({"ratios": [0.5, math.nan], "final.x": [2e-30]}, ref) < 1e-21
    assert workload.deviation({"ratios": [0.55, math.nan], "final.x": [1e-30]}, ref) == (
        pytest.approx(0.1))
    assert workload.deviation({"ratios": [0.5, 0.1], "final.x": [1e-30]}, ref) == math.inf
    assert workload.deviation({"ratios": [0.5, math.nan]}, ref) == math.inf


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("ensemble", 0, cwd=str(tmp_path))
    assert proc.returncode != 0 and proc.stdout == ""
