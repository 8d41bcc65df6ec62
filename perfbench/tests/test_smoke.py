"""Seconds-long end-to-end runs of every workload, plus the result-line
contract against BENCHMARK.json."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import ROOT
from workloads import WORKLOADS

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(args, cwd=ROOT):
    cmd = SPEC["command"] + list(args)
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_line(proc):
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_the_workloads_and_metrics_the_runner_knows():
    from run import END_TO_END
    from layers import TIMINGS
    # paper-w1000 runs on request but is not in the gated set (README).
    assert [w["name"] for w in SPEC["workloads"]] == [
        name for name in WORKLOADS if name != "paper-w1000"]
    assert [m["name"] for m in SPEC["end_to_end"]] == list(END_TO_END)
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert {t[0] for t in TIMINGS} <= per_layer


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_smoke(workload):
    out = result_line(run(["--workload", workload, "--seed", "5",
                           "--seconds", "1", "--trace", "0"]))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_smoke():
    out = result_line(run(["--workload", "live-ingest", "--seed", "5",
                           "--seconds", "1", "--trace", "1"]))
    assert out["correct"]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert m["trace.joined_frac"] == 1.0
    for name in ("storage.engine.write_batch_ms", "storage.wal.sync_ms",
                 "ingest.controller.submit_ms", "core.tiles.query_ms"):
        assert m[name] > 0, name


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
