"""Smoke test of the benchmark: tiny runs of every workload.

    python3 -m pytest -q bench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that a wrong verdict is counted as failed, and that the benchmark refuses
to run without the library's source tree.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    if workload != "cli":
        assert result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_wrong_verdict_is_counted(monkeypatch):
    args = argparse.Namespace(workload="search", seed=3, seconds=0.1, trace=0, tiny=True)
    lib, queries, workdir = run.setup(args)
    try:
        honest = lib.graphs.is_planar

        def flipped(g, *a, **k):
            rep = honest(g, *a, **k)
            return rep.__class__(not rep.planar, None, None, None, None, rep.note)

        monkeypatch.setattr(lib.graphs, "is_planar", flipped)
        result = run.measure(args, lib, queries, 0.0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    planar_calls = sum(q.kind.startswith("is_planar:") and q.kind != "is_planar:capped" for q in queries)
    assert result["correct"] is False
    assert result["failed"] == planar_calls * result["attempted"] // len(queries)
    assert result["metrics"]["ok_share"]["value"] < 1


def test_refuses_to_run_without_the_library():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run("search", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
