"""Smoke test of the perf benchmark: ``pytest benchmarks/perf``.

Outside tier-1 ``testpaths`` on purpose: it runs the whole matrix at smoke
sizes (about 20 s) and checks names and exact outputs, never timings.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _load(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def spec():
    return _load(os.path.join(ROOT, "BENCHMARK.json"))


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "results.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return _load(out), proc.stdout


def test_every_name_is_reported_and_well_formed(spec, smoke):
    results, stdout = smoke
    for workload in spec["workloads"]:
        assert NAME.fullmatch(workload["name"])
        entry = results["workloads"][workload["name"]]
        for metric in spec["end_to_end"]:
            assert NAME.fullmatch(metric["name"])
            reported = entry["metrics"][metric["name"]]
            assert reported["unit"] == metric["unit"]
            assert reported["bound"] == metric["bound"]
            assert reported["median"] > 0
            assert metric["name"] in stdout
        for metric in spec["per_layer"]:
            assert NAME.fullmatch(metric["name"])
            assert entry["layers"][metric["name"]]["unit"] == metric["unit"]
            assert metric["name"] in stdout


def test_exact_outputs_match_the_smoke_oracle(spec, smoke):
    results, __ = smoke
    pinned = _load(os.path.join(HERE, "expected.json"))["smoke"]
    for workload in spec["workloads"]:
        entry = results["workloads"][workload["name"]]
        assert entry["problems"] == []
        assert entry["exact"] == pinned[workload["name"]][0]
    hunts = [results["workloads"][name]["exact"]["report_sha256"]
             for name in ("hunt_pbft_lying", "hunt_pbft_w2_store")]
    assert hunts[0] == hunts[1]


def test_nothing_failed(spec, smoke):
    results, __ = smoke
    for workload in spec["workloads"]:
        metrics = results["workloads"][workload["name"]]["metrics"]
        assert metrics["failed_share"]["median"] == 0
