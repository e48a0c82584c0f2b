"""Smoke runs of every workload through the benchmark's command line."""

import json
import re
import shutil
import subprocess
import sys
from collections import Counter
from itertools import islice
from pathlib import Path
from random import Random

import pytest

from run import PASSES
from workloads import CHAIN_SHAPES, PLANT_EVERY, VERIFY_EVERY, WORKLOADS, chain_shapes

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_lines(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def test_spec_matches_the_benchmark():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


def test_chain_shapes_are_stratified():
    shapes = list(islice(chain_shapes(Random(5)), 300))
    for b in range(0, 300, 30):
        assert Counter(shapes[b:b + 30]) == Counter(2 * CHAIN_SHAPES)
    verified = shapes[::VERIFY_EVERY]
    for b in range(0, 30, 15):
        assert sorted(verified[b:b + 15]) == sorted(CHAIN_SHAPES)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_end_to_end(workload):
    detail, out = result_lines(run("--workload", workload, "--seed", "5", "--smoke"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0
    smoke_items = WORKLOADS[workload].smoke_items
    assert out["attempted"] == PASSES * smoke_items
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())
    if workload == "oracle_heights":
        planted = smoke_items // PLANT_EVERY
        assert detail["by_type"] == {"refused": PASSES * planted}
        assert detail["fail_frac"] == planted / smoke_items
        first = detail["first"]["refused"]
        assert first["seed_index"] == PLANT_EVERY - 1
        assert "trial division bound" in first["reason"]
    else:
        assert detail["fail_frac"] == 0 and detail["by_type"] == {}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_traced_counts_repeat_exactly(workload):
    runs = [result_lines(run("--workload", workload, "--seed", "3", "--smoke", "--trace", "1"))[1]
            for _ in range(2)]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for out in runs:
        assert out["correct"]
        assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    exact = [k for k, unit in want.items() if unit in ("count", "ratio", "calls/call")
             and k != "trace.items_per_s_ratio"]
    first, second = ({k: out["metrics"][k]["value"] for k in exact} for out in runs)
    assert first == second
    assert first["cli.main.calls" if workload == "cli_oneshot" else "forms.diagonalize.calls"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = run("--workload", "witness_chains", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
