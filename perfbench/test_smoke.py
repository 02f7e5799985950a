"""The benchmark's own test: every workload at smoke size, traced and untraced.

    python3 -m pytest perfbench -q

Checks that each run passes its correctness gate and reports exactly the
metrics BENCHMARK.json names, that predictions.json covers the per-layer
metrics, that spans opened in pool threads nest under their submitter, and
that the benchmark refuses to run without the program sources.
"""

import json
import shutil
import subprocess
import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from spans import Recorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_metric(workload, seed, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_predictions_cover_per_layer_metrics():
    pred = json.loads((HERE / "predictions.json").read_text())
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(pred["predictions"]) == names
    assert set(pred["workloads"]) == set(WORKLOADS)
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for pairs in pred["predictions"].values():
        for pair in pairs:
            workload, metric = pair.split(":")
            assert workload in WORKLOADS and metric in e2e


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_pool_thread_spans_nest_under_submitter():
    mod = types.ModuleType("stlab.fake")

    def leaf(x):
        time.sleep(0.05)
        return x

    def parent():
        with mod.ThreadPoolExecutor(max_workers=2) as ex:
            return list(ex.map(mod.leaf, range(4)))

    for fn in (leaf, parent):
        fn.__module__ = mod.__name__
    mod.leaf, mod.parent, mod.ThreadPoolExecutor = leaf, parent, ThreadPoolExecutor
    rec = Recorder()
    rec.install([mod])
    try:
        assert mod.parent() == [0, 1, 2, 3]
    finally:
        rec.uninstall()
    assert mod.leaf is leaf and mod.ThreadPoolExecutor is ThreadPoolExecutor
    stats = rec.stats()
    leaf_calls, leaf_busy, _ = stats["stlab.fake.leaf"]
    _, parent_busy, parent_self = stats["stlab.fake.parent"]
    assert leaf_calls == 4
    assert leaf_busy > 1.5 * parent_busy  # two threads ran the leaves side by side
    assert parent_self < 0.2 * parent_busy  # and their union covers the parent
    assert rec.layer_of["stlab.fake.leaf"] == "fake"
