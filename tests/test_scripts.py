import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("name, args", [
    ("equidistribution_ladder.py", ["--primes", "101,211,1009"]),
    ("charsum_audit.py", ["--primes", "101,211,1009", "--n-max", "1"]),
])
def test_script_prints_one_row_per_prime(name, args):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()[1:]]
    if name == "equidistribution_ladder.py":
        # the last line is the least-squares log-log slope of star against p
        *lines, (label, slope) = lines
        assert label == "slope"
        fit = np.polyfit([math.log(int(row[0])) for row in lines],
                         [math.log(float(row[2])) for row in lines], 1)[0]
        assert float(slope) == pytest.approx(fit, abs=1e-3)
        assert -1 < float(slope) < 0
    assert [row[0] for row in lines] == ["101", "211", "1009"]


def test_bench_pairs_one_smoke_run_per_side(tmp_path):
    out = tmp_path / "bench.json"
    proc = run_script("bench.py", "--base", str(ROOT), "--change", str(ROOT),
                      "--workload", "vertical", "--pairs", "1", "--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    (workload, bench), = json.loads(out.read_text()).items()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert workload == "vertical" and bench["correct"] and bench["pairs"] == 1
    for side in ("base", "change"):
        (run,) = bench["runs"][side]
        assert run["seed"] == 0 and run["correct"] and run["failed"] == 0
        assert sorted(run["metrics"]) == sorted(names)
        for name in names:
            value = run["metrics"][name]
            assert bench["summary"][side][name] == {"median": value, "q1": value, "q3": value}
        assert {"nproc", "python", "numpy", "git_commit"} <= set(bench["machine"][side])
    assert sorted(bench["change_wins"]) == sorted(names)
    assert set(bench["change_wins"].values()) <= {0, 1}
    # one base run has no spread to compare a difference with
    assert bench["resolved"] == {name: False for name in names}
    base, change = (bench["runs"][side][0]["metrics"] for side in ("base", "change"))
    assert bench["change_over_base"] == pytest.approx(
        {name: change[name] / base[name] - 1 for name in names})


def _bench_module():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def _completed(argv, metrics):
    """A finished run.py process that printed these metrics."""
    record = {"machine": {"nproc": 1}}
    result = {"correct": True, "failed": 0,
              "metrics": {name: {"value": v} for name, v in metrics.items()}}
    return subprocess.CompletedProcess(argv, 0, f"{json.dumps(record)}\n{json.dumps(result)}\n", "")


def test_bench_runs_compile_from_source(tmp_path, monkeypatch):
    # one bytecode prefix per invocation, never the caller's: an untimed
    # --smoke run per side writes it before the first timed run, the timed
    # runs read it with PYTHONDONTWRITEBYTECODE set, and it is removed after
    bench = _bench_module()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    seen = []

    def fake_run(argv, cwd, env, **kwargs):
        seen.append((cwd.name, "--smoke" in argv, env, Path(env["PYTHONPYCACHEPREFIX"]).is_dir()))
        return _completed(argv, {name: 1.0 for name in names})

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    (tmp_path / "b").mkdir()
    (tmp_path / "b" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "shared"))
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")  # the warm-ups write all the same
    out = tmp_path / "bench.json"
    assert bench.main(["--base", str(tmp_path / "a"), "--change", str(tmp_path / "b"),
                       "--workload", "sums", "--pairs", "2", "--out", str(out)]) == 0
    assert [(cwd, smoke) for cwd, smoke, _, _ in seen] == [
        ("a", True), ("b", True), ("a", False), ("b", False), ("b", False), ("a", False)]
    (prefix,) = {env["PYTHONPYCACHEPREFIX"] for _, _, env, _ in seen}
    assert prefix != str(tmp_path / "shared")
    for _, smoke, env, present in seen:
        assert present
        assert env.get("PYTHONDONTWRITEBYTECODE") == (None if smoke else "1")
        assert env["PATH"] == os.environ["PATH"]  # the rest of the environment is passed on
    assert not Path(prefix).exists()
    runs = json.loads(out.read_text())["sums"]["runs"]
    assert [r["seed"] for r in runs["base"]] == [r["seed"] for r in runs["change"]] == [0, 1]


def test_bench_resolves_medians_apart_by_more_than_the_base_spread(tmp_path, monkeypatch):
    # base runs 1.0, 1.1, 1.2, 1.3 (median 1.15, quartiles 1.075 and 1.225);
    # the change reads 0.5 everywhere but peak_rss_mb, where it reads 0.01
    # more than the base: that median differs by less than the spread
    bench = _bench_module()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def fake_run(argv, cwd, env, **kwargs):
        base = 1.0 + 0.1 * int(argv[argv.index("--seed") + 1])
        return _completed(argv, {name: base if cwd.name == "a" else
                                 base + 0.01 if name == "peak_rss_mb" else 0.5
                                 for name in names})

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    (tmp_path / "b").mkdir()
    (tmp_path / "b" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "bench.json"
    assert bench.main(["--base", str(tmp_path / "a"), "--change", str(tmp_path / "b"),
                       "--workload", "sums", "--pairs", "4", "--out", str(out)]) == 0
    entry = json.loads(out.read_text())["sums"]
    assert entry["summary"]["base"]["wall_s"] == pytest.approx(
        {"median": 1.15, "q1": 1.075, "q3": 1.225})
    assert entry["resolved"] == {name: name != "peak_rss_mb" for name in names}
    assert entry["change_wins"] == {name: 0 if name == "peak_rss_mb" else 4 for name in names}
    # the change's median over the base's, minus 1, next to the declared bound:
    # 0.5 / 1.15 - 1 for the times, 1.16 / 1.15 - 1 for peak_rss_mb
    assert entry["change_over_base"] == pytest.approx(
        {name: 0.01 / 1.15 if name == "peak_rss_mb" else 0.5 / 1.15 - 1 for name in names})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert entry["bound"] == {m["name"]: m["bound"] for m in spec}


def test_bench_runs_every_named_workload_into_one_file(tmp_path, monkeypatch):
    # one invocation over two workloads (the first named twice, run once):
    # each gets its own untimed run per side and its pairs, and both entries
    # join the one already in the --out file
    bench = _bench_module()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    seen = []

    def fake_run(argv, cwd, env, **kwargs):
        workload = argv[argv.index("--workload") + 1]
        seen.append((workload, cwd.name, "--smoke" in argv))
        return _completed(argv, {name: 2.0 if workload == "sums" else 1.0 for name in names})

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    (tmp_path / "b").mkdir()
    (tmp_path / "b" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"mixed-cache": {"pairs": 3}}))
    assert bench.main(["--base", str(tmp_path / "a"), "--change", str(tmp_path / "b"),
                       "--workload", "sums", "--workload", "vertical", "--workload", "sums",
                       "--pairs", "2", "--out", str(out)]) == 0
    one = [("a", True), ("b", True), ("a", False), ("b", False), ("b", False), ("a", False)]
    assert seen == [("sums", *r) for r in one] + [("vertical", *r) for r in one]
    entries = json.loads(out.read_text())
    assert sorted(entries) == ["mixed-cache", "sums", "vertical"]
    assert entries["mixed-cache"] == {"pairs": 3}
    for workload, value in (("sums", 2.0), ("vertical", 1.0)):
        entry = entries[workload]
        assert entry["pairs"] == 2 and entry["correct"]
        for side in ("base", "change"):
            assert [r["seed"] for r in entry["runs"][side]] == [0, 1]
            assert entry["summary"][side]["wall_s"]["median"] == value
