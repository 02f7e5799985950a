import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from stlab.cli import emit_histogram, run
from stlab.sato_tate import AngleSample


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def strip_runtime(obj):
    obj = dict(obj)
    obj.pop("runtime_ms")
    return obj


def test_family_check_pass(capsys):
    code, out = run_json(capsys, ["family", "check", "--f", "0,1", "--g", "0,1"])
    assert code == 0
    assert out["nondeg_global"] == "pass"
    assert out["deg_delta"] == 3


def test_family_check_fail_j_constant(capsys):
    code, out = run_json(capsys, ["family", "check", "--f", "0", "--g", "0,0,0,1"])
    assert code == 2
    assert out["nondeg_global"] == "fail"
    assert out["reason"] == "j_constant"


def test_trace_command(capsys):
    code, out = run_json(capsys, ["trace", "--f", "0,1", "--g", "0,1", "-p", "5", "-t", "1"])
    assert code == 0
    assert out["a"] == -3
    assert out["psi"] == pytest.approx(2.306110779611565)


def test_trace_bad_reduction_exit_2(capsys):
    code = run(["trace", "--f", "0,1", "--g", "0,1", "-p", "31", "-t", "1"])
    assert code == 2


def test_usage_error_exit_1(capsys):
    assert run(["trace", "--f", "0,1"]) == 1
    assert run(["no-such-command"]) == 1
    assert run(["family", "check", "--f", "0", "--g", "0"]) == 1


def test_sums_degree_below_one_exit_1(capsys):
    for n in ("0", "-1"):
        for kind in ("vaughan", "mobius", "prime-sym"):
            code = run(["sums", kind, "--f", "0,1", "--g", "0,1", "-p", "101",
                        "-L", "100", "-n", n])
            assert code == 1
            assert capsys.readouterr().out == ""


def test_refused_exit_3(capsys):
    code = run(["verify", "charsum", "--f", "0,1", "--g", "0,1",
                "-p", "4194319", "--n-max", "1"])
    assert code == 3


def test_trace_above_table_limit_refused_before_allocating(capsys):
    # 8388617 is the first prime above TABLE_LIMIT = 2**23; one int64 array of
    # that length alone would be 67 MB
    tracemalloc.start()
    try:
        code = run(["trace", "--f", "0,1", "--g", "0,1", "-p", "8388617", "-t", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "8388608" in capsys.readouterr().err
    assert peak < 4 << 20


def test_cache_error_exit_4(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("garbage\n")
    code = run(["cache", "stats", "--cache", str(path), "--f", "0,1", "--g", "0,1"])
    assert code == 4


def test_experiment_schema_keys(capsys):
    code, out = run_json(capsys, [
        "experiment", "vertical-subgroup", "--f", "0,1", "--g", "0,1",
        "-p", "101", "-r", "50"])
    assert code == 0
    for key in ("command", "family_fingerprint", "params", "mu",
                "count_or_average", "bracket", "ratio", "runtime_ms"):
        assert key in out
    assert out["command"] == "experiment vertical-subgroup"


def test_experiment_nondeg_exit_2(capsys):
    code = run(["experiment", "vertical-subgroup", "--f", "0", "--g", "0,1",
                "-p", "101", "-r", "50"])
    assert code == 2


def test_rerun_byte_identical(capsys):
    argv = ["experiment", "vertical-primes", "--f", "0,1", "--g", "0,1",
            "-p", "101", "-L", "200", "--alpha", "0.5", "--beta", "2.5"]
    code1, out1 = run_json(capsys, argv)
    code2, out2 = run_json(capsys, argv)
    assert code1 == code2 == 0
    assert json.dumps(strip_runtime(out1)) == json.dumps(strip_runtime(out2))


def test_emit_histogram_masses():
    empty = AngleSample(np.array([]))
    rows = emit_histogram(empty, 1)
    assert rows[0][2] == 0 and rows[0][3] == pytest.approx(1.0)
    rows = emit_histogram(empty, 2)
    assert [r[3] for r in rows] == [pytest.approx(0.5), pytest.approx(0.5)]
    with pytest.raises(ValueError):
        emit_histogram(empty, 0)
    sample = AngleSample(np.array([0.2, 1.3, 2.9, math.pi]))
    for bins in (1, 7, 30):
        rows = emit_histogram(sample, bins)
        assert sum(r[2] for r in rows) == 4
        assert sum(r[3] for r in rows) == pytest.approx(1.0, abs=1e-9)


def test_angles_csv_and_svg(tmp_path, capsys):
    csv = tmp_path / "h.csv"
    svg = tmp_path / "h.svg"
    code, out = run_json(capsys, [
        "angles", "--f", "0,1", "--g", "0,1", "-p", "101", "--kind", "full",
        "--bins", "12", "--csv", str(csv), "--svg", str(svg)])
    assert code == 0
    assert out["m"] == 99  # two residues of F_101 are bad for this family
    lines = csv.read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count,st_mass"
    assert len(lines) == 13
    total_mass = sum(float(line.split(",")[3]) for line in lines[1:])
    assert total_mass == pytest.approx(1.0, abs=1e-4)  # 6-decimal rounding
    counts = sum(int(line.split(",")[2]) for line in lines[1:])
    assert counts == out["m"]
    body = svg.read_text()
    assert body.startswith("<svg") and "polyline" in body


def test_angles_subgroup_kind(capsys):
    code, out = run_json(capsys, [
        "angles", "--f", "0,1", "--g", "0,1", "-p", "101", "--kind", "subgroup",
        "-r", "25"])
    assert code == 0
    assert out["params"]["set"] == "subgroup:p=101:r=25"
    assert out["m"] <= 25


def test_angles_interval_negative_n_exit_1(capsys):
    code = run(["angles", "--f", "0,1", "--g", "0,1", "-p", "101", "--kind", "interval",
                "-M", "0", "-N", "-5"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "N must be >= 0" in captured.err


def test_env_cache_override(tmp_path, capsys, monkeypatch):
    env_path = tmp_path / "env_cache.txt"
    flag_path = tmp_path / "flag_cache.txt"
    monkeypatch.setenv("STLAB_CACHE", str(env_path))
    code, _ = run_json(capsys, [
        "experiment", "mixed-product", "--f", "0,1", "--g", "0,1",
        "-x", "30", "--set-u", "1..3", "--set-v", "1..3",
        "--cache", str(flag_path)])
    assert code == 0
    assert env_path.exists() and not flag_path.exists()


def test_torn_cache_tail_recovers(tmp_path, capsys):
    path = tmp_path / "c.txt"
    argv = ["experiment", "mixed-product", "--f", "0,1", "--g", "0,1",
            "-x", "60", "--set-u", "1..4", "--set-v", "1..4", "--cache", str(path)]
    stats = ["cache", "stats", "--cache", str(path), "--f", "0,1", "--g", "0,1"]
    code, before = run_json(capsys, argv)
    assert code == 0
    whole = path.read_bytes()
    rows = whole.decode().splitlines()[1:]

    # a crash in the middle of the last row: the rerun recomputes that row,
    # truncates the torn tail and leaves the file as it was
    path.write_bytes(whole[:-3])
    code, after = run_json(capsys, argv)
    assert code == 0
    assert strip_runtime(after) == strip_runtime(before)
    assert path.read_bytes() == whole

    # a torn row the run never needs: skipped on load, the report unchanged
    with open(path, "a", encoding="ascii") as fh:
        fh.write("101,7")
    code, after = run_json(capsys, argv)
    assert code == 0
    assert strip_runtime(after) == strip_runtime(before)
    code, out = run_json(capsys, stats)
    assert code == 0 and out["rows"] == len(rows)


def test_sums_orders_command(capsys):
    code, out = run_json(capsys, ["sums", "orders", "-x", "20", "--lam", "2",
                                  "--window-y", "3"])
    assert code == 0
    assert out["order_sum"] == pytest.approx(1.4472222222222222)
    assert out["divisor_window_count"] == 6


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "stlab.cli", "family", "check", "--f", "0,1", "--g", "0,1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["nondeg_global"] == "pass"
