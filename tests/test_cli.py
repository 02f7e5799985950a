import argparse
import hashlib
import json
import math
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stlab.cli import COMMANDS, emit_histogram, run
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
    # 8388617 is the first prime above TABLE_LIMIT = 2**23
    code = run(["verify", "charsum", "--f", "0,1", "--g", "0,1",
                "-p", "8388617", "--n-max", "1"])
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


@pytest.mark.parametrize("case", ["bad-header", "missing-dir", "directory", "non-ascii"])
def test_cache_error_exit_4(case, tmp_path, capsys):
    path = tmp_path / "c.txt"
    argv = ["cache", "stats", "--cache", str(path), "--f", "0,1", "--g", "0,1"]
    if case == "bad-header":
        path.write_text("garbage\n")
    elif case == "missing-dir":  # refused when the cache is opened, before any trace
        path = tmp_path / "no-such-dir" / "c.txt"
        argv = ["experiment", "mixed-product", "--f", "0,1", "--g", "0,1", "-x", "30",
                "--set-u", "1..3", "--set-v", "1..3", "--cache", str(path)]
    elif case == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"# stlab-cache v1 family=" + b"0" * 16 + b"\n5,1,-3\n5,2,\xe9\n")
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith(f"cache error: {path}")
    if case == "non-ascii":
        assert captured.err.startswith(f"cache error: {path}:3:")


def test_cache_stats_on_a_trace_past_int64_exit_4(tmp_path, capsys):
    from stlab.family import build_family, fingerprint_hex

    big_p = 10**40 + 1  # its Hasse bound, and so this trace, leaves int64
    path = tmp_path / "c.txt"
    path.write_text(f"# stlab-cache v1 family={fingerprint_hex(build_family([0, 1], [0, 1]))}\n"
                    f"{big_p},1,{math.isqrt(4 * big_p)}\n")
    code = run(["cache", "stats", "--cache", str(path), "--f", "0,1", "--g", "0,1"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith(f"cache error: {path}:2: trace a=")


def test_cache_stats_lists_no_keys(tmp_path, monkeypatch, capsys):
    # the rows and primes are read from the per-prime index, not from a
    # tuple per row
    from stlab.family import build_family, fingerprint_hex
    from stlab.store import TraceCache

    def no_keys(self):
        raise AssertionError("cache stats listed every key")

    path = tmp_path / "c.txt"
    path.write_text(f"# stlab-cache v1 family={fingerprint_hex(build_family([0, 1], [0, 1]))}\n"
                    f"101,1,3\n7,{3**60},-2\n101,2,0\n5,1,-3\n")
    monkeypatch.setattr(TraceCache, "keys", no_keys)
    code, out = run_json(capsys, ["cache", "stats", "--cache", str(path), "--f", "0,1",
                                  "--g", "0,1"])
    assert code == 0
    assert [out[k] for k in ("rows", "distinct_primes", "p_min", "p_max")] == [4, 3, 5, 101]


@pytest.mark.parametrize("parent", ["missing", "file"])
def test_cache_dir_refused_before_any_trace(parent, tmp_path, monkeypatch, capsys):
    def no_traces(*args, **kwargs):
        raise AssertionError("trace work started before the cache path was checked")

    monkeypatch.setattr("stlab.experiments.batch_traces", no_traces)
    folder = tmp_path / "d"
    if parent == "file":
        folder.write_text("")
    path = folder / "c.txt"
    code = run(["experiment", "mixed-product", "--f", "0,1", "--g", "0,1", "-x", "30",
                "--set-u", "1..3", "--set-v", "1..3", "--cache", str(path)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith(f"cache error: {path}")


@pytest.mark.parametrize("argv,limit", [
    (["sums", "vaughan", "-p", "101", "-L"], "stlab.experiments.IDENTITY_LIMIT"),
    (["sums", "mobius", "-p", "101", "-L"], "stlab.experiments.IDENTITY_LIMIT"),
    (["sums", "prime-sym", "-p", "101", "-L"], "stlab.experiments.PRIME_SUM_LIMIT"),
    (["sums", "orders", "--lam", "2", "--window-y", "5", "-x"],
     "stlab.param_sets.ORDERS_LIMIT"),
], ids=["vaughan", "mobius", "prime-sym", "orders"])
def test_sums_size_refused_before_any_sieve(argv, limit, monkeypatch, capsys):
    def no_sieve(*args, **kwargs):
        raise AssertionError("a sieve started")

    for name in ("stlab.experiments.sieve_arith", "stlab.experiments.divisor_counts",
                 "stlab.param_sets._prime_mask", "stlab.param_sets._least_prime_factors"):
        monkeypatch.setattr(name, no_sieve)
    module, attr = limit.rsplit(".", 1)
    at = getattr(sys.modules[module], attr)
    fam = [] if "orders" in argv else ["--f", "0,1", "--g", "0,1"]
    assert run([*argv, str(at + 1), *fam]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"refused: {argv[-1].lstrip('-')}={at + 1} exceeds the {at} limit\n"
    with pytest.raises(AssertionError, match="a sieve started"):  # the limit itself is admitted
        run([*argv, str(at), *fam])


@pytest.mark.parametrize("argv,limit", [
    (["angles", "-p", "101", "--kind", "primes", "-L"], "PRIMES_LIMIT"),
    (["experiment", "vertical-primes", "-p", "101", "-L"], "PRIMES_LIMIT"),
    (["experiment", "mixed-primes", "-x", "30", "-L"], "PRIMES_LIMIT"),
    (["experiment", "mixed-product", "--set-u", "1..3", "--set-v", "1..3", "-x"],
     "MIXED_X_LIMIT"),
    (["experiment", "mixed-geometric", "--lam", "2", "-T", "5", "-x"], "MIXED_X_LIMIT"),
    (["experiment", "mixed-primes", "-L", "20", "-x"], "MIXED_X_LIMIT"),
], ids=["angles-L", "vertical-primes-L", "mixed-primes-L", "mixed-product-x",
        "mixed-geometric-x", "mixed-primes-x"])
def test_prime_sieve_size_refused_before_any_sieve(argv, limit, monkeypatch, capsys):
    def no_sieve(*args, **kwargs):
        raise AssertionError("a sieve started")

    for name in ("stlab.param_sets._prime_mask", "stlab.param_sets._least_prime_factors"):
        monkeypatch.setattr(name, no_sieve)
    at = getattr(sys.modules["stlab.experiments"], limit)
    fam = ["--f", "0,1", "--g", "0,1"]
    tracemalloc.start()
    try:
        code = run([*argv, str(at + 1), *fam])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"refused: {argv[-1].lstrip('-')}={at + 1} exceeds the {at} limit\n"
    assert peak < 4 << 20
    with pytest.raises(AssertionError, match="a sieve started"):  # the limit itself is admitted
        run([*argv, str(at), *fam])


@pytest.mark.parametrize("kind", ["vaughan", "mobius"])
@pytest.mark.parametrize("L, cuts", [
    (20_000_000, ["-K", "1", "-M", "1"]),
    (20_000_000, ["-K", "1"]),
    (20_000_000, ["-M", "1.5"]),
    (8_000_000, ["-K", "1", "-M", "1"]),
])
def test_sums_small_cuts_refused_before_any_sieve(kind, L, cuts, monkeypatch, capsys):
    # small K or M make _type_ii's arrays O(L): refused by the memory budget,
    # which the default cuts at the same L stay within
    def no_sieve(*args, **kwargs):
        raise AssertionError("a sieve started")

    for name in ("stlab.experiments.sieve_arith", "stlab.experiments.divisor_counts",
                 "stlab.experiments._psi_of_t"):
        monkeypatch.setattr(name, no_sieve)
    argv = ["sums", kind, "--f", "0,1", "--g", "0,1", "-p", "101", "-L", str(L)]
    assert run([*argv, *cuts]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"refused: cuts K=[\d.]+, M=[\d.]+ at L={L} need about [\d.]+ GB, "
                        r"above the 0.4 GB budget\n", captured.err), captured.err
    with pytest.raises(AssertionError, match="a sieve started"):
        run(argv)


@pytest.mark.parametrize("argv", [
    ["trace", "-p", "3", "-t", "1"],
    ["angles", "-p", "3", "--kind", "full"],
    ["angles", "-p", "3", "--kind", "subgroup", "-r", "1"],
], ids=["trace", "angles-full", "angles-subgroup"])
def test_p3_refused_like_the_experiments(argv, capsys):
    code = run([*argv, "--f", "0,1", "--g", "0,1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "requires p > 3" in captured.err


@pytest.mark.parametrize("argv", [
    ["trace", "-p", "0", "-t", "1"],
    ["trace", "-p", "1", "-t", "1"],
    ["trace", "-p", "2", "-t", "1"],
    ["trace", "-p", "4", "-t", "1"],
    ["trace", "-p", "8", "-t", "1"],
    ["trace", "-p", "9", "-t", "1"],
    ["experiment", "vertical-subgroup", "-p", "9", "-r", "2"],
], ids=lambda argv: f"{argv[0]}-p{argv[argv.index('-p') + 1]}")
def test_non_prime_modulus_exit_1(argv, capsys):
    code = run([*argv, "--f", "0,1", "--g", "0,1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "not an odd prime" in captured.err or "not a prime" in captured.err


ANGLE_KINDS = {
    "full": [],
    "subgroup": ["-r", "1"],
    "product": ["--set-u", "1..3", "--set-v", "1..3"],
    "primes": ["-L", "50"],
    "geometric": ["--lam", "2", "-T", "5"],
    "interval": ["-M", "0", "-N", "10"],
}


@pytest.mark.parametrize("p", ["0", "1", "9"])
@pytest.mark.parametrize("kind", sorted(ANGLE_KINDS))
def test_angles_non_prime_refused_before_the_parameter_set(kind, p, capsys):
    # a subgroup or progression mod a non-prime used to fail inside its
    # builder (factor requires n >= 1, ZeroDivisionError)
    code = run(["angles", "--f", "0,1", "--g", "0,1", "-p", p, "--kind", kind,
                *ANGLE_KINDS[kind]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {p} is not an odd prime\n"


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


@pytest.mark.parametrize("flag", ["--csv", "--svg"])
def test_angles_output_in_missing_dir_exit_1(flag, tmp_path, capsys):
    path = tmp_path / "missing" / "out"
    code = run(["angles", *FAM, "-p", "101", flag, str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"error: {path}: cannot write: No such file or directory\n"


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


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_mixed_threads_below_one_exit_1(capsys, threads):
    code = run(["experiment", "mixed-product", "--f", "0,1", "--g", "0,1",
                "-x", "30", "--set-u", "1..3", "--set-v", "1..3", "--threads", threads])
    assert code == 1
    assert "threads must be >= 1" in capsys.readouterr().err


FAM = ["--f", "0,1", "--g", "0,1"]
FAM_ZM1 = ["--f=0,1", "--g=-1,1"]
MIXED_CACHE = ["experiment", "mixed-product", *FAM, "-x", "60", "--set-u", "1..4",
               "--set-v", "2..5", "--alpha", "0.5", "--beta", "2.5", "--cache", "c.txt"]

# Each case runs its commands in order in one empty directory; the digests
# are sha256 of the reports without runtime_ms and path, recorded at commit
# 03e1f17, so every later change must keep each report byte for byte.
REPORT_CASES = {
    "family-check": [["family", "check", *FAM]],
    "trace": [["trace", *FAM, "-p", "5", "-t", "1"]],
    "angles-full": [["angles", *FAM, "-p", "101", "--bins", "12"]],
    "angles-subgroup": [["angles", *FAM, "-p", "101", "--kind", "subgroup", "-r", "25"]],
    "angles-product": [["angles", *FAM, "-p", "101", "--kind", "product",
                        "--set-u", "1..5", "--set-v", "2..6"]],
    "angles-primes": [["angles", *FAM, "-p", "101", "--kind", "primes", "-L", "200"]],
    "angles-geometric": [["angles", *FAM, "-p", "101", "--kind", "geometric",
                          "--lam", "2", "-T", "30"]],
    "angles-interval": [["angles", *FAM, "-p", "101", "--kind", "interval",
                         "-M", "3", "-N", "40"]],
    "charsum-exhaustive": [["verify", "charsum", *FAM, "-p", "101", "--n-max", "3"]],
    "charsum-subgroup": [["verify", "charsum", *FAM, "-p", "101", "--n-max", "3",
                          "--subgroup-r", "25"]],
    "charsum-sampled": [["verify", "charsum", *FAM, "-p", "101", "--n-max", "3",
                         "--mode", "sampled", "--seed", "7", "--count", "10"]],
    # recorded at commit 2002549, before sampled mode formed each character once
    "charsum-sampled-10007": [["verify", "charsum", "--f", "1,2", "--g", "3,0,1", "-p", "10007",
                               "--n-max", "15", "--mode", "sampled", "--seed", "3",
                               "--count", "100"]],
    "charsum-sampled-subgroup": [["verify", "charsum", *FAM, "-p", "1009", "--n-max", "3",
                                  "--mode", "sampled", "--seed", "7", "--count", "10",
                                  "--subgroup-r", "252"]],
    "vertical-subgroup": [["experiment", "vertical-subgroup", *FAM, "-p", "101", "-r", "50",
                           "--alpha", "0.5", "--beta", "2.5"]],
    "vertical-product": [["experiment", "vertical-product", *FAM, "-p", "101",
                          "--set-u", "1..7", "--set-v", "3..9"]],
    "vertical-primes": [["experiment", "vertical-primes", *FAM, "-p", "101", "-L", "200"]],
    "mixed-product-cold-warm": [MIXED_CACHE, MIXED_CACHE],
    "mixed-geometric": [["experiment", "mixed-geometric", *FAM, "-x", "60", "--lam", "3",
                         "-T", "60", "--alpha", "1.0", "--beta", "2.0"]],
    "mixed-primes": [["experiment", "mixed-primes", *FAM, "-x", "60", "-L", "50"]],
    "sums-vaughan": [["sums", "vaughan", *FAM, "-p", "101", "-L", "300", "-n", "2"]],
    "sums-mobius": [["sums", "mobius", *FAM, "-p", "101", "-L", "300", "-n", "2"]],
    "sums-prime-sym": [["sums", "prime-sym", *FAM, "-p", "101", "-L", "300", "-n", "2"]],
    "sums-orders": [["sums", "orders", "-x", "50", "--lam", "2", "--window-y", "3"]],
    "cache-stats": [MIXED_CACHE, ["cache", "stats", "--cache", "c.txt", *FAM]],
    # f = Z, g = Z - 1 has a j = 0 curve (t = 0) and a j = 1728 curve (t = 1)
    # at every prime, and g = 10009 (1 + Z) makes every good curve at 10009
    # j = 1728; recorded at commit 256e179, while the trace rows still held a
    # row for the cubes and a row for the squares
    "zm1-angles-full": [["angles", *FAM_ZM1, "-p", "10009", "--kind", "full"]],
    "zm1-mixed-product": [["experiment", "mixed-product", *FAM_ZM1, "-x", "2000",
                           "--set-u", "1..20", "--set-v", "0..19"]],
    "zm1-mixed-geometric": [["experiment", "mixed-geometric", *FAM_ZM1, "-x", "3000",
                             "--lam", "2", "-T", "40"]],
    "zm1-charsum-exhaustive": [["verify", "charsum", *FAM_ZM1, "-p", "1009", "--n-max", "4"]],
    "j1728-angles-full": [["angles", "--f=0,1", "--g=10009,10009", "-p", "10009",
                           "--kind", "full"]],
}

REPORT_DIGESTS = {
    "angles-full": [
        "620b704d9d83d14cb58072392c26d10f507576f946df1ddec2677a6ca9a64d9f",
    ],
    "angles-geometric": [
        "81b0901c279fb8b0b1794e8db3eecc7e7e82a9bf5ce080aadd0130dae369f5e8",
    ],
    "angles-interval": [
        "24f5c07bd8d00e0a15f9747ebc136ea261b1b87b77d22e3712bdd65d39abe1f0",
    ],
    "angles-primes": [
        "281d805e571362f6bc1509bb652399b7aef0e44fa3495a4610e1483b07ce6867",
    ],
    "angles-product": [
        "3fdecc1b7cd1c2dad80d40b4646403fe1a89361554d2e7327f1edb1c3231dc64",
    ],
    "angles-subgroup": [
        "9c6324b509b470a6a96fc01e3d567bd84ca97e7b2caf1c492ae484673d14a946",
    ],
    "cache-stats": [
        "8e8abf24e47130fdb56bdbb276dfa0c41f06bee9c6d8d6c958dfcd525b5a1e06",
        "9c0d85b41d33a095f708613357793f72f7999e1b918bc79d5be5cf0c931b9ee4",
    ],
    "charsum-exhaustive": [
        "8d25db0d5b0c5582493296c25a022432d4d6d5766b144f1680d77b627c37a076",
    ],
    "charsum-sampled": [
        "e15ca3465094008b2f7b6670e31bce97e77c53c8a3d46b4f61e2b1da772ca215",
    ],
    "charsum-sampled-10007": [
        "8d3d70d74a0388efb233801c2459cc483952d97ea96e89d1684aa7199549f3a5",
    ],
    "charsum-sampled-subgroup": [
        "d0ce93f6e9036542951c94333f87747c97cdf28562c42e9746b3eff1702b04f5",
    ],
    "charsum-subgroup": [
        "3bd868c3e85f685971cdd0742b4073e19380fa5510d46ef214fc2a58931fbede",
    ],
    "family-check": [
        "908caba04d5136ba85f2ff77771a029e76d5df86eaf8ca77aed7da0735c24037",
    ],
    "j1728-angles-full": [
        "060dd227e48bc8b7e4abdcf34d6ec5499a5aeecb0f7306663f4bbcc35ec660b5",
    ],
    "mixed-geometric": [
        "392ca8abec320680f3a5ae383a390ca283b8b2e40419da2c1248e4fd5ce863b3",
    ],
    "mixed-primes": [
        "614a249a0346de606380395578904b1bdb0b8f2282921df50ab33cebe54f2c64",
    ],
    "mixed-product-cold-warm": [
        "8e8abf24e47130fdb56bdbb276dfa0c41f06bee9c6d8d6c958dfcd525b5a1e06",
        "8e8abf24e47130fdb56bdbb276dfa0c41f06bee9c6d8d6c958dfcd525b5a1e06",
    ],
    "sums-mobius": [
        "51d8ddc6bf36f28385af35ea4a6a2c731d229075796b492481fc2b8b2bea0cb9",
    ],
    "sums-orders": [
        "b1393adfbe9c07663724be57a168bbf46d143fc57b2d8751e6031e7708833b84",
    ],
    "sums-prime-sym": [
        "19063d7edf6d905999640decc292c811de04d84d26b569b6a51775edf596716c",
    ],
    "sums-vaughan": [
        "2f995e5c090bbde6f8d71acc59443eb8055cae712a1975da672e3f2f6ca96928",
    ],
    "trace": [
        "e5b2ef4648d669e495424cde2d84542072d7a17484248cfc6339a4706a62e135",
    ],
    "vertical-primes": [
        "504f1fb507e8776ed9638a39f10ff2103c42ca4359a647f881d63fabb66d1f9c",
    ],
    "vertical-product": [
        "ce70ef88df25dd0d1d5a7e270af6cfc622e853e9efb369642965f04e88f9c0d9",
    ],
    "vertical-subgroup": [
        "72189bde1379e32b9b88a8cb2bae0bbe3c38b29b5c0e810920c77554eea022bf",
    ],
    "zm1-angles-full": [
        "74b7e94f38dc75d151d61cffc4ec9a744bc8b6b066f020accb2d64a85af63765",
    ],
    "zm1-charsum-exhaustive": [
        "43490a5136d5c413813b64dbd0fbe42eaa6e7260ee226575d1089307f48c1301",
    ],
    "zm1-mixed-geometric": [
        "a470bbc4a977609f7af27154d732770426d40d89cee71459ec5416bacfbdffbf",
    ],
    "zm1-mixed-product": [
        "0cb7edde706a3b4db1570caec005dc0276081180c5732116ec7151666caff359",
    ],
}


def report_digests(argvs, capsys):
    digests = []
    for argv in argvs:
        assert run(argv) == 0
        obj = json.loads(capsys.readouterr().out)
        obj.pop("runtime_ms")
        obj.pop("path", None)
        digests.append(hashlib.sha256(json.dumps(obj).encode()).hexdigest())
    return digests


@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_report_bytes_pinned(case, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STLAB_CACHE", raising=False)
    assert report_digests(REPORT_CASES[case], capsys) == REPORT_DIGESTS[case]


# The sums commands at the sizes of the benchmark's sums workload (p = 1009,
# L = 10**6, x = 3 * 10**5), for f = g = Z and for the family that seed 1 of
# the benchmark draws; digests taken as above, recorded at commit e0b4675,
# before the sums loops became array passes.  The four commands of the
# benchmark's vertical workload at seed 0 follow, recorded at commit 23937ed,
# before charsum_verify batched its transforms and before residue_angles and
# _interval_exact dropped their sorts.
BENCH_SIZE_FAMILIES = {"zz": ["--f", "0,1", "--g", "0,1"],
                       "seed1": ["--f=-4,-6,-5", "--g=1,-9,5"]}
VERTICAL_FAM = ["--f=0,1", "--g=0,1"]
BENCH_SIZE_CASES = {
    **{f"{kind}-{name}-n{n}": ["sums", kind, *fam, "-p", "1009", "-L", "1000000",
                               "-n", str(n)]
       for name, fam in BENCH_SIZE_FAMILIES.items()
       for kind in ("vaughan", "mobius") for n in (1, 2)},
    "orders-lam2": ["sums", "orders", "-x", "300000", "--lam", "2", "--window-y", "50"],
    "orders-lam2-half": ["sums", "orders", "-x", "300000", "--lam", "2",
                         "--alpha-exp", "0.5"],
    "orders-lam-6-half": ["sums", "orders", "-x", "300000", "--lam", "-6",
                          "--alpha-exp", "0.5"],
    **{f"vertical-angles-{p}": ["angles", *VERTICAL_FAM, "-p", str(p), "--kind", "full"]
       for p in (1009, 10007, 20011)},
    "vertical-charsum-10007": ["verify", "charsum", *VERTICAL_FAM, "-p", "10007",
                               "--n-max", "5", "--mode", "exhaustive"],
}
BENCH_SIZE_DIGESTS = {
    "vaughan-zz-n1": "9758449a15bdb0e913e5040209cfdf5af376b08f077cc108c4d76d4ff5366428",
    "vaughan-zz-n2": "7e2954ac1cf40a4d52a954c81d842722d151a4516092e7f70b4426650b23e151",
    "mobius-zz-n1": "32045438d793b59dc731439d17bf06943d950c2d19513a82d107e317da444e0e",
    "mobius-zz-n2": "6e57d98d9fc4a92597119ecc2b7d549a81a706683e49b1ac1426799f11850f6e",
    "vaughan-seed1-n1": "1d1d0d04b6d43d554b4bd7f3a697170d332830e28a651bbe8868f4f038abe20c",
    "vaughan-seed1-n2": "8ad2f147d33c0059e1458b2d1d9681faed0eaa44539b996a3697a587950d407d",
    "mobius-seed1-n1": "dd8084a6c07cb07ed2d30525e9f94f80e364aba7a4e36ff8cf029d9b40718546",
    "mobius-seed1-n2": "71f55b18e6768e8ce9a4785d130d397ed5987d55d77689a28d78180cf30dadf7",
    "orders-lam2": "392c2e4eebc76caae7985ba2df8745553d2f40e78871828a3e3adfbcb6a8f727",
    "orders-lam2-half": "f8fa6144d1d05d560f37b3cc3cc75345bbda19dfcfea234789f7d0d8e546c130",
    "orders-lam-6-half": "f9b1a8f277843f4721b70e5aa39759465cdcd9ae26a128a4fa27b6df7073b4a0",
    "vertical-angles-1009": "09dbee181b106f4afbbb73e63755144025565635cad21884dac5e9c8b4220fdb",
    "vertical-angles-10007": "b66adf11f32b5a400db86e47d2ae765883d6a210eb68582ff7e6aaafaf6b3dba",
    "vertical-angles-20011": "67eaf5d808a549c9828cffa2f5c08a41adffe3f34e62219b475c14684fc4babe",
    "vertical-charsum-10007": "ac44cdc11b9129ee7256de2b9bdfbdb18d2b44302e6a86658d907b489a1046f0",
}


@pytest.mark.parametrize("case", sorted(BENCH_SIZE_CASES))
def test_report_bytes_pinned_at_benchmark_size(case, capsys):
    assert report_digests([BENCH_SIZE_CASES[case]], capsys) == [BENCH_SIZE_DIGESTS[case]]


@pytest.mark.parametrize("batch_elements", [1, 4 * 10006, None],
                         ids=["one-row", "four-rows", "default"])
def test_charsum_report_bytes_do_not_depend_on_the_batch(batch_elements, monkeypatch,
                                                          capsys):
    # the default batch holds all 15 rows of period 10006 in one transform;
    # one element per batch still gives one row, so 15 transforms, and four
    # rows give batches of 4, 4, 4 and 3.  The digest was recorded at commit
    # 23937ed, one transform per row.
    from stlab import experiments
    if batch_elements is None:
        assert experiments.CHARSUM_BATCH_ELEMENTS >= 15 * 10006
    else:
        monkeypatch.setattr(experiments, "CHARSUM_BATCH_ELEMENTS", batch_elements)
    argv = ["verify", "charsum", *VERTICAL_FAM, "-p", "10007", "--n-max", "15"]
    assert report_digests([argv], capsys) == [
        "c5a83abc47929c445165f2c0fb5c011c0468d21c554780582e5f82278fd441af"]


def readme_commands():
    """The `stlab ...` lines of the README's "Command line" block as argv
    lists, with the optional `[...]` groups dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(re.sub(r"\[[^\]]*\]", "", line))[1:]
            for line in block.splitlines() if line.startswith("stlab ")]


def test_readme_commands_run(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STLAB_CACHE", raising=False)
    argvs = readme_commands()
    assert len(argvs) == 15
    for argv in argvs:
        assert run(argv) == 0, argv
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1, argv
        json.loads(lines[0])


@pytest.mark.parametrize("argv, code", [
    ([], 1), (["--help"], 0), (["experiment"], 1), (["experiment", "--help"], 0),
])
def test_command_list(argv, code, capsys):
    assert run(argv) == code
    captured = capsys.readouterr()
    listing, other = (captured.out, captured.err) if code == 0 else (captured.err, captured.out)
    assert other == ""
    for words in COMMANDS:
        assert f"  {words}\n" in listing


def test_one_parser_per_command(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for words in COMMANDS:
        built.clear()
        assert run([*words.split(), "--help"]) == 0
        assert built == [f"stlab {words}"]
        assert capsys.readouterr().out.startswith(f"usage: stlab {words} [-h]")
    built.clear()
    assert run(["trace", *FAM, "-p", "5", "-t", "1"]) == 0
    assert built == ["stlab trace"]


# one small run of every command; only those that take --cache open a cache
EVERY_COMMAND = {
    "family check": [],
    "trace": ["-p", "5", "-t", "1"],
    "angles": ["-p", "101"],
    "verify charsum": ["-p", "101", "--n-max", "1"],
    "experiment vertical-subgroup": ["-p", "101", "-r", "50"],
    "experiment vertical-product": ["-p", "101", "--set-u", "1..3", "--set-v", "1..3"],
    "experiment vertical-primes": ["-p", "101", "-L", "50"],
    "experiment mixed-product": ["-x", "30", "--set-u", "1..3", "--set-v", "1..3"],
    "experiment mixed-geometric": ["-x", "30", "--lam", "2", "-T", "5"],
    "experiment mixed-primes": ["-x", "30", "-L", "20"],
    "sums vaughan": ["-p", "101", "-L", "100"],
    "sums mobius": ["-p", "101", "-L", "100"],
    "sums prime-sym": ["-p", "101", "-L", "100"],
    "sums orders": ["-x", "20", "--lam", "2"],
    "cache stats": ["--cache", "unused.txt"],
}


@pytest.mark.parametrize("bad", ["missing-dir", "not-a-cache"])
def test_stlab_cache_read_only_by_cache_commands(bad, tmp_path, monkeypatch, capsys):
    assert set(EVERY_COMMAND) == set(COMMANDS)
    path = tmp_path / "no-such-dir" / "c.txt"
    if bad == "not-a-cache":
        path = tmp_path / "c.txt"
        path.write_text("garbage\n")
    monkeypatch.setenv("STLAB_CACHE", str(path))
    for words, extra in EVERY_COMMAND.items():
        fam = [] if words == "sums orders" else FAM
        code = run([*words.split(), *fam, *extra])
        captured = capsys.readouterr()
        takes_cache = any("--cache" in flags for flags, _ in COMMANDS[words][0])
        assert code == (4 if takes_cache else 0), words
        assert captured.err.startswith(f"cache error: {path}") == takes_cache, words


def test_invariant_failure_exit_5(monkeypatch, capsys):
    # a trace past the Hasse bound |a| <= 2 sqrt(p) is a bug, not a usage error
    monkeypatch.setattr("stlab.traces._table_traces",
                        lambda tbl, a, b: np.full(len(a), 21, dtype=np.int64))
    code = run(["angles", *FAM, "-p", "101"])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err == "bug: Hasse violated in trace table at p=101 (bug)\n"


@pytest.mark.parametrize("sets", [("5..1", "1..3"), ("1..3", "5..1")])
def test_vertical_product_empty_set_exit_1(sets, capsys):
    code = run(["experiment", "vertical-product", *FAM, "-p", "101",
                "--set-u", sets[0], "--set-v", sets[1]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: U and V must be non-empty\n"


# the least strong pseudoprime to every base 2..37: composite, and above
# TABLE_LIMIT, so a wrong primality verdict would surface as exit 3
PSI_12 = "318665857834031151167461"


@pytest.mark.parametrize("p", ["2", "3", "9", PSI_12])
@pytest.mark.parametrize("words", [w for w, extra in EVERY_COMMAND.items() if "-p" in extra])
def test_one_message_for_a_bad_prime(words, p, capsys):
    extra = list(EVERY_COMMAND[words])
    extra[extra.index("-p") + 1] = p
    code = run([*words.split(), *FAM, *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("error: requires p > 3\n" if p == "3" else
                            f"error: {p} is not an odd prime\n")


# psi_13 = 1287836182261 * 2575672364521 passes Miller-Rabin to every base
# 2..41, and 2**89 - 1 is a prime past it: is_prime is proven below psi_13
# only, so both are refused, before any residue table
@pytest.mark.parametrize("p", ["3317044064679887385961981", str(2**89 - 1)],
                         ids=["psi13", "mersenne89"])
@pytest.mark.parametrize("extra", [["trace", "-t", "1"], ["angles"]], ids=["trace", "angles"])
def test_prime_past_the_proven_bound_exit_3(extra, p, monkeypatch, capsys):
    def no_table(*args, **kwargs):
        raise AssertionError("a residue table was built")

    monkeypatch.setattr("stlab.finite_field.ResidueTable.build", no_table)
    code = run([extra[0], *FAM, "-p", p, *extra[1:]])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == (f"refused: p={p}: primality is not proven above "
                            "3317044064679887385961981\n")


@pytest.mark.parametrize("argv", [
    ["experiment", "mixed-product", *FAM, "-x", "30", "--set-u", "1..3", "--set-v", "1..3"],
    ["cache", "stats", *FAM],
], ids=["mixed-product", "cache-stats"])
def test_empty_cache_path_refused(argv, monkeypatch, capsys):
    def no_traces(*args, **kwargs):
        raise AssertionError("trace work started before the cache path was checked")

    monkeypatch.setattr("stlab.experiments.batch_traces", no_traces)
    for env in (None, ""):  # an unset or empty STLAB_CACHE overrides nothing
        if env is None:
            monkeypatch.delenv("STLAB_CACHE", raising=False)
        else:
            monkeypatch.setenv("STLAB_CACHE", env)
        code = run([*argv, "--cache", ""])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "--cache" in captured.err


def test_angles_product_empty_set_exit_1(capsys):
    code = run(["angles", *FAM, "-p", "101", "--kind", "product",
                "--set-u", "5..1", "--set-v", "1..3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: U and V must be non-empty\n"


BUILDERS = ("sieve_arith", "divisor_counts", "prime_array", "primes_upto", "subgroup",
            "product_residues", "geometric", "interval_params")


@pytest.mark.parametrize("argv", [
    ["sums", "vaughan", "-L", "500"],
    ["sums", "mobius", "-L", "500"],
    ["sums", "prime-sym", "-L", "500"],
    ["experiment", "vertical-primes", "-L", "500"],
    ["experiment", "vertical-subgroup", "-r", "2"],
    ["experiment", "vertical-product", "--set-u", "1..3", "--set-v", "1..3"],
    *(["angles", "--kind", kind, *extra] for kind, extra in sorted(ANGLE_KINDS.items())),
], ids=lambda argv: f"angles-{argv[2]}" if argv[0] == "angles" else "-".join(argv[:2]))
def test_prime_above_table_limit_refused_before_any_set(argv, monkeypatch, capsys):
    # 8388617 is the first prime above TABLE_LIMIT = 2**23; no sieve and no
    # parameter set is built, and no array of that length is allocated
    def fail(*args, **kwargs):
        raise AssertionError("a sieve or parameter set was built before the refusal")

    for module in ("stlab.cli", "stlab.experiments"):
        for name in BUILDERS:
            monkeypatch.setattr(f"{module}.{name}", fail, raising=False)
    tracemalloc.start()
    try:
        code = run([*argv, *FAM, "-p", "8388617"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("refused: ") and "8388608" in captured.err
    assert peak < 4 << 20


PRODUCT_COMMANDS = {
    "angles": ["angles", *FAM, "-p", "101", "--kind", "product"],
    "vertical-product": ["experiment", "vertical-product", *FAM, "-p", "101"],
    "mixed-product": ["experiment", "mixed-product", *FAM, "-x", "30"],
}


def _refused_before(argv, builders, monkeypatch, capsys):
    """run(argv) exits 3 with a limit of TABLE_LIMIT = 2**23, with each of
    builders patched to raise and no large allocation on the way."""
    def fail(*args, **kwargs):
        raise AssertionError("a parameter set was built before the refusal")

    for name in builders:
        monkeypatch.setattr(name, fail)
    tracemalloc.start()
    try:
        code = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("refused: ") and "8388608" in captured.err
    assert captured.err.count("\n") == 1
    assert peak < 4 << 20


@pytest.mark.parametrize("sets", [("1..8388609", "1"), ("1", "0..8388608"),
                                  ("1..3000", "1..3000"), (",".join(["7"] * 3000), "1..2797"),
                                  ("1..1" + "0" * 30, "1..1" + "0" * 30)],
                         ids=["set-u", "set-v", "product", "comma-list", "past-maxsize"])
@pytest.mark.parametrize("command", sorted(PRODUCT_COMMANDS))
def test_product_set_above_table_limit_refused_before_any_set(command, sets, monkeypatch,
                                                              capsys):
    # #U * #V is read from the text of --set-u and --set-v; a range is never
    # listed, and neither the product set nor the experiment is built
    builders = ["stlab.cli.product_residues", "stlab.experiments.vertical_product",
                "stlab.experiments.mixed_product"]
    _refused_before([*PRODUCT_COMMANDS[command], "--set-u", sets[0], "--set-v", sets[1]],
                    builders, monkeypatch, capsys)


@pytest.mark.parametrize("argv", [
    *([*PRODUCT_COMMANDS[c], "--set-u", "1..2", "--set-v", "1..4194304"]
      for c in sorted(PRODUCT_COMMANDS)),
    ["angles", *FAM, "-p", "101", "--kind", "interval", "-M", "0", "-N", "8388608"],
    ["angles", *FAM, "-p", "101", "--kind", "geometric", "--lam", "2", "-T", "8388608"],
], ids=[*sorted(PRODUCT_COMMANDS), "interval", "geometric"])
def test_sizes_at_table_limit_reach_the_builder(argv, monkeypatch, capsys):
    # TABLE_LIMIT = 2**23 elements pass the refusal
    def stop(*args, **kwargs):
        raise ValueError("reached the builder")

    for name in ("stlab.cli.product_residues", "stlab.cli.interval_params", "stlab.cli.geometric",
                 "stlab.experiments.vertical_product", "stlab.experiments.mixed_product"):
        monkeypatch.setattr(name, stop)
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: reached the builder\n"


def test_interval_above_table_limit_refused_before_the_set(monkeypatch, capsys):
    _refused_before(["angles", *FAM, "-p", "101", "--kind", "interval", "-M", "0",
                     "-N", "8388609"], ["stlab.cli.interval_params"], monkeypatch, capsys)


def test_geometric_above_table_limit_refused_before_the_set(monkeypatch, capsys):
    _refused_before(["angles", *FAM, "-p", "101", "--kind", "geometric", "--lam", "2",
                     "-T", "8388609"], ["stlab.cli.geometric"], monkeypatch, capsys)


# lam^1 .. lam^T take about T^2 log2|lam| / 15 bytes; at lam = 2, T = 77459
# is the largest T within the 0.4 GB budget, and at lam = 10**300 it is 2453
@pytest.mark.parametrize("lam, T, refused", [
    ("2", "77459", False), ("2", "77460", True), ("-2", "77460", True),
    (str(10**300), "2453", False), (str(10**300), "2454", True),
    ("3", "1" + "0" * 400, True),
], ids=["lam2-at", "lam2-past", "lam-2-past", "lam1e300-at", "lam1e300-past", "T1e400"])
def test_geometric_powers_past_the_budget_refused_before_any_power(lam, T, refused,
                                                                  monkeypatch, capsys):
    # erdos_delta is the last call before mixed_geometric builds the powers,
    # so neither side of the limit builds them here
    def stop(*args, **kwargs):
        raise ValueError("reached the powers")

    monkeypatch.setattr("stlab.experiments.erdos_delta", stop)
    monkeypatch.setattr("stlab.experiments._run_mixed", stop)
    tracemalloc.start()
    try:
        code = run(["experiment", "mixed-geometric", *FAM, "-x", "100", "--lam", lam, "-T", T])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert peak < 4 << 20
    if not refused:
        assert (code, err) == (1, "error: reached the powers\n")
        return
    assert code == 3
    assert re.fullmatch(rf"refused: T={T} powers of a {abs(int(lam)).bit_length()}-bit lambda "
                        r"need about \S+ GB, above the 0.4 GB budget\n", err)


def _refused_or_reached(argv, refusal, builders, monkeypatch, capsys):
    """run(argv) with builders patched to stop it: exit 3 with refusal (the
    stderr line) before any of them and no large allocation, or, with
    refusal None, exit 1 at the first builder."""
    def stop(*args, **kwargs):
        raise ValueError("reached the builder")

    for name in builders:
        monkeypatch.setattr(name, stop)
    tracemalloc.start()
    try:
        code = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert captured.out == ""
    if refusal is None:
        assert (code, captured.err) == (1, "error: reached the builder\n")
    else:
        assert (code, captured.err) == (3, f"refused: {refusal}\n")
        assert peak < 4 << 20


@pytest.mark.parametrize("bins, refused", [(1_000_000, False), (1_000_001, True)],
                         ids=["at", "past"])
def test_bins_above_limit_refused_before_the_sample(bins, refused, monkeypatch, capsys):
    # every run builds one histogram row per bin, with or without --csv and --svg
    refusal = f"bins={bins} exceeds the 1000000 limit" if refused else None
    _refused_or_reached(["angles", *FAM, "-p", "101", "--bins", str(bins)], refusal,
                        ["stlab.cli.angle_sample"], monkeypatch, capsys)


@pytest.mark.parametrize("bins", ["0", "-1"])
def test_bins_below_one_refused_before_the_sample(bins, monkeypatch, capsys):
    def stop(*args, **kwargs):
        raise ValueError("reached the sample")

    monkeypatch.setattr("stlab.cli.angle_sample", stop)
    code = run(["angles", *FAM, "-p", "101", "--bins", bins])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", "error: bins must be >= 1\n")


# CHARSUM_PRIME_LIMIT = 7 * 10**6: 6999997 is the largest prime at or below it
# and 7000003 the first above (both below the 2**23 table limit)
@pytest.mark.parametrize("p, refused", [(6999997, False), (7000003, True)],
                         ids=["at", "past"])
def test_charsum_prime_above_limit_refused_before_the_table(p, refused, monkeypatch,
                                                            capsys):
    refusal = f"character sums at p={p} exceed the 7000000 limit" if refused else None
    _refused_or_reached(["verify", "charsum", *FAM, "-p", str(p), "--n-max", "1"], refusal,
                        ["stlab.experiments.ResidueTable.build",
                         "stlab.experiments.residue_traces"], monkeypatch, capsys)


# CHARSUM_WORK_LIMIT = 2**27 units: n_max (times count when sampled) passes
# of period + 256 units each, the period 100 at p = 101 and r with --subgroup-r
@pytest.mark.parametrize("args, at, last, period", [
    (["--n-max"], "n_max", 377016, 100),
    (["--n-max", "2", "--mode", "sampled", "--seed", "7", "--count"], "count", 188508, 100),
    (["--subgroup-r", "50", "--n-max"], "n_max", 438620, 50),
], ids=["n-max", "count", "subgroup-n-max"])
@pytest.mark.parametrize("refused", [False, True], ids=["at", "past"])
def test_charsum_work_above_limit_refused_before_the_table(args, at, last, period, refused,
                                                           monkeypatch, capsys):
    value = last + refused
    n_max = value if at == "n_max" else 2
    sampled = f", count={value}" if at == "count" else ""
    work = n_max * (value if at == "count" else 1) * (period + 256)
    refusal = (f"n_max={n_max}{sampled} over {period} values is {work} work units, "
               "above the 134217728 limit") if refused else None
    _refused_or_reached(["verify", "charsum", *FAM, "-p", "101", *args, str(value)], refusal,
                        ["stlab.experiments.ResidueTable.build",
                         "stlab.experiments.residue_traces"], monkeypatch, capsys)


@pytest.mark.parametrize("flag", ["--set-u", "--set-v"])
@pytest.mark.parametrize("text", ["1..", "..3", "1..x", "1,,2", "a"])
@pytest.mark.parametrize("command", sorted(PRODUCT_COMMANDS))
def test_bad_set_names_its_flag(command, flag, text, capsys):
    sets = {"--set-u": "1..3", "--set-v": "1..3", flag: text}
    code = run([*PRODUCT_COMMANDS[command], *(x for kv in sets.items() for x in kv)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (f"error: bad {flag} {text!r}; expected lo..hi or "
                            "comma-separated integers\n")


def _no_constant(name):
    raise AssertionError(f"{name} is not JSON")


# order_sum adds 1 / r**alpha over orders 1 <= r < x: with (|alpha| + 1) log x
# above log(float max) a term or the total could overflow or reach zero, so
# such an alpha, and nan and +-inf, is refused before the sieve; at x = 50
# that is |alpha| > 180.4
@pytest.mark.parametrize("alpha", ["-inf", "-1000", "-700", "-181", "181", "1e308", "nan",
                                   "inf"])
def test_orders_alpha_out_of_float_range_exit_1(alpha, monkeypatch, capsys):
    def no_sieve(*args, **kwargs):
        raise AssertionError("the sieve ran")

    monkeypatch.setattr("stlab.param_sets._least_prime_factors", no_sieve)
    code = run(["sums", "orders", "-x", "50", "--lam", "2", f"--alpha-exp={alpha}"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == (f"error: alpha={float(alpha)} takes 1 / ord**alpha out of the "
                            "float range at x=50\n")


@pytest.mark.parametrize("alpha", ["-180", "180", "0.5", "1"])
def test_orders_alpha_in_float_range_runs(alpha, capsys):
    code = run(["sums", "orders", "-x", "50", "--lam", "2", f"--alpha-exp={alpha}"])
    out = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    assert code == 0
    assert 0.0 < out["order_sum"] < math.inf


# mixed-geometric --cache charges each row 48 bytes while every lam^t fits
# int64 and 290 bytes plus 2.5 per byte of the row otherwise, over at most
# 1.25506 x / log x primes, against a 0.4 GB budget (the CACHE_BUDGET comment)
@pytest.mark.parametrize("x, lam, T, need", [
    ("100000", "2", "300", "1.5"), ("30000", "2", "300", "0.48"), ("2000000", "2", "60", "0.5"),
], ids=["exact-rows", "exact-rows-at-3e4", "int64-rows"])
def test_mixed_geometric_cache_past_the_budget_exit_3(x, lam, T, need, tmp_path, monkeypatch,
                                                     capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("a sieve or a trace ran before the refusal")

    for name in ("stlab.experiments.batch_traces", "stlab.experiments.primes_upto",
                 "stlab.experiments.order_sum"):
        monkeypatch.setattr(name, no_work)
    monkeypatch.delenv("STLAB_CACHE", raising=False)
    cache = tmp_path / "c.txt"
    code = run(["experiment", "mixed-geometric", *FAM, "-x", x, "--lam", lam, "-T", T,
                "--cache", str(cache)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == (f"refused: cache rows of T={T} powers of a 2-bit lambda at x={x} "
                            f"need about {need} GB, above the 0.4 GB budget\n")
    assert not cache.exists()


@pytest.mark.parametrize("argv", [
    ["-x", "1000000", "--lam", "2", "-T", "60", "--cache", "c.txt"],  # charged 0.26 GB
    ["-x", "100000", "--lam", "2", "-T", "300"],  # no cache, no charge
], ids=["int64-rows", "no-cache"])
def test_mixed_geometric_cache_within_the_budget_reaches_the_run(argv, tmp_path, monkeypatch,
                                                                  capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STLAB_CACHE", raising=False)
    _refused_or_reached(["experiment", "mixed-geometric", *FAM, *argv], None,
                        ["stlab.experiments.order_sum", "stlab.experiments._run_mixed"],
                        monkeypatch, capsys)


def test_mixed_geometric_cache_at_a_moderate_size_runs(tmp_path, monkeypatch, capsys):
    # rows past int64 (2^63 and up), read back by the exact line parser
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STLAB_CACHE", raising=False)
    argv = ["experiment", "mixed-geometric", *FAM, "-x", "1000", "--lam", "2", "-T", "300",
            "--cache", "c.txt"]
    code, cold = run_json(capsys, argv)
    assert code == 0
    code, warm = run_json(capsys, argv)
    assert code == 0
    assert strip_runtime(cold) == strip_runtime(warm)
    # a row for each good parameter at each of the 166 primes from 5 to 997
    rows = 166 * 300 - cold["detail"]["skipped_params"]
    assert (tmp_path / "c.txt").read_text().count("\n") == 1 + rows


def test_mixed_geometric_cache_past_the_text_digit_limit_exit_3(tmp_path, monkeypatch, capsys):
    # the cache holds each lam^t as decimal text, which Python converts only
    # up to sys.get_int_max_str_digits() digits: 2**2200 has 663 digits and
    # 2**2000 has 603, against a limit of 640
    def no_work(*args, **kwargs):
        raise AssertionError("a sieve or a trace ran before the refusal")

    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STLAB_CACHE", raising=False)
    argv = ["experiment", "mixed-geometric", *FAM, "-x", "5", "--lam", "2", "--cache", "c.txt"]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with monkeypatch.context() as m:
            for name in ("stlab.experiments.batch_traces", "stlab.experiments.primes_upto",
                         "stlab.experiments.order_sum"):
                m.setattr(name, no_work)
            code = run([*argv, "-T", "2200"])
            captured = capsys.readouterr()
            assert (code, captured.out) == (3, "")
            assert captured.err == ("refused: cache rows of T=2200 powers of lambda=2 pass the "
                                    "640-digit limit of Python's int-to-text conversion\n")
            assert not (tmp_path / "c.txt").exists()
        code, cold = run_json(capsys, [*argv, "-T", "2000"])
        assert code == 0
        code, warm = run_json(capsys, [*argv, "-T", "2000"])
        assert code == 0
        assert strip_runtime(cold) == strip_runtime(warm)
    finally:
        sys.set_int_max_str_digits(limit)


# SYM_WORK_LIMIT = 2**32 units: n recurrence steps of values + 1024 units each,
# the values p = 101 for vaughan and mobius and L = 300 for prime-sym
@pytest.mark.parametrize("kind, builder, values, last", [
    ("vaughan", "sieve_arith", 101, 3817748), ("mobius", "sieve_arith", 101, 3817748),
    ("prime-sym", "prime_array", 300, 3243933),
])
@pytest.mark.parametrize("refused", [False, True], ids=["at", "past"])
def test_sym_degree_work_above_limit_refused_before_any_sieve(kind, builder, values, last,
                                                              refused, monkeypatch, capsys):
    n = last + refused
    refusal = (f"sym degree n={n} over {values} values is {n * (values + 1024)} work units, "
               "above the 4294967296 limit") if refused else None
    _refused_or_reached(["sums", kind, *FAM, "-p", "101", "-L", "300", "-n", str(n)], refusal,
                        [f"stlab.experiments.{builder}"], monkeypatch, capsys)


# The argv grammar of the fuzz test: every command with each of its flags
# present or not, each value small, at a boundary, negative or past int64,
# and one value in ten malformed.  The sizes stay small, so each run takes
# milliseconds; huge sizes are only ever refused (the refusal tests above
# patch the allocators to check that).
FUZZ_VALUES = {  # (well-formed, malformed) by kind of flag
    int: (["-1", "0", "1", "2", "3", "4", "5", "7", "13", "101", str(2**63),
           str(-2**63 - 1), "1" + "0" * 30], ["", "x", "nan", "inf", "1.5"]),
    float: (["0", "0.5", "1", "2.5", "3.2", "-1", "nan", "inf", "-inf", "1e308", "1e-320"],
            ["", "x", "1,2"]),
    "coeffs": (["0,1", "1,2", "3,0,1", "-4,-6,-5", "1", "0", "0,0", f"{2**63},1"],
               ["", "x", "1,,2", "1.5"]),
    "set": (["1..5", "2..4", "1..0", "-3..3", "1,2,7", "0", str(2**63)], ["", "x", "1..", "..3"]),
}


@st.composite
def fuzz_argv(draw, folder):
    words = draw(st.sampled_from(sorted(COMMANDS)))
    argv = words.split()
    for flags, kwargs in COMMANDS[words][0]:
        # a required flag is left out one time in 20 (hypothesis favours the
        # ends of a range, so 7 stands for "rarely")
        present = (draw(st.integers(0, 19)) != 7 if kwargs.get("required")
                   else draw(st.booleans()))
        if not present:
            continue
        flag = flags[-1]
        if "choices" in kwargs:
            pool = ([*kwargs["choices"]], ["bad"])
        elif "type" in kwargs:
            pool = FUZZ_VALUES[kwargs["type"]]
        elif flag in ("--f", "--g"):
            pool = FUZZ_VALUES["coeffs"]
        elif flag in ("--set-u", "--set-v"):
            pool = FUZZ_VALUES["set"]
        else:  # --cache, --csv and --svg
            pool = ([str(folder / "out")], [str(folder / "missing" / "out"), ""])
        value = draw(st.sampled_from(pool[draw(st.integers(0, 9)) == 7]))
        argv.append(f"{flag}={value}")
    return words, argv


def test_cli_fuzz(tmp_path, monkeypatch, capsys):
    # every argv exits 0-4: 0 with one JSON object (no NaN or Infinity) on
    # stdout, as does `family check` with 2 for a failed check, and any other
    # exit with one stderr line and no traceback, apart from argparse's own
    # usage errors (a usage line and an error line)
    monkeypatch.delenv("STLAB_CACHE", raising=False)
    monkeypatch.setenv("COLUMNS", "10000")  # argparse's usage on one line

    @settings(max_examples=1000, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fuzz_argv(tmp_path))
    def check(case):
        words, argv = case
        code = run(argv)
        out, err = capsys.readouterr()
        assert 0 <= code <= 4, (argv, err)
        if code == 0 or (words, code) == ("family check", 2):
            assert err == "", argv
            assert out.count("\n") == 1 and out.endswith("\n"), argv
            assert isinstance(json.loads(out, parse_constant=_no_constant), dict), argv
            return
        assert out == "", argv
        assert "Traceback" not in err, argv
        lines = err.splitlines(keepends=True)
        if lines[0].startswith(f"usage: stlab {words} "):
            assert len(lines) == 2 and lines[1].startswith(f"stlab {words}: error: "), argv
        else:
            assert len(lines) == 1 and err.endswith("\n"), argv

    check()
