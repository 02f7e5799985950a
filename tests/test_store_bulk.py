"""The bulk trace-cache path: per-prime arrays, the numpy loader and writer,
parameters beyond int64, and the checks the bulk calls keep."""

import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from stlab.cli import run
from stlab.errors import CacheError, NondegeneracyError
from stlab.family import fingerprint_hex, reduce_at
from stlab.finite_field import ResidueTable
from stlab.store import _parse_lines, open_cache
from stlab.traces import batch_traces, trace

FAM_ARGS = ["--f", "0,1", "--g", "0,1"]
BIG = 1 << 63


def _write(path, fam, body):
    path.write_text(f"# stlab-cache v1 family={fingerprint_hex(fam)}\n{body}")


def _report(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    obj = json.loads(out) if out else {}
    obj.pop("runtime_ms", None)
    return code, json.dumps(obj)


def test_parameters_beyond_int64(fam_zz, tmp_path, capsys):
    # lambda = 3, T = 60 reaches t = 3^60 ~ 4e28: rows past 2^63 take the
    # exact path through batch_traces and the cache
    path = tmp_path / "g.txt"
    argv = ["experiment", "mixed-geometric", *FAM_ARGS, "-x", "30", "--lam", "3",
            "-T", "60", "--cache", str(path)]
    code, cold = _report(capsys, argv)
    assert code == 0
    written = path.read_bytes()
    code, warm = _report(capsys, argv)
    assert code == 0
    assert warm == cold
    assert path.read_bytes() == written  # the warm run finds every row

    rows = [tuple(map(int, line.split(","))) for line in written.decode().splitlines()[1:]]
    assert any(t >= BIG for _, t, _ in rows)
    assert len({(p, t) for p, t, _ in rows}) == len(rows)
    code, stats = _report(capsys, ["cache", "stats", "--cache", str(path), *FAM_ARGS])
    assert code == 0 and json.loads(stats)["rows"] == len(rows)

    ts = [3**k for k in range(1, 61)]
    stored = {(p, t): a for p, t, a in rows}
    with open_cache(str(path), fam_zz) as cache:
        for p in sorted({p for p, _, _ in rows}):
            tbl = ResidueTable.build(p)
            for c in (None, cache):
                a, good = batch_traces(p, fam_zz, ts, cache=c)
                assert len(a) == int(good.sum())
                for t, x in zip([t for t, ok in zip(ts, good) if ok], a.tolist()):
                    assert x == trace(reduce_at(fam_zz, t, p), tbl) == stored[(p, t)]
                for t in [t for t, ok in zip(ts, good) if not ok]:
                    with pytest.raises(NondegeneracyError):
                        reduce_at(fam_zz, t, p)


def test_congruent_rows_that_disagree_exit_4(fam_zz, tmp_path, capsys):
    # 1 and 8 are congruent mod 7, so their traces must agree; the run trusts
    # the row for t = 1 and refuses to store 8 against the wrong row
    path = tmp_path / "c.txt"
    _write(path, fam_zz, "7,1,3\n7,8,-3\n")
    code = run(["experiment", "mixed-product", *FAM_ARGS, "-x", "7",
                "--set-u", "1,8", "--set-v", "1", "--cache", str(path)])
    assert code == 4
    assert "conflicting trace for (7,8)" in capsys.readouterr().err


@pytest.mark.parametrize("body, line, what", [
    ("5,1,-3\n7,1,3\n5,2,99\n", 4, "Hasse"),
    ("5,1,-3\n7,1,3\n5,1,2\n", 4, "conflicting duplicate"),
    ("5,1,-3\n5,1,2\n7,1,99\n", 3, "conflicting duplicate"),
    ("5,1,-3\n7,1,99\n5,1,2\n", 3, "Hasse"),
    (f"5,{3**60},-3\n5,{3**60},2\n", 3, "conflicting duplicate"),
    ("5,1,-3\n7,1x,3\n", 3, "malformed row"),
    ("5,1,-3\n7,1-2,3\n", 3, "malformed row"),
])
def test_bad_rows_on_load_name_their_line(fam_zz, tmp_path, body, line, what):
    path = tmp_path / "c.txt"
    _write(path, fam_zz, body)
    with pytest.raises(CacheError, match=f":{line}: {what}"):
        open_cache(str(path), fam_zz)


def test_cache_file_independent_of_threads(tmp_path, capsys):
    files = []
    for threads in ("1", "2"):
        path = tmp_path / f"t{threads}.txt"
        code, _ = _report(capsys, ["experiment", "mixed-product", *FAM_ARGS, "-x", "300",
                                   "--set-u", "1..8", "--set-v", "1..8",
                                   "--threads", threads, "--cache", str(path)])
        assert code == 0
        files.append(path.read_bytes())
    assert files[0] == files[1]


def test_loader_agrees_with_the_line_parser(fam_zz, tmp_path):
    rng = random.Random(6)
    rows = {}
    for _ in range(3000):
        p = rng.choice([5, 7, 101, 1009, 99991])
        t = rng.choice([rng.randrange(-10**6, 10**6), rng.randrange(-10**17, 10**17),
                        rng.randrange(-10**30, 10**30)])
        rows.setdefault((p, t), rng.randint(-int(2 * p**0.5), int(2 * p**0.5)))
    lines = [f"{p},{t},{a}\n" for (p, t), a in rows.items()]
    plain = [line for line in lines if abs(int(line.split(",")[1])) < 10**17]
    # plain rows (with a repeat) load in bulk; any long field, a blank line or
    # spaces send the file through the line parser; both must agree
    for name, body in [("plain", "".join(plain + plain[:50])),
                       ("mixed", "".join(lines)),
                       ("spaced", "\n".join(" " + line for line in plain))]:
        path = tmp_path / f"{name}.txt"
        _write(path, fam_zz, body)
        want = _parse_lines(str(path), body)
        cache = open_cache(str(path), fam_zz)
        assert len(cache) == len(want)
        assert sorted(cache.keys()) == sorted(want)
        for (p, t), a in want.items():
            assert cache.get(p, t) == a


def test_flush_writes_sorted_decimal_rows(fam_zz, tmp_path):
    path = tmp_path / "c.txt"
    edge = [0, 9, 10, 99, 100, -1, -10, 10**18 - 1, -10**18, 10**18,
            BIG - 1, -(BIG - 1), BIG, -BIG, 3**60, -(3**60)]
    want = {}
    with open_cache(str(path), fam_zz) as cache:
        for p in (101, 5, 1009):
            a = [(i % 9) - 4 for i in range(len(edge))]
            cache.put_many(p, edge, a)
            want.update({(p, t): x for t, x in zip(edge, a)})
        cache.put_many(11, [BIG * 5, -BIG * 5], [1, -1])  # a prime with big rows only
        want.update({(11, BIG * 5): 1, (11, -BIG * 5): -1})
    body = path.read_text().split("\n", 1)[1]
    assert body == "".join(f"{p},{t},{a}\n" for (p, t), a in sorted(want.items()))
    cache = open_cache(str(path), fam_zz)
    a, hit = cache.lookup(101, edge + [7])
    assert hit.tolist() == [True] * len(edge) + [False]
    assert a.tolist() == [want[(101, t)] for t in edge] + [0]


def test_put_many_keeps_rows_once_and_refuses_whole_batches(fam_zz, tmp_path):
    path = tmp_path / "c.txt"
    with open_cache(str(path), fam_zz) as cache:
        cache.put_many(101, [1, 2, 2, 3 * BIG], [4, -5, -5, 6])
    first = path.read_bytes()
    cache = open_cache(str(path), fam_zz)
    cache.put_many(101, [2, 3 * BIG, 1], [-5, 6, 4])  # held already: not re-put
    assert len(cache) == 3
    for ts, a in [([7, 1], [0, 3]), ([7, 3 * BIG], [0, 1]), ([7, 7], [1, 2]),
                  ([7, 3 * BIG + 1, 3 * BIG + 1], [0, 1, 2]), ([7, 8], [0, 21])]:
        with pytest.raises(CacheError):
            cache.put_many(101, ts, a)
    assert len(cache) == 3  # every refused batch left nothing behind
    cache.close()
    assert path.read_bytes() == first
    a, hit = open_cache(str(path), fam_zz).lookup(101, np.array([3 * BIG, 2, 5], dtype=object))
    assert a.tolist() == [6, -5, 0] and hit.tolist() == [True, True, False]


def test_threads_share_one_cache(fam_zz, tmp_path):
    # more workers than cores and a short switch interval: a lost update in
    # lookup / put_many would store a row twice or drop one
    path = tmp_path / "c.txt"
    primes = [101, 103, 107, 109]
    ts = [*range(-40, 40), 3**60, -(3**60)]
    want = {p: batch_traces(p, fam_zz, ts) for p in primes}
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with open_cache(str(path), fam_zz) as cache, ThreadPoolExecutor(max_workers=8) as ex:
            futures = {ex.submit(batch_traces, primes[i % 4], fam_zz, ts, cache=cache):
                       primes[i % 4] for i in range(32)}
            for fut, p in futures.items():
                a, good = fut.result(timeout=60)
                assert np.array_equal(a, want[p][0]) and np.array_equal(good, want[p][1])
    finally:
        sys.setswitchinterval(old)
    rows = path.read_text().splitlines()[1:]
    assert len(rows) == len(set(rows)) == sum(int(good.sum()) for _, good in want.values())
