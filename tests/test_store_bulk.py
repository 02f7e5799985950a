"""The bulk trace-cache path: per-prime arrays, the numpy loader and writer,
parameters beyond int64, and the checks the bulk calls keep."""

import json
import random
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from stlab import store
from stlab.cli import run
from stlab.errors import CacheError, NondegeneracyError
from stlab.family import build_family, fingerprint_hex, reduce_at
from stlab.finite_field import ResidueTable, is_prime
from stlab.store import _parse_lines, _rows_of, open_cache
from stlab.traces import batch_traces, hasse_limit, trace

FAM_ARGS = ["--f", "0,1", "--g", "0,1"]
BIG = 1 << 63


def _write(path, fam, body):
    path.write_text(f"# stlab-cache v1 family={fingerprint_hex(fam)}\n{body}")


def _held(rows):
    """Per prime: the dtypes and values of the rows held."""
    return {p: (ts.dtype, ts.tolist(), a.dtype, a.tolist()) for p, (ts, a) in rows.by_p.items()}


def _row_key(line):
    p, t, _ = line.split(",")
    return int(p), int(t)


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
    ("5,1\n7,1\n", 2, "malformed row"),
    ("5,1,-3,0\n7,1,3,0\n", 2, "malformed row"),
    pytest.param("5,1,-3\n" + "".join(f"7,{t},3\n" for t in range(40)) + "5,1,2\n",
                 43, "conflicting duplicate", id="duplicate-far-apart"),
    pytest.param("".join(f"7,{t},3\n" for t in range(40)) + "5,2,99\n",
                 42, "Hasse", id="hasse-in-the-last-row"),
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


def _agrees_with_the_line_parser(path, fam, text):
    """The cache at path, whose body is text, loads as `_parse_lines` reads
    it (the rows held, values and dtypes) or fails with its error."""
    _write(path, fam, text)
    body = text.replace("\r\n", "\n").replace("\r", "\n")  # as text mode reads it
    try:
        want = _parse_lines(str(path), body[:body.rfind("\n") + 1])
    except CacheError as e:
        with pytest.raises(CacheError) as err:
            open_cache(str(path), fam)
        assert str(err.value) == str(e)
        return None, None
    cache = open_cache(str(path), fam)
    assert _held(cache._rows) == _held(_rows_of(want))
    return cache, want


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
    # two flushes: the second goes back to the smaller primes
    first, second = sorted(plain[:700], key=_row_key), sorted(plain[700:], key=_row_key)
    # plain rows (with a repeat) load through numpy; a field past int64, a
    # blank line or spaces may send the file through the line parser; both
    # must agree
    for name, body in [("plain", "".join(plain + plain[:50])),
                       ("two-flushes", "".join(first + second)),
                       ("mixed", "".join(lines)),
                       ("spaced", "\n".join(" " + line for line in plain)),
                       ("crlf", "".join(plain).replace("\n", "\r\n"))]:
        cache, want = _agrees_with_the_line_parser(tmp_path / f"{name}.txt", fam_zz, body)
        for (p, t), a in want.items():
            assert cache.get(p, t) == a
    # bad rows that numpy refuses or the checks fail, so the line parser
    # re-reads the file: its CRs must end lines as in the first read, and a
    # Hasse violation must be seen at the first row of the first prime and
    # at the last row of the last one
    ordered = "".join(sorted(plain, key=_row_key))
    malformed = "".join(plain[:300]) + "7,1x,3\n" + "".join(plain[300:600])
    for name, body in [("crlf-malformed", malformed.replace("\n", "\r\n")),
                       ("cr-malformed", malformed.replace("\n", "\r")),
                       ("hasse-first", f"5,{-10**18},-5\n" + ordered),
                       ("hasse-last", ordered + f"99991,{10**18},633\n")]:
        assert _agrees_with_the_line_parser(tmp_path / f"{name}.txt", fam_zz, body) == (None, None)
    # noise at the start, inside and at the end of a line: every ASCII
    # control byte, a sign, a digit separator, whitespace-only lines and CR
    noise = [chr(c) for c in (*range(32), 127)] + ["+", "_", " \n", "\t\x0b\x0c\x1f\n", "\r\n"]
    short = plain[:40]
    for i, bit in enumerate(noise):
        for where in range(3):
            k = rng.randrange(len(short))
            at = (0, rng.randrange(1, len(short[k]) - 1), len(short[k]) - 1)[where]
            text = "".join(short[:k]) + short[k][:at] + bit + "".join(short[k:])[at:]
            _agrees_with_the_line_parser(tmp_path / f"noise{i}-{where}.txt", fam_zz, text)


def test_torn_tail_and_non_ascii(fam_zz, tmp_path):
    path = tmp_path / "c.txt"
    header = f"# stlab-cache v1 family={fingerprint_hex(fam_zz)}\n"
    lines = [f"{p},{t},{t % 7 - 3}\n" for p in (101, 1009) for t in range(-60, 60)]
    body = "".join(lines)
    want = _parse_lines(str(path), body)
    # a torn tail is skipped, whatever part of a row it holds
    for tail in ("1", "101,7", "1009,-", "5,1,2"):
        _write(path, fam_zz, body + tail)
        cache = open_cache(str(path), fam_zz)
        assert sorted(cache.keys()) == sorted(want)
        assert all(cache.get(p, t) == a for (p, t), a in list(want.items())[::37])
    for torn in ("", header[:9], header[:-1]):  # inside the first header write
        path.write_text(torn)
        assert len(open_cache(str(path), fam_zz)) == 0
    # a blank line does not move the reader into a torn tail that holds a
    # whole row, whatever the warning filters
    _write(path, fam_zz, "\n" + body + "5,1,2")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert sorted(open_cache(str(path), fam_zz).keys()) == sorted(want)
    # the file reads as text mode reads it: \r\n ends a line as \n does
    path.write_bytes((header + body).replace("\n", "\r\n").encode("ascii"))
    assert sorted(open_cache(str(path), fam_zz).keys()) == sorted(want)
    # a byte that is not ASCII, late in the file or in the torn tail, is
    # reported on its own line
    for k, text in [(len(lines), "".join(lines[:-2]) + "101,1\xe9,3\n" + lines[-1]),
                    (len(lines) + 2, body + "7,\xe9")]:
        path.write_bytes((header + text).encode("latin-1"))
        with pytest.raises(CacheError, match=f":{k}: a byte that is not ASCII"):
            open_cache(str(path), fam_zz)


@pytest.mark.parametrize("ends", [["\n"], ["\r"], ["\r\n"], ["\n", "\r", "\r\n", "\r"]],
                         ids=["lf", "cr", "crlf", "mixed"])
@pytest.mark.parametrize("line", [1, 4])
def test_non_ascii_byte_numbered_by_the_loaders_line_ends(fam_zz, tmp_path, ends, line):
    # a CR, an LF or a CRLF ends a line, as the loader reads the file, so the
    # byte is reported on the line it sits on whatever the line ends
    path = tmp_path / "c.txt"
    lines = [f"# stlab-cache v1 family={fingerprint_hex(fam_zz)}", "5,1,2", "7,1,3",
             "7,2,-1", "101,3,0"]
    lines[line - 1] += "\xe9"
    text = "".join(row + ends[i % len(ends)] for i, row in enumerate(lines))
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(CacheError) as err:
        open_cache(str(path), fam_zz)
    assert str(err.value) == f"{path}:{line}: a byte that is not ASCII"


@pytest.mark.parametrize("ends", [["\r"], ["\r\n"], ["\n", "\r", "\r\n", "\r"]],
                         ids=["cr", "crlf", "mixed"])
@pytest.mark.parametrize("tail", ["", "101,7"], ids=["whole", "torn"])
def test_flush_keeps_every_row_whatever_the_line_ends(fam_zz, tmp_path, ends, tail):
    # the loader reads a CR, an LF or a CRLF as a line end, and so must the
    # flush that cuts the torn tail before it appends
    path = tmp_path / "c.txt"
    rows = {(5, 1): 2, (7, 1): 3, (7, 2): -1, (101, 3): 0, (101, 4): -20}
    lines = [f"# stlab-cache v1 family={fingerprint_hex(fam_zz)}",
             *(f"{p},{t},{a}" for (p, t), a in rows.items())]
    text = "".join(line + ends[i % len(ends)] for i, line in enumerate(lines))
    path.write_bytes((text + tail).encode("ascii"))
    with open_cache(str(path), fam_zz) as cache:
        assert sorted(cache.keys()) == sorted(rows)
        cache.put_many(13, [1], [2])
    assert path.read_bytes() == (text + "13,1,2\n").encode("ascii")
    cache = open_cache(str(path), fam_zz)
    assert sorted(cache.keys()) == sorted({**rows, (13, 1): 2})
    assert all(cache.get(p, t) == a for (p, t), a in rows.items())


def test_flush_checks_the_header_under_its_lock(fam_zz, tmp_path):
    # the cache was opened on a missing file; before its flush another
    # writer made the file.  Rows go after this family's header only: any
    # other file is refused with the load's own error and left as it was
    other = build_family([1], [0, 1])
    header = f"# stlab-cache v1 family={fingerprint_hex(fam_zz)}"
    foreign = f"# stlab-cache v1 family={fingerprint_hex(other)}"
    # the file made, and what precedes the appended row when it is kept
    for i, (made, kept) in enumerate([
            (foreign + "\n11,1,2\n", None), (foreign + "\r11,1,2\r", None),
            (foreign[:-3], None), ("p,t,a\n5,1,2\n", None), (header[:-1] + "\xe9\n", None),
            (header + "\r5,1,2\r", header + "\r5,1,2\r"), (header[:9], header + "\n")]):
        path = tmp_path / f"c{i}.txt"
        cache = open_cache(str(path), fam_zz)
        cache.put_many(11, [1], [-4])
        path.write_bytes(made.encode("latin-1"))
        if kept is not None:
            cache.close()
            assert path.read_bytes() == (kept + "11,1,-4\n").encode("ascii")
            assert open_cache(str(path), fam_zz).get(11, 1) == -4
            continue
        with pytest.raises(CacheError) as err:
            open_cache(str(path), fam_zz)
        with pytest.raises(CacheError) as refused:
            cache.close()
        assert str(refused.value) == str(err.value)
        assert path.read_bytes() == made.encode("latin-1")


def test_int64_edges_load_without_the_line_parser(fam_zz, tmp_path, monkeypatch):
    # 19-digit fields, the powers of 2 in geometric progressions among them
    def refuse(*args):
        raise AssertionError("the line parser ran")

    monkeypatch.setattr(store, "_parse_lines", refuse)
    ts = [2**60, BIG - 1, -BIG, -(2**60), 0]
    path = tmp_path / "c.txt"
    _write(path, fam_zz, "".join(f"{p},{t},{t % 5 - 2}\n" for p in (101, 1009)
                                 for t in sorted(ts)))
    cache = open_cache(str(path), fam_zz)
    for p in (101, 1009):
        assert cache._rows.by_p[p][0].dtype == np.int64
        a, hit = cache.lookup(p, ts + [1])
        assert hit.tolist() == [True] * len(ts) + [False]
        assert a.tolist() == [t % 5 - 2 for t in ts] + [0]


def test_rows_of_two_flushes_at_the_int64_ends(fam_zz, tmp_path):
    # the second flush puts t = -2^63 after t = 2^63 - 1 at one prime: the
    # order check must see the fall, which a wrapped difference would hide
    path = tmp_path / "c.txt"
    for t, a in [(BIG - 1, 3), (-BIG, -4)]:
        with open_cache(str(path), fam_zz) as cache:
            cache.put_many(101, [t], [a])
    assert path.read_text().splitlines()[1:] == [f"101,{BIG - 1},3", f"101,{-BIG},-4"]
    cache = open_cache(str(path), fam_zz)
    assert cache._rows.by_p[101][0].tolist() == [-BIG, BIG - 1]
    a, hit = cache.lookup(101, [-BIG, BIG - 1, 0])
    assert a.tolist() == [-4, 3, 0] and hit.tolist() == [True, True, False]


@pytest.mark.parametrize("name", ["c.gz", "c.bz2", "c.xz", "c.lzma"])
def test_cache_named_like_a_compressed_file(fam_zz, tmp_path, name):
    # the file is text whatever its name; numpy's reader would decompress it
    path = str(tmp_path / name)
    with open_cache(path, fam_zz) as cache:
        cache.put_many(101, [1, 2], [3, -4])
    a, hit = open_cache(path, fam_zz).lookup(101, [2, 1])
    assert a.tolist() == [-4, 3] and hit.all()


def test_flush_writes_sorted_decimal_rows(fam_zz, tmp_path, monkeypatch):
    edge = [0, 9, 10, 99, 100, -1, -10, 10**18 - 1, -10**18, 10**18,
            BIG - 1, -(BIG - 1), BIG, -BIG, 3**60, -(3**60)]
    small = [t for t in edge if -BIG <= t < BIG]
    # rows per formatted piece: one, a few, fewer than the 160 rows of prime
    # 13 below, and the default
    for size in (1, 7, 64, store._SLICE):
        monkeypatch.setattr(store, "_SLICE", size)
        path = tmp_path / f"c{size}.txt"
        want = {}
        with open_cache(str(path), fam_zz) as cache:
            for p in (101, 5, 1009):
                a = [(i % 9) - 4 for i in range(len(edge))]
                cache.put_many(p, edge, a)
                want.update({(p, t): x for t, x in zip(edge, a)})
            cache.put_many(11, [BIG * 5, -BIG * 5], [1, -1])  # a prime with big rows only
            want.update({(11, BIG * 5): 1, (11, -BIG * 5): -1})
            # int64 primes between them, one with more rows than a formatted piece
            for p, ts in [(7, small), (13, range(-80, 80)), (103, small), (2003, [1])]:
                a = [(t % 5) - 2 for t in ts]
                cache.put_many(p, ts, a)
                want.update({(p, t): x for t, x in zip(ts, a)})
        body = path.read_text().split("\n", 1)[1]
        assert body == "".join(f"{p},{t},{a}\n" for (p, t), a in sorted(want.items()))
        # a second flush appends its own sorted rows, back at the smaller primes
        later = {(3, 2): 0, (7, 11): 2, (11, BIG * 6): 3, (13, 80): -2, (4001, -BIG): 5}
        with open_cache(str(path), fam_zz) as cache:
            for (p, t), a in later.items():
                cache.put_many(p, [t], [a])
        assert path.read_text().split("\n", 1)[1] == body + "".join(
            f"{p},{t},{a}\n" for (p, t), a in sorted(later.items()))
        cache = open_cache(str(path), fam_zz)
        a, hit = cache.lookup(101, edge + [7])
        assert hit.tolist() == [True] * len(edge) + [False]
        assert a.tolist() == [want[(101, t)] for t in edge] + [0]
        assert sorted(cache.keys()) == sorted({**want, **later})


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
    with pytest.raises(CacheError, match="Hasse"):  # a trace past int64 too
        cache.put_many(101, [7, 8], [0, 10**20])
    assert len(cache) == 3  # every refused batch left nothing behind
    cache.close()
    assert path.read_bytes() == first
    a, hit = open_cache(str(path), fam_zz).lookup(101, np.array([3 * BIG, 2, 5], dtype=object))
    assert a.tolist() == [6, -5, 0] and hit.tolist() == [True, True, False]


def test_one_table_serves_every_read(fam_zz, tmp_path, monkeypatch):
    # loaded, flushed and newly put rows live in one table: lookup and
    # put_many search it once, and len, keys and primes see each row once,
    # before a flush, after it and after a refused one.  Only the rows put
    # since the last flush are queued for it, never a row already held
    searched = []
    find = store._Rows.find

    def counted(self, p, ts):
        searched.append(p)
        return find(self, p, ts)

    monkeypatch.setattr(store._Rows, "find", counted)
    path = tmp_path / "c.txt"
    with open_cache(str(path), fam_zz) as cache:
        cache.put_many(5, [1, 2], [2, -1])
    cache = open_cache(str(path), fam_zz)
    want = {(5, 1): 2, (5, 2): -1}

    def put(p, rows):
        searched.clear()
        cache.put_many(p, list(rows), list(rows.values()))
        assert searched == [p]
        want.update({(p, t): a for t, a in rows.items()})

    def check(queued):
        assert len(cache) == len(want)
        assert sorted(cache.keys()) == sorted(want)
        assert cache.primes() == sorted({p for p, _ in want})
        for p in cache.primes():
            ts = [t for q, t in want if q == p] + [12]
            searched.clear()
            a, hit = cache.lookup(p, ts)
            assert searched == [p]
            assert hit.tolist() == [True] * (len(ts) - 1) + [False]
            assert a.tolist() == [want[(p, t)] for t in ts[:-1]] + [0]
            put(p, dict(zip(ts[:-1], a[:-1].tolist())))  # every row held
        assert sorted(cache._pending.keys()) == sorted(queued)

    put(5, {3: 0})  # a loaded prime
    put(7, {1: 3, 3 * BIG: -4})  # a new one
    check([(5, 3), (7, 1), (7, 3 * BIG)])
    cache.flush()
    check([])
    put(11, {1: 2})
    path.write_text("# stlab-cache v1 family=0123456789abcdef\n")
    with pytest.raises(CacheError, match="belongs to family 0123456789abcdef"):
        cache.flush()
    check([(11, 1)])


def test_big_rows_promote_a_prime_that_holds_int64_rows(fam_zz, tmp_path):
    # 101 holds int64 rows, stored and pending, when a later batch brings
    # t = 2^63 and -2^63 - 1; its neighbours keep int64 rows only
    path = tmp_path / "c.txt"
    small = [-7, 0, 3, 10**18, -BIG]
    stored = {(101, t): x for t, x in zip(small, [1, -2, 3, -4, 5])}
    stored[(97, 2)] = 6
    later = {(103, -1): -6, (101, 11): 7, (101, BIG): -8, (101, -BIG - 1): 8}
    with open_cache(str(path), fam_zz) as cache:
        cache.put_many(101, small, [stored[(101, t)] for t in small])
        cache.put_many(97, [2], [6])
        cache.flush()
        first = path.read_text()
        cache.put_many(103, [-1], [-6])
        cache.put_many(101, [11], [7])
        cache.put_many(101, [BIG, 11, -BIG - 1], [-8, 7, 8])
        a, hit = cache.lookup(101, small + [11])
        assert hit.all() and a.tolist() == [stored[(101, t)] for t in small] + [7]
    text = path.read_text()
    assert text.startswith(first)
    assert text[len(first):] == "".join(f"{p},{t},{x}\n" for (p, t), x in sorted(later.items()))
    body = text.split("\n", 1)[1]
    want = _parse_lines(str(path), body)
    assert want == {**stored, **later}
    cache = open_cache(str(path), fam_zz)
    assert sorted(cache.keys()) == sorted(want)
    for (p, t), x in want.items():
        assert cache.get(p, t) == x
    a, hit = cache.lookup(101, small)
    assert hit.all() and a.tolist() == [stored[(101, t)] for t in small]


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


def test_cache_load_and_flush_traced_peak(fam_zz, tmp_path):
    # 2 * 10**5 short rows over 200 primes (a file of 13 bytes per row).  A
    # flush writes each formatted piece as it is made, so it holds one piece
    # and its temporaries (under 1 byte per row here; holding every
    # formatted row took 14).  A load drops the file's bytes before numpy reads the rows,
    # and each prime's t and a are views of numpy's n x 3 int64 block, so it
    # holds that block and the checks' temporaries (about 28 bytes per row).
    # Holding the file and copying each prime's rows out took 56; formatting
    # and parsing the whole file at once took 137 and 173.
    rng = np.random.default_rng(0)
    path = str(tmp_path / "c.txt")
    cache = open_cache(path, fam_zz)
    for q in [q for q in range(1009, 10**4) if is_prime(q)][:200]:
        lim = hasse_limit(q)
        cache.put_many(q, np.sort(rng.choice(5000, 1000, replace=False)) + 1,
                       rng.integers(-lim, lim + 1, 1000))
    rows = len(cache)
    tracemalloc.start()
    try:
        cache.flush()
        flush_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert len(open_cache(path, fam_zz)) == rows
        load_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert flush_peak <= 25 * rows, flush_peak / rows
    assert load_peak <= 35 * rows, load_peak / rows
