import math
import random
from pathlib import Path

import pytest

from stlab.errors import CacheError
from stlab.family import build_family
from stlab.store import open_cache
from stlab.traces import TraceRecord


def test_fresh_cache_is_empty(fam_zz, tmp_path):
    cache = open_cache(str(tmp_path / "c.txt"), fam_zz)
    assert len(cache) == 0
    assert cache.get(5, 1) is None


def test_put_get_and_reopen(fam_zz, tmp_path):
    path = str(tmp_path / "c.txt")
    with open_cache(path, fam_zz) as cache:
        cache.put(TraceRecord(5, 1, -3))
        assert cache.get(5, 1) == -3
    with open_cache(path, fam_zz) as cache:
        assert cache.get(5, 1) == -3
        assert cache.get(5, 2) is None


def test_keys_cover_stored_and_pending_rows(fam_zz, tmp_path):
    path = str(tmp_path / "c.txt")
    with open_cache(path, fam_zz) as cache:
        cache.put(TraceRecord(5, 1, -3))
        assert cache.keys() == [(5, 1)]
    cache = open_cache(path, fam_zz)
    cache.put(TraceRecord(7, 1, 3))
    assert sorted(cache.keys()) == [(5, 1), (7, 1)]


def test_header_format(fam_zz, tmp_path):
    path = str(tmp_path / "c.txt")
    with open_cache(path, fam_zz) as cache:
        cache.put(TraceRecord(5, 1, -3))
    lines = Path(path).read_text().splitlines()
    from stlab.family import fingerprint_hex

    assert lines[0] == f"# stlab-cache v1 family={fingerprint_hex(fam_zz)}"
    assert lines[1] == "5,1,-3"


def test_fingerprint_mismatch_refused(fam_zz, tmp_path):
    path = str(tmp_path / "c.txt")
    with open_cache(path, fam_zz) as cache:
        cache.put(TraceRecord(5, 1, -3))
    other = build_family([1], [0, 1])
    with pytest.raises(CacheError):
        open_cache(path, other)


def test_malformed_row_reports_line(fam_zz, tmp_path):
    path = tmp_path / "c.txt"
    from stlab.family import fingerprint_hex

    path.write_text(f"# stlab-cache v1 family={fingerprint_hex(fam_zz)}\n5,1,-3\nnonsense\n")
    with pytest.raises(CacheError, match=":3:"):
        open_cache(str(path), fam_zz)


def test_bogus_header_refused(fam_zz, tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("p,t,a\n")
    with pytest.raises(CacheError):
        open_cache(str(path), fam_zz)


def test_conflicting_duplicate_refused(fam_zz, tmp_path):
    cache = open_cache(str(tmp_path / "c.txt"), fam_zz)
    cache.put(TraceRecord(5, 1, -3))
    cache.put(TraceRecord(5, 1, -3))  # idempotent
    with pytest.raises(CacheError):
        cache.put(TraceRecord(5, 1, 2))


def test_hasse_violation_refused(fam_zz, tmp_path):
    cache = open_cache(str(tmp_path / "c.txt"), fam_zz)
    with pytest.raises(CacheError):
        cache.put(TraceRecord(5, 1, 5))


def test_hasse_checked_on_load(fam_zz, tmp_path):
    path = tmp_path / "c.txt"
    from stlab.family import fingerprint_hex

    path.write_text(f"# stlab-cache v1 family={fingerprint_hex(fam_zz)}\n5,1,99\n")
    with pytest.raises(CacheError, match="Hasse"):
        open_cache(str(path), fam_zz)


# A trace within the Hasse bound of this p leaves int64 (only p >= 2**124 can)
BIG_P = 10**40 + 1
BIG_A = math.isqrt(4 * BIG_P)


def test_trace_past_int64_refused_by_put_many(fam_zz, tmp_path):
    cache = open_cache(str(tmp_path / "c.txt"), fam_zz)
    with pytest.raises(CacheError, match=f"leaves int64: p={BIG_P}"):
        cache.put_many(BIG_P, [1], [BIG_A])
    assert len(cache) == 0


def test_trace_past_int64_refused_on_load(fam_zz, tmp_path):
    from stlab.family import fingerprint_hex

    path = tmp_path / "c.txt"
    path.write_text(f"# stlab-cache v1 family={fingerprint_hex(fam_zz)}\n5,1,-3\n"
                    f"{BIG_P},1,{BIG_A}\n")
    with pytest.raises(CacheError) as err:
        open_cache(str(path), fam_zz)
    assert str(err.value) == f"{path}:3: trace a={BIG_A} leaves int64"


def test_round_trip_many_records(fam_zz, tmp_path):
    rng = random.Random(20260809)
    path = str(tmp_path / "c.txt")
    rows = {}
    primes = [5, 7, 11, 101, 1009, 99991]
    while len(rows) < 10_000:
        p = rng.choice(primes)
        t = rng.randrange(-10**6, 10**6)
        a = rng.randint(-int(2 * math.sqrt(p)), int(2 * math.sqrt(p)))
        rows.setdefault((p, t), a)
    with open_cache(path, fam_zz) as cache:
        for (p, t), a in rows.items():
            cache.put(TraceRecord(p, t, a))
    with open_cache(path, fam_zz) as cache:
        for (p, t), a in rows.items():
            assert cache.get(p, t) == a
    # appended rows are sorted ascending (p, t)
    body = Path(path).read_text().splitlines()[1:]
    keys = [(int(r.split(",")[0]), int(r.split(",")[1])) for r in body]
    assert keys == sorted(keys)


def test_append_only_across_sessions(fam_zz, tmp_path):
    path = str(tmp_path / "c.txt")
    with open_cache(path, fam_zz) as cache:
        cache.put(TraceRecord(5, 1, -3))
    with open_cache(path, fam_zz) as cache:
        cache.put(TraceRecord(7, 1, 3))
    lines = Path(path).read_text().splitlines()
    assert lines[1:] == ["5,1,-3", "7,1,3"]
