"""Persistent trace cache: one line-oriented text file per family.

Line 1 is `# stlab-cache v1 family=<hex16>`; every other line is `p,t,a` in
decimal.  Readers load the whole file; the single writer appends new rows in
ascending (p, t) order while holding an advisory lock.  An unterminated final
line is the torn tail of an interrupted append: readers skip it and the next
writer truncates it under the lock.

In memory the rows of each prime are a sorted int64 array of t with the
matching traces, so one prime's parameters are looked up and stored with a
few numpy calls (`lookup`, `put_many`).  Rows whose p or t leaves int64
(|t| >= 2^63: high powers in geometric progressions) take an exact side path
through a dict.
"""

from __future__ import annotations

import bisect
import fcntl
import math
import os
import threading

import numpy as np

from .errors import CacheError
from .family import FamilyPoly, fingerprint_hex
from .traces import TraceRecord, param_array

_MAGIC = "# stlab-cache v1 family="
_I64 = 1 << 63
_POW10 = 10 ** np.arange(20, dtype=np.uint64)


def _fits(p: int, ts: np.ndarray) -> np.ndarray:
    """Mask of the parameters whose row (p, t) is held in the int64 arrays."""
    if not -_I64 < p < _I64:
        return np.zeros(len(ts), dtype=bool)
    fits = ts > -_I64
    if ts.dtype == object:
        fits &= ts < _I64
    return fits


class _Rows:
    """(p, t) -> a.  Per prime: ascending int64 t and the matching a, with
    |p|, |t| < 2^63; every other row in the exact dict `big`."""

    def __init__(self):
        self.by_p: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.big: dict[tuple[int, int], int] = {}

    def __len__(self):
        return sum(len(t) for t, _ in self.by_p.values()) + len(self.big)

    def keys(self) -> list[tuple[int, int]]:
        return [(p, t) for p, (ts, _) in self.by_p.items() for t in ts.tolist()] + [*self.big]

    def find(self, p: int, t64: np.ndarray):
        """(a, hit) for int64 parameters at p; a is 0 where not hit."""
        if p not in self.by_p:
            return np.zeros(len(t64), dtype=np.int64), np.zeros(len(t64), dtype=bool)
        ts, a = self.by_p[p]
        i = np.searchsorted(ts, t64)
        i[i == len(ts)] = 0  # past the end: the key comparison rejects it
        hit = ts[i] == t64
        return np.where(hit, a[i], 0), hit

    def add(self, p: int, t64: np.ndarray, a: np.ndarray) -> None:
        """Insert rows with ascending t, none of them held yet."""
        if not t64.size:
            return
        if p in self.by_p:
            ts, old = self.by_p[p]
            i = np.searchsorted(ts, t64)
            t64, a = np.insert(ts, i, t64), np.insert(old, i, a)
        self.by_p[p] = (t64, a)

    def update(self, other: _Rows) -> None:
        for p, (ts, a) in other.by_p.items():
            self.add(p, ts, a)
        self.big.update(other.big)


class TraceCache:
    def __init__(self, path: str, fingerprint: str):
        self.path = path
        self.fingerprint = fingerprint
        self._rows = _Rows()
        self._pending = _Rows()
        self._lock = threading.Lock()  # experiments share one handle across workers
        self._load()

    def _load(self):
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="ascii") as fh:
            text = fh.read()
        header, newline, rest = text.partition("\n")
        if not newline and (_MAGIC + self.fingerprint).startswith(header):
            return  # empty, or torn inside the first header write
        if not header.startswith(_MAGIC):
            raise CacheError(f"{self.path}: not a trace cache (bad header)")
        fp = header[len(_MAGIC):]
        if fp != self.fingerprint:
            raise CacheError(
                f"{self.path}: cache belongs to family {fp}, expected {self.fingerprint}"
            )
        body = rest[:rest.rfind("\n") + 1]  # without the torn tail
        rows = _parse_body(body)
        if rows is None:  # not plain short rows, or a bad row: the line parser names it
            rows = _rows_of(_parse_lines(self.path, body))
        self._rows = rows

    def _held(self, p: int, t64: np.ndarray):
        """(a, hit) over the stored and pending int64 rows; hold the lock."""
        a_old, hit_old = self._rows.find(p, t64)
        a_new, hit_new = self._pending.find(p, t64)
        return np.where(hit_new, a_new, a_old), hit_old | hit_new

    def _held_big(self, key: tuple[int, int]) -> int | None:
        return self._rows.big.get(key, self._pending.big.get(key))

    def lookup(self, p: int, ts):
        """(a, hit) for the parameters ts at p: hit[i] marks a row stored or
        pending a flush, and a[i] is its trace (0 where not hit)."""
        ts = param_array(ts)
        small = _fits(p, ts)
        a = np.zeros(len(ts), dtype=np.int64)
        hit = np.zeros(len(ts), dtype=bool)
        with self._lock:
            a[small], hit[small] = self._held(p, ts[small].astype(np.int64))
            for i in np.flatnonzero(~small):
                prev = self._held_big((p, ts[i]))
                if prev is not None:
                    a[i], hit[i] = prev, True
        return a, hit

    def put_many(self, p: int, ts, a) -> None:
        """Add the rows (p, ts[i], a[i]).  A row already held must agree and is
        not re-put; a Hasse violation or a disagreement refuses the whole batch."""
        ts = param_array(ts)
        a = np.asarray(a, dtype=np.int64)
        lim = math.isqrt(4 * p) if p >= 0 else -1
        out = np.flatnonzero((a < -lim) | (a > lim))
        if out.size:
            raise CacheError(f"refusing record violating Hasse: p={p}, a={a[out[0]]}")
        small = _fits(p, ts)
        t64, a64 = ts[small].astype(np.int64), a[small]
        with self._lock:
            prev, held = self._held(p, t64)
            clash = np.flatnonzero(held & (prev != a64))
            if clash.size:
                i = clash[0]
                raise CacheError(f"conflicting trace for ({p},{t64[i]}): {prev[i]} vs {a64[i]}")
            t64, a64 = t64[~held], a64[~held]
            new_t, first, where = np.unique(t64, return_index=True, return_inverse=True)
            new_a = a64[first]
            clash = np.flatnonzero(new_a[where] != a64)
            if clash.size:
                i = clash[0]
                raise CacheError(
                    f"conflicting trace for ({p},{t64[i]}): {new_a[where[i]]} vs {a64[i]}")
            new_big: dict[tuple[int, int], int] = {}
            for t, v in zip(ts[~small].tolist(), a[~small].tolist()):
                prev = self._held_big((p, t))
                if prev is None:
                    prev = new_big.setdefault((p, t), v)
                if prev != v:
                    raise CacheError(f"conflicting trace for ({p},{t}): {prev} vs {v}")
            self._pending.add(p, new_t, new_a)
            self._pending.big.update(new_big)

    def get(self, p: int, t: int) -> int | None:
        a, hit = self.lookup(p, [t])
        return int(a[0]) if hit[0] else None

    def put(self, rec: TraceRecord) -> None:
        if rec.a * rec.a > 4 * rec.p:
            raise CacheError(f"refusing record violating Hasse: p={rec.p}, a={rec.a}")
        self.put_many(rec.p, [rec.t], [rec.a])

    def flush(self) -> None:
        """Append pending rows (ascending (p, t)) under an advisory lock."""
        if not len(self._pending):
            return
        text = _format_rows(self._pending)
        with open(self.path, "a+b") as fh:  # a+: pread needs read access
            fd = fh.fileno()
            fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                size = _complete_length(fd, os.fstat(fd).st_size)
                os.ftruncate(fd, size)
                if size == 0:
                    fh.write((_MAGIC + self.fingerprint + "\n").encode("ascii"))
                fh.write(text)
                fh.flush()
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
        self._rows.update(self._pending)
        self._pending = _Rows()

    def close(self) -> None:
        self.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __len__(self):
        return len(self._rows) + len(self._pending)

    def keys(self) -> list[tuple[int, int]]:
        """The (p, t) keys stored in the file or pending a flush."""
        with self._lock:
            return self._rows.keys() + self._pending.keys()


def _parse_body(body: str) -> _Rows | None:
    """Rows of a body made only of `p,t,a` lines with at most 18 digits per
    field (so values and their differences fit int64), parsed and checked
    with numpy.  None when the body has any other line, a Hasse violation or
    a conflicting duplicate; `_parse_lines` then decides, exactly as it
    always has."""
    if not body:
        return _Rows()
    b = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    sep = np.flatnonzero((b == ord(",")) | (b == ord("\n")))
    minus = np.count_nonzero(b == ord("-"))
    if np.count_nonzero(b - np.uint8(ord("0")) < 10) + len(sep) + minus != len(b):
        return None  # a byte that is no digit, sign or separator
    if len(sep) % 3 or (b[sep].reshape(-1, 3) != np.frombuffer(b",,\n", np.uint8)).any():
        return None
    start = np.concatenate(([0], sep[:-1] + 1))
    neg = b[start] == ord("-")  # an empty field starts on its own separator
    digits = sep - start - neg
    if digits.min() < 1 or digits.max() > 18 or minus != np.count_nonzero(neg):
        return None
    vals = np.fromstring(body.replace("\n", ","), dtype=np.int64, sep=",")
    p, t, a = vals[0::3], vals[1::3], vals[2::3]

    dp, dt = np.diff(p), np.diff(t)
    if ((dp < 0) | ((dp == 0) & (dt < 0))).any():  # appended by more than one flush
        order = np.lexsort((t, p))
        p, t, a = p[order], t[order], a[order]
        dp, dt = np.diff(p), np.diff(t)
    same = (dp == 0) & (dt == 0)
    if (same & (a[1:] != a[:-1])).any():
        return None
    if same.any():
        keep = np.concatenate(([True], ~same))
        p, t, a = p[keep], t[keep], a[keep]
    starts = np.concatenate(([0], np.flatnonzero(p[1:] != p[:-1]) + 1))
    primes = p[starts].tolist()
    lim = np.repeat([math.isqrt(4 * q) if q >= 0 else -1 for q in primes],
                    np.diff(np.append(starts, len(p))))
    if ((a < -lim) | (a > lim)).any():
        return None

    rows = _Rows()
    for q, ts, az in zip(primes, np.split(t, starts[1:]), np.split(a, starts[1:])):
        rows.by_p[q] = (ts, az)
    return rows


def _parse_lines(path: str, body: str) -> dict[tuple[int, int], int]:
    """The exact line parser: every row as Python ints, or a CacheError that
    names the first bad line."""
    rows: dict[tuple[int, int], int] = {}
    for lineno, line in enumerate(body.split("\n")[:-1], start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        try:
            p, t, a = int(parts[0]), int(parts[1]), int(parts[2])
            if len(parts) != 3:
                raise ValueError
        except (ValueError, IndexError):
            raise CacheError(f"{path}:{lineno}: malformed row {line!r}") from None
        if a * a > 4 * p:
            raise CacheError(f"{path}:{lineno}: Hasse violation p={p}, a={a}")
        prev = rows.get((p, t))
        if prev is not None and prev != a:
            raise CacheError(f"{path}:{lineno}: conflicting duplicate for ({p},{t})")
        rows[(p, t)] = a
    return rows


def _rows_of(rows: dict[tuple[int, int], int]) -> _Rows:
    out = _Rows()
    by_p: dict[int, list[tuple[int, int]]] = {}
    for (p, t), a in rows.items():
        if -_I64 < p < _I64 and -_I64 < t < _I64:
            by_p.setdefault(p, []).append((t, a))
        else:
            out.big[(p, t)] = a
    for p, ta in by_p.items():
        ts, az = np.array(sorted(ta), dtype=np.int64).T
        out.by_p[p] = (ts.copy(), az.copy())
    return out


def _format_rows(rows: _Rows) -> bytes:
    """The lines `p,t,a` of `rows` in ascending (p, t), as f"{p},{t},{a}"
    writes them."""
    primes = sorted(rows.by_p)
    sizes = [len(rows.by_p[q][0]) for q in primes]
    empty = [np.zeros(0, dtype=np.int64)]
    buf, ends = _decimal_lines((np.repeat(np.array(primes, dtype=np.int64), sizes),
                                np.concatenate(empty + [rows.by_p[q][0] for q in primes]),
                                np.concatenate(empty + [rows.by_p[q][1] for q in primes])))
    # big rows go before the int64 rows of their prime when t < 0, after them when t > 0
    first_row = np.concatenate(([0], np.cumsum(sizes))).tolist()
    out, done = [], 0
    for (p, t), a in sorted(rows.big.items()):
        i = bisect.bisect_left(primes, p)
        k = first_row[i + 1] if i < len(primes) and primes[i] == p and t > 0 else first_row[i]
        cut = int(ends[k - 1]) if k else 0
        out += [buf[done:cut].tobytes(), f"{p},{t},{a}\n".encode("ascii")]
        done = cut
    out.append(buf[done:].tobytes())
    return b"".join(out)


def _decimal_lines(cols) -> tuple[np.ndarray, np.ndarray]:
    """ASCII lines `c0,c1,...` of int64 columns with |value| < 2^63, one
    digit position at a time.  Returns the bytes and each line's end offset."""
    n = len(cols[0])
    fields = []
    width = np.zeros(n, dtype=np.int64)
    for c in cols:
        neg = c < 0
        mag = np.abs(c).astype(np.uint64)
        ndig = np.maximum(np.searchsorted(_POW10, mag, side="right"), 1)
        fields.append((neg, mag, ndig))
        width += neg + ndig + 1  # the sign, the digits and a separator
    ends = np.cumsum(width)
    buf = np.full(int(ends[-1]) if n else 0, ord(","), dtype=np.uint8)
    pos = ends - width
    for neg, mag, ndig in fields:
        buf[pos[neg]] = ord("-")
        last = pos + neg + ndig - 1  # the units digit
        for j in range(int(ndig.max()) if n else 0):
            live = ndig > j
            buf[last[live] - j] = (mag[live] // _POW10[j] % 10 + ord("0")).astype(np.uint8)
        pos = last + 2
    buf[ends - 1] = ord("\n")
    return buf, ends


def _complete_length(fd: int, size: int, chunk: int = 4096) -> int:
    """Length of the file up to and including its last newline."""
    end = size
    while end > 0:
        start = max(0, end - chunk)
        i = os.pread(fd, end - start, start).rfind(b"\n")
        if i >= 0:
            return start + i + 1
        end = start
    return 0


def open_cache(path: str, fam: FamilyPoly) -> TraceCache:
    """Open (or create lazily) the cache for this family; fingerprint must match."""
    return TraceCache(path, fingerprint_hex(fam))
