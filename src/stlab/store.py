"""Persistent trace cache: one line-oriented text file per family.

Line 1 is `# stlab-cache v1 family=<hex16>`; every other line is `p,t,a` in
decimal.  Readers load the whole file; the single writer appends new rows in
ascending (p, t) order while holding an advisory lock.  An unterminated final
line is the torn tail of an interrupted append: readers skip it and the next
writer truncates it under the lock.

In memory the rows of each prime are a sorted array of t with the matching
traces, so one prime's parameters are looked up and stored with a few numpy
calls (`lookup`, `put_many`).  The t array is int64 until a row of that prime
leaves int64 (high powers in geometric progressions), and exact Python ints
(dtype object) from then on.
"""

from __future__ import annotations

import fcntl
import os
import threading

import numpy as np

from .errors import CacheError
from .family import FamilyPoly, fingerprint_hex
from .traces import TraceRecord, hasse_limit, param_array

_MAGIC = "# stlab-cache v1 family="
_I64 = 1 << 63
_POW10 = 10 ** np.arange(20, dtype=np.uint64)


def _alike(x: np.ndarray, y: np.ndarray):
    """x and y in one dtype: int64 when both are, exact Python ints otherwise."""
    if x.dtype == y.dtype:
        return x, y
    return x.astype(object), y.astype(object)


class _Rows:
    """(p, t) -> a.  Per prime: ascending t (int64, or dtype object once a t
    leaves int64) and the matching int64 a."""

    def __init__(self):
        self.by_p: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def __len__(self):
        return sum(len(t) for t, _ in self.by_p.values())

    def keys(self) -> list[tuple[int, int]]:
        return [(p, t) for p, (ts, _) in self.by_p.items() for t in ts.tolist()]

    def find(self, p: int, ts: np.ndarray):
        """(a, hit) for the parameters ts at p; a is 0 where not hit."""
        if p not in self.by_p:
            return np.zeros(len(ts), dtype=np.int64), np.zeros(len(ts), dtype=bool)
        held, a = self.by_p[p]
        held, ts = _alike(held, ts)
        i = np.searchsorted(held, ts)
        i[i == len(held)] = 0  # past the end: the key comparison rejects it
        hit = held[i] == ts
        return np.where(hit, a[i], 0), hit

    def add(self, p: int, ts: np.ndarray, a: np.ndarray) -> None:
        """Insert rows with ascending t, none of them held yet."""
        if not ts.size:
            return
        if ts.dtype == object:
            ts = param_array(ts.tolist())  # back to int64 when every t fits
        if p in self.by_p:
            held, old = self.by_p[p]
            held, ts = _alike(held, ts)
            i = np.searchsorted(held, ts)
            ts, a = np.insert(held, i, ts), np.insert(old, i, a)
        self.by_p[p] = (ts, a)

    def update(self, other: _Rows) -> None:
        for p, (ts, a) in other.by_p.items():
            self.add(p, ts, a)


class TraceCache:
    def __init__(self, path: str, fingerprint: str):
        self.path = path
        self.fingerprint = fingerprint
        self._rows = _Rows()
        self._pending = _Rows()
        self._lock = threading.Lock()  # callers may share one handle across threads
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):  # else flush fails only after the whole run
            raise CacheError(f"{path}: cannot write: {folder} is not a directory")
        self._load()

    def _load(self):
        if not os.path.exists(self.path):
            return
        try:
            with open(self.path, "r", encoding="ascii") as fh:
                text = fh.read()
        except OSError as e:
            raise CacheError(f"{self.path}: cannot read: {e.strerror}") from None
        except UnicodeDecodeError:
            with open(self.path, "rb") as fh:
                lines = fh.read().split(b"\n")
            bad = next(i for i, line in enumerate(lines, 1) if not line.isascii())
            raise CacheError(f"{self.path}:{bad}: a byte that is not ASCII") from None
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

    def _held(self, p: int, ts: np.ndarray):
        """(a, hit) over the stored and pending rows; hold the lock."""
        a_old, hit_old = self._rows.find(p, ts)
        a_new, hit_new = self._pending.find(p, ts)
        return np.where(hit_new, a_new, a_old), hit_old | hit_new

    def lookup(self, p: int, ts):
        """(a, hit) for the parameters ts at p: hit[i] marks a row stored or
        pending a flush, and a[i] is its trace (0 where not hit)."""
        ts = param_array(ts)
        with self._lock:
            return self._held(p, ts)

    def put_many(self, p: int, ts, a) -> None:
        """Add the rows (p, ts[i], a[i]).  A row already held must agree and is
        not re-put; a Hasse violation (at any size) or a disagreement refuses
        the whole batch."""
        ts = param_array(ts)
        a = param_array(a)
        lim = hasse_limit(p)
        out = np.flatnonzero((a < -lim) | (a > lim))
        if out.size:
            raise CacheError(f"refusing record violating Hasse: p={p}, a={a[out[0]]}")
        try:  # a trace within the Hasse bound leaves int64 only for p >= 2**124
            a = a.astype(np.int64, copy=False)
        except OverflowError:
            raise CacheError(f"refusing record whose trace leaves int64: p={p}") from None
        with self._lock:
            prev, held = self._held(p, ts)
            clash = np.flatnonzero(held & (prev != a))
            if clash.size:
                i = clash[0]
                raise CacheError(f"conflicting trace for ({p},{ts[i]}): {prev[i]} vs {a[i]}")
            ts, a = ts[~held], a[~held]
            new_t, first, where = np.unique(ts, return_index=True, return_inverse=True)
            new_a = a[first]
            clash = np.flatnonzero(new_a[where] != a)
            if clash.size:
                i = clash[0]
                raise CacheError(
                    f"conflicting trace for ({p},{ts[i]}): {new_a[where[i]]} vs {a[i]}")
            self._pending.add(p, new_t, new_a)

    def get(self, p: int, t: int) -> int | None:
        a, hit = self.lookup(p, [t])
        return int(a[0]) if hit[0] else None

    def put(self, rec: TraceRecord) -> None:
        self.put_many(rec.p, [rec.t], [rec.a])

    def flush(self) -> None:
        """Append pending rows (ascending (p, t)) under an advisory lock."""
        if not len(self._pending):
            return
        text = _format_rows(self._pending)
        try:
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
        except OSError as e:
            raise CacheError(f"{self.path}: cannot write: {e.strerror}") from None
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
    lim = np.repeat([hasse_limit(q) for q in primes], np.diff(np.append(starts, len(p))))
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
        if abs(a) > hasse_limit(p):
            raise CacheError(f"{path}:{lineno}: Hasse violation p={p}, a={a}")
        if not -_I64 <= a < _I64:
            raise CacheError(f"{path}:{lineno}: trace a={a} leaves int64")
        prev = rows.get((p, t))
        if prev is not None and prev != a:
            raise CacheError(f"{path}:{lineno}: conflicting duplicate for ({p},{t})")
        rows[(p, t)] = a
    return rows


def _rows_of(rows: dict[tuple[int, int], int]) -> _Rows:
    by_p: dict[int, list[tuple[int, int]]] = {}
    for (p, t), a in rows.items():
        by_p.setdefault(p, []).append((t, a))
    out = _Rows()
    for p, ta in by_p.items():
        ta.sort()
        out.by_p[p] = (param_array([t for t, _ in ta]),
                       np.array([a for _, a in ta], dtype=np.int64))
    return out


def _format_rows(rows: _Rows) -> bytes:
    """The lines `p,t,a` of `rows` in ascending (p, t), as f"{p},{t},{a}"
    writes them.  Primes whose rows are all int64 are formatted in one numpy
    pass; the rows of every other prime are spliced in at their prime."""
    primes = sorted(rows.by_p)
    # stored p are >= 0, since the Hasse check refuses every row at p < 0
    flat = [q for q in primes if rows.by_p[q][0].dtype == np.int64 and q < _I64]
    cols = [rows.by_p[q] for q in flat]
    sizes = [len(t) for t, _ in cols]
    empty = [np.zeros(0, dtype=np.int64)]
    buf, ends = _decimal_lines((np.repeat(np.array(flat, dtype=np.int64), sizes),
                                np.concatenate(empty + [t for t, _ in cols]),
                                np.concatenate(empty + [a for _, a in cols])))
    in_buf = set(flat)
    out, done, k = [], 0, 0  # k: the int64 rows before prime q
    for q in primes:
        ts, a = rows.by_p[q]
        if q in in_buf:
            k += len(ts)
            continue
        cut = int(ends[k - 1]) if k else 0
        out += [buf[done:cut].tobytes(),
                "".join(f"{q},{t},{v}\n" for t, v in zip(ts.tolist(), a.tolist())).encode("ascii")]
        done = cut
    out.append(buf[done:].tobytes())
    return b"".join(out)


def _decimal_lines(cols) -> tuple[np.ndarray, np.ndarray]:
    """ASCII lines `c0,c1,...` of int64 columns, one digit position at a
    time.  Returns the bytes and each line's end offset."""
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
