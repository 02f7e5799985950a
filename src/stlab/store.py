"""Persistent trace cache: one line-oriented text file per family.

Line 1 is `# stlab-cache v1 family=<hex16>`; every other line is `p,t,a` in
decimal.  Readers load the whole file; the single writer appends new rows in
ascending (p, t) order while holding an advisory lock.  A line ends at a CR,
an LF or a CRLF, as text mode reads line ends, for the readers and the
writer alike.  An unterminated final line is the torn tail of an interrupted
append: readers skip it and the next writer truncates it under the lock,
after it has checked, under the same lock, that a file it did not create
holds this family's header.

In memory the rows of each prime are a sorted array of t with the matching
traces, so one prime's parameters are looked up and stored with a few numpy
calls (`lookup`, `put_many`).  The t array is int64 until a row of that prime
leaves int64 (high powers in geometric progressions), and exact Python ints
(dtype object) from then on.  One table holds every row, loaded, flushed or
put since, and every read searches it once; the rows put since the last
flush are also queued for the flush, which alone reads the queue.

A load first reads the file as bytes, for the header, the ASCII check and
the number n of whole body lines, before any torn tail, and drops those
bytes.  numpy's text reader then reads the n lines from the file into an
n x 3 int64 block of p, t and a, which is checked for order, duplicates
and the Hasse bound (per prime, against the largest and smallest a); each
prime's t and a are views of the block, so a load peaks at about 28 bytes
per row of 12 and then holds the block's 24.  A line numpy cannot read as
three int64 fields, or a failed check, sends the file through the exact
line parser instead, which names the bad line: it reads the file again,
reads its line ends as the first read did and takes the same n lines.
Every read sees the same n lines: the single writer only appends, under its
lock, and truncates only a torn tail, which lies past the last line end of
any read.  A flush formats each prime's rows `_SLICE` at a time, one bytes
%-format of Python ints per piece whatever the dtype of t, and writes each
piece under its lock as it is made, so it holds one piece and its work.
"""

from __future__ import annotations

import fcntl
import os
import re
import threading
import warnings
from collections.abc import Iterator

import numpy as np

from .errors import CacheError
from .family import FamilyPoly, fingerprint_hex
from .traces import TraceRecord, hasse_limit, param_array

_MAGIC = "# stlab-cache v1 family="
_I64 = 1 << 63
_SLICE = 4096  # rows per formatted piece of a flush
# numpy's reader opens a path by its suffix (a cache named "x.gz" would be
# read as gzip), so such a cache goes to the line parser; and it takes a
# relative path with a scheme ("a://b") for a URL, so it is given absolute paths
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _alike(x: np.ndarray, y: np.ndarray):
    """x and y in one dtype: int64 when both are, exact Python ints otherwise."""
    if x.dtype == y.dtype:
        return x, y
    return x.astype(object), y.astype(object)


class _Rows:
    """(p, t) -> a.  Per prime: ascending t (int64, or dtype object once a t
    leaves int64) and the matching int64 a.  A loaded prime's t and a are
    strided views of the loader's block; `searchsorted` copies one prime's
    t per call, and `add` replaces both with new arrays."""

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


class TraceCache:
    def __init__(self, path: str, fingerprint: str):
        self.path = path
        self.fingerprint = fingerprint
        self._rows = _Rows()  # every row held; each read searches it alone
        self._pending = _Rows()  # the rows put since the last flush, for it alone
        self._lock = threading.Lock()  # callers may share one handle across threads
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):  # else flush fails only after the whole run
            raise CacheError(f"{path}: cannot write: {folder} is not a directory")
        self._load()

    def _load(self):
        if not os.path.exists(self.path):
            return
        data, end = self._header(_read(self.path))
        if end < 0:
            return
        stop = data.rfind(b"\n") + 1  # without the torn tail
        n = data.count(b"\n", end + 1, stop)
        # numpy reads the separators 0x1c-0x1f as whitespace; int() refuses them
        plain = not any(c in data for c in b"\x1c\x1d\x1e\x1f")
        del data  # the parse holds the rows, not the file
        rows = _parse_body(self.path, n) if plain else None
        if rows is None:  # not rows numpy reads, or a bad row: the line parser names it
            body = _text_newlines(_read(self.path))[end + 1:stop].decode("ascii")
            rows = _rows_of(_parse_lines(self.path, body))
        self._rows = rows

    def _header(self, data: bytes) -> tuple[bytes, int]:
        """data, the file's first bytes, with its line ends read as text mode
        reads them, and the end of its header line: -1 when data is empty or
        torn inside the first header write.  A CacheError when data is not
        ASCII or not the header of this family's cache."""
        if not data.isascii():
            at = re.search(rb"[\x80-\xff]", data).start()
            # line ends before it, read as _text_newlines reads them
            ends = data.count(b"\n", 0, at) + data.count(b"\r", 0, at) - data.count(b"\r\n", 0, at)
            raise CacheError(f"{self.path}:{ends + 1}: a byte that is not ASCII")
        data = _text_newlines(data)
        end = data.find(b"\n")
        if end < 0 and (_MAGIC + self.fingerprint).encode("ascii").startswith(data):
            return data, -1
        if not data.startswith(_MAGIC.encode("ascii")):
            raise CacheError(f"{self.path}: not a trace cache (bad header)")
        fp = data[len(_MAGIC):end if end >= 0 else len(data)].decode("ascii")
        if fp != self.fingerprint:
            raise CacheError(
                f"{self.path}: cache belongs to family {fp}, expected {self.fingerprint}"
            )
        return data, end

    def lookup(self, p: int, ts):
        """(a, hit) for the parameters ts at p: hit[i] marks a row stored or
        pending a flush, and a[i] is its trace (0 where not hit)."""
        ts = param_array(ts)
        with self._lock:
            return self._rows.find(p, ts)

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
            prev, held = self._rows.find(p, ts)
            clash = np.flatnonzero(held & (prev != a))
            if clash.size:
                i = clash[0]
                raise CacheError(f"conflicting trace for ({p},{ts[i]}): {prev[i]} vs {a[i]}")
            if held.all():
                return
            ts, a = ts[~held], a[~held]
            new_t, first, where = np.unique(ts, return_index=True, return_inverse=True)
            new_a = a[first]
            clash = np.flatnonzero(new_a[where] != a)
            if clash.size:
                i = clash[0]
                raise CacheError(
                    f"conflicting trace for ({p},{ts[i]}): {new_a[where[i]]} vs {a[i]}")
            self._rows.add(p, new_t, new_a)
            self._pending.add(p, new_t, new_a)

    def get(self, p: int, t: int) -> int | None:
        a, hit = self.lookup(p, [t])
        return int(a[0]) if hit[0] else None

    def put(self, rec: TraceRecord) -> None:
        self.put_many(rec.p, [rec.t], [rec.a])

    def flush(self) -> None:
        """Append the rows put since the last flush (ascending (p, t)) under an
        advisory lock.  A file that holds another family's header, or none, is
        refused with the load's CacheError and left as it was, and the rows
        stay held and queued."""
        if not len(self._pending):
            return
        try:
            with open(self.path, "a+b") as fh:  # a+: pread needs read access
                fd = fh.fileno()
                fcntl.flock(fd, fcntl.LOCK_EX)
                try:
                    size = os.fstat(fd).st_size
                    if size:  # another writer may have made the file since the load
                        self._header(_first_line(fd, size))
                    size = _complete_length(fd, size)
                    os.ftruncate(fd, size)
                    if size == 0:
                        fh.write((_MAGIC + self.fingerprint + "\n").encode("ascii"))
                    fh.writelines(_format_rows(self._pending))
                    fh.flush()
                finally:
                    fcntl.flock(fd, fcntl.LOCK_UN)
        except OSError as e:
            raise CacheError(f"{self.path}: cannot write: {e.strerror}") from None
        self._pending = _Rows()

    def close(self) -> None:
        self.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __len__(self):
        return len(self._rows)

    def keys(self) -> list[tuple[int, int]]:
        """The (p, t) keys stored in the file or pending a flush."""
        with self._lock:
            return self._rows.keys()

    def primes(self) -> list[int]:
        """The primes of the rows stored in the file or pending a flush, ascending."""
        with self._lock:
            return sorted(self._rows.by_p)


def _read(path: str) -> bytes:
    """The bytes of the file at path; a failed read is a CacheError."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise CacheError(f"{path}: cannot read: {e.strerror}") from None


def _text_newlines(data: bytes) -> bytes:
    """data with its line ends read as text mode reads them (universal newlines)."""
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


def _parse_body(path: str, n: int) -> _Rows | None:
    """Rows of the first n body lines of the file at path, read by numpy's
    text reader as an n x 3 int64 block and checked.  None when a line is
    not a `p,t,a` row numpy reads into int64, or on a Hasse violation or a
    conflicting duplicate; `_parse_lines` then decides."""
    if not n:
        return _Rows()
    if path.endswith(_COMPRESSED):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns when max_rows skips a blank line
            block = np.loadtxt(os.path.abspath(path), dtype=np.int64, delimiter=",",
                               comments=None, skiprows=1, max_rows=n, ndmin=2,
                               encoding="ascii")
    except OSError as e:
        raise CacheError(f"{path}: cannot read: {e.strerror}") from None
    except (ValueError, OverflowError, UnicodeError, Warning):
        return None
    if block.shape != (n, 3):
        return None
    return _checked_rows(block)


def _checked_rows(block: np.ndarray) -> _Rows | None:
    """The rows of the n x 3 int64 block of (p, t, a), or None on a
    conflicting duplicate or a Hasse violation.  Each prime's t and a are
    views of the block, or of its sorted copy."""
    p, t, a = block.T
    # neighbours are compared, not differenced: a difference of two int64
    # fields can wrap
    same_p = p[1:] == p[:-1]
    if ((p[1:] < p[:-1]) | (same_p & (t[1:] < t[:-1]))).any():  # more than one flush
        block = block[np.lexsort((t, p))]
        p, t, a = block.T
        same_p = p[1:] == p[:-1]
    same = same_p & (t[1:] == t[:-1])
    if (same & (a[1:] != a[:-1])).any():
        return None
    if same.any():
        block = block[np.concatenate(([True], ~same))]
        p, t, a = block.T
    starts = np.concatenate(([0], np.flatnonzero(p[1:] != p[:-1]) + 1))
    primes = p[starts].tolist()
    lim = np.array([hasse_limit(q) for q in primes], dtype=np.int64)
    if ((np.maximum.reduceat(a, starts) > lim) | (np.minimum.reduceat(a, starts) < -lim)).any():
        return None

    rows = _Rows()
    rows.by_p = dict(zip(primes, zip(np.split(t, starts[1:]), np.split(a, starts[1:]))))
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


def _format_rows(rows: _Rows) -> Iterator[bytes]:
    """The lines `p,t,a` of `rows` in ascending (p, t), as f"{p},{t},{a}"
    writes them, one piece per _SLICE rows of a prime, made as the writer
    asks for it.  int64 and exact-int t format alike: each piece is one
    bytes %-format of Python ints."""
    for q in sorted(rows.by_p):
        ts, a = rows.by_p[q]
        line = b"%d,%%d,%%d\n" % q
        for s in range(0, len(ts), _SLICE):
            t = ts[s:s + _SLICE].tolist()
            fields = [0] * (2 * len(t))
            fields[::2], fields[1::2] = t, a[s:s + _SLICE].tolist()
            yield line * len(t) % tuple(fields)


def _complete_length(fd: int, size: int, chunk: int = 4096) -> int:
    """Length of the file up to and including its last line end, a CR or an
    LF, as the loader reads line ends."""
    end = size
    while end > 0:
        start = max(0, end - chunk)
        piece = os.pread(fd, end - start, start)
        i = max(piece.rfind(b"\n"), piece.rfind(b"\r"))
        if i >= 0:
            return start + i + 1
        end = start
    return 0


def _first_line(fd: int, size: int, chunk: int = 4096) -> bytes:
    """The file's bytes up to and including its first line end, or all of them."""
    head = b""
    while len(head) < size:
        piece = os.pread(fd, chunk, len(head))
        if not piece:
            break
        head += piece
        m = re.search(rb"[\r\n]", head)
        if m:
            return head[:m.end()]
    return head


def open_cache(path: str, fam: FamilyPoly) -> TraceCache:
    """Open (or create lazily) the cache for this family; fingerprint must match."""
    return TraceCache(path, fingerprint_hex(fam))
