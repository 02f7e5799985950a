"""Persistent trace cache: one line-oriented text file per family.

Line 1 is `# stlab-cache v1 family=<hex16>`; every other line is `p,t,a` in
decimal.  Readers load the whole file; the single writer appends new rows in
ascending (p, t) order while holding an advisory lock.  An unterminated final
line is the torn tail of an interrupted append: readers skip it and the next
writer truncates it under the lock.
"""

from __future__ import annotations

import fcntl
import os
import threading

from .errors import CacheError
from .family import FamilyPoly, fingerprint_hex
from .traces import TraceRecord

_MAGIC = "# stlab-cache v1 family="


class TraceCache:
    def __init__(self, path: str, fingerprint: str):
        self.path = path
        self.fingerprint = fingerprint
        self._rows: dict[tuple[int, int], int] = {}
        self._pending: dict[tuple[int, int], int] = {}
        self._lock = threading.Lock()  # experiments share one handle across workers
        self._load()

    def _load(self):
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="ascii") as fh:
            header = fh.readline()
            if not header.endswith("\n") and (_MAGIC + self.fingerprint).startswith(header):
                return  # empty, or torn inside the first header write
            header = header.rstrip("\n")
            if not header.startswith(_MAGIC):
                raise CacheError(f"{self.path}: not a trace cache (bad header)")
            fp = header[len(_MAGIC):]
            if fp != self.fingerprint:
                raise CacheError(
                    f"{self.path}: cache belongs to family {fp}, expected {self.fingerprint}"
                )
            for lineno, line in enumerate(fh, start=2):
                if not line.endswith("\n"):
                    break  # torn tail
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                try:
                    p, t, a = int(parts[0]), int(parts[1]), int(parts[2])
                    if len(parts) != 3:
                        raise ValueError
                except (ValueError, IndexError):
                    raise CacheError(f"{self.path}:{lineno}: malformed row {line!r}") from None
                if a * a > 4 * p:
                    raise CacheError(f"{self.path}:{lineno}: Hasse violation p={p}, a={a}")
                prev = self._rows.get((p, t))
                if prev is not None and prev != a:
                    raise CacheError(f"{self.path}:{lineno}: conflicting duplicate for ({p},{t})")
                self._rows[(p, t)] = a

    def get(self, p: int, t: int) -> int | None:
        key = (p, t)
        with self._lock:
            hit = self._rows.get(key)
            if hit is None:
                hit = self._pending.get(key)
            return hit

    def put(self, rec: TraceRecord) -> None:
        if rec.a * rec.a > 4 * rec.p:
            raise CacheError(f"refusing record violating Hasse: p={rec.p}, a={rec.a}")
        key = (rec.p, rec.t)
        with self._lock:
            prev = self._rows.get(key)
            if prev is None:
                prev = self._pending.get(key)
            if prev is not None:
                if prev != rec.a:
                    raise CacheError(
                        f"conflicting trace for ({rec.p},{rec.t}): {prev} vs {rec.a}")
                return  # idempotent re-put
            self._pending[key] = rec.a

    def flush(self) -> None:
        """Append pending rows (ascending (p, t)) under an advisory lock."""
        if not self._pending:
            return
        with open(self.path, "a+", encoding="ascii") as fh:  # a+: pread needs read access
            fd = fh.fileno()
            fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                size = _complete_length(fd, os.fstat(fd).st_size)
                os.ftruncate(fd, size)
                if size == 0:
                    fh.write(_MAGIC + self.fingerprint + "\n")
                for (p, t), a in sorted(self._pending.items()):
                    fh.write(f"{p},{t},{a}\n")
                fh.flush()
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
        self._rows.update(self._pending)
        self._pending.clear()

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
            return [*self._rows, *self._pending]


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
