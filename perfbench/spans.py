"""Span recorder for the traced benchmark run.

The recorder lives entirely in the benchmark: it replaces the public
functions of every `stlab` module, in every module namespace that resolves
them, with wrappers that time each call.  A span is named after the name the
caller resolves (`stlab.experiments.residue_traces` is the `residue_traces`
that `experiments` calls) and belongs to the layer, the module, that defines
the function.  Class methods are wrapped on the class (`TraceCache.get`) or
behind a proxy for the class name a module resolves (`stlab.traces.ResidueTable`).

Spans nest through a context variable.  `ThreadPoolExecutor` is replaced in
the `stlab` namespaces by a subclass that runs each task in a copy of the
submitting context, so spans opened in pool threads nest under the span that
submitted them.  A span's self time is its duration minus the union of its
children's intervals, which stays correct when children run in parallel.

Spans are folded into per-name totals as they close, so memory does not grow
with the number of calls.
"""

from __future__ import annotations

import contextvars
import inspect
import threading
import time
from concurrent.futures import ThreadPoolExecutor

_now = time.perf_counter_ns
_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)

# the per-prime unit of the mixed experiments: private, but its busy time is
# what pool parallelism is measured against
PRIVATE_SPANS = {"stlab.experiments": ("_interval_count_at_prime",)}


class _Frame:
    __slots__ = ("children",)

    def __init__(self):
        self.children = []  # (start_ns, end_ns) of closed child spans


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, reach = 0, lo
    for a, b in sorted(intervals):
        b = min(b, hi)
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


class _ContextPool(ThreadPoolExecutor):
    """Runs each task in a copy of the submitting thread's context."""

    def submit(self, fn, /, *args, **kwargs):
        ctx = contextvars.copy_context()
        return super().submit(ctx.run, fn, *args, **kwargs)


class _ClassProxy:
    """Stands in for a class name in one namespace; wrapped classmethods are
    attributes, everything else falls through to the class."""

    def __init__(self, cls, methods: dict):
        self._cls = cls
        self.__dict__.update(methods)

    def __getattr__(self, name):
        return getattr(self._cls, name)

    def __call__(self, *args, **kwargs):
        return self._cls(*args, **kwargs)


class Recorder:
    """Collects per-name call counts, busy time and self time, plus counters.

    Totals are kept per thread and merged on demand, so closing a span takes
    no lock.  `hooks` maps a function's qualified name to an `after(rec, args,
    kwargs, result)` callable that updates counters; the time it takes is
    excluded from the parent's self time.  Functions named in `counted` are
    called hundreds of thousands of times per pass: they only count calls
    (and run their hook), and their time stays in the caller's self time.
    """

    def __init__(self, hooks: dict | None = None, counted: frozenset = frozenset()):
        self.hooks = hooks or {}
        self.counted = counted
        self.layer_of: dict[str, str] = {}
        self._local = threading.local()
        self._tables: list[tuple[dict, dict]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- per-thread accumulation -------------------------------------------

    def _mine(self):
        mine = getattr(self._local, "tables", None)
        if mine is None:
            mine = self._local.tables = ({}, {})
            self._tables.append(mine)  # list.append is atomic
        return mine

    def count(self, key: str, n=1) -> None:
        counters = self._mine()[1]
        counters[key] = counters.get(key, 0) + n

    def stats(self) -> dict[str, list[int]]:
        """name -> [calls, busy_ns, self_ns], merged over threads."""
        out: dict[str, list[int]] = {}
        for spans, _ in self._tables:
            for name, row in spans.items():
                acc = out.setdefault(name, [0, 0, 0])
                for i in range(3):
                    acc[i] += row[i]
        return out

    def counters(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for _, counters in self._tables:
            for key, n in counters.items():
                out[key] = out.get(key, 0) + n
        return out

    # -- spans -------------------------------------------------------------

    def wrap(self, fn, name: str, layer: str):
        self.layer_of[name] = layer
        after = self.hooks.get(fn.__qualname__)
        if fn.__qualname__ in self.counted:
            return self._wrap_counted(fn, name, after)
        rec = self

        def traced(*args, **kwargs):
            parent = _current.get()
            frame = _Frame()
            token = _current.set(frame)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _now()
                _current.reset(token)
                rec._close(name, frame, parent, t0, t1)
            if after is not None:
                h0 = _now()
                after(rec, args, kwargs, result)
                h1 = _now()
                rec._close("perfbench.hook", _Frame(), parent, h0, h1)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _wrap_counted(self, fn, name: str, after):
        rec = self

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            spans = rec._mine()[0]
            row = spans.get(name)
            if row is None:
                spans[name] = [1, 0, 0]
            else:
                row[0] += 1
            if after is not None:
                after(rec, args, kwargs, result)
            return result

        counted.__wrapped__ = fn
        counted.__name__ = fn.__name__
        return counted

    def _close(self, name, frame, parent, t0, t1):
        dur = t1 - t0
        own = dur - covered_ns(frame.children, t0, t1) if frame.children else dur
        spans = self._mine()[0]
        row = spans.get(name)
        if row is None:
            spans[name] = [1, dur, own]
        else:
            row[0] += 1
            row[1] += dur
            row[2] += own
        if parent is not None:
            parent.children.append((t0, t1))

    # -- installing wrappers -----------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, modules) -> None:
        """Wrap the public functions and class methods of `modules` in every
        one of their namespaces."""
        self.layer_of["perfbench.hook"] = "perfbench"
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if obj is ThreadPoolExecutor:
                    self._patch(mod, attr, _ContextPool)
                elif attr.startswith("_") and attr not in PRIVATE_SPANS.get(mod.__name__, ()):
                    continue
                elif inspect.isfunction(obj) and obj.__module__.startswith("stlab."):
                    self._patch(mod, attr, self.wrap(obj, f"{mod.__name__}.{attr}",
                                                     _layer(obj)))
                elif inspect.isclass(obj) and obj.__module__.startswith("stlab."):
                    self._install_class(mod, attr, obj)

    def _install_class(self, mod, attr, cls) -> None:
        prefix = f"{mod.__name__}.{attr}"
        layer = _layer(cls)
        methods = {}
        for name, member in vars(cls).items():
            if name.startswith("_"):
                continue
            if isinstance(member, classmethod):
                methods[name] = self.wrap(getattr(cls, name), f"{prefix}.{name}", layer)
            elif inspect.isfunction(member) and cls.__module__ == mod.__name__:
                # instance methods are resolved through the class: wrap once,
                # in the defining module
                self._patch(cls, name, self.wrap(member, f"{prefix}.{name}", layer))
        if methods:
            self._patch(mod, attr, _ClassProxy(cls, methods))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


def _layer(obj) -> str:
    return obj.__module__.rsplit(".", 1)[-1]
