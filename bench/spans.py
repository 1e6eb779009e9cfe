"""Spans around calls into the program, recorded from outside it.

A Tracer wraps functions where their callers look them up (a module global
or a class attribute) and records one span per call: name, start, end and
the enclosing span. A span's self time is its duration minus the time of
the wrapped calls inside it. Work the benchmark itself does inside a hook
(correctness checks) runs through `excluded`, so no layer is charged for it.
"""

from __future__ import annotations

import gzip
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import thread_time

# Every time here is CPU time of the (single) benchmark thread. The machine
# is a shared VM whose wall clock includes time stolen by other tenants
# (3-11% of a pass, varying run to run); CPU time leaves that out.
clock = thread_time


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, self.original(owner, name)))
        setattr(owner, name, value)

    @staticmethod
    def original(owner, name):
        """The attribute as stored: a class's plain function, not a bound method."""
        return vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)

    def restore(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)


class Tracer:
    def __init__(self):
        self.names: dict[str, int] = {}
        # One entry per finished span, in the order spans end.
        self.ids, self.name_ids, self.parents = array("q"), array("H"), array("q")
        self.starts, self.ends = array("d"), array("d")
        self._next_id = 0
        self._stack: list[list] = []  # open spans: [span id, child seconds]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.excluded_s = 0.0
        self.patches = Patches()

    def wrap(self, owner, attr: str, name: str, after=None, keep_durations=False):
        """Replace owner.attr by a spanned call. `after(result, args)` runs
        once the span is closed, for counts and checks."""
        fn = self.patches.original(owner, attr)
        name_id = self.names.setdefault(name, len(self.names))
        stack, self_s, calls = self._stack, self.self_s, self.calls
        ids, name_ids, parents = self.ids, self.name_ids, self.parents
        starts, ends = self.starts, self.ends
        durations = self.durations[name] if keep_durations else None

        def spanned(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                ids.append(span_id)
                name_ids.append(name_id)
                parents.append(parent)
                starts.append(start)
                ends.append(end)
                if durations is not None:
                    durations.append(duration)
            if after is not None:
                after(result, args)
            return result

        self.patches.set(owner, attr, spanned)

    def excluded(self, fn, *args):
        """Run benchmark work inside a hook without charging any span."""
        start = clock()
        try:
            return fn(*args)
        finally:
            duration = clock() - start
            self.excluded_s += duration
            if self._stack:
                self._stack[-1][1] += duration

    @contextmanager
    def installed(self, install):
        """Install wrappers with `install(self)`, remove them on exit."""
        install(self)
        try:
            yield self
        finally:
            self.patches.restore()

    def write(self, path) -> None:
        """Write every span as CSV rows: id, name, start_us, end_us, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min(self.starts) if self.starts else 0.0
        names = list(self.names)
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start_us,end_us,parent\n")
            for i in range(len(self.ids)):
                fh.write(
                    f"{self.ids[i]},{names[self.name_ids[i]]},"
                    f"{(self.starts[i] - origin) * 1e6:.1f},"
                    f"{(self.ends[i] - origin) * 1e6:.1f},{self.parents[i]}\n"
                )


class CallTimer:
    """The one wrapper of an untraced run: times each call of a decision
    function and keeps the object it was called on."""

    def __init__(self, owner, attr: str):
        self.owner, self.attr = owner, attr
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.last_self = None

    @contextmanager
    def installed(self):
        fn = vars(self.owner)[self.attr]
        starts, durations = self.starts, self.durations

        def timed(obj, *args, **kwargs):
            start = clock()
            result = fn(obj, *args, **kwargs)
            durations.append(clock() - start)
            starts.append(start)
            self.last_self = obj
            return result

        setattr(self.owner, self.attr, timed)
        try:
            yield self
        finally:
            setattr(self.owner, self.attr, fn)

    def reset(self) -> None:
        self.starts.clear()
        self.durations.clear()
