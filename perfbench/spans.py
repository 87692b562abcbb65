"""In-memory spans around calls into desbal, recorded from outside the package.

A `Tracer` replaces chosen module or class attributes with wrappers that open
a span before the call and close it after. Spans are kept as parallel lists
(name, start, end, parent) and turned into per-name totals only when the run
is over, so recording costs two clock reads and a few list appends per call.
"""

import functools
import time


class Tracer:
    """Records nested spans and named counters for one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counters = {}
        self._open = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(None)
        self._open.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        if self._open.pop() != idx:
            raise RuntimeError("spans must close in the order they opened")

    def count(self, name: str, amount=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, owner, attr: str, name, on_result=None) -> None:
        """Route calls of `owner.attr` through a span.

        `name` is the span name, or a function of the call's arguments that
        returns it. `on_result(tracer, result, args, kwargs)` runs after the
        span has closed, to update counters from the returned value.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_result is not None:
                on_result(tracer, result, args, kwargs)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list:
        """Each span's duration minus the part of it covered by its children."""
        children = [[] for _ in self.names]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append(idx)
        result = []
        for idx, kids in enumerate(children):
            start, end = self.starts[idx], self.ends[idx]
            covered = 0.0
            reach = start
            for kid in sorted(kids, key=self.starts.__getitem__):
                lo = max(self.starts[kid], reach)
                hi = min(self.ends[kid], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            result.append((end - start) - covered)
        return result

    def totals(self, since: float = float("-inf")) -> dict:
        """name -> [calls, inclusive seconds, self seconds] over spans opened
        at or after `since`."""
        out = {}
        for name, start, end, own in zip(self.names, self.starts, self.ends, self.self_times()):
            if start < since:
                continue
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += own
        return out


def module_of(span_name: str) -> str:
    """Layer a span belongs to: the text before its first dot."""
    return span_name.split(".", 1)[0]
