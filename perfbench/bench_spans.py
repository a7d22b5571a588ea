"""In-memory span and count recorder for the benchmark's traced run.

A span has a name, a start, an end and a parent span. Spans are opened and
closed around calls into the tsplocal layers, either from the benchmark's own
code or by wrapping the attribute through which one tsplocal module calls a
public function of another. Counts are recorded at the same boundaries. Both
stay in memory until the run ends.

Untraced runs never construct a Tracer and never install a wrapper.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from array import array
from collections import Counter


class Tracer:
    """Spans and counts of one traced pass, kept in flat arrays."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.counts: Counter[str] = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        if self._open.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def wrap(self, name: str, fn):
        """`fn` with a span named `name` around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def wrap_class(self, name: str, cls):
        """A subclass of `cls` whose construction is one span.

        A subclass, not a function, so that `isinstance` checks against the
        wrapped attribute still hold for the objects it builds.
        """
        tracer = self

        def __init__(obj, *args, **kwargs):
            idx = tracer.open(name)
            try:
                cls.__init__(obj, *args, **kwargs)
            finally:
                tracer.close(idx)

        return type(cls.__name__, (cls,), {"__slots__": (), "__init__": __init__})

    # -- wrapping module attributes -----------------------------------------

    def install(self, patches) -> None:
        """Wrap each (module, attribute, span name) until `uninstall`."""
        for module_name, attr, span_name in patches:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            if isinstance(original, type):
                wrapped = self.wrap_class(span_name, original)
            else:
                wrapped = self.wrap(span_name, original)
            self._patches.append((module, attr, original))
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- aggregation ----------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Children of one span run one after another on one thread, so the time
        they cover is the sum of their durations.
        """
        dur = self.durations()
        own = list(dur)
        for idx, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= dur[idx]
        return own

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: `calls`, `busy_s` (sum of durations) and `self_s`."""
        dur = self.durations()
        own = self.self_times()
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names}
        for idx, nid in enumerate(self.name):
            agg = out[self.names[nid]]
            agg["calls"] += 1
            agg["busy_s"] += dur[idx]
            agg["self_s"] += own[idx]
        return out

    def top_level_s(self, exclude=()) -> float:
        """Total duration of the spans that have no parent."""
        skip = {self._name_ids[n] for n in exclude if n in self._name_ids}
        return sum(
            self.end[i] - self.start[i]
            for i, par in enumerate(self.parent)
            if par < 0 and self.name[i] not in skip
        )

    def write(self, path: str) -> None:
        """Write every span and count as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            for i, nid in enumerate(self.name):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": self.names[nid],
                            "parent": self.parent[i],
                            "start": self.start[i],
                            "end": self.end[i],
                        }
                    )
                    + "\n"
                )
            fh.write(json.dumps({"counts": dict(sorted(self.counts.items()))}) + "\n")
