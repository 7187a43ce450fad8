"""In-memory spans and counters recorded by the benchmark around its calls
into the program's layers.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``op`` the id of the operation
it belongs to.  Spans stay in memory until the run ends; ``dump`` writes
them out.  A layer's self time is the duration of its spans minus the
part covered by their child spans.  Times are read from ``speed.clock``,
which leaves out the speed probe.
"""

import json
from speed import clock


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def span(self, name, op=None):
        return _Span(self, name, op)

    def add(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self):
        """Self time in seconds and span count, per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        times, calls = {}, {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            times[name] = times.get(name, 0.0) + (end - start) - child[i]
            calls[name] = calls.get(name, 0) + 1
        return times, calls


class _Span:
    __slots__ = ('tracer', 'record')

    def __init__(self, tracer, name, op):
        t = tracer
        parent = t._stack[-1] if t._stack else -1
        self.tracer = t
        self.record = [name, 0.0, 0.0, parent, op]

    def __enter__(self):
        t = self.tracer
        t._stack.append(len(t.spans))
        t.spans.append(self.record)
        self.record[1] = clock()
        return self.record

    def __exit__(self, *exc):
        self.record[2] = clock()
        self.tracer._stack.pop()
        return False


class NullTracer:
    """Stands in for ``Tracer`` in untraced rounds: records nothing."""
    enabled = False

    def __init__(self):
        self._record = [None] * 5

    def span(self, name, op=None):
        return self

    def __enter__(self):
        return self._record

    def __exit__(self, *exc):
        return False

    def add(self, name, n):
        pass


def dump(path, phases):
    """Write ``{phase: tracer}`` spans and counts as JSON to ``path``."""
    payload = {
        phase: {'fields': ['name', 'start', 'end', 'parent', 'op'],
                'spans': t.spans, 'counts': t.counts}
        for phase, t in phases.items()
    }
    with open(path, 'w') as fp:
        json.dump(payload, fp, separators=(',', ':'))
