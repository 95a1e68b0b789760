"""In-memory spans around the benchmark's calls into the package.

A span records name, start, end, parent span and item id.  Spans stay in a
list while the workload runs and are written out once at the end.  With
recording off, :meth:`Tracer.call` is a plain call.
"""

import json
import statistics
from time import perf_counter


class Tracer:
    def __init__(self):
        self.recording = False
        self.item = None
        self.spans = []          # [name, start, end, parent index or None, item id]
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        if not self.recording:
            return fn(*args, **kwargs)
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._open[-1] if self._open else None,
                           self.item])
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[index][2] = perf_counter()

    def self_times(self):
        """Each span's duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def layer_stats(self, rounds):
        """{name: (calls, busy_s, self_s, p50_ms)}, counts and sums per traced round."""
        durations, selfs = {}, {}
        for span, own in zip(self.spans, self.self_times()):
            durations.setdefault(span[0], []).append(span[2] - span[1])
            selfs[span[0]] = selfs.get(span[0], 0.0) + own
        return {name: (len(d) / rounds, sum(d) / rounds, selfs[name] / rounds,
                       1e3 * statistics.median(d))
                for name, d in durations.items()}

    def write(self, path):
        keys = ("name", "start", "end", "parent", "item")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)
