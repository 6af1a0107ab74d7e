"""Spans and call timers that wrap resicomp's layer entry points from outside.

Nothing here edits library code.  `Tracer.install` replaces module and
class attributes with wrappers, exactly where `resicomp.pipeline` and
`resicomp.cli` look them up, and `restore` puts the originals back.
Spans live in memory until the run ends.
"""

from __future__ import annotations

import json
from time import perf_counter

# Span name -> (owner attribute path, attribute).  Owners are looked up in
# the namespace returned by workloads.load_resicomp().  Each span name is
# also the layer metric prefix: "density.quantize_probs" -> *_s.
LAYER_ENTRY_POINTS = {
    "token_codec.analyze": ("pipeline", "analyze"),
    "token_codec.synthesize": ("pipeline", "synthesize"),
    "partition.build_plan": ("pipeline", "build_plan"),
    "context_modes.make_mode": ("pipeline", "make_mode"),
    "context_modes.context_depths": ("pipeline", "context_depths"),
    "predictor.collect_context": ("pipeline", "collect_context"),
    "predictor.predict": ("pipeline", "predict"),
    "predictor.conceal": ("pipeline", "conceal"),
    "density.discretize_batch": ("pipeline", "discretize_batch"),
    "density.quantize_probs": ("pipeline", "quantize_probs"),
    "density.freq_table_batch": ("density.FreqTable", "batch"),
    "entropy_coder.encode": ("entropy_coder", "encode"),
    "entropy_coder.decode": ("entropy_coder", "decode"),
    "transport.sample_trace": ("cli", "sample_trace"),
    "transport.to_bytes": ("transport.Packet", "to_bytes"),
    "transport.from_bytes": ("transport", "packet_from_bytes"),
    "pipeline.send": ("pipeline", "send"),
    "pipeline.receive": ("pipeline", "receive"),
}

# Spans the benchmark opens around its own calls.  Their self time is
# work no layer span covers, reported as unattributed.
BENCH_SPANS = ("item", "pipeline.progressive_receive", "cli.run_episode",
               "cli.main")


def _owner(rc, path):
    obj = rc
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class _Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make_wrapper):
        original = vars(owner)[attr]
        target = getattr(owner, attr)  # bound, for a classmethod
        wrapper = make_wrapper(target)
        if isinstance(original, classmethod):
            wrapper = staticmethod(wrapper)
        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class CallTimer:
    """Bare wall-clock timer on a few entry points; records no spans.

    Used by untraced runs where the workload calls pipeline.send and
    pipeline.receive only through cli.run_episode or progressive_receive.
    """

    def __init__(self):
        self.durations = {}
        self._patches = _Patches()

    def install(self, rc, names):
        for name in names:
            path, attr = LAYER_ENTRY_POINTS[name]
            self.durations[name] = []
            self._patches.replace(_owner(rc, path), attr,
                                  lambda fn, name=name: self._wrap(name, fn))

    def _wrap(self, name, fn):
        record = self.durations[name].append

        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record(perf_counter() - t0)
        return timed

    def take(self):
        """Durations recorded since the last call, by entry point."""
        out = {k: list(v) for k, v in self.durations.items()}
        for v in self.durations.values():
            v.clear()
        return out

    def restore(self):
        self._patches.restore()


class Tracer:
    """In-memory spans: (name, start, end, parent index, item id).

    Counters are recorded at the same boundaries, per item id, so ratios
    are measured where the work happens.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}  # item id -> {counter: value}
        self.item = None
        self._stack = []
        self._patches = _Patches()

    # -- recording -------------------------------------------------------
    def begin(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.item])
        self._stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def span(self, name, fn, *args, **kwargs):
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def count(self, counter, value=1):
        bucket = self.counts.setdefault(self.item, {})
        bucket[counter] = bucket.get(counter, 0) + value

    # -- wrapping --------------------------------------------------------
    def install(self, rc):
        for name, (path, attr) in LAYER_ENTRY_POINTS.items():
            self._patches.replace(_owner(rc, path), attr,
                                  lambda fn, name=name: self._wrap(name, fn, rc))

    def restore(self):
        self._patches.restore()

    def _wrap(self, name, fn, rc):
        observe = _OBSERVERS.get(name)
        # Only the decoder's own span counts a corrupt stream; receive
        # catches the error and marks the slice lost.
        corrupt = (rc.entropy_coder.CorruptStreamError
                   if name == "entropy_coder.decode" else ())

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except corrupt:
                self.count("entropy_coder.corrupt_streams")
                raise
            finally:
                self.end(index)
            if observe is not None:
                observe(self, args, result)
            return result
        return traced

    # -- reporting -------------------------------------------------------
    def self_times(self):
        """Total self time per span name: duration minus child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, item in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for (name, start, end, parent, item), inner in zip(self.spans, child):
            totals[name] = totals.get(name, 0.0) + (end - start - inner)
        return totals

    def calls(self, items):
        """Number of spans per name among the given items."""
        out = {}
        for name, _, _, _, item in self.spans:
            if item in items:
                out[name] = out.get(name, 0) + 1
        return out

    def counters(self, items):
        out = {}
        for item in items:
            for k, v in self.counts.get(item, {}).items():
                out[k] = out.get(k, 0) + v
        return out

    def write(self, path):
        with open(path, "w") as f:
            for index, (name, start, end, parent, item) in enumerate(self.spans):
                f.write(json.dumps({"id": index, "name": name, "start": start,
                                    "end": end, "parent": parent,
                                    "item": item}) + "\n")


def _observe_tables(tracer, args, tables):
    tracer.count("density.tables_built", len(tables))


def _observe_encode(tracer, args, bits):
    tracer.count("entropy_coder.symbols", len(args[1]))
    tracer.count("entropy_coder.payload_bytes", len(bits.data))


def _observe_decode(tracer, args, symbols):
    tracer.count("entropy_coder.symbols", len(symbols))


def _observe_trace(tracer, args, trace):
    tracer.count("transport.packets", len(trace))
    tracer.count("transport.packets_lost", int((~trace.flags).sum()))


def _observe_receive(tracer, args, result):
    packets, flags = args[0], args[1]
    arrived = sum(1 for p, f in zip(packets, flags) if f and p is not None)
    tracer.count("pipeline.slices_arrived", arrived)
    tracer.count("pipeline.slices_decoded", len(result.decoded_slices))
    tracer.count("pipeline.predictor_passes", result.predictor_passes)


_OBSERVERS = {
    "density.freq_table_batch": _observe_tables,
    "entropy_coder.encode": _observe_encode,
    "entropy_coder.decode": _observe_decode,
    "transport.sample_trace": _observe_trace,
    "pipeline.receive": _observe_receive,
}
