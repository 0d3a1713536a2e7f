"""Per-layer tracing by wrapping the package's functions from outside.

``Tracer.installed()`` replaces every function and method that a layer
module defines with a wrapper, and puts the originals back on exit.  The
wrappers are set as module attributes, which are also the module globals,
so calls inside a module and calls between modules (``sf.schur(...)``) are
both caught.

Each wrapped call is a span: name, start, end, parent span and op id.  A
layer's self time is the time during which the innermost open span belongs
to it; it is accumulated online with a stack, so it costs no memory.  Spans
that open at most ``SPAN_DEPTH`` levels deep are kept in memory, up to
``SPAN_CAP`` of them, and written out at the end; deeper ones are only
counted.  Functions named in ``COUNTED_ONLY`` are too small for a span,
whose own cost would dominate theirs: their calls are counted and their time
stays with the caller's span.
"""

import contextlib
import json
import time
import types
from collections import defaultdict

SPAN_DEPTH = 3
SPAN_CAP = 20_000

LAYERS = ("partitions", "symfunc", "quiver", "descendent", "latticeva", "grasscalc", "serialize", "cli")

COUNTED_ONLY = frozenset(
    {
        "latticeva.VAElem.__init__",
        "latticeva._coerce",
        "symfunc.SymFunc.__init__",
        "symfunc._coerce",
        "descendent.DescendentPoly.__init__",
        "descendent._coerce",
        "partitions.size",
        "partitions.length",
        "partitions.multiplicity",
        "partitions.merge",
    }
)


class _Stats:
    """Calls, outermost inclusive seconds and open activations of one name."""

    __slots__ = ("calls", "inclusive", "depth")

    def __init__(self):
        self.calls = 0
        self.inclusive = 0.0
        self.depth = 0


class Tracer:
    def __init__(self, modules):
        self.modules = modules  # layer name -> module
        self.stats = defaultdict(_Stats)
        self.self_s = {layer: [0.0] for layer in LAYERS}
        self.spans = []
        self.dropped = 0
        self.op_id = None
        self.epoch = time.perf_counter()
        self._stack = []  # (self-time cell of the layer, span id)
        self._mark = 0.0
        self._next_id = 0

    def reset(self):
        """Zero the statistics; spans already kept stay."""
        for st in self.stats.values():
            st.calls = 0
            st.inclusive = 0.0
        for cell in self.self_s.values():
            cell[0] = 0.0

    # -- wrappers ------------------------------------------------------------

    def _counter(self, name, fn):
        st = self.stats[name]

        def counted(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _span(self, layer, name, fn):
        tracer = self
        st = self.stats[name]
        cell = self.self_s[layer]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            if stack:
                stack[-1][0][0] += start - tracer._mark
                parent = stack[-1][1]
            else:
                parent = None
            tracer._next_id += 1
            sid = tracer._next_id
            st.calls += 1
            st.depth += 1
            keep = len(stack) < SPAN_DEPTH
            stack.append((cell, sid))
            tracer._mark = start
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                cell[0] += end - tracer._mark
                stack.pop()
                st.depth -= 1
                if st.depth == 0:
                    st.inclusive += end - start
                tracer._mark = end
                if keep and len(spans) < SPAN_CAP:
                    spans.append((sid, name, start - tracer.epoch, end - tracer.epoch, parent, tracer.op_id))
                else:
                    tracer.dropped += 1

        traced.__wrapped__ = fn
        return traced

    def _wrap(self, layer, name, fn):
        if name in COUNTED_ONLY:
            return self._counter(name, fn)
        return self._span(layer, name, fn)

    def _targets(self):
        """(owner, attribute, original, layer, qualified name) for every wrap."""
        for layer in LAYERS:
            module = self.modules[layer]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("__") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    for meth, val in list(vars(obj).items()):
                        fn = val.__func__ if isinstance(val, staticmethod) else val
                        if isinstance(fn, types.FunctionType):
                            yield obj, meth, val, layer, f"{layer}.{attr}.{meth}"
                elif callable(obj):
                    yield module, attr, obj, layer, f"{layer}.{attr}"

    @contextlib.contextmanager
    def installed(self):
        patched = []
        try:
            for owner, attr, original, layer, name in list(self._targets()):
                if isinstance(original, staticmethod):
                    wrapped = staticmethod(self._wrap(layer, name, original.__func__))
                else:
                    wrapped = self._wrap(layer, name, original)
                setattr(owner, attr, wrapped)
                patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def calls(self, name):
        return self.stats[name].calls

    def layer_calls(self, layer):
        return sum(st.calls for name, st in self.stats.items() if name.startswith(layer + "."))

    def write_spans(self, path, meta):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **meta,
                    "fields": ["id", "name", "start_s", "end_s", "parent", "op"],
                    "spans": self.spans,
                    "dropped": self.dropped,
                },
                fh,
            )
