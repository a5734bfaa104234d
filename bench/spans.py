"""Outside-in tracing: wrap public functions of the ``crosscity`` modules and
record one span per call.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at the top). Spans stay in memory until the run writes
them out. Wrapping replaces every binding of a function across the
``crosscity`` modules, so a name imported with ``from x import f`` is traced
at its call site too; patching only the defining module would leave those
calls untimed.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from time import perf_counter

# (module, attribute) for every wrapped function or method; the span name
# is the module's short name plus the attribute.
TARGETS = (
    ("autodiff", "Tensor.backward"),
    ("forecaster", "forecast"),
    ("forecaster", "source_loss"),
    ("gin", "SpatialEncoder.forward"),
    ("graph", "RoadGraph.__init__"),
    ("graph", "RoadGraph.mean_aggregation_matrix"),
    ("graph", "load_graph"),
    ("graph", "save_graph"),
    ("adversary", "adversarial_loss"),
    ("train", "pretrain"),
    ("train", "finetune"),
    ("train", "Sgdm.step"),
    ("train", "clip_global_norm"),
    ("train", "collect_grads"),
    ("train", "ReplayLog.write"),
    ("node2vec", "raw_features"),
    ("node2vec", "build_corpus"),
    ("node2vec", "train_skipgram"),
    ("node2vec", "save_features"),
    ("node2vec", "load_features"),
    ("data", "synth_generate"),
    ("data", "make_windows"),
    ("data", "chrono_split"),
    ("data", "normalize"),
    ("data", "NormalizationStats.fit"),
    ("data", "load_series"),
    ("data", "save_series"),
    ("metrics", "evaluate"),
    ("metrics", "evaluate_ha"),
    ("metrics", "MetricReport.read"),
    ("metrics", "MetricReport.write"),
    ("metrics", "compare_variants"),
    ("checkpoint", "save_checkpoint"),
    ("checkpoint", "load_checkpoint"),
)

# Names other modules import directly; each must end up wrapped where it
# is called, not only where it is defined.
CALL_SITES = (
    ("train", "adversarial_loss"), ("train", "make_windows"),
    ("train", "chrono_split"), ("train", "normalize"),
    ("metrics", "make_windows"), ("metrics", "chrono_split"),
    ("cli", "pretrain"), ("cli", "finetune"), ("cli", "load_graph"),
)

PACKAGE = "crosscity"


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.observers = {}  # span name -> fn(args, kwargs, result)

    @contextlib.contextmanager
    def span(self, name):
        """Record the enclosed block as one span."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        self._stack.pop()

    def current_root(self):
        """Name of the outermost open span, or None."""
        return self.spans[self._stack[0]][0] if self._stack else None

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            observe = tracer.observers.get(name)
            if observe is not None:
                observe(args, kwargs, result)
            return result
        wrapper._bench_span = name
        return wrapper

    def install(self):
        modules = [m for k, m in list(sys.modules.items())
                   if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for mod_name, attr in TARGETS:
            name = f"{mod_name}.{attr}"
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(module, attr)
            new = self._wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, new)

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def unpatched_call_sites(self):
        """CALL_SITES bindings that did not get a wrapper."""
        return [f"{m}.{a}" for m, a in CALL_SITES
                if not hasattr(getattr(sys.modules[f"{PACKAGE}.{m}"], a),
                               "_bench_span")]

    # -- summaries ----------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _) in enumerate(self.spans)]

    def totals(self):
        """name -> (calls, summed self time in seconds)."""
        out = {}
        for (name, _, _, _), self_s in zip(self.spans, self.self_times()):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + self_s)
        return out
