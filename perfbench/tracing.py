"""Span tracing from outside the program.

The tracer replaces public kwspot functions at the module attributes
through which kwspot itself calls them (`models.conv2d`, `training.backward`,
`eval.predict`, ...), records one span per call in memory and restores the
originals on `close`. Nothing in `src/kwspot` is edited.

A span is (name, start_ns, end_ns, parent, op): `parent` is the index of
the enclosing span or -1, `op` the benchmark operation it belongs to (0 is
set-up). Self time is a span's duration minus the time its child spans
cover; spans on one thread nest, so that is the duration minus the sum of
the children's durations. Spans named `bench.*` are the benchmark's own
work inside a traced call (graph counting); they are subtracted from the
inclusive time of every enclosing span.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict

import numpy as np

from kwspot import audio_io, autodiff, dsp, eval as evaluation, models, training

# Layer functions whose spans are named per call site within one forward:
# layers.conv2d.0 is the first conv2d call of a model_forward.
SITE_FUNCTIONS = (
    "conv2d", "batch_norm", "max_pool", "dropout", "bilstm_sequence",
    "attention", "dense",
)

# (module, attribute, span name): the import sites through which kwspot or
# the benchmark reaches a function that some metric reads. A site the
# module does not have (yet) is skipped, so that `eval.model_forward`,
# which a batched eval would import, is counted once it exists.
TARGETS = (
    (audio_io, "scan_dataset", "audio_io.scan_dataset"),
    (audio_io, "read_wav", "audio_io.read_wav"),
    (dsp, "mfcc_pipeline", "dsp.mfcc_pipeline"),
    (dsp, "power_spectrum", "dsp.power_spectrum"),
    (dsp, "build_mel_filterbank", "dsp.build_mel_filterbank"),
    (models, "model_forward", "models.model_forward"),
    (models, "predict", "models.predict"),
    (training, "model_forward", "models.model_forward"),
    (training, "cross_entropy_loss", "training.cross_entropy_loss"),
    (training, "backward", "autodiff.backward"),
    (training, "adam_step", "training.adam_step"),
    (training, "load_checkpoint", "training.load_checkpoint"),
    (evaluation, "predict", "models.predict"),
    (evaluation, "model_forward", "models.model_forward"),
    (evaluation, "evaluate", "eval.evaluate"),
    (evaluation, "emit_report", "eval.emit_report"),
) + tuple((models, fn, f"layers.{fn}") for fn in SITE_FUNCTIONS)


def graph_nodes(root) -> int:
    """Nodes reachable from `root` through the recorded autodiff graph."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def arg_spec(value):
    """Shape-only description of a call argument, enough to rebuild one."""
    if isinstance(value, autodiff.Tensor):
        return ("tensor", value.shape, value.requires_grad)
    if isinstance(value, np.ndarray):
        return ("array", value.shape)
    if dataclasses.is_dataclass(value):
        return ("dataclass", type(value), {
            f.name: arg_spec(getattr(value, f.name)) for f in dataclasses.fields(value)
        })
    return ("value", value)


def build_arg(spec, rng):
    """Fresh random argument matching `spec`, for layer-isolated runs."""
    kind = spec[0]
    if kind == "tensor":
        return autodiff.Tensor(0.1 * rng.standard_normal(spec[1]), requires_grad=spec[2])
    if kind == "array":
        return 0.5 + rng.random(spec[1])
    if kind == "dataclass":
        return spec[1](**{name: build_arg(sub, rng) for name, sub in spec[2].items()})
    return spec[1]


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent, op]
        self.counts = []         # (op, name, value)
        self.sites = {}          # call-site span name -> (args spec, kwargs spec)
        self.op = 0
        self._stack = []
        self._site_calls = defaultdict(int)
        self._saved = []

    def install(self):
        for module, attr, name in TARGETS:
            if not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def close(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int):
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def count_graph(self, name, root):
        index = self._open("bench.graph_count")
        self.counts.append((self.op, name, graph_nodes(root)))
        self._close(index)

    def _wrap(self, fn, name):
        tracer = self
        is_site = name.startswith("layers.")

        def traced(*args, **kwargs):
            span_name = name
            if name == "models.model_forward":
                tracer._site_calls.clear()
            elif is_site:
                site = tracer._site_calls[name]
                tracer._site_calls[name] += 1
                span_name = f"{name}.{site}"
                if span_name not in tracer.sites:
                    tracer.sites[span_name] = (
                        [arg_spec(a) for a in args],
                        {k: arg_spec(v) for k, v in kwargs.items()},
                    )
            elif name == "autodiff.backward":
                tracer.count_graph("autodiff.graph_nodes.loss", args[0])
            index = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if name == "models.model_forward":
                tracer.count_graph("autodiff.graph_nodes.logits", result)
            return result

        traced.__wrapped__ = fn
        return traced

    def table(self) -> dict:
        """name -> {calls, self_ns, incl_ns} summed over all spans; incl_ns
        excludes nested bench.* spans."""
        n = len(self.spans)
        child_ns = [0] * n
        bench_ns = [0] * n
        for i in range(n - 1, -1, -1):
            name, start, end, parent, _ = self.spans[i]
            if parent >= 0:
                child_ns[parent] += end - start
                bench_ns[parent] += (end - start) if name.startswith("bench.") else bench_ns[i]
        out = defaultdict(lambda: {"calls": 0, "self_ns": 0, "incl_ns": 0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_ns"] += end - start - child_ns[i]
            row["incl_ns"] += end - start - bench_ns[i]
        return dict(out)

    def per_op_calls(self, name, ops) -> list:
        """How many spans named `name` each op in `ops` recorded."""
        calls = dict.fromkeys(ops, 0)
        for span_name, _, _, _, op in self.spans:
            if span_name == name and op in calls:
                calls[op] += 1
        return [calls[op] for op in ops]

    def per_op_counts(self, name, ops) -> list:
        values = defaultdict(list)
        for op, count_name, value in self.counts:
            if count_name == name:
                values[op].append(value)
        return [v for op in ops for v in values[op]]
