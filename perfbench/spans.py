"""Span recorder for the traced benchmark run.

Tracer.install() replaces public functions and methods of the fbm
package with thin wrappers that record a span per call: name, start,
end and the index of the enclosing span. Nothing in the package itself
is edited; uninstall() puts every original back. Spans stay in memory
until the run ends, then reduce() folds them into per-layer totals and
self times (a span's duration minus the part its child spans cover).

Exact counts ride on the same wrappers: op calls, computed matmul FLOPs,
tape nodes and the bytes of op outputs recorded on the tape (split by
the innermost enclosing block span), batched windows and container
bytes written.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

from fbm import autodiff, blocks, data, fourier, models, train

# Op functions of fbm.autodiff, in source order. The per-layer metric list
# names each one, so the set is fixed here; test_trace checks it still
# matches the package.
OPS = (
    "add", "sub", "mul", "div", "neg", "scale", "relu", "sqrt", "matmul",
    "transpose", "swap_last2", "reshape", "tslice", "reduce_sum", "reduce_mean",
    "softmax_lastdim", "standardize_lastdim",
)

# Spans whose ops own the tape bytes recorded under them, innermost first
# wins; ops outside any of them (the loss) go to "loss".
TAPE_BLOCKS = {
    "blocks.seasonal.forward": "seasonal",
    "blocks.trend.forward": "trend",
    "blocks.trend.d1.forward": "trend.d1",
    "blocks.trend.d2.forward": "trend.d2",
    "blocks.interaction.forward": "interaction",
    "models.forward": "forward",
}
TAPE_OWNERS = tuple(TAPE_BLOCKS.values()) + ("loss",)

# per-layer metric -> (span name, "total" | "self")
SPAN_METRICS = {
    "data.batch_s": ("data.batch", "self"),
    "fourier.tables_s": ("fourier.tables", "total"),
    "models.build_s": ("models.build", "total"),
    "models.forward_s": ("models.forward", "total"),
    "models.forward_self_s": ("models.forward", "self"),
    "blocks.seasonal.forward_s": ("blocks.seasonal.forward", "total"),
    "blocks.trend.forward_s": ("blocks.trend.forward", "total"),
    "blocks.trend.d1.forward_s": ("blocks.trend.d1.forward", "total"),
    "blocks.trend.d2.forward_s": ("blocks.trend.d2.forward", "total"),
    "blocks.downsample_s": ("blocks.downsample", "total"),
    "blocks.projector.forward_s": ("blocks.projector.forward", "total"),
    "blocks.centralize_s": ("blocks.centralize", "total"),
    "blocks.decentralize_s": ("blocks.decentralize", "total"),
    "blocks.interaction.forward_s": ("blocks.interaction.forward", "total"),
    "autodiff.attention_block_s": ("autodiff.attention_block", "total"),
    "autodiff.backward_s": ("autodiff.backward", "total"),
    "autodiff.adam_s": ("autodiff.adam", "total"),
    "autodiff.save_tensors_s": ("autodiff.save_tensors", "total"),
    "autodiff.load_tensors_s": ("autodiff.load_tensors", "total"),
    "train.evaluate_s": ("train.evaluate", "total"),
    "train.epoch_s": ("train.epoch", "total"),
}


def per_layer_units():
    """Every per-layer metric the traced run reports, with its unit, in order."""
    units = {"data.batch_s": "s", "data.windows": "count"}
    units.update((name, "s") for name in SPAN_METRICS)
    for op in OPS:
        units[f"autodiff.op.{op}.calls"] = "count"
        units[f"autodiff.op.{op}.fwd_s"] = "s"
    units["autodiff.op.matmul.flops"] = "flop_computed"
    units["autodiff.tape_nodes"] = "count"
    for owner in TAPE_OWNERS:
        units[f"autodiff.tape_bytes.{owner}"] = "B"
    units["autodiff.container_bytes"] = "B"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_share"] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []  # indices of open spans
        self._had_child = []  # parallel to _stack
        self._patched = []  # (owner, attribute, original)

    # --- spans ---------------------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        if self._had_child:
            self._had_child[-1] = True
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        self._had_child.append(False)
        return len(self.spans) - 1

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        if self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")
        self._stack.pop()
        return self._had_child.pop()

    def span(self, name, fn, after=None):
        """Wrap fn so each call is one span; after(result, args, kwargs, leaf)
        runs once the span is closed, leaf meaning no span opened inside it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                had_child = self.end(index)
            if after is not None:
                after(out, args, kwargs, not had_child)
            return out

        return traced

    def batches(self, name, fn):
        """Wrap a function returning a batch iterator: each next() is a span."""

        def timed_iter(it):
            while True:
                index = self.begin(name)
                try:
                    batch = next(it, None)
                finally:
                    self.end(index)
                if batch is None:
                    return
                self.counts["data.windows"] += len(batch.X)
                yield batch

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return timed_iter(iter(fn(*args, **kwargs)))

        return traced

    # --- installation ----------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        for op in OPS:
            self._patch(autodiff, op, self.span(f"autodiff.op.{op}", getattr(autodiff, op),
                                                functools.partial(self._after_op, op)))
        self._patch(autodiff, "attention_block",
                    self.span("autodiff.attention_block", autodiff.attention_block))
        self._patch(autodiff, "backward", self.span("autodiff.backward", autodiff.backward))
        self._patch(autodiff, "adam_step", self.span("autodiff.adam", autodiff.adam_step))
        self._patch(autodiff, "save_tensors",
                    self.span("autodiff.save_tensors", autodiff.save_tensors, self._after_save))
        self._patch(autodiff, "load_tensors",
                    self.span("autodiff.load_tensors", autodiff.load_tensors))
        # the basis tables are imported by name into models and blocks
        for module in (fourier, models, blocks):
            for fn in ("build_bases", "dft_matrices"):
                if fn in vars(module):
                    self._patch(module, fn, self.span("fourier.tables", getattr(module, fn)))
        self._patch(data, "iterate_batches", self.batches("data.batch", data.iterate_batches))
        for meth in ("train_batches", "val_batches", "test_batches"):
            self._patch(train.PairedWindows, meth,
                        self.batches("data.batch", getattr(train.PairedWindows, meth)))
        self._patch(train, "evaluate", self.span("train.evaluate", train.evaluate))
        self._patch(models.ForecastModel, "__init__",
                    self.span("models.build", models.ForecastModel.__init__,
                              self._after_build))
        self._patch(models.ForecastModel, "forward",
                    self.span("models.forward", models.ForecastModel.forward))
        for cls, attr, name in (
            (blocks.SeasonalBlock, "forward", "blocks.seasonal.forward"),
            (blocks.TrendBlock, "forward", "blocks.trend.forward"),
            (blocks.PatchProjector, "forward", "blocks.projector.forward"),
            (blocks.Centralization, "centralize", "blocks.centralize"),
            (blocks.Centralization, "decentralize", "blocks.decentralize"),
            (blocks.InteractionBlock, "forward", "blocks.interaction.forward"),
        ):
            self._patch(cls, attr, self.span(name, getattr(cls, attr)))
        self._patch(blocks, "downsample_op", self.span("blocks.downsample", blocks.downsample_op))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- counters ----------------------------------------------------------------

    def _after_op(self, op, out, args, kwargs, leaf):
        self.counts[f"autodiff.op.{op}.calls"] += 1
        if op == "matmul":
            k = np.shape(getattr(args[0], "value", args[0]))[-1]
            self.counts["autodiff.op.matmul.flops"] += 2 * out.value.size * k
        # composite ops return a tensor their inner ops already recorded
        if leaf and out.requires_grad:
            self.counts["autodiff.tape_nodes"] += 1
            self.counts[f"autodiff.tape_bytes.{self._tape_owner()}"] += out.value.nbytes

    def _tape_owner(self):
        for index in reversed(self._stack):
            owner = TAPE_BLOCKS.get(self.spans[index][0])
            if owner is not None:
                return owner
        return "loss"

    def _after_save(self, out, args, kwargs, leaf):
        self.counts["autodiff.container_bytes"] += os.path.getsize(args[0])

    def _after_build(self, out, args, kwargs, leaf):
        # one span per trend scale, through the scale objects the block holds
        model = args[0]
        trend = getattr(model, "trend", None)
        for kernel, scale in getattr(trend, "scales", ()):
            scale.forward = self.span(f"blocks.trend.d{kernel}.forward", scale.forward)

    # --- reduction ---------------------------------------------------------------

    def reduce(self):
        """(total seconds, self seconds) per span name."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        total = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            own[name] += end - start - covered
        return dict(total), dict(own)

    def metrics(self):
        """Every per-layer metric except the overhead pair, as plain numbers."""
        total, own = self.reduce()
        out = {}
        for metric, (span, kind) in SPAN_METRICS.items():
            out[metric] = (total if kind == "total" else own).get(span, 0.0)
        for op in OPS:
            out[f"autodiff.op.{op}.fwd_s"] = own.get(f"autodiff.op.{op}", 0.0)
        for metric, unit in per_layer_units().items():
            if unit != "s" and not metric.startswith("trace."):
                out[metric] = int(self.counts.get(metric, 0))
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path):
        """Spans as JSON lines: [name, start, end, parent]."""
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span))
                f.write("\n")
