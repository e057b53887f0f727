"""Span tracer that wraps motionprim's public functions from the outside.

`Tracer.install()` replaces every binding of each selected function in every
loaded `motionprim` module (so `nearest_prototypes` is wrapped in `quantizer`,
`model` and `training` alike, and `encoder_forward` reaches the wrapped
`attention_forward` through its module global) plus `AdamW.step` on the class.
`Tracer.restore()` puts the originals back. Spans are kept in memory as
(parent, name, start_ns, end_ns) and summarised when the run ends; nothing is
written while the program runs.

Counters are recorded at the same boundaries, from argument shapes and return
values only, so they are exact and repeat from run to run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

TRACED_MODULES = (
    "ingest",
    "metadata",
    "quantizer",
    "model",
    "encoder",
    "training",
    "tensorfile",
    "analysis",
    "cli",
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# --- counters: (tracer, args, kwargs, result) -> None --------------------------


def _count_pairs(tracer, args, kwargs, result):
    segments = _arg(args, kwargs, 0, "segments")
    prototypes = _arg(args, kwargs, 1, "prototypes")
    n = 1 if segments.ndim == 1 else segments.shape[0]
    tracer.add("quantizer.nearest_prototypes.pairs", n * prototypes.shape[0])


def _attention_flops(x_shape):
    B, S, D = x_shape
    # Q/K/V/output projections 4 x 2BSD^2; scores and context 2 x 2BS^2D
    return 8 * B * S * D * D + 4 * B * S * S * D


def _mlp_flops(x_shape, hidden):
    B, S, D = x_shape
    return 4 * B * S * D * hidden


def _count_attention_forward(tracer, args, kwargs, result):
    tracer.add_flops("encoder.attention_forward", _attention_flops(args[0].shape))


def _count_attention_backward(tracer, args, kwargs, result):
    # weight and input gradients: twice the forward's GEMM work
    tracer.add_flops("encoder.attention_backward", 2 * _attention_flops(args[0].shape))


def _count_mlp_forward(tracer, args, kwargs, result):
    params = _arg(args, kwargs, 1, "params")
    tracer.add_flops("encoder.mlp_forward", _mlp_flops(args[0].shape, params["mlp.w1"].shape[1]))


def _count_mlp_backward(tracer, args, kwargs, result):
    params = _arg(args, kwargs, 2, "params")
    tracer.add_flops("encoder.mlp_backward", 2 * _mlp_flops(args[0].shape, params["mlp.w1"].shape[1]))


def _enter_run_training(tracer, args, kwargs):
    model = _arg(args, kwargs, 0, "model")
    policy = _arg(args, kwargs, 4, "policy")
    tracer.trainable.append(policy.trainable_names(list(model.params)))


def _exit_run_training(tracer, args, kwargs, result):
    tracer.trainable.pop()


def _count_backward(tracer, args, kwargs, result):
    trainable = tracer.trainable[-1] if tracer.trainable else set(result)
    tracer.add("training.grad_elements_computed", sum(g.size for g in result.values()))
    tracer.add(
        "training.grad_elements_trainable",
        sum(g.size for name, g in result.items() if name in trainable),
    )


def _count_adamw(tracer, args, kwargs, result):
    optimizer, grads = args[0], _arg(args, kwargs, 2, "grads")
    tracer.add("training.AdamW.step.elements", sum(grads[n].size for n in optimizer.trainable))


def _count_file_bytes(name, index, key):
    def counter(tracer, args, kwargs, result):
        tracer.add(f"{name}.bytes", os.path.getsize(_arg(args, kwargs, index, key)))

    return counter


def _count_write_synthetic(tracer, args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    tracer.add(
        "ingest.write_synthetic_dataset.rows",
        spec.windows_per_class * len(spec.classes) * spec.window_len,
    )
    tracer.add("ingest.write_synthetic_dataset.bytes", os.path.getsize(result.parent / "data.csv"))


def _count_load_dataset(tracer, args, kwargs, result):
    manifest = _arg(args, kwargs, 0, "manifest")
    files = {ch.file for ch in manifest.channels}
    if manifest.label is not None:
        files.add(manifest.label.file)
    tracer.add("ingest.load_dataset.bytes", sum(os.path.getsize(manifest.base_dir / f) for f in files))
    tracer.add("ingest.load_dataset.rows", sum(w.window_len for w in result.windows))


COUNTERS = {
    "quantizer.nearest_prototypes": _count_pairs,
    "encoder.attention_forward": _count_attention_forward,
    "encoder.attention_backward": _count_attention_backward,
    "encoder.mlp_forward": _count_mlp_forward,
    "encoder.mlp_backward": _count_mlp_backward,
    "training.run_training": _exit_run_training,
    "model.backward": _count_backward,
    "training.AdamW.step": _count_adamw,
    "tensorfile.save_tensors": _count_file_bytes("tensorfile.save_tensors", 0, "path"),
    "tensorfile.load_tensors": _count_file_bytes("tensorfile.load_tensors", 0, "path"),
    "ingest.write_synthetic_dataset": _count_write_synthetic,
    "ingest.load_dataset": _count_load_dataset,
}

ENTER_HOOKS = {"training.run_training": _enter_run_training}


class Tracer:
    """Records one span per call of each installed function.

    `names`, if given, restricts installation to those qualified names
    (`<module>.<function>`); the benchmark uses that to time a few coarse
    stages in its untraced runs.
    """

    def __init__(self, names: set[str] | None = None):
        self.names = names
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.trainable: list[set[str]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def add(self, key: str, amount: int) -> None:
        self.counts[key] += int(amount)

    def add_flops(self, name: str, flops: int) -> None:
        self.add(f"{name}.flops", flops)
        self.add("encoder.flops", flops)

    def _wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)
        enter = ENTER_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if enter is not None:
                enter(tracer, args, kwargs)
            span_id = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans[span_id] = (parent, name, start, end)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _targets(self) -> dict[int, tuple[str, object]]:
        targets = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"motionprim.{short}")
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{short}.{attr}"
                    if self.names is None or name in self.names:
                        targets[id(obj)] = (name, obj)
        return targets

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in self._targets().items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "motionprim" or mod_name.startswith("motionprim.")):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        if self.names is None or "training.AdamW.step" in self.names:
            training = importlib.import_module("motionprim.training")
            step = training.AdamW.step
            self._patches.append((training.AdamW, "step", step))
            training.AdamW.step = self._wrap("training.AdamW.step", step)
        return self

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- summaries ---------------------------------------------------------

    def intervals(self, name: str) -> list[tuple[float, float]]:
        """(start, end) in `time.perf_counter` seconds of every span of
        `name`, in call order."""
        return [(start / 1e9, end / 1e9) for _, n, start, end in self.spans if n == name]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per qualified name: calls, total_s (inclusive) and self_s (span
        time minus the time of its direct child spans)."""
        child_ns = defaultdict(int)
        for parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span_id, (_, name, start, end) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child_ns[span_id]) / 1e9
        return dict(table)

    def covered_s(self) -> float:
        """Seconds spent inside root spans (spans with no traced parent)."""
        return sum(end - start for parent, _, start, end in self.spans if parent < 0) / 1e9
