"""Span tracing of advface's layers from outside the package.

`Tracer.install()` replaces every public module-level function of the traced
layers with a wrapper that records one span (name, start, end, parent) per
call. Because `detector`, `mitigator`, `verifybench` and `cli` import names
such as `forward_batch` or `read_image` into their own namespaces, every
module of the package is scanned and each reference to an original function
is swapped, so calls made through imported names are traced too.
`uninstall()` restores the originals. Nothing under `src/` is modified and
the untraced benchmark run never installs a wrapper.

Spans stay in memory; `Tracer.summary()` turns one window of spans into
per-layer self times and counts, and `write_spans()` saves them at the end.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

import advface.cli  # noqa: F401  (loads every layer module of the package)
from advface.featnet import LayerDef, NetworkModel, forward_batch

LAYERS = ("synthface", "distortions", "imagecore", "featnet", "detector",
          "mitigator", "verifybench", "cli")

# Private functions wrapped only to count work the public API hides.
EXTRA = {"detector": ("_fit_hinge",)}

# function name -> sub-layer group, per layer; unlisted functions only
# count towards the layer's own self time.
GROUPS = {
    "featnet": {"forward_batch": "forward", "forward": "forward",
                "default_network": "build", "load_weights": "build"},
    "detector": {"compute_mean_reps": "mean_reps",
                 "canberra": "features", "canberra_features": "features",
                 "canberra_features_batch": "features",
                 "train_detector": "fit", "hinge_objective": "fit", "_fit_hinge": "fit",
                 "detect_scores": "score", "detect": "score",
                 "load_detector": "load", "load_mean_reps": "load"},
    "imagecore": {"median_filter": "median", "median_filter_array": "median",
                  "read_image": "pgm", "write_image": "pgm"},
    "mitigator": {"compute_sensitivity": "sensitivity",
                  "grid_search_plan": "grid_search",
                  "mitigate": "mitigate", "mitigate_batch": "mitigate"},
    "verifybench": {"run_protocol": "protocol", "roc": "roc", "gar_at_far": "roc"},
}

DISTORTION_KINDS = ("grids", "xmsb", "ero", "fhbo", "beard")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# (layer, function) -> callable(args, kwargs) giving the images or pairs a call handles
UNITS = {
    ("featnet", "forward_batch"): lambda a, k: _arg(a, k, 1, "images").shape[0],
    ("imagecore", "median_filter"): lambda a, k: 1,
    ("imagecore", "median_filter_array"): lambda a, k: _arg(a, k, 0, "batch").shape[0],
    ("mitigator", "mitigate"): lambda a, k: 1,
    ("mitigator", "mitigate_batch"): lambda a, k: _arg(a, k, 2, "images").shape[0],
    ("synthface", "generate_dataset"):
        lambda a, k: _arg(a, k, 0, "n_subjects") * _arg(a, k, 1, "samples_per_subject"),
    ("verifybench", "roc"):
        lambda a, k: _arg(a, k, 0, "sm").scores.shape[0] * (_arg(a, k, 0, "sm").scores.shape[0] - 1),
}
UNITS.update({("distortions", f"apply_{kind}"): (lambda a, k: 1) for kind in DISTORTION_KINDS})


class Tracer:
    def __init__(self):
        self.spans: list = []       # [name, start, end, parent, units, window]
        self.window = None
        self.intervals = defaultdict(list)  # window -> [(start, end)] of its work
        self._stack: list[int] = []
        self._originals: dict = {}  # (module name, attribute) -> original object

    # -- installation ------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        span_name = f"{layer}.{name}"
        units_of = UNITS.get((layer, name))
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            units = units_of(args, kwargs) if units_of is not None else 1
            spans.append([span_name, 0.0, 0.0, stack[-1] if stack else -1, units, self.window])
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        replacement = {}
        for layer in LAYERS:
            mod = sys.modules[f"advface.{layer}"]
            names = [n for n, obj in vars(mod).items()
                     if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                     and not n.startswith("_")]
            names += [n for n in EXTRA.get(layer, ()) if hasattr(mod, n)]
            for n in names:
                fn = getattr(mod, n)
                replacement[id(fn)] = (fn, self._wrap(layer, n, fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "advface" and not modname.startswith("advface."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replacement.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._originals[(modname, attr)] = obj
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for (modname, attr), obj in self._originals.items():
            setattr(sys.modules[modname], attr, obj)
        self._originals.clear()

    # -- aggregation -------------------------------------------------------

    def summary(self, window: str, wall_s: float) -> dict:
        """Self times and counts of one window's spans.

        Self time is a span's duration minus the time its direct children
        cover; children run nested inside their parent on one thread, so
        their durations do not overlap. `errors` lists spans that break
        this accounting: a negative self time, or a root span outside the
        window's recorded intervals (its rounds, or its setup call).
        """
        spans = [(i, s) for i, s in enumerate(self.spans) if s[5] == window]
        # a span's parent is in the same window, as windows never nest
        child_time = defaultdict(float)
        for _, s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        layer_self = {layer: 0.0 for layer in LAYERS}
        group_self = defaultdict(float)
        calls = defaultdict(int)
        units = defaultdict(int)
        inclusive = defaultdict(float)
        root_time = 0.0
        errors = []
        for i, s in spans:
            name, start, end, parent, n = s[0], s[1], s[2], s[3], s[4]
            layer, func = name.split(".", 1)
            self_t = (end - start) - child_time[i]
            if self_t < -1e-6:
                errors.append(f"span {i} ({name}) has self time {self_t:.3g} s")
            layer_self[layer] += self_t
            group = GROUPS.get(layer, {}).get(func)
            if group:
                group_self[f"{layer}.{group}"] += self_t
            calls[name] += 1
            units[name] += n
            inclusive[name] += end - start
            if parent < 0:
                root_time += end - start
                if not any(lo <= start and end <= hi for lo, hi in self.intervals[window]):
                    errors.append(f"root span {i} ({name}) lies outside every {window} interval")
        return {
            "wall_s": wall_s,
            "spans": len(spans),
            "layer_self_s": layer_self,
            "group_self_s": dict(group_self),
            "calls": dict(calls),
            "units": dict(units),
            "inclusive_s": dict(inclusive),
            "unattributed_s": wall_s - root_time,
            "errors": errors,
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, units, window in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "units": units,
                                     "window": window}) + "\n")


# ---------------------------------------------------------------------------
# Per-layer replay of the network
# ---------------------------------------------------------------------------

REPLAY_NAMES = ("conv1", "pool1", "conv2", "pool2", "conv3", "pool3", "conv4", "dense")


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def replay_layers(model, images: np.ndarray, repeats: int = 5) -> dict:
    """Microseconds per image of each conv, maxpool and dense layer.

    Each layer runs as a one-layer `NetworkModel` through `forward_batch`
    on the real input shape of that layer for this batch. A ReLU-only model
    on the same input measures the input conversion that `forward_batch`
    always does; its time is subtracted. Call it with no tracer installed.
    """
    n = images.shape[0]
    x = images  # (N, H, W, C), scaled so that forward_batch's /255 recovers it
    out = {}
    conv_i = pool_i = 0
    for layer in model.layers:
        if layer.kind in ("relu", "l2norm"):
            continue
        if layer.kind == "flatten":
            x = x.reshape(n, 1, -1, 1)
            continue
        h, w, c = x.shape[1:]
        if layer.kind == "dense":
            one = NetworkModel((LayerDef("flatten"), layer), (), (w, h, c))
            name = "dense"
        else:
            one = NetworkModel((layer,), (), (w, h, c))
            if layer.kind == "conv":
                conv_i += 1
                name = f"conv{conv_i}"
            else:
                pool_i += 1
                name = f"pool{pool_i}"
        base = NetworkModel((LayerDef("relu"),), (), (w, h, c))
        t_layer = _median_time(lambda: forward_batch(one, x), repeats)
        t_base = _median_time(lambda: forward_batch(base, x), repeats)
        out[name] = (t_layer - t_base) / n * 1e6
        y = forward_batch(one, x)[0]
        if layer.kind == "conv":
            y = np.maximum(y, 0.0)
        if y.ndim == 4:  # back to (N, H, W, C) for the next layer's input
            x = np.ascontiguousarray(np.moveaxis(y, 1, 3)) * np.float32(255.0)
    return out
