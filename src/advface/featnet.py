"""From-scratch convolutional feature extractor with per-layer activation taps.

The network is a fixed small architecture with seeded random (He-scaled)
filters. Activations are tapped after every ReLU and after the dense layer;
those tapped vectors feed the detector's layer-wise statistics. Conv filters
can be disabled at inference time via a FilterMask (selective dropout).
"""

from __future__ import annotations

import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .imagecore import FormatError, _Reader
from .seeds import rng_from

_MAGIC = b"FNET1"
_KIND_CODES = {"conv": 0, "relu": 1, "maxpool": 2, "flatten": 3, "dense": 4, "l2norm": 5}
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()}

# Images per forward_batch call where _forward_chunks splits a batch; the same
# chunks give the same bytes, so callers that share results all split through it.
FORWARD_CHUNK = 256
# Images per reused im2col block in _conv2d; it bounds that buffer and moves no bit.
_CONV_BLOCK = 8
# Threads that share a blocked loop in _parallel_blocks, the calling one
# included: the CPUs this process may use.
_WORKERS = len(os.sched_getaffinity(0))
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


@dataclass(frozen=True)
class LayerDef:
    kind: str
    weights: np.ndarray | None = None   # conv: (out, in, k, k); dense: (out, in)
    bias: np.ndarray | None = None
    stride: int = 1
    pad: int = 0
    window: int = 2

    def __post_init__(self):
        # a read-only view: a network may be shared (the CLI caches seeded
        # ones), so writing into it raises instead of changing later results
        for name in ("weights", "bias"):
            a = getattr(self, name)
            if a is not None:
                a = np.asarray(a).view()
                a.flags.writeable = False
                object.__setattr__(self, name, a)
        if self.kind not in _KIND_CODES:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind == "conv":
            if self.weights is None or self.weights.ndim != 4:
                raise ValueError("conv layer needs (out, in, k, k) weights")
            if self.bias is None or self.bias.shape != (self.weights.shape[0],):
                raise ValueError("conv bias shape mismatch")
            if self.stride < 1 or self.pad < 0:
                raise ValueError("bad conv stride/pad")
        elif self.kind == "dense":
            if self.weights is None or self.weights.ndim != 2:
                raise ValueError("dense layer needs (out, in) weights")
            if self.bias is None or self.bias.shape != (self.weights.shape[0],):
                raise ValueError("dense bias shape mismatch")
        elif self.kind == "maxpool" and (self.window < 1 or self.stride < 1):
            raise ValueError("bad maxpool window/stride")
        if self.weights is not None and self.weights.size == 0:
            raise ValueError(f"{self.kind} layer has empty weights")


@dataclass(frozen=True)
class FilterMask:
    """Set of (conv_ordinal, filter_index) pairs disabled during forward."""

    disabled: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "disabled",
                           frozenset((int(a), int(b)) for a, b in self.disabled))

    def to_json_list(self) -> list:
        return sorted([a, b] for a, b in self.disabled)


@dataclass(frozen=True)
class NetworkModel:
    layers: tuple[LayerDef, ...]
    tap_points: tuple[int, ...]
    input_spec: tuple[int, int, int]    # (W, H, C)

    def __post_init__(self):
        taps = tuple(self.tap_points)
        if list(taps) != sorted(set(taps)) or (taps and taps[-1] >= len(self.layers)):
            raise ValueError("tap points must be strictly increasing layer indices")

    @property
    def n_taps(self) -> int:
        return len(self.tap_points)

    @property
    def conv_ordinals(self) -> tuple[int, ...]:
        """Indices into layers of each conv layer, in order."""
        return tuple(i for i, l in enumerate(self.layers) if l.kind == "conv")

    def conv_filter_counts(self) -> tuple[int, ...]:
        return tuple(self.layers[i].weights.shape[0] for i in self.conv_ordinals)

    def tap_lengths(self) -> tuple[int, ...]:
        """Flattened activation length at each tap, from shape arithmetic."""
        w, h, c = self.input_spec
        shape = (c, h, w)
        if min(shape) < 1:
            raise ValueError(f"empty input shape {self.input_spec}")
        lengths = []
        for idx, layer in enumerate(self.layers):
            shape = _out_shape(layer, shape)
            if min(shape) < 1:
                raise ValueError(f"layer {idx} ({layer.kind}) has an empty output {shape}")
            if idx in self.tap_points:
                lengths.append(int(np.prod(shape)))
        return tuple(lengths)

    def validate_mask(self, mask: FilterMask) -> None:
        counts = self.conv_filter_counts()
        for layer_i, filt_j in mask.disabled:
            if not 0 <= layer_i < len(counts) or not 0 <= filt_j < counts[layer_i]:
                raise ValueError(f"mask entry ({layer_i}, {filt_j}) references no conv filter")


def _out_shape(layer: LayerDef, shape: tuple) -> tuple:
    if layer.kind in ("conv", "maxpool") and len(shape) != 3:
        raise ValueError(f"{layer.kind} needs a (C, H, W) input, got {shape}")
    if layer.kind == "conv":
        c, h, w = shape
        o, ci, k, _ = layer.weights.shape
        if ci != c:
            raise ValueError(f"conv expects {ci} input channels, got {c}")
        ho = (h + 2 * layer.pad - k) // layer.stride + 1
        wo = (w + 2 * layer.pad - k) // layer.stride + 1
        return (o, ho, wo)
    if layer.kind == "maxpool":
        c, h, w = shape
        return (c, (h - layer.window) // layer.stride + 1, (w - layer.window) // layer.stride + 1)
    if layer.kind == "flatten":
        return (int(np.prod(shape)),)
    if layer.kind == "dense":
        o, i = layer.weights.shape
        if shape != (i,):
            raise ValueError(f"dense expects input length {i}, got {shape}")
        return (o,)
    return shape  # relu / l2norm


def default_network(seed: int) -> NetworkModel:
    """Deterministic 64x64x1 architecture with He-scaled seeded Gaussian weights."""
    plan = [  # (out_filters, in_channels) per conv, pools interleaved
        (8, 1), (16, 8), (32, 16), (32, 32),
    ]
    layers: list[LayerDef] = []
    taps: list[int] = []
    for i, (out_f, in_c) in enumerate(plan):
        rng = rng_from(seed, 0xC04F, i)
        fan_in = in_c * 9
        w = rng.standard_normal((out_f, in_c, 3, 3)) * np.sqrt(2.0 / fan_in)
        layers.append(LayerDef("conv", w.astype(np.float32), np.zeros(out_f, np.float32),
                               stride=1, pad=1))
        layers.append(LayerDef("relu"))
        taps.append(len(layers) - 1)
        if i < 3:
            layers.append(LayerDef("maxpool", window=2, stride=2))
    layers.append(LayerDef("flatten"))
    rng = rng_from(seed, 0xDE45E)
    w = rng.standard_normal((64, 2048)) * np.sqrt(2.0 / 2048)
    layers.append(LayerDef("dense", w.astype(np.float32), np.zeros(64, np.float32)))
    taps.append(len(layers) - 1)
    layers.append(LayerDef("l2norm"))
    return NetworkModel(tuple(layers), tuple(taps), (64, 64, 1))


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def _tap_range(u: int, pad: int, stride: int, n_in: int, n_out: int) -> tuple[int, int]:
    """Output indices [lo, hi) whose kernel offset u reads an input cell, not the border."""
    lo = max(0, -((u - pad) // stride))            # ceil((pad - u) / stride)
    hi = min(n_out, (n_in - 1 + pad - u) // stride + 1)
    return lo, max(lo, hi)


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_WORKERS - 1)
        return _pool


def _drop_pool_in_child() -> None:
    """A forked child inherits the pool but none of its threads, so work
    submitted to it would never run: the child starts its own on demand."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_drop_pool_in_child)


def _parallel_blocks(n: int, step: int, alloc, fn) -> None:
    """Call fn(scratch, lo, hi) for every block [lo, hi) of range(0, n, step).

    The calling thread and up to _WORKERS - 1 threads of a shared pool each
    take the next unclaimed block until none is left. A thread that starts
    late, or shares its CPU, does fewer blocks instead of holding up a fixed
    share, and the caller never waits for a helper to start, only for blocks
    already running. Each thread gets its own scratch from alloc(). fn must
    compute each block independently of the others, so the output bytes do
    not depend on the worker count or on which thread ran which block.
    alloc() is called in this thread: buffers allocated in a worker land in
    that thread's own malloc arena, which raised peak RSS by over 10%.
    Fewer than two blocks run inline and never touch the pool.
    """
    starts = iter(range(0, n, step))
    threads = min(_WORKERS, -(-n // step))
    take = threading.Lock()

    def run(scratch) -> None:
        while True:
            with take:
                lo = next(starts, None)
            if lo is None:
                return
            fn(scratch, lo, min(lo + step, n))

    if threads < 2:
        run(alloc())
        return
    scratches = [alloc() for _ in range(threads)]
    pool = _executor()
    helpers = [pool.submit(run, scratch) for scratch in scratches[1:]]
    try:
        run(scratches[0])
    finally:
        # every block is claimed: a helper that has not started has nothing
        # left to do, one that has must finish its block before this returns
        started = [f for f in helpers if not f.cancel()]
        for f in started:
            f.exception()
    for f in started:
        f.result()


def _conv2d(x: np.ndarray, layer: LayerDef) -> np.ndarray:
    """Weight-stationary conv: per image, (O, C*k*k) @ im2col (C*k*k, H'*W').

    The im2col block holds _CONV_BLOCK images and is filled by k*k strided
    slice copies; its zero-padding cells are never written, so it is zeroed
    once per thread and reused. Each image is one GEMM of a shape
    that does not depend on the batch, so its output bits do not either, and
    the blocks run across the process's CPUs. Returns a fresh C-contiguous
    (N, O, H', W') float32 array.
    """
    w = layer.weights
    o, c, k, _ = w.shape
    n, _, h, wd = x.shape
    p, s = layer.pad, layer.stride
    ho = (h + 2 * p - k) // s + 1
    wo = (wd + 2 * p - k) // s + 1
    wmat = w.reshape(o, c * k * k)
    bias = layer.bias[:, None, None]
    out = np.empty((n, o, ho, wo), np.float32)
    rows = [_tap_range(u, p, s, h, ho) for u in range(k)]
    cols = [_tap_range(v, p, s, wd, wo) for v in range(k)]

    def block(col: np.ndarray, lo: int, hi: int) -> None:
        nb = hi - lo
        for u, (i0, i1) in enumerate(rows):
            for v, (j0, j1) in enumerate(cols):
                y0, x0 = i0 * s + u - p, j0 * s + v - p
                col[:nb, :, u, v, i0:i1, j0:j1] = x[lo:hi, :,
                                                    y0 : y0 + s * (i1 - i0) : s,
                                                    x0 : x0 + s * (j1 - j0) : s]
        np.matmul(wmat, col[:nb].reshape(nb, c * k * k, ho * wo),
                  out=out[lo:hi].reshape(nb, o, ho * wo))
        out[lo:hi] += bias

    _parallel_blocks(n, _CONV_BLOCK,
                     lambda: np.zeros((min(n, _CONV_BLOCK), c, k, k, ho, wo), np.float32),
                     block)
    return out


def _maxpool(x: np.ndarray, layer: LayerDef) -> np.ndarray:
    """Running np.maximum over the k*k strided slices, one per window offset."""
    k, s = layer.window, layer.stride
    ho = (x.shape[2] - k) // s + 1
    wo = (x.shape[3] - k) // s + 1
    out = None
    for di in range(k):
        for dj in range(k):
            tap = x[:, :, di : di + s * (ho - 1) + 1 : s, dj : dj + s * (wo - 1) + 1 : s]
            out = tap.copy() if out is None else np.maximum(out, tap, out=out)
    return out


def l2_normalize(x: np.ndarray) -> np.ndarray:
    """Row-wise L2 normalization; all-zero rows pass through unchanged."""
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    return np.where(norms > 0, x / np.where(norms > 0, norms, 1.0), x)


def forward_batch(model: NetworkModel, images: np.ndarray, mask: FilterMask | None = None):
    """Run the network on a (N, H, W, C) uint8 batch.

    Returns (embeddings (N, D), taps: list of (N, lambda_i) float arrays, one
    per tap point). Masked filters contribute exactly zero output channels.
    """
    w_in, h_in, c_in = model.input_spec
    if images.ndim != 4 or images.shape[1:] != (h_in, w_in, c_in):
        raise ValueError(
            f"input batch shape {images.shape} does not match model input "
            f"{(h_in, w_in, c_in)}")
    disabled_by_conv: dict[int, list[int]] = {}
    if mask is not None:
        model.validate_mask(mask)
        for li, fj in mask.disabled:
            disabled_by_conv.setdefault(li, []).append(fj)

    x = np.moveaxis(images, 3, 1).astype(np.float32) / 255.0  # (N, C, H, W)
    taps: list[np.ndarray] = []
    conv_ord = -1
    fresh = False  # x is the previous layer's conv output and no tap holds it
    for idx, layer in enumerate(model.layers):
        if layer.kind == "conv":
            conv_ord += 1
            x = _conv2d(x, layer)
            if conv_ord in disabled_by_conv:
                x[:, disabled_by_conv[conv_ord], :, :] = 0.0
        elif layer.kind == "relu":
            x = np.maximum(x, 0.0, out=x if fresh else None)
        elif layer.kind == "maxpool":
            x = _maxpool(x, layer)
        elif layer.kind == "flatten":
            x = x.reshape(x.shape[0], -1)
        elif layer.kind == "dense":
            x = x @ layer.weights.T + layer.bias
        else:  # l2norm
            x = l2_normalize(x)
        if idx in model.tap_points:
            taps.append(x.reshape(x.shape[0], -1))
        fresh = layer.kind == "conv" and idx not in model.tap_points
    return x, taps


def _forward_chunks(model: NetworkModel, images: np.ndarray):
    """Yield (lo, forward_batch(model, images[lo : lo + FORWARD_CHUNK])) in order; a chunk's
    taps are freed before the next forward unless the caller keeps a tap or an emb sharing one."""
    for lo in range(0, images.shape[0], FORWARD_CHUNK):
        emb, taps = forward_batch(model, images[lo : lo + FORWARD_CHUNK])
        yield lo, (emb, taps)
        taps.clear()
        del emb


# ---------------------------------------------------------------------------
# Weight file (FNET1)
# ---------------------------------------------------------------------------

def save_weights(model: NetworkModel, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(model.layers)))
        w, h, c = model.input_spec
        fh.write(struct.pack("<III", w, h, c))
        fh.write(struct.pack("<I", len(model.tap_points)))
        fh.write(struct.pack(f"<{len(model.tap_points)}I", *model.tap_points))
        for layer in model.layers:
            fh.write(struct.pack("<B", _KIND_CODES[layer.kind]))
            if layer.kind == "conv":
                o, ci, k, _ = layer.weights.shape
                fh.write(struct.pack("<IIIII", o, ci, k, layer.stride, layer.pad))
                fh.write(layer.weights.astype("<f4").tobytes())
                fh.write(layer.bias.astype("<f4").tobytes())
            elif layer.kind == "maxpool":
                fh.write(struct.pack("<II", layer.window, layer.stride))
            elif layer.kind == "dense":
                o, i = layer.weights.shape
                fh.write(struct.pack("<II", o, i))
                fh.write(layer.weights.astype("<f4").tobytes())
                fh.write(layer.bias.astype("<f4").tobytes())


def load_weights(path) -> NetworkModel:
    """Read an FNET1 file, checking that the network it holds can run.

    Beyond the byte layout, this rejects trailing bytes, non-finite weights
    or biases, a bad stride, pad or window, and layer shapes that do not
    chain (checked through `tap_lengths`), all as FormatError.
    """
    with open(path, "rb") as fh:
        rd = _Reader(fh.read(), "weight file")
    if rd.take(5, "magic") != _MAGIC:
        raise FormatError('bad magic, expected "FNET1"')
    n_layers = rd.u32("layer count")
    w_in = rd.u32("input width")
    h_in = rd.u32("input height")
    c_in = rd.u32("input channels")
    n_taps = rd.u32("tap count")
    taps = tuple(rd.u32("tap index") for _ in range(n_taps))
    layers = []
    try:
        for li in range(n_layers):
            code = rd.take(1, f"layer {li} kind")[0]
            if code not in _CODE_KINDS:
                raise FormatError(f"unknown layer kind code {code} at layer {li}")
            kind = _CODE_KINDS[code]
            if kind == "conv":
                o, ci, k, stride, pad = (rd.u32(f"layer {li} dims") for _ in range(5))
                w = np.frombuffer(rd.take(o * ci * k * k * 4, f"layer {li} weights"), "<f4")
                b = np.frombuffer(rd.take(o * 4, f"layer {li} bias"), "<f4")
                layer = LayerDef("conv", w.reshape(o, ci, k, k).copy(), b.copy(),
                                 stride=stride, pad=pad)
            elif kind == "maxpool":
                window = rd.u32(f"layer {li} window")
                stride = rd.u32(f"layer {li} stride")
                layer = LayerDef("maxpool", window=window, stride=stride)
            elif kind == "dense":
                o = rd.u32(f"layer {li} out")
                i = rd.u32(f"layer {li} in")
                w = np.frombuffer(rd.take(o * i * 4, f"layer {li} weights"), "<f4")
                b = np.frombuffer(rd.take(o * 4, f"layer {li} bias"), "<f4")
                layer = LayerDef("dense", w.reshape(o, i).copy(), b.copy())
            else:
                layer = LayerDef(kind)
            if layer.weights is not None and not (np.isfinite(layer.weights).all()
                                                  and np.isfinite(layer.bias).all()):
                raise FormatError(f"weight file has non-finite weights or bias in layer {li}")
            layers.append(layer)
        rd.finish("the last layer")
        model = NetworkModel(tuple(layers), taps, (w_in, h_in, c_in))
        model.tap_lengths()
    except FormatError:
        raise
    except ValueError as exc:
        raise FormatError(f"weight file: {exc}") from None
    return model
