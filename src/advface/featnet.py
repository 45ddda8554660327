"""From-scratch convolutional feature extractor with per-layer activation taps.

The network is a fixed small architecture with seeded random (He-scaled)
filters. Activations are tapped after every ReLU and after the dense layer;
those tapped vectors feed the detector's layer-wise statistics. Selective
dropout runs the copy NetworkModel.masked gives, its disabled filters zeroed.
"""

from __future__ import annotations

import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .imagecore import FormatError, _Reader, reading
from .seeds import rng_from

_MAGIC = b"FNET1"
_KIND_CODES = {"conv": 0, "relu": 1, "maxpool": 2, "flatten": 3, "dense": 4, "l2norm": 5}
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()}
# FNET1's layer layout: each kind's u32 header fields in file order; a conv's
# (out, in, k, k) or a dense layer's (out, in) float32 weights, then its bias, follow
_FIELDS = {"conv": ("out", "in", "k", "stride", "pad"), "maxpool": ("window", "stride"),
           "dense": ("out", "in")}
_SHAPE = ("out", "in", "k", "k")

# Images per forward_batch call in embed, which splits every batch the same way.
FORWARD_CHUNK = 256
# Images per block of forward_batch's depth-first loop; it bounds the per-thread
# scratch and moves no bit.
_CONV_BLOCK = 8
# Threads that share a blocked loop in _parallel_blocks, the calling one
# included: the CPUs this process may use.
_WORKERS = len(os.sched_getaffinity(0))


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
    """Set of (conv_ordinal, filter_index) pairs that NetworkModel.masked zeroes."""

    disabled: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "disabled",
                           frozenset((int(a), int(b)) for a, b in self.disabled))


@dataclass(frozen=True)
class NetworkModel:
    layers: tuple[LayerDef, ...]
    tap_points: tuple[int, ...]
    input_spec: tuple[int, int, int]    # (W, H, C)
    # the (C, H, W) input shape, then each layer's output shape; walked once
    # here, so a network whose layers do not chain cannot be built
    shapes: tuple[tuple[int, ...], ...] = field(init=False, compare=False)

    def __post_init__(self):
        taps = tuple(self.tap_points)
        if list(taps) != sorted(set(taps)) or (taps and taps[-1] >= len(self.layers)):
            raise ValueError("tap points must be strictly increasing layer indices")
        shapes = [tuple(self.input_spec)[::-1]]
        if min(shapes[0]) < 1:
            raise ValueError(f"empty input shape {self.input_spec}")
        for idx, layer in enumerate(self.layers):
            shapes.append(_out_shape(layer, shapes[-1]))
            if min(shapes[-1]) < 1:
                raise ValueError(f"layer {idx} ({layer.kind}) has an empty output {shapes[-1]}")
        object.__setattr__(self, "shapes", tuple(shapes))

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
        """Flattened activation length at each tap."""
        return tuple(math.prod(self.shapes[t + 1]) for t in self.tap_points)

    def masked(self, mask: FilterMask) -> NetworkModel:
        """A copy with each disabled filter's conv weights and bias zeroed; it shares the rest.
        An entry naming no conv filter is a FormatError: the one check that a mask fits."""
        layers, convs, counts = list(self.layers), self.conv_ordinals, self.conv_filter_counts()
        off: dict[int, list[int]] = {}  # layer index -> disabled filters
        for i, j in mask.disabled:
            if not 0 <= i < len(counts) or not 0 <= j < counts[i]:
                raise FormatError(f"mitigation plan: mask entry {(i, j)} references no conv filter")
            off.setdefault(convs[i], []).append(j)
        for i, filters in off.items():  # each masked layer copied once
            w, b = layers[i].weights.copy(), layers[i].bias.copy()
            w[filters] = b[filters] = 0.0
            layers[i] = replace(layers[i], weights=w, bias=b)
        return replace(self, layers=tuple(layers))


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
        return (math.prod(shape),)
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

def _new_pool() -> None:
    """Make the pool of _parallel_blocks, whose threads start on the first submit: at
    import, and in a forked child, which inherits the pool but none of its threads."""
    global _pool
    _pool = ThreadPoolExecutor(max(1, _WORKERS - 1))


_new_pool()
os.register_at_fork(after_in_child=_new_pool)


def _parallel_blocks(n: int, step: int, scratches: list, fn, then=None) -> None:
    """Call fn(scratch, lo, hi) for every block [lo, hi) of range(0, n, step).

    One thread runs per scratch given, each with its own: the calling thread
    with scratches[0], a thread of a shared pool with each other. Each takes
    the next unclaimed block until none is left. A thread that starts late,
    or shares its CPU, does fewer blocks instead of holding up a fixed share,
    and the caller never waits for a helper to start, only for blocks
    already running. fn must compute each block independently of the others,
    so the output bytes do not depend on the thread count or on which thread
    ran which block. With one scratch the pool is never touched.

    If given, then(scratch, lo, hi) runs right after fn, one block at a time
    in order of lo, each block waiting for the one before it (claimed earlier,
    so running). A block that raises ends the pass: no thread claims another
    block or keeps waiting.
    """
    starts = iter(range(0, n, step))
    take = threading.Lock()
    turn = threading.Condition()
    done, failed = 0, False  # the rows whose then has run; whether a block raised

    def run(scratch) -> None:
        nonlocal done, failed
        while not failed:
            with take:
                lo = next(starts, None)
            if lo is None:
                return
            hi = min(lo + step, n)
            try:
                fn(scratch, lo, hi)
                if then is not None:
                    with turn:
                        turn.wait_for(lambda: done == lo or failed)
                        if failed:
                            return
                        then(scratch, lo, hi)
                        done = hi
                        turn.notify_all()
            except BaseException:
                with turn:
                    failed = True
                    turn.notify_all()
                raise

    helpers = [_pool.submit(run, scratch) for scratch in scratches[1:]]
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


def _conv2d(xp: np.ndarray, layer: LayerDef, col: np.ndarray, out: np.ndarray) -> None:
    """Weight-stationary conv of one block: per image, (O, C*k*k) @ im2col (C*k*k, H'*W').

    xp is the block's (nb, C, H + 2*pad, W + 2*pad) input, border zeros
    included; out is its (nb, O, H', W') float32 output, which must be
    C-contiguous, as a reshape of any other array would copy and lose the
    result. The flat scratch col, at least nb*C*k*k*H'*W' floats, is fully
    overwritten by k*k strided slice copies. Each image is one GEMM of a
    shape that does not depend on the batch, so its output bits do not either.
    """
    o, c, k, _ = layer.weights.shape
    s = layer.stride
    nb, _, ho, wo = out.shape
    col = col[: nb * c * k * k * ho * wo].reshape(nb, c, k, k, ho, wo)
    for u in range(k):
        for v in range(k):
            col[:, :, u, v] = xp[:, :, u : u + s * (ho - 1) + 1 : s, v : v + s * (wo - 1) + 1 : s]
    np.matmul(layer.weights.reshape(o, c * k * k), col.reshape(nb, c * k * k, ho * wo),
              out=out.reshape(nb, o, ho * wo))
    out += layer.bias[:, None, None]


def _maxpool(x: np.ndarray, layer: LayerDef, out: np.ndarray) -> None:
    """Running np.maximum into out over the k*k strided slices, one per window offset."""
    k, s = layer.window, layer.stride
    _, _, ho, wo = out.shape
    windows = [x[:, :, di : di + s * (ho - 1) + 1 : s, dj : dj + s * (wo - 1) + 1 : s]
               for di in range(k) for dj in range(k)]
    np.copyto(out, windows[0])
    for win in windows[1:]:
        np.maximum(out, win, out=out)


def l2_normalize(x: np.ndarray) -> np.ndarray:
    """Row-wise L2 normalization; all-zero rows pass through unchanged. A row whose
    norm is not finite (a network whose output overflows float32) is a FormatError."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(x, axis=-1, keepdims=True)
    if not np.isfinite(norms).all():
        raise FormatError("network output overflows float32: a row's L2 norm is not finite")
    return x / np.where(norms > 0, norms, 1.0)


def _homes(model: NetworkModel, split: int, reducing: bool) -> dict:
    """Where each stage writes its output, as (kind, stage).

    Stage -1 scales the input; stage i runs layer i. An untapped stage other
    than a flatten, feeding a ReLU, writes where that ReLU does, and the ReLU
    runs in place. Every stage from split - 1 on writes into its rows of an
    (N, ...) array ("full"); a flatten's array is a view of its input's. So
    does a tapped stage before that, unless the taps go to a reducer: then it
    writes into a block buffer ("buf"), whose rows the reducer reads after
    the block's last stage. Before the split, an untapped stage feeding a
    padded conv writes into the head of the im2col buffer ("col"), which that
    conv copies into its zero-bordered input before its im2col overwrites
    it: a maxpool writing straight into that strided interior ran about 1.5x
    slower. A conv never writes there, as it reads that buffer while it
    writes. Any other stage gets a block buffer.
    """
    layers = model.layers
    home = {}
    for i in range(len(layers) - 1, -2, -1):
        kind = layers[i].kind if i >= 0 else "input"
        nxt = layers[i + 1].kind if i + 1 < len(layers) else None
        tapped = i in model.tap_points
        if nxt == "relu" and kind != "flatten" and not tapped:
            home[i] = home[i + 1]
        elif i >= split - 1 or (tapped and not reducing):
            home[i] = ("full", i)
        elif nxt == "conv" and layers[i + 1].pad and kind != "conv" and not tapped:
            home[i] = ("col", i)
        else:
            home[i] = ("buf", i)
    return home


def forward_batch(model: NetworkModel, images: np.ndarray, reduce=None):
    """Run the network on a (N, H, W, C) uint8 batch; one of another shape is a FormatError.

    Returns (embeddings (N, D), taps: list of (N, lambda_i) float arrays, one
    per tap point). With a reducer the list is empty and no tap is kept:
    reduce(k, lo, hi, rows) gets tap k's float32 rows [lo, hi), valid during
    the call only. Taps before the split (the first flatten or dense) come
    block by block, from the block's worker thread while it is still in
    cache, one call at a time in row order, tap by tap within a block; the
    rest come in one call per tap for all N rows after the tail. So a reducer
    may reuse one scratch of its own and add rows in order. It calls no
    public advface function: the benchmark's tracer wraps those, and its
    span stack is not thread-safe.

    Depth-first: every stage, input scaling first, runs in one loop over a
    block of rows, writing where _homes places it. One _parallel_blocks call
    runs each _CONV_BLOCK-image block through every stage before the split;
    the stages from there on then run as one block of the whole batch in the
    calling thread. Per thread the scratch is one im2col buffer, one
    zero-bordered input buffer per padded conv and a block buffer for any
    output that _homes places in neither.
    """
    w_in, h_in, c_in = model.input_spec
    if images.ndim != 4 or images.shape[1:] != (h_in, w_in, c_in):
        raise FormatError(
            f"input batch shape {images.shape} does not match model input "
            f"{(h_in, w_in, c_in)}")
    layers, n = model.layers, images.shape[0]
    shapes = dict(enumerate(model.shapes, -1))  # -1: the input
    split = next((i for i, l in enumerate(layers) if l.kind in ("flatten", "dense")),
                 len(layers))
    home = _homes(model, split, reduce is not None)
    sizes = {i: math.prod(shape) for i, shape in shapes.items()}
    b = min(n, _CONV_BLOCK)
    col_len = b * max([layer.weights[0].size * shapes[i][1] * shapes[i][2]
                       for i, layer in enumerate(layers[:split]) if layer.kind == "conv"]
                      + [sizes[j] for kind, j in home.values() if kind == "col"],
                      default=0)

    padded = [i for i in range(split) if layers[i].kind == "conv" and layers[i].pad]

    def alloc():
        pads = {}
        for i in padded:
            c, h, w = shapes[i - 1]
            p = layers[i].pad
            pads[i] = np.zeros((b, c, h + 2 * p, w + 2 * p), np.float32)
        bufs = {j: np.empty(b * sizes[j], np.float32) for kind, j in home.values()
                if kind == "buf"}
        return np.empty(col_len, np.float32), pads, bufs

    # every thread's scratch is made here, not in its thread, whose own malloc
    # arena raised peak RSS by over 10%; and first, then the output arrays in
    # layer order: the other way round left holes in the heap that raised
    # train-detect's and defend-eval's peak RSS by 10-13%
    scratches = [alloc() for _ in range(max(1, min(_WORKERS, -(-n // _CONV_BLOCK))))]
    full = {}
    for j in sorted({j for kind, j in home.values() if kind == "full"}):
        full[j] = (full[home[j - 1][1]].reshape(n, -1) if j >= 0 and layers[j].kind == "flatten"
                   else np.empty((n, *shapes[j]), np.float32))

    def out(scratch, lo: int, hi: int, i: int) -> np.ndarray:
        """Rows [lo, hi) of stage i's output."""
        kind, j = home[i]
        if kind == "full":
            return full[j][lo:hi]
        flat = scratch[0] if kind == "col" else scratch[2][j]
        return flat[: (hi - lo) * sizes[j]].reshape(hi - lo, *shapes[j])

    def run(scratch, lo: int, hi: int, stages=range(-1, split)) -> None:
        col, pads, _ = scratch
        nb = hi - lo
        x = images[lo:hi] if stages.start < 0 else out(scratch, lo, hi, stages.start - 1)
        for i in stages:
            layer, y = layers[i] if i >= 0 else None, out(scratch, lo, hi, i)
            kind = "input" if layer is None else layer.kind
            if kind == "input":
                np.divide(np.moveaxis(x, 3, 1), 255.0, out=y, dtype=np.float32)
            elif kind == "conv":
                if layer.pad:
                    p = layer.pad
                    pads[i][:nb, :, p:-p, p:-p] = x
                    x = pads[i][:nb]
                _conv2d(x, layer, col, y)
            elif kind == "relu":
                np.maximum(x, 0.0, out=y)
            elif kind == "maxpool":
                _maxpool(x, layer, y)
            elif kind == "dense":
                np.matmul(x, layer.weights.T, out=y)
                y += layer.bias
            elif kind == "l2norm":
                y[...] = l2_normalize(x)
            x = y  # a flatten's y is already a view of x

    early = [(k, t) for k, t in enumerate(model.tap_points) if t < split]
    late = [(k, t) for k, t in enumerate(model.tap_points) if t >= split]

    def hand_over(scratch, lo: int, hi: int, taps=early) -> None:
        for k, t in taps:
            reduce(k, lo, hi, out(scratch, lo, hi, t).reshape(hi - lo, -1))

    _parallel_blocks(n, _CONV_BLOCK, scratches, run,
                     hand_over if reduce is not None and early else None)
    del scratches  # freed before the tail, which needs none
    tail = (None, {}, {})  # every home from the split on is "full"
    run(tail, 0, n, range(split, len(layers)))
    if reduce is None:
        return full[len(layers) - 1], [full[t].reshape(n, -1) for t in model.tap_points]
    hand_over(tail, 0, n, late)
    return full[len(layers) - 1], []


def embed(model: NetworkModel, images: np.ndarray, reduce=None) -> np.ndarray:
    """(N, D) embeddings of a non-empty (N, H, W, C) uint8 batch, each chunk of
    FORWARD_CHUNK images run by forward_batch(model, chunk, reduce) in order; without a
    reducer no tap is computed. A reducer's rows count from the start of images, not of
    the chunk. An empty batch is a ValueError, raised before any forward."""
    if images.shape[0] < 1:
        raise ValueError("need at least one image")
    if reduce is None:
        model = replace(model, tap_points=())

    def chunk(lo: int) -> np.ndarray:
        part = None if reduce is None else lambda k, a, b, rows: reduce(k, lo + a, lo + b, rows)
        return forward_batch(model, images[lo : lo + FORWARD_CHUNK], part)[0]

    return np.vstack([chunk(lo) for lo in range(0, images.shape[0], FORWARD_CHUNK)])


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
            fields = _FIELDS.get(layer.kind, ())
            dims = dict(zip(_SHAPE, () if layer.weights is None else layer.weights.shape))
            fh.write(struct.pack(f"<B{len(fields)}I", _KIND_CODES[layer.kind],
                                 *(dims[f] if f in dims else getattr(layer, f) for f in fields)))
            if "out" in fields:
                fh.write(layer.weights.astype("<f4").tobytes())
                fh.write(layer.bias.astype("<f4").tobytes())


def load_weights(path) -> NetworkModel:
    """Read an FNET1 file, checking that the network it holds can run.

    Beyond the byte layout, this rejects trailing bytes, non-finite weights
    or biases, a bad stride, pad or window, layer shapes that do not chain
    (checked when the model is built), and a network with no flatten layer,
    whose output is not an embedding vector, all as FormatError.
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
    with reading("weight file"):
        for li in range(n_layers):
            code = rd.take(1, f"layer {li} kind")[0]
            if code not in _CODE_KINDS:
                raise FormatError(f"unknown layer kind code {code} at layer {li}")
            kind = _CODE_KINDS[code]
            v = {f: rd.u32(f"layer {li} {f}") for f in _FIELDS.get(kind, ())}
            shape = tuple(v[f] for f in _SHAPE if f in v)  # () for a kind without weights
            params = {f: x for f, x in v.items() if f not in _SHAPE}
            if shape:
                w = np.frombuffer(rd.take(math.prod(shape) * 4, f"layer {li} weights"), "<f4")
                b = np.frombuffer(rd.take(shape[0] * 4, f"layer {li} bias"), "<f4")
                layer = LayerDef(kind, w.reshape(shape).copy(), b.copy(), **params)
            else:
                layer = LayerDef(kind, **params)
            if layer.weights is not None and not (np.isfinite(layer.weights).all()
                                                  and np.isfinite(layer.bias).all()):
                raise FormatError(f"weight file has non-finite weights or bias in layer {li}")
            layers.append(layer)
        rd.finish("the last layer")
        model = NetworkModel(tuple(layers), taps, (w_in, h_in, c_in))
        if "flatten" not in (layer.kind for layer in layers):
            raise FormatError("weight file: the network has no flatten layer, so its output "
                              "is not a vector")
    return model
