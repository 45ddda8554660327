"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately written as plain scalar loops (or the most
naive vectorization imaginable) so that agreement with the library is a
meaningful cross-check rather than a tautology.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# Rasterization
# ---------------------------------------------------------------------------

def dda_points(a, b) -> list[tuple[int, int]]:
    """Integer DDA rasterization of the segment a->b, endpoints inclusive."""
    x0, y0 = int(a[0]), int(a[1])
    x1, y1 = int(b[0]), int(b[1])
    n = max(abs(x1 - x0), abs(y1 - y0))
    if n == 0:
        return [(x0, y0)]
    pts = []
    for i in range(n + 1):
        t = i / n
        pts.append((round(x0 + t * (x1 - x0)), round(y0 + t * (y1 - y0))))
    return pts


def bresenham_loop(a, b) -> list[tuple[int, int]]:
    """Error-term Bresenham, one point per iteration, traced in the canonical
    direction ((x, y) ascending) and reversed back when a > b."""
    x0, y0 = int(a[0]), int(a[1])
    x1, y1 = int(b[0]), int(b[1])
    if (x1, y1) < (x0, y0):
        return bresenham_loop((x1, y1), (x0, y0))[::-1]
    dx = abs(x1 - x0)
    dy = -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    points = []
    while True:
        points.append((x0, y0))
        if x0 == x1 and y0 == y1:
            break
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x0 += sx
        if e2 <= dx:
            err += dx
            y0 += sy
    return points


def point_in_polygon(vertices, x: float, y: float) -> bool:
    """Even-odd test with boundary points counted as inside."""
    n = len(vertices)
    inside = False
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        # exact on-segment check
        cross = (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)
        if (cross == 0 and min(x0, x1) <= x <= max(x0, x1)
                and min(y0, y1) <= y <= max(y0, y1)):
            return True
        if (y0 > y) != (y1 > y):
            xint = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
            if x < xint:
                inside = not inside
    return inside


# ---------------------------------------------------------------------------
# Filtering and convolution
# ---------------------------------------------------------------------------

def naive_median(px: np.ndarray, k: int) -> np.ndarray:
    """Per-pixel sort-based k x k median with edge replication; px is (H, W, C)."""
    h, w, c = px.shape
    r = k // 2
    out = np.empty_like(px)
    for y in range(h):
        for x in range(w):
            for ch in range(c):
                vals = []
                for dy in range(-r, r + 1):
                    for dx in range(-r, r + 1):
                        yy = min(max(y + dy, 0), h - 1)
                        xx = min(max(x + dx, 0), w - 1)
                        vals.append(int(px[yy, xx, ch]))
                vals.sort()
                out[y, x, ch] = vals[len(vals) // 2]
    return out


def median_whole_batch(batch: np.ndarray, k: int) -> np.ndarray:
    """The earlier median filter: the pruned selection network run on the
    whole (N, H, W, C) batch at once, each comparator making two new arrays."""
    from advface.imagecore import _median_network

    if k == 1:
        return batch
    pad = k // 2
    h, w = batch.shape[1:3]
    padded = np.pad(batch, ((0, 0), (pad, pad), (pad, pad), (0, 0)), mode="edge")
    v = [padded[:, dy:dy + h, dx:dx + w] for dy in range(k) for dx in range(k)]
    for lo, hi in _median_network(k):
        v[lo], v[hi] = np.minimum(v[lo], v[hi]), np.maximum(v[lo], v[hi])
    return v[k * k // 2]


def naive_conv(x: np.ndarray, w: np.ndarray, bias: np.ndarray,
               stride: int, pad: int) -> np.ndarray:
    """Quadruple-loop cross-correlation; x is (C, H, W), w is (O, C, k, k)."""
    c, h, wd = x.shape
    o, _, k, _ = w.shape
    xp = np.zeros((c, h + 2 * pad, wd + 2 * pad))
    xp[:, pad:pad + h, pad:pad + wd] = x
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((o, ho, wo))
    for f in range(o):
        for i in range(ho):
            for j in range(wo):
                acc = 0.0
                for ch in range(c):
                    for u in range(k):
                        for v in range(k):
                            acc += w[f, ch, u, v] * xp[ch, i * stride + u, j * stride + v]
                out[f, i, j] = acc + bias[f]
    return out


def tensordot_conv(x: np.ndarray, weights: np.ndarray, bias: np.ndarray,
                   stride: int, pad: int) -> np.ndarray:
    """The earlier featnet conv kernel: one tensordot over a strided window
    view of the padded batch; x is (N, C, H, W) float32, the result (N, O, H', W')."""
    k = weights.shape[2]
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    out = np.tensordot(win, weights, axes=([1, 4, 5], [1, 2, 3]))  # (N, H', W', O)
    out = np.moveaxis(out, 3, 1)
    return out + bias[None, :, None, None]


def _tap_range(u: int, pad: int, stride: int, n_in: int, n_out: int) -> tuple[int, int]:
    """Output indices [lo, hi) whose kernel offset u reads an input cell, not the border."""
    lo = max(0, -((u - pad) // stride))            # ceil((pad - u) / stride)
    hi = min(n_out, (n_in - 1 + pad - u) // stride + 1)
    return lo, max(lo, hi)


def layerwise_conv(x: np.ndarray, weights: np.ndarray, bias: np.ndarray,
                   stride: int, pad: int, block: int = 8) -> np.ndarray:
    """The earlier featnet conv over a whole (N, C, H, W) float32 batch: per
    `block` images, k*k strided slice copies into a zero-bordered im2col
    buffer, one stacked (O, C*k*k) @ (C*k*k, H'*W') matmul into the
    contiguous (N, O, H', W') result, then the bias added in place."""
    o, c, k, _ = weights.shape
    n, _, h, wd = x.shape
    s, p = stride, pad
    ho, wo = (h + 2 * p - k) // s + 1, (wd + 2 * p - k) // s + 1
    wmat = weights.reshape(o, c * k * k)
    out = np.empty((n, o, ho, wo), np.float32)
    col = np.zeros((min(n, block), c, k, k, ho, wo), np.float32)
    rows = [_tap_range(u, p, s, h, ho) for u in range(k)]
    cols = [_tap_range(v, p, s, wd, wo) for v in range(k)]
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        nb = hi - lo
        for u, (i0, i1) in enumerate(rows):
            for v, (j0, j1) in enumerate(cols):
                y0, x0 = i0 * s + u - p, j0 * s + v - p
                col[:nb, :, u, v, i0:i1, j0:j1] = x[lo:hi, :,
                                                    y0 : y0 + s * (i1 - i0) : s,
                                                    x0 : x0 + s * (j1 - j0) : s]
        np.matmul(wmat, col[:nb].reshape(nb, c * k * k, ho * wo),
                  out=out[lo:hi].reshape(nb, o, ho * wo))
        out[lo:hi] += bias[:, None, None]
    return out


def layerwise_forward(model, images: np.ndarray, mask=None):
    """The earlier featnet forward: each layer over the whole (N, H, W, C)
    batch before the next starts. Returns (embeddings, taps) as forward_batch
    does; a ReLU runs in place on an untapped conv output, as it did."""
    from advface.featnet import l2_normalize

    disabled: dict[int, list[int]] = {}
    for li, fj in (mask.disabled if mask is not None else ()):
        disabled.setdefault(li, []).append(fj)
    x = np.moveaxis(images, 3, 1).astype(np.float32) / 255.0
    taps = []
    conv_ord = -1
    fresh = False  # x is the previous layer's conv output and no tap holds it
    for idx, layer in enumerate(model.layers):
        if layer.kind == "conv":
            conv_ord += 1
            x = layerwise_conv(x, layer.weights, layer.bias, layer.stride, layer.pad)
            if conv_ord in disabled:
                x[:, disabled[conv_ord], :, :] = 0.0
        elif layer.kind == "relu":
            x = np.maximum(x, 0.0, out=x if fresh else None)
        elif layer.kind == "maxpool":
            k, s = layer.window, layer.stride
            ho, wo = (x.shape[2] - k) // s + 1, (x.shape[3] - k) // s + 1
            out = None
            for di in range(k):
                for dj in range(k):
                    tap = x[:, :, di : di + s * (ho - 1) + 1 : s, dj : dj + s * (wo - 1) + 1 : s]
                    out = tap.copy() if out is None else np.maximum(out, tap, out=out)
            x = out
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


def naive_maxpool(x: np.ndarray, window: int, stride: int) -> np.ndarray:
    c, h, w = x.shape
    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1
    out = np.zeros((c, ho, wo))
    for ch in range(c):
        for i in range(ho):
            for j in range(wo):
                out[ch, i, j] = x[ch, i * stride:i * stride + window,
                                  j * stride:j * stride + window].max()
    return out


# ---------------------------------------------------------------------------
# Distances and detection statistics
# ---------------------------------------------------------------------------

def canberra_loop(a, b) -> float:
    total = 0.0
    for av, bv in zip(np.ravel(a), np.ravel(b)):
        denom = abs(av) + abs(bv)
        if denom > 0:
            total += abs(av - bv) / denom
    return total


def canberra(rows, b) -> np.ndarray:
    """The detector's Canberra kernel on its own: the distance of each row of
    an (N, L) matrix to the length-L vector b, as an (N,) float64 array."""
    from advface.detector import _canberra_rows, _canberra_scratch, _canberra_target

    rows = np.asarray(rows)
    b, den_b = _canberra_target(b)
    if rows.ndim != 2 or rows.shape[1] != b.shape[0]:
        raise ValueError(f"length mismatch: {rows.shape} vs {b.shape}")
    out = np.empty(rows.shape[0])
    _canberra_rows(rows, b, den_b, out, _canberra_scratch(rows.shape[0], [b.shape[0]]))
    return out


def canberra_masked(a, b) -> np.ndarray:
    """The where-masked Canberra kernel: (N, L) rows copied to float64 in
    16-row blocks, each |t - b| / (|t| + |b|) divided only where the
    denominator is positive, each row summed whole."""
    a = np.asarray(a)
    b = np.asarray(b, dtype=np.float64).ravel()
    out = np.empty(a.shape[0])
    for lo in range(0, a.shape[0], 16):
        t = a[lo : lo + 16].astype(np.float64)
        den = np.abs(t) + np.abs(b)
        num = np.abs(t - b)
        np.divide(num, den, out=num, where=den > 0)
        out[lo : lo + 16] = num.sum(axis=1)
    return out


def mean_reps_loop(taps) -> list[np.ndarray]:
    """Per-layer mean of (N, L) tap matrices. The rows are summed in float64
    one row at a time, in row order."""
    out = []
    for t in taps:
        total = np.zeros(t.shape[1])
        for row in t:
            total += row.astype(np.float64)
        out.append(total / t.shape[0])
    return out


def sensitivity_loop(maps_d, maps_c, chunk: int) -> list[np.ndarray]:
    """Per-filter sum over pairs of the L2 norm of the post-ReLU response
    difference. maps_d / maps_c hold one (N, O, H, W) array per conv layer.
    Each pair's squared float64 differences accumulate over (h, w) in
    row-major order, one add at a time; the pair norms are summed in order
    within each `chunk` of pairs, and the chunk totals in order."""
    out = []
    for md, mc in zip(maps_d, maps_c):
        n, o, h, w = md.shape
        acc = np.zeros((n, o))
        for y in range(h):
            for x in range(w):
                d = md[:, :, y, x].astype(np.float64) - mc[:, :, y, x].astype(np.float64)
                acc += d * d
        norms = np.sqrt(acc)
        total = np.zeros(o)
        for lo in range(0, n, chunk):
            part = np.zeros(o)
            for i in range(lo, min(n, lo + chunk)):
                part += norms[i]
            total += part
        out.append(total)
    return out


def _hinge_objective_loop(w, b, x, y, C) -> float:
    margins = 1.0 - y * (x @ w + b)
    return 0.5 * float(w @ w) + C * float(np.maximum(margins, 0.0).sum())


def _fit_hinge_loop(x, y, C, epochs: int = 300):
    """Subgradient descent with backtracking that recomputes the margins at
    the top of every epoch and slices the active rows of x each time."""
    n, d = x.shape
    w = np.zeros(d)
    b = 0.0
    step = 1.0 / (C * n + 1.0)
    f = _hinge_objective_loop(w, b, x, y, C)
    for _ in range(epochs):
        margins = 1.0 - y * (x @ w + b)
        active = margins > 0
        gw = w - C * (y[active, None] * x[active]).sum(axis=0)
        gb = -C * float(y[active].sum())
        accepted = False
        for _ in range(60):
            w_new = w - step * gw
            b_new = b - step * gb
            f_new = _hinge_objective_loop(w_new, b_new, x, y, C)
            if f_new <= f:
                w, b, f = w_new, b_new, f_new
                step *= 1.3
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    return w, b


def train_detector_loop(fc, fd, C_grid, seed: int):
    """The detector's 5-fold C search and final fit as best-so-far loops:
    every fold is re-sliced for every C, and a strictly better mean accuracy
    replaces the best C, so ties keep the smaller C. Returns (w, b, C, accs)
    with accs the (C, mean accuracy) of every grid entry, ascending."""
    from advface.seeds import rng_from

    x = np.vstack([fc, fd])
    y = np.concatenate([-np.ones(fc.shape[0]), np.ones(fd.shape[0])])
    feat_mean = x.mean(axis=0)
    feat_std = np.maximum(x.std(axis=0), 1e-8)
    xn = (x - feat_mean) / feat_std

    perm = rng_from(seed, 0xF01D).permutation(len(y))
    folds = np.empty(len(y), dtype=int)
    folds[perm] = np.arange(len(y)) % 5
    best_C, best_acc = None, -1.0
    history = []
    for C in sorted(C_grid):
        accs = []
        for f in range(5):
            tr, te = folds != f, folds == f
            if te.sum() == 0 or len(np.unique(y[tr])) < 2:
                continue
            w, b = _fit_hinge_loop(xn[tr], y[tr], C)
            pred = np.where(xn[te] @ w + b > 0, 1.0, -1.0)
            accs.append(float((pred == y[te]).mean()))
        acc = float(np.mean(accs)) if accs else 0.0
        history.append((C, acc))
        if acc > best_acc:
            best_acc, best_C = acc, C
    w, b = _fit_hinge_loop(xn, y, best_C)
    return w, float(b), float(best_C), history


def flip_bit_arithmetic(value: int, bit_mask: int) -> int:
    """XOR with a single-bit mask, expressed via add/subtract only."""
    if (value // bit_mask) % 2 == 1:
        return value - bit_mask
    return value + bit_mask


def ero_rows(x_le: int, y_le: int, x_re: int, y_re: int,
             psi: float, height: int) -> list[int]:
    """All rows inside the eye-occlusion band for the given landmarks."""
    d_eye = x_re - x_le
    y_e = round((y_le + y_re) / 2)
    half = d_eye / psi
    return [y for y in range(height) if y_e - half <= y <= y_e + half]


# ---------------------------------------------------------------------------
# ROC
# ---------------------------------------------------------------------------

def roc_exhaustive(gen, imp) -> list[tuple[float, float, float]]:
    """(threshold, FAR, GAR) at every observed score, thresholds descending."""
    gen = list(map(float, gen))
    imp = list(map(float, imp))
    thresholds = sorted(set(gen) | set(imp), reverse=True)
    points = []
    for t in thresholds:
        far = sum(1 for s in imp if s >= t) / len(imp)
        gar = sum(1 for s in gen if s >= t) / len(gen)
        points.append((t, far, gar))
    return points


def gar_at_far_exhaustive(gen, imp, far_target: float) -> float:
    qualifying = [gar for _, far, gar in roc_exhaustive(gen, imp) if far <= far_target]
    return max(qualifying) if qualifying else 0.0
