"""Core image types, netpbm I/O, rasterization primitives, median filtering,
and the byte reader of the binary weight and mean files.

Images are 8-bit rasters stored as (H, W, C) uint8 arrays with C in {1, 3}.
The only image formats are binary PGM (P5) and PPM (P6) with maxval 255.
"""

from __future__ import annotations

import contextlib
import functools
import json
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np


class FormatError(ValueError):
    """Malformed or unsupported file content."""


@contextlib.contextmanager
def reading(what: str):
    """A ValueError in the block, but not a FormatError, becomes FormatError(f"{what}: {exc}")."""
    try:
        yield
    except FormatError:
        raise
    except ValueError as exc:
        raise FormatError(f"{what}: {exc}") from None


class _Reader:
    """Cursor over the bytes of a binary file (FNET1, MREP1); running short or
    leaving bytes over is a FormatError naming the file kind."""

    def __init__(self, buf: bytes, kind: str):
        self.buf = buf
        self.pos = 0
        self.kind = kind  # e.g. "weight file"

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.buf):
            raise FormatError(f"truncated {self.kind} while reading {what} "
                              f"at byte {self.pos}")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def finish(self, after: str) -> None:
        if self.pos != len(self.buf):
            raise FormatError(f"{self.kind} has {len(self.buf) - self.pos} trailing bytes "
                              f"after {after}")


def _json_is(value, kind) -> bool:
    if isinstance(kind, tuple):  # (list, item kind)
        return isinstance(value, list) and all(_json_is(v, kind[1]) for v in value)
    if isinstance(value, bool):
        return kind is bool
    if kind is int:
        return isinstance(value, int) and -2**63 <= value < 2**63
    if kind is float and isinstance(value, int):
        try:
            float(value)
        except OverflowError:  # beyond float64's range
            return False
    return isinstance(value, (int, float) if kind is float else kind)


def check_json(d, what: str, required: dict, optional: dict) -> None:
    """Raise FormatError unless JSON object d has every required key and each key
    present holds its kind: bool, int (fits int64), Integral (any integer, for
    seeds), float (any number float64 holds), str or (list, item kind)."""
    if not isinstance(d, dict):
        raise FormatError(f"{what}: expected a JSON object, got {type(d).__name__}")
    for key, kind in {**required, **optional}.items():
        if key not in d and key in required:
            raise FormatError(f"{what}: missing key {key!r}")
        if key in d and not _json_is(d[key], kind):
            raise FormatError(f"{what}: key {key!r} has the wrong type or is out of range: "
                              f"{d[key]!r}")


def load_json(path, what: str):
    """Parse the JSON file at path; text that is not JSON is a FormatError naming `what`."""
    with reading(f"{what}: {path} is not JSON"):  # not UTF-8, not JSON, or an int too long
        return json.loads(Path(path).read_text())


class Point(NamedTuple):
    x: int
    y: int


@dataclass(frozen=True)
class Image:
    """8-bit raster; pixels has shape (H, W, C), C in {1, 3}."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.ndim == 2:
            px = px[:, :, None]
        if px.ndim != 3 or px.shape[2] not in (1, 3):
            raise ValueError(f"pixels must be (H, W, C) with C in {{1, 3}}, got shape {px.shape}")
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError("image must be at least 1x1")
        if px.dtype != np.uint8:
            raise ValueError(f"pixels must be uint8, got {px.dtype}")
        px = np.ascontiguousarray(px)
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]

    @property
    def data(self) -> bytes:
        """Row-major interleaved pixel bytes."""
        return self.pixels.tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Image):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and np.array_equal(self.pixels, other.pixels)


@dataclass(frozen=True)
class Polygon:
    """Closed polygon given by ordered vertices; must enclose positive area."""

    vertices: tuple[Point, ...]

    def __init__(self, vertices):
        verts = tuple(Point(int(x), int(y)) for x, y in vertices)
        if len(verts) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        # twice the signed (shoelace) area, in exact integers
        if not sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(verts, verts[1:] + verts[:1])):
            raise ValueError("degenerate polygon (zero area)")
        object.__setattr__(self, "vertices", verts)


# ---------------------------------------------------------------------------
# Netpbm codec (binary P5 / P6, maxval 255)
# ---------------------------------------------------------------------------

# a header token, after whitespace and comments ("#" to the end of its line); a "#"
# also ends the token it follows
_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*([^\s#]*)")


def _next_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    m = _TOKEN.match(buf, pos)
    if not m[1]:
        raise FormatError(f"unexpected end of header at byte {m.end()}")
    return m[1], m.end()


def read_image(path) -> Image:
    """Read a binary PGM (P5) or PPM (P6) file with maxval 255."""
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, pos = _next_token(buf, 0)
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise FormatError(f"unsupported magic {magic!r} at byte 0 (want P5 or P6)")
    dims = []
    for name in ("width", "height", "maxval"):
        tok, pos = _next_token(buf, pos)
        try:
            dims.append(int(tok))
        except ValueError:
            raise FormatError(f"bad {name} token {tok!r} at byte {pos - len(tok)}") from None
    width, height, maxval = dims
    if width < 1 or height < 1:
        raise FormatError(f"bad dimensions {width}x{height} in header")
    if maxval != 255:
        raise FormatError(f"maxval must be 255, got {maxval} at byte {pos}")
    if pos >= len(buf) or not buf[pos : pos + 1].isspace():
        raise FormatError(f"missing whitespace after maxval at byte {pos}")
    pos += 1
    need = width * height * channels
    payload = buf[pos : pos + need]
    if len(payload) != need:
        raise FormatError(
            f"truncated payload at byte {pos + len(payload)}: "
            f"need {need} bytes, got {len(payload)}"
        )
    px = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return Image(px.copy())


def write_image(img: Image, path) -> None:
    """Write a canonical binary PGM/PPM file (P5/P6, maxval 255)."""
    magic = b"P5" if img.channels == 1 else b"P6"
    header = b"%s\n%d %d\n255\n" % (magic, img.width, img.height)
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(img.data)
    except OSError as exc:
        raise OSError(f"failed writing image to {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Rasterization
# ---------------------------------------------------------------------------

def line_pixels(a: Point, b: Point) -> tuple[np.ndarray, np.ndarray]:
    """(xs, ys) of the 8-connected Bresenham segment from a to b, endpoints inclusive.

    Traced in a canonical direction so that a->b and b->a give the same point
    set; there the minor coordinate at major step i is round-half-up(i * minor / major).
    """
    x0, y0 = int(a[0]), int(a[1])
    x1, y1 = int(b[0]), int(b[1])
    if (x1, y1) < (x0, y0):
        xs, ys = line_pixels(Point(x1, y1), Point(x0, y0))
        return xs[::-1], ys[::-1]
    dx, dy = x1 - x0, abs(y1 - y0)
    sy = 1 if y1 > y0 else -1
    if dx >= dy:
        i = np.arange(dx + 1)
        return x0 + i, y0 + sy * ((2 * dy * i + dx) // max(2 * dx, 1))
    j = np.arange(dy + 1)
    return x0 + (2 * dx * j + dy) // (2 * dy), y0 + sy * j


def polygon_mask(poly: Polygon, width: int, height: int) -> np.ndarray:
    """Boolean (H, W) mask of pixels inside poly (even-odd rule, boundary inclusive).

    A pixel (x, y) is inside when the even-odd crossing count at that point is
    odd, or when the point lies exactly on a polygon edge.
    """
    p0 = np.array(poly.vertices, dtype=np.int64)
    p1 = np.roll(p0, -1, axis=0)
    # even-odd ray cast toward +x with the half-open vertex rule: pixel x of a
    # row toggles at each crossing xint of that row with x < ceil(xint)
    ys = np.arange(height, dtype=np.float64)
    e, r = np.nonzero((p0[:, 1:] > ys) != (p1[:, 1:] > ys))
    (xa, ya), (xb, yb) = p0[e].T, p1[e].T
    xint = xa + (ys[r] - ya) * (xb - xa) / (yb - ya)
    cut = np.clip(np.ceil(xint), 0, width).astype(np.int64)
    counts = np.bincount(r * (width + 1) + cut, minlength=height * (width + 1))
    left_of = np.cumsum(counts.reshape(height, width + 1)[:, ::-1], axis=1)[:, ::-1]
    mask = (left_of[:, 1:] & 1).astype(bool)
    # boundary: each edge's integer lattice points p0 + t * step, t in [0, g],
    # with t clipped to the image along the edge's major axis
    d = p1 - p0
    g = np.maximum(np.gcd(d[:, 0], d[:, 1]), 1)
    step = d // g[:, None]
    ax = (np.abs(step[:, 1]) > np.abs(step[:, 0])).astype(np.int64)
    edges = np.arange(len(g))
    p, s, n = p0[edges, ax], step[edges, ax], np.where(ax == 1, height, width)
    mag = np.maximum(np.abs(s), 1)
    lo = np.maximum(0, -(np.where(s < 0, n - 1 - p, p) // mag))
    hi = np.minimum(g, np.where(s < 0, p, n - 1 - p) // mag)
    cnt = np.maximum(hi - lo + 1, 0)
    e = np.repeat(edges, cnt)
    t = lo[e] + np.arange(cnt.sum()) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    bx, by = (p0[e] + t[:, None] * step[e]).T
    ok = (bx >= 0) & (bx < width) & (by >= 0) & (by < height)
    mask[by[ok], bx[ok]] = True
    return mask


# ---------------------------------------------------------------------------
# Median filter
# ---------------------------------------------------------------------------

_MEDIAN_BLOCK = 16  # images per block of median_filter_array's wire buffers


@functools.cache
def _median_network(k: int) -> tuple[tuple[int, int], ...]:
    """Comparators (min wire, max wire) that leave the median of k*k wires on wire
    k*k // 2: Batcher's odd-even merge sort on the next power of two wires,
    pruned to the comparators that output depends on."""
    m = k * k
    n = 1 << (m - 1).bit_length()
    comps = []
    p = 1
    while p < n:
        d = p
        while d >= 1:
            for j in range(d % p, n - d, 2 * d):
                # the extra wires hold +inf, which no comparator moves down
                comps += [(i, i + d) for i in range(j, min(j + d, n - d))
                          if i // (2 * p) == (i + d) // (2 * p) and i + d < m]
            d //= 2
        p *= 2
    needed, kept = {m // 2}, []
    for lo, hi in reversed(comps):
        if lo in needed or hi in needed:
            kept.append((lo, hi))
            needed |= {lo, hi}
    return tuple(reversed(kept))


def median_filter_array(batch: np.ndarray, k: int) -> np.ndarray:
    """k x k median filter of a (N, H, W, C) uint8 batch, edge-replicated padding:
    an exact min/max selection network over the k*k shifted views, run on
    _MEDIAN_BLOCK images at a time in buffers made once per call. A comparator
    writes its min into the spare wire and its max in place. A pixel's median
    depends only on its own window, so blocking moves no bit."""
    if k < 1 or k % 2 == 0:
        raise ValueError(f"window size must be odd and >= 1, got {k}")
    if k == 1:
        return batch
    pad = k // 2
    n, h, w, c = batch.shape
    out = np.empty(batch.shape, batch.dtype)
    wires = np.empty((k * k + 1, min(n, _MEDIAN_BLOCK), h, w, c), batch.dtype)  # + the spare
    for lo in range(0, n, _MEDIAN_BLOCK):
        padded = np.pad(batch[lo : lo + _MEDIAN_BLOCK], ((0, 0), (pad, pad), (pad, pad), (0, 0)),
                        mode="edge")
        *v, spare = [wire[: len(padded)] for wire in wires]
        for i, wire in enumerate(v):
            wire[...] = padded[:, i // k : i // k + h, i % k : i % k + w]
        for a, b in _median_network(k):
            np.minimum(v[a], v[b], out=spare)
            np.maximum(v[a], v[b], out=v[b])
            v[a], spare = spare, v[a]
        out[lo : lo + len(padded)] = v[k * k // 2]
    return out
