"""Procedural generator of identity-labeled face-like images with ground-truth landmarks.

Faces are grayscale ellipse-and-bands renders: an elliptical head on a light
background with dark eye disks, brow and mouth bands, a hair cap, and a
handful of bright smooth marks clustered in the forehead, eye, and lower-face
bands. Identity is carried by geometry, base intensity, and the mark layout;
samples of one subject differ only by small translation, brightness, and
sensor noise. Not photorealistic by design.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

import numpy as np

from .imagecore import (FormatError, Image, Point, Polygon, check_json, load_json, read_image,
                        write_image)
from .seeds import rng_from


@dataclass(frozen=True)
class LandmarkSet:
    left_eye: Point
    right_eye: Point
    nose: Point
    mouth_center: Point
    forehead_polygon: Polygon
    beard_polygon: Polygon

    def __post_init__(self):
        if self.right_eye.x <= self.left_eye.x:
            raise ValueError("right eye must lie right of left eye")

    def to_json_dict(self) -> dict:
        return {
            "left_eye": [self.left_eye.x, self.left_eye.y],
            "right_eye": [self.right_eye.x, self.right_eye.y],
            "nose": [self.nose.x, self.nose.y],
            "mouth_center": [self.mouth_center.x, self.mouth_center.y],
            "forehead_polygon": [[p.x, p.y] for p in self.forehead_polygon.vertices],
            "beard_polygon": [[p.x, p.y] for p in self.beard_polygon.vertices],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "LandmarkSet":
        points = ("left_eye", "right_eye", "nose", "mouth_center")
        polygons = ("forehead_polygon", "beard_polygon")
        check_json(d, "landmarks", {**dict.fromkeys(points, (list, int)),
                                    **dict.fromkeys(polygons, (list, (list, int)))}, {})
        if any(len(p) != 2 for p in [d[k] for k in points] + [p for k in polygons for p in d[k]]):
            raise FormatError("landmarks: every point must be an [x, y] pair")
        return cls(
            left_eye=Point(*d["left_eye"]),
            right_eye=Point(*d["right_eye"]),
            nose=Point(*d["nose"]),
            mouth_center=Point(*d["mouth_center"]),
            forehead_polygon=Polygon(d["forehead_polygon"]),
            beard_polygon=Polygon(d["beard_polygon"]),
        )


@dataclass(frozen=True)
class SubjectParams:
    subject_id: int
    face_center: tuple[float, float]
    face_axes: tuple[float, float]     # (semi-width, semi-height)
    eye_centers: tuple[tuple[float, float], tuple[float, float]]  # left, right
    brow_band: tuple[float, float]     # y-range
    mouth_band: tuple[float, float]    # y-range
    # (x offset, y offset, from the eye line rather than the face center,
    # 2 sigma**2, amplitude) of each mark
    marks: tuple[tuple[float, float, bool, float, float], ...]
    # face fill, hair_inner**2, hair shade, brow factor, eye shade, nose
    # half-width, nose factor, mouth factor
    shades: tuple[float, ...]


@dataclass(frozen=True)
class DatasetItem:
    image: Image
    landmarks: LandmarkSet
    subject_id: int
    sample_index: int


@dataclass(frozen=True)
class Dataset:
    items: tuple[DatasetItem, ...]
    seed: int

    def __len__(self) -> int:
        return len(self.items)

    def pixel_batch(self) -> np.ndarray:
        """(N, H, W, C) uint8 stack of the item images, in item order."""
        return np.stack([it.image.pixels for it in self.items])


_BACKGROUND = 110.0
# float64 pixels per render block (8 images at 64x64): a block's image, masks
# and mark temporaries stay near 2 MiB whatever the dataset's shape; 16-image
# blocks took twice that and rendered no faster
_RENDER_PIXELS = 1 << 15


def _draw_subject(seed: int, subject_id: int, size: int) -> SubjectParams:
    """The subject's geometry, from its 0xFACE generator, then its appearance,
    from its 0x7E97 generator, both the same for every sample: most of the image
    energy lives in a handful of bright, smooth marks ("beauty spots") at
    subject-random positions, so different subjects produce nearly disjoint
    coarse activation-energy maps."""
    rng = rng_from(seed, 0xFACE, subject_id)
    s = float(size)
    cx = s / 2 + rng.uniform(-2, 2)
    cy = s * 0.52 + rng.uniform(-1.5, 1.5)
    a = rng.uniform(0.34, 0.40) * s
    b = rng.uniform(0.37, 0.43) * s
    eye_y = cy - rng.uniform(0.24, 0.30) * b
    eye_half_sep = a * rng.uniform(0.70, 0.78)
    base = rng.uniform(60, 90)
    brow_band = (eye_y - 0.20 * b, eye_y - 0.08 * b)
    mouth_y = cy + rng.uniform(0.45, 0.62) * b
    mouth_band = (mouth_y - 1.5, mouth_y + 1.5)

    trng = rng_from(seed, 0x7E97, subject_id)
    # marks cluster in the forehead band, along the eye line, and on the
    # lower face — the regions that carry most of a face's distinctiveness
    offsets = [(trng.uniform(-0.75, 0.75) * a, trng.uniform(-0.95, -0.50) * b, False)
               for _ in range(2)]
    offsets += [(trng.uniform(-0.80, 0.80) * a, trng.uniform(-3, 3), True) for _ in range(4)]
    offsets += [(trng.uniform(-0.70, 0.70) * a, trng.uniform(0.30, 0.85) * b, False)
                for _ in range(3)]
    # each mark's sigma, then its amplitude
    marks = tuple((ox, oy, on_eye_line, 2 * trng.uniform(2.5, 5.0) ** 2, trng.uniform(130, 230))
                  for ox, oy, on_eye_line in offsets)
    brow_factor = trng.uniform(0.3, 0.7)
    mouth_factor = trng.uniform(0.3, 0.7)
    eye_shade = trng.uniform(5, 30)
    hair_inner = trng.uniform(0.6, 0.9)
    hair_shade = trng.uniform(10, 40)
    nose_halfwidth = trng.uniform(0.06, 0.16) * a
    nose_factor = trng.uniform(1.2, 1.7)
    return SubjectParams(
        subject_id, (cx, cy), (a, b),
        ((cx - eye_half_sep, eye_y), (cx + eye_half_sep, eye_y)),
        brow_band, mouth_band, marks,
        (0.25 * base, hair_inner ** 2, hair_shade, brow_factor, eye_shade, nose_halfwidth,
         nose_factor, mouth_factor),
    )


def _clampi(v: float, lo: int, hi: int) -> int:
    return int(min(max(round(v), lo), hi))


def _landmarks(cx: float, cy: float, a: float, b: float, xl: float, xr: float,
               eye_y: float, brow_y1: float, mouth_y: float, size: int) -> LandmarkSet:
    hi = size - 1
    # the forehead mask ends in a fringe of 2-px-wide teeth hanging down
    # over the eye line, mimicking hair strands falling over the brow
    fringe_top = _clampi(brow_y1, 0, hi)
    fringe_bot = _clampi(eye_y + 5, 0, hi)
    fx_left = _clampi(cx - 0.95 * a, 0, hi)
    fx_right = _clampi(cx + 0.95 * a, 0, hi)
    fh_pts = [(fx_left, _clampi(cy - b, 0, hi)),
              (fx_right, _clampi(cy - b, 0, hi)),
              (fx_right, fringe_top)]
    tooth = fx_right - 3
    while tooth - 1 > fx_left and fringe_bot > fringe_top:
        fh_pts += [(tooth, fringe_top), (tooth, fringe_bot),
                   (tooth - 1, fringe_bot), (tooth - 1, fringe_top)]
        tooth -= 6
    fh_pts.append((fx_left, fringe_top))
    beard_top = _clampi(cy + 0.22 * b, 0, hi)
    beard_bot = _clampi(min(cy + b, hi), 0, hi)
    beard = [(fx_left, beard_top), (fx_right, beard_top),
             (_clampi(cx + 0.55 * a, 0, hi), beard_bot), (_clampi(cx - 0.55 * a, 0, hi), beard_bot)]
    mid_x, eye_row = _clampi(cx, 0, hi), _clampi(eye_y, 0, hi)
    return LandmarkSet(
        left_eye=Point(_clampi(xl, 0, hi), eye_row),
        right_eye=Point(_clampi(xr, 0, hi), eye_row),
        nose=Point(mid_x, _clampi(cy + 0.15 * b, 0, hi)),
        mouth_center=Point(mid_x, _clampi(mouth_y, 0, hi)),
        forehead_polygon=Polygon(fh_pts),
        beard_polygon=Polygon(beard),
    )


def _paint(cols: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The (B, size, size) float64 images with face, hair, brow, eyes, nose
    and mouth painted, and the face mask, from _render_block's per-sample
    (B, 1, 1) columns, which broadcast over (B, size, size)."""
    (cx, cy, a, b, xl, xr, eye_y, brow_y0, brow_y1, mouth_y, face_shade, hair_r2,
     hair_shade, brow_factor, eye_shade, nose_halfwidth, nose_factor, mouth_factor) = cols
    xs = np.arange(size, dtype=np.float64)
    ys = xs[:, None]

    ellipse = ((xs - cx) / a) ** 2 + ((ys - cy) / b) ** 2
    face = ellipse <= 1.0
    img = np.where(face, face_shade, _BACKGROUND)

    hair = face & (ellipse > hair_r2) & (ys < cy - 0.3 * b)
    np.copyto(img, hair_shade, where=hair)

    brow = face & (ys >= brow_y0) & (ys <= brow_y1)
    np.multiply(img, brow_factor, out=img, where=brow)

    # both eye disks in one mask: with dl, dr and dy the squared distances along
    # x to each eye and along y, rounding is monotone, so fl(min(dl, dr) + dy) <=
    # r**2 exactly when fl(dl + dy) or fl(dr + dy) is
    eye_dx2 = np.minimum((xs - xl) ** 2, (xs - xr) ** 2)
    np.copyto(img, eye_shade, where=eye_dx2 + (ys - eye_y) ** 2 <= max(2.0, 0.045 * size) ** 2)

    nose = face & (np.abs(xs - cx) <= nose_halfwidth) \
        & (ys > cy - 0.05 * b) & (ys < cy + 0.25 * b)
    np.multiply(img, nose_factor, out=img, where=nose)

    mouth = face & (np.abs(ys - mouth_y) <= 1.5) & (np.abs(xs - cx) <= 0.4 * a)
    np.multiply(img, mouth_factor, out=img, where=mouth)
    return img, face


def _mark_sums(face: np.ndarray, marks: np.ndarray) -> np.ndarray:
    """The sum of the marks at each pixel of face, in img[face] order, with
    marks (B, n_marks, 4): each sample's (x, y, 2 sigma**2, amplitude) of each
    mark. The marks are only ever added inside the face, so the face pixels
    alone are evaluated."""
    xs = np.arange(face.shape[2], dtype=np.float64)
    fx = np.broadcast_to(xs, face.shape)[face]
    fy = np.broadcast_to(xs[:, None], face.shape)[face]
    per_sample = np.count_nonzero(face, axis=(1, 2))
    total = np.zeros(fx.shape[0])
    for mark in marks.transpose(1, 2, 0):
        mx, my, s2, amp = np.repeat(mark, per_sample, axis=1)
        # amp * exp(-(((fx - mx) ** 2 + (fy - my) ** 2) / s2)), in place
        np.square(np.subtract(fx, mx, out=mx), out=mx)
        mx += np.square(np.subtract(fy, my, out=my), out=my)
        np.exp(np.negative(np.divide(mx, s2, out=mx), out=mx), out=mx)
        total += np.multiply(amp, mx, out=mx)
    return total


def _render_block(subjects: list[SubjectParams], samples: range,
                  samples_per_subject: int, size: int, seed: int) -> list[DatasetItem]:
    """Render the given flat sample numbers (subject * samples_per_subject +
    sample index) as one (B, size, size) float64 block.

    Each pixel goes through the float64 operations, in the order, of a sample
    rendered alone (the two eye tests as one mask that holds exactly when
    either does), and each sample's generator makes the same draws (dx, dy,
    brightness, then the sensor noise), so the bytes do not depend on the
    block."""
    rngs, rows, brightness, marks, landmarks = [], [], [], [], []
    for n in samples:
        sid, k = divmod(n, samples_per_subject)
        params = subjects[sid]
        rng = rng_from(seed, 0x5A3, sid, k)
        dx = rng.uniform(-2.5, 2.5)
        dy = rng.uniform(-2.5, 2.5)
        brightness.append(rng.uniform(-12, 12))
        cx = params.face_center[0] + dx
        cy = params.face_center[1] + dy
        a, b = params.face_axes
        (xl0, eye_y0), (xr0, _) = params.eye_centers
        xl, xr = xl0 + dx, xr0 + dx
        eye_y = eye_y0 + dy
        brow_y0 = params.brow_band[0] + dy
        brow_y1 = params.brow_band[1] + dy
        mouth_y = (params.mouth_band[0] + params.mouth_band[1]) / 2 + dy
        rngs.append(rng)
        rows.append((cx, cy, a, b, xl, xr, eye_y, brow_y0, brow_y1, mouth_y, *params.shades))
        marks.append([(cx + ox, (eye_y if on_eye_line else cy) + oy, s2, amp)
                      for ox, oy, on_eye_line, s2, amp in params.marks])
        landmarks.append(_landmarks(cx, cy, a, b, xl, xr, eye_y, brow_y1, mouth_y, size))

    img, face = _paint(np.array(rows).T[:, :, None, None], size)
    img[face] += _mark_sums(face, np.array(marks))
    img += np.array(brightness)[:, None, None]
    for plane, rng in zip(img, rngs):
        plane += rng.normal(0, 4, size=plane.shape)
    pixels = np.clip(np.rint(img, out=img), 0, 255, out=img).astype(np.uint8)[..., None]
    return [DatasetItem(Image(px), lms, *divmod(n, samples_per_subject))
            for px, lms, n in zip(pixels, landmarks, samples)]


def generate_dataset(n_subjects: int, samples_per_subject: int,
                     image_size: int, seed: int) -> Dataset:
    """Render a labeled synthetic dataset; fully determined by seed.

    Samples are rendered in blocks of about _RENDER_PIXELS float64 pixels
    (at least one image), in subject then sample order, so a block may span
    subjects and its memory does not grow with the dataset."""
    if n_subjects < 2:
        raise ValueError("need at least 2 subjects")
    if samples_per_subject < 2:
        raise ValueError("need at least 2 samples per subject")
    if image_size < 48:
        raise ValueError("image size must be at least 48")
    subjects = [_draw_subject(seed, sid, image_size) for sid in range(n_subjects)]
    n = n_subjects * samples_per_subject
    block = max(1, _RENDER_PIXELS // image_size ** 2)
    items = []
    for lo in range(0, n, block):
        items += _render_block(subjects, range(lo, min(lo + block, n)),
                               samples_per_subject, image_size, seed)
    return Dataset(tuple(items), seed)


def split_protocol(ds: Dataset, distorted_fraction: float,
                   seed: int) -> tuple[list[int], list[int]]:
    """Partition item indices into (clean, to-distort) deterministically."""
    if not 0 <= distorted_fraction <= 1:
        raise ValueError("fraction must be in [0, 1]")
    n = len(ds)
    k = int(round(distorted_fraction * n))
    perm = rng_from(seed, 0x59117).permutation(n)
    to_distort = sorted(int(i) for i in perm[:k])
    clean = sorted(int(i) for i in perm[k:])
    return clean, to_distort


# ---------------------------------------------------------------------------
# Manifest I/O
# ---------------------------------------------------------------------------

def save_dataset(ds: Dataset, out_dir) -> Path:
    """Write PGM files plus manifest.json; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for item in ds.items:
        name = f"s{item.subject_id:04d}_i{item.sample_index:03d}.pgm"
        write_image(item.image, out / name)
        entries.append({
            "path": name,
            "subject_id": item.subject_id,
            "sample_index": item.sample_index,
            "landmarks": item.landmarks.to_json_dict(),
        })
    manifest = out / "manifest.json"
    manifest.write_text(json.dumps({"seed": ds.seed, "images": entries}, indent=2))
    return manifest


def load_dataset(in_dir) -> Dataset:
    """Read a dataset written by save_dataset; a malformed manifest, one that lists
    no images, or images of unequal shapes raise FormatError."""
    root = Path(in_dir)
    doc = load_json(root / "manifest.json", "manifest")
    check_json(doc, "manifest", {"seed": Integral, "images": list}, {})
    if not doc["images"]:
        raise FormatError("manifest: lists no images")
    items = []
    for i, e in enumerate(doc["images"]):
        what = f"manifest image {i}"
        check_json(e, what, {"path": str, "subject_id": int, "sample_index": int,
                             "landmarks": dict}, {})
        try:  # a degenerate polygon or swapped eyes is a bad file, not a bad flag
            lms = LandmarkSet.from_json_dict(e["landmarks"])
        except ValueError as exc:
            raise FormatError(f"{what}: {exc}") from None
        img = read_image(root / e["path"])
        if items and img.pixels.shape != items[0].image.pixels.shape:
            raise FormatError(f"{what}: {e['path']} has shape {img.pixels.shape}, "
                              f"manifest image 0 has {items[0].image.pixels.shape}")
        items.append(DatasetItem(img, lms, e["subject_id"], e["sample_index"]))
    return Dataset(tuple(items), doc["seed"])
