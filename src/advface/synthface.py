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
from .seeds import derive_seed, rng_from


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
    base_intensity: float
    texture_seed: int


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


def _draw_subject(seed: int, subject_id: int, size: int) -> SubjectParams:
    rng = rng_from(seed, 0xFACE, subject_id)
    s = float(size)
    cx = s / 2 + rng.uniform(-2, 2)
    cy = s * 0.52 + rng.uniform(-1.5, 1.5)
    a = rng.uniform(0.34, 0.40) * s
    b = rng.uniform(0.37, 0.43) * s
    eye_y = cy - rng.uniform(0.24, 0.30) * b
    eye_half_sep = a * rng.uniform(0.70, 0.78)
    base = rng.uniform(60, 90)
    tex_seed = derive_seed(seed, 0x7E97, subject_id)
    brow_band = (eye_y - 0.20 * b, eye_y - 0.08 * b)
    mouth_y = cy + rng.uniform(0.45, 0.62) * b
    mouth_band = (mouth_y - 1.5, mouth_y + 1.5)
    return SubjectParams(
        subject_id, (cx, cy), (a, b),
        ((cx - eye_half_sep, eye_y), (cx + eye_half_sep, eye_y)),
        brow_band, mouth_band, base, tex_seed,
    )


def _clampi(v: float, lo: int, hi: int) -> int:
    return int(min(max(round(v), lo), hi))


def _render_sample(params: SubjectParams, size: int, seed: int,
                   sample_index: int) -> tuple[Image, LandmarkSet]:
    rng = rng_from(seed, 0x5A3, params.subject_id, sample_index)
    dx = rng.uniform(-2.5, 2.5)
    dy = rng.uniform(-2.5, 2.5)
    brightness = rng.uniform(-12, 12)

    cx = params.face_center[0] + dx
    cy = params.face_center[1] + dy
    a, b = params.face_axes
    (xl0, eye_y0), (xr0, _) = params.eye_centers
    xl, xr = xl0 + dx, xr0 + dx
    eye_y = eye_y0 + dy

    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    ellipse = ((xs - cx) / a) ** 2 + ((ys - cy) / b) ** 2
    face = ellipse <= 1.0

    # subject-specific appearance, all deterministic in texture_seed:
    # most of the image energy lives in a handful of bright, smooth marks
    # ("beauty spots") at subject-random positions, so different subjects
    # produce nearly disjoint coarse activation-energy maps
    trng = np.random.Generator(np.random.PCG64(params.texture_seed))
    marks = np.zeros((size, size))
    # marks cluster in the forehead band, along the eye line, and on the
    # lower face — the regions that carry most of a face's distinctiveness
    spots = [(cx + trng.uniform(-0.75, 0.75) * a,
              cy + trng.uniform(-0.95, -0.50) * b) for _ in range(2)]
    spots += [(cx + trng.uniform(-0.80, 0.80) * a,
               eye_y + trng.uniform(-3, 3)) for _ in range(4)]
    spots += [(cx + trng.uniform(-0.70, 0.70) * a,
               cy + trng.uniform(0.30, 0.85) * b) for _ in range(3)]
    for mx, my in spots:
        sigma = trng.uniform(2.5, 5.0)
        amp = trng.uniform(130, 230)
        marks += amp * np.exp(-(((xs - mx) ** 2 + (ys - my) ** 2)
                                / (2 * sigma ** 2)))
    brow_factor = trng.uniform(0.3, 0.7)
    mouth_factor = trng.uniform(0.3, 0.7)
    eye_shade = trng.uniform(5, 30)
    hair_inner = trng.uniform(0.6, 0.9)
    hair_shade = trng.uniform(10, 40)
    nose_halfwidth = trng.uniform(0.06, 0.16) * a
    nose_factor = trng.uniform(1.2, 1.7)

    img = np.full((size, size), _BACKGROUND)
    img[face] = 0.25 * params.base_intensity

    hair = face & (ellipse > hair_inner ** 2) & (ys < cy - 0.3 * b)
    img[hair] = hair_shade

    brow_y0 = params.brow_band[0] + dy
    brow_y1 = params.brow_band[1] + dy
    brow = face & (ys >= brow_y0) & (ys <= brow_y1)
    img[brow] *= brow_factor

    eye_r = max(2.0, 0.045 * size)
    for ex in (xl, xr):
        eye = (xs - ex) ** 2 + (ys - eye_y) ** 2 <= eye_r ** 2
        img[eye] = eye_shade

    nose = face & (np.abs(xs - cx) <= nose_halfwidth) \
        & (ys > cy - 0.05 * b) & (ys < cy + 0.25 * b)
    img[nose] *= nose_factor

    mouth_y = (params.mouth_band[0] + params.mouth_band[1]) / 2 + dy
    mouth = face & (np.abs(ys - mouth_y) <= 1.5) & (np.abs(xs - cx) <= 0.4 * a)
    img[mouth] *= mouth_factor

    img[face] += marks[face]

    img += brightness
    img += rng.normal(0, 4, size=img.shape)
    pixels = np.clip(np.rint(img), 0, 255).astype(np.uint8)[:, :, None]

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
    forehead = Polygon(fh_pts)
    beard_top = cy + 0.22 * b
    beard_bot = min(cy + b, hi)
    beard = Polygon([
        (_clampi(cx - 0.95 * a, 0, hi), _clampi(beard_top, 0, hi)),
        (_clampi(cx + 0.95 * a, 0, hi), _clampi(beard_top, 0, hi)),
        (_clampi(cx + 0.55 * a, 0, hi), _clampi(beard_bot, 0, hi)),
        (_clampi(cx - 0.55 * a, 0, hi), _clampi(beard_bot, 0, hi)),
    ])
    lms = LandmarkSet(
        left_eye=Point(_clampi(xl, 0, hi), _clampi(eye_y, 0, hi)),
        right_eye=Point(_clampi(xr, 0, hi), _clampi(eye_y, 0, hi)),
        nose=Point(_clampi(cx, 0, hi), _clampi(cy + 0.15 * b, 0, hi)),
        mouth_center=Point(_clampi(cx, 0, hi), _clampi(mouth_y, 0, hi)),
        forehead_polygon=forehead,
        beard_polygon=beard,
    )
    return Image(pixels), lms


def generate_dataset(n_subjects: int, samples_per_subject: int,
                     image_size: int, seed: int) -> Dataset:
    """Render a labeled synthetic dataset; fully determined by seed."""
    if n_subjects < 2:
        raise ValueError("need at least 2 subjects")
    if samples_per_subject < 2:
        raise ValueError("need at least 2 samples per subject")
    if image_size < 48:
        raise ValueError("image size must be at least 48")
    items = []
    for sid in range(n_subjects):
        params = _draw_subject(seed, sid, image_size)
        for k in range(samples_per_subject):
            img, lms = _render_sample(params, image_size, seed, k)
            items.append(DatasetItem(img, lms, sid, k))
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
