"""The five adversarial face-image distortions.

Image-level: grid occlusion (black line segments between opposite image
boundaries) and xMSB (XOR of the three most significant bits on stochastic
pixel subsets). Face-level: eye-region band occlusion, forehead/brow mask,
and beard mask, all driven by supplied landmarks. Every operation is pure
and seeded; identical inputs give identical output bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from .imagecore import (Image, Point, check_json, line_pixels, load_json, polygon_mask,
                        reading)
from .seeds import derive_seed, rng_from
from .synthface import LandmarkSet

KINDS = ("grids", "xmsb", "ero", "fhbo", "beard")

DEFAULT_RHO_GRIDS = 10
DEFAULT_PHI = (0.03, 0.05, 0.10)
DEFAULT_PSI = 6.0


@dataclass(frozen=True)
class DistortionSpec:
    kind: str
    rho_grids: int = DEFAULT_RHO_GRIDS
    phi: tuple[float, float, float] = DEFAULT_PHI
    psi: float = DEFAULT_PSI
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown distortion kind {self.kind!r}")
        if self.rho_grids < 0:
            raise ValueError("rho_grids must be >= 0")
        if len(self.phi) != 3 or any(not 0 <= p <= 1 for p in self.phi):
            raise ValueError("phi must be three fractions in [0, 1]")
        if not self.psi > 0:  # refuses NaN too
            raise ValueError("psi must be positive")

    def to_json_dict(self) -> dict:
        d = {"kind": self.kind, "seed": self.seed}
        if self.kind == "grids":
            d["rho_grids"] = self.rho_grids
        elif self.kind == "xmsb":
            d["phi"] = list(self.phi)
        elif self.kind == "ero":
            d["psi"] = self.psi
        return d

    @classmethod
    def from_json_file(cls, path) -> "DistortionSpec":
        """Read a spec file; a parameter it omits takes its default."""
        d = load_json(path, "distortion spec")
        check_json(d, "distortion spec", {"kind": str},
                   {"rho_grids": int, "phi": (list, float), "psi": float, "seed": Integral})
        with reading("distortion spec"):
            return cls(
                kind=d["kind"],
                rho_grids=d.get("rho_grids", DEFAULT_RHO_GRIDS),
                phi=tuple(d.get("phi", DEFAULT_PHI)),
                psi=d.get("psi", DEFAULT_PSI),
                seed=d.get("seed", 0),
            )


def _zero_mask(img: Image, mask: np.ndarray) -> tuple[Image, int]:
    """Zero the (H, W) mask's pixels on all channels; also returns their count."""
    px = img.pixels.copy()
    px[mask] = 0
    return Image(px), int(mask.sum())


def apply_grids(img: Image, spec: DistortionSpec) -> tuple[Image, int]:
    """Draw spec.rho_grids one-pixel-wide black lines between opposite boundaries.

    Anchors alternate top (y=0) / left (x=0); the opposite endpoint has the
    complementary coordinate fixed (bottom row / right column) and a uniform
    random free coordinate.
    """
    w, h = img.width, img.height
    rng = rng_from(spec.seed, 0x621D5)
    changed = np.zeros((h, w), dtype=bool)
    for i in range(spec.rho_grids):
        if i % 2 == 0:  # top boundary anchor, endpoint on bottom
            a = Point(int(rng.integers(0, w)), 0)
            b = Point(int(rng.integers(0, w)), h - 1)
        else:           # left boundary anchor, endpoint on right
            a = Point(0, int(rng.integers(0, h)))
            b = Point(w - 1, int(rng.integers(0, h)))
        xs, ys = line_pixels(a, b)
        changed[ys, xs] = True
        if changed.all():  # later lines cannot change the mask
            break
    return _zero_mask(img, changed)


_BIT_MASKS = (128, 64, 32)


def apply_xmsb(img: Image, spec: DistortionSpec) -> tuple[Image, int]:
    """Flip the i-th most significant bit on floor(phi_i * W * H) pixels, i in 1..3.

    The three pixel sets are drawn independently without replacement within
    each set, so they may overlap across bit planes. Each set is a prefix of
    a seeded per-plane permutation, so growing phi_i only ever adds pixels
    (affected coverage is monotone in each fraction). Flips hit all channels.
    """
    w, h = img.width, img.height
    n = w * h
    px = img.pixels.copy()
    flat = px.reshape(n, img.channels)
    touched = np.zeros(n, dtype=bool)
    for i, (p, mask) in enumerate(zip(spec.phi, _BIT_MASKS)):
        count = int(np.floor(p * n))
        if count == 0:
            continue
        rng = rng_from(spec.seed, 0xB17, i)
        idx = rng.permutation(n)[:count]
        flat[idx] ^= mask
        touched[idx] = True
    return Image(px), int(touched.sum())


def ero_band(landmarks: LandmarkSet, spec: DistortionSpec, height: int) -> tuple[int, int]:
    """Inclusive row range [lo, hi] of the eye-occlusion band, clamped to the image."""
    d_eye = landmarks.right_eye.x - landmarks.left_eye.x  # LandmarkSet makes it > 0
    y_e = int(round((landmarks.left_eye.y + landmarks.right_eye.y) / 2))
    half = d_eye / spec.psi  # inf for a subnormal psi: the ends are clamped before int()
    lo = int(max(0, np.ceil(y_e - half)))
    hi = int(min(height - 1, np.floor(y_e + half)))
    return lo, hi


def apply_ero(img: Image, landmarks: LandmarkSet, spec: DistortionSpec) -> tuple[Image, int]:
    """Zero a horizontal band around the eye line; band half-width = d_eye / spec.psi."""
    lo, hi = ero_band(landmarks, spec, img.height)
    px = img.pixels.copy()
    px[lo:hi + 1, :, :] = 0
    return Image(px), max(0, hi - lo + 1) * img.width


def apply_fhbo(img: Image, landmarks: LandmarkSet) -> tuple[Image, int]:
    """Zero the forehead-and-brow mask polygon."""
    mask = polygon_mask(landmarks.forehead_polygon, img.width, img.height)
    return _zero_mask(img, mask)


def apply_beard(img: Image, landmarks: LandmarkSet) -> tuple[Image, int]:
    """Zero the lower-face (beard) mask polygon."""
    mask = polygon_mask(landmarks.beard_polygon, img.width, img.height)
    return _zero_mask(img, mask)


def apply(spec: DistortionSpec, img: Image,
          landmarks: LandmarkSet | None = None) -> tuple[Image, int]:
    """Dispatch to the kind-specific distortion: (distorted image, affected
    pixel count); dimensions are preserved."""
    if spec.kind in ("ero", "fhbo", "beard") and landmarks is None:
        raise ValueError(f"{spec.kind} requires landmarks")
    if spec.kind == "grids":
        return apply_grids(img, spec)
    if spec.kind == "xmsb":
        return apply_xmsb(img, spec)
    if spec.kind == "ero":
        return apply_ero(img, landmarks, spec)
    if spec.kind == "fhbo":
        return apply_fhbo(img, landmarks)
    return apply_beard(img, landmarks)


def per_image_spec(spec: DistortionSpec, index: int) -> DistortionSpec:
    """Derive an image-specific seeded spec so each image draws fresh randomness."""
    if spec.kind in ("grids", "xmsb"):
        return replace(spec, seed=derive_seed(spec.seed, 0xD15, index))
    return spec
