import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import advface
from advface import distortions
from advface.distortions import (
    DistortionSpec,
    apply,
    apply_beard,
    apply_ero,
    apply_fhbo,
    apply_grids,
    apply_xmsb,
    ero_band,
    per_image_spec,
)
from advface.imagecore import FormatError, Image, Point, Polygon, line_pixels, polygon_mask
from advface.seeds import rng_from
from advface.synthface import LandmarkSet

from conftest import random_landmarks
from oracles import flip_bit_arithmetic, ero_rows, point_in_polygon


def constant_image(size=64, value=255, channels=1):
    return Image(np.full((size, size, channels), value, dtype=np.uint8))


def square_poly(lo, hi):
    return Polygon([(lo, lo), (hi, lo), (hi, hi), (lo, hi)])


def make_landmarks(x_le=16, y_le=32, x_re=48, y_re=32):
    return LandmarkSet(Point(x_le, y_le), Point(x_re, y_re), Point(32, 40),
                       Point(32, 50), square_poly(10, 20), square_poly(40, 55))


class TestSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown distortion kind"):
            DistortionSpec("blur")

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            DistortionSpec("grids", rho_grids=-1)
        with pytest.raises(ValueError):
            DistortionSpec("xmsb", phi=(0.5, 1.2, 0.0))
        with pytest.raises(ValueError):
            DistortionSpec("ero", psi=0.0)

    @pytest.mark.parametrize("phi", [(0.1,), (0.1, 0.1), (0.1, 0.1, 0.1, 0.1)])
    def test_phi_needs_three_entries(self, phi):
        with pytest.raises(ValueError, match="phi must be three fractions"):
            DistortionSpec("xmsb", phi=phi)
        with pytest.raises(FormatError, match="^distortion spec: phi must be three"):
            DistortionSpec.from_json_dict({"kind": "xmsb", "phi": list(phi)})

    @pytest.mark.parametrize("spec", [
        DistortionSpec("grids", rho_grids=7, seed=3),
        DistortionSpec("xmsb", phi=(0.1, 0.2, 0.3), seed=4),
        DistortionSpec("ero", psi=5.5),
        DistortionSpec("fhbo"),
        DistortionSpec("beard"),
        # seeds are reduced to 64 bits, not handed to NumPy: any integer is one
        per_image_spec(DistortionSpec("grids", seed=3), 0),  # derived seed >= 2**63
        DistortionSpec("xmsb", seed=2**70 + 1),
    ])
    def test_json_round_trip(self, spec):
        assert DistortionSpec.from_json_dict(spec.to_json_dict()) == spec

    def test_json_dict_only_carries_relevant_params(self):
        assert set(DistortionSpec("grids").to_json_dict()) == {"kind", "seed", "rho_grids"}
        assert set(DistortionSpec("xmsb").to_json_dict()) == {"kind", "seed", "phi"}
        assert set(DistortionSpec("ero").to_json_dict()) == {"kind", "seed", "psi"}
        assert set(DistortionSpec("fhbo").to_json_dict()) == {"kind", "seed"}

    def test_from_json_file(self, tmp_path):
        f = tmp_path / "spec.json"
        f.write_text('{"kind": "xmsb", "phi": [0.03, 0.05, 0.10], "seed": 42}')
        spec = DistortionSpec.from_json_file(f)
        assert spec == DistortionSpec("xmsb", phi=(0.03, 0.05, 0.10), seed=42)


def _grid_masks(w, h, seed):
    """The mask after each line of apply_grids's draws, drawing on past full coverage."""
    rng = rng_from(seed, 0x621D5)
    mask = np.zeros((h, w), dtype=bool)
    for i in itertools.count():
        if i % 2 == 0:
            a, b = Point(int(rng.integers(0, w)), 0), Point(int(rng.integers(0, w)), h - 1)
        else:
            a, b = Point(0, int(rng.integers(0, h))), Point(w - 1, int(rng.integers(0, h)))
        xs, ys = line_pixels(a, b)
        mask[ys, xs] = True
        yield mask.copy()


class TestGrids:
    def test_zero_lines_is_identity(self):
        img = constant_image()
        out, n = apply_grids(img, DistortionSpec("grids", rho_grids=0, seed=1))
        assert out == img
        assert n == 0

    def test_lines_match_rasterization_of_drawn_anchors(self):
        # reconstruct the anchor draws with the same derived stream and check
        # the changed-pixel set equals the union of the rasterized lines
        out, n = apply_grids(constant_image(64), DistortionSpec("grids", rho_grids=4, seed=9))
        expected = list(itertools.islice(_grid_masks(64, 64, 9), 4))[-1]
        assert np.array_equal(out.pixels[:, :, 0] == 0, expected)
        assert n == int(expected.sum())
        assert 64 <= n <= 4 * 64

    def test_all_changed_pixels_are_zero_and_rest_untouched(self):
        img = constant_image(32, value=200)
        out, n = apply_grids(img, DistortionSpec("grids", rho_grids=3, seed=5))
        diff = out.pixels != img.pixels
        assert (out.pixels[diff] == 0).all()
        assert n == int(diff.any(axis=2).sum())

    @pytest.mark.parametrize("w, h, seed", [(64, 64, 3), (96, 48, 8)])
    def test_drawing_stops_once_every_pixel_is_black(self, w, h, seed):
        masks = list(itertools.islice(_grid_masks(w, h, seed), 3000))
        full = next(n for n, m in enumerate(masks, 1) if m.all())
        img = Image(np.full((h, w, 1), 200, dtype=np.uint8))
        for n in (full - 2, full - 1, full, full + 1, full + 50):
            out, count = apply_grids(img, DistortionSpec("grids", rho_grids=n, seed=seed))
            assert np.array_equal(out.pixels[:, :, 0] == 0, masks[n - 1])
            assert count == int(masks[n - 1].sum())
        # lines past full coverage are never drawn, so a huge count finishes
        script = ("import sys, numpy as np\n"
                  "from advface.distortions import DistortionSpec, apply_grids\n"
                  "from advface.imagecore import Image\n"
                  "w, h, seed = map(int, sys.argv[1:])\n"
                  "out, n = apply_grids(Image(np.full((h, w, 1), 200, np.uint8)),\n"
                  "                     DistortionSpec('grids', rho_grids=10**12, seed=seed))\n"
                  "print(n, int(out.pixels.max()))\n")
        env = {**os.environ, "PYTHONPATH": str(Path(advface.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", script, str(w), str(h), str(seed)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(w * h), "0"]


class TestXmsb:
    def test_zero_fractions_identity(self):
        img = constant_image(16)
        out, n = apply_xmsb(img, DistortionSpec("xmsb", phi=(0, 0, 0), seed=1))
        assert out == img
        assert n == 0

    def test_single_pixel_msb_flip(self):
        img = Image(np.array([[200]], dtype=np.uint8))
        out, _ = apply_xmsb(img, DistortionSpec("xmsb", phi=(1.0, 0, 0), seed=0))
        assert int(out.pixels[0, 0, 0]) == 72  # 200 with the top bit cleared

    def test_full_fractions_match_arithmetic_bit_oracle(self):
        rng = np.random.default_rng(4)
        px = rng.integers(0, 256, size=(9, 7, 1), dtype=np.uint8)
        out, n = apply_xmsb(Image(px), DistortionSpec("xmsb", phi=(1, 1, 1), seed=2))
        for y in range(9):
            for x in range(7):
                v = int(px[y, x, 0])
                for m in (128, 64, 32):
                    v = flip_bit_arithmetic(v, m)
                assert int(out.pixels[y, x, 0]) == v
        assert n == 63

    def test_all_channels_flipped_together(self):
        rng = np.random.default_rng(8)
        px = rng.integers(0, 256, size=(6, 6, 3), dtype=np.uint8)
        out, _ = apply_xmsb(Image(px), DistortionSpec("xmsb", phi=(0.5, 0, 0), seed=3))
        changed = (out.pixels != px).any(axis=2)
        for y, x in zip(*np.nonzero(changed)):
            assert (out.pixels[y, x] == (px[y, x] ^ 128)).all()

    def test_set_sizes_use_floor(self):
        img = constant_image(5)  # 25 pixels; 0.1 * 25 = 2.5 -> 2
        _, n = apply_xmsb(img, DistortionSpec("xmsb", phi=(0.1, 0, 0), seed=1))
        assert n == 2

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1),
           phi1=st.floats(0, 1), phi2=st.floats(0, 1), delta=st.floats(0, 0.5))
    def test_monotone_coverage(self, seed, phi1, phi2, delta):
        img = constant_image(12)
        lo = (phi1, phi2, 0.2)
        hi = (min(phi1 + delta, 1.0), phi2, 0.2)
        _, n_lo = apply_xmsb(img, DistortionSpec("xmsb", phi=lo, seed=seed))
        _, n_hi = apply_xmsb(img, DistortionSpec("xmsb", phi=hi, seed=seed))
        assert n_hi >= n_lo


class TestEro:
    def test_frozen_band_example(self):
        lms = make_landmarks(16, 32, 48, 32)
        assert ero_band(lms, DistortionSpec("ero", psi=8.0), 64) == (28, 36)
        img = constant_image(64)
        out, n = apply_ero(img, lms, DistortionSpec("ero", psi=8.0))
        assert (out.pixels[28:37] == 0).all()
        assert (out.pixels[:28] == 255).all()
        assert (out.pixels[37:] == 255).all()
        assert n == 9 * 64 == 576

    def test_huge_psi_collapses_to_single_row(self):
        lms = make_landmarks()
        assert ero_band(lms, DistortionSpec("ero", psi=1e6), 64) == (32, 32)

    def test_band_clamped_at_image_top(self):
        lms = make_landmarks(16, 2, 48, 2)
        lo, hi = ero_band(lms, DistortionSpec("ero", psi=4.0), 64)
        assert lo == 0 and hi == 10

    def test_band_matches_float_oracle(self):
        for psi in (2.0, 3.7, 6.0, 11.5):
            lms = make_landmarks(13, 30, 51, 34)
            lo, hi = ero_band(lms, DistortionSpec("ero", psi=psi), 64)
            assert list(range(lo, hi + 1)) == ero_rows(13, 30, 51, 34, psi, 64)

    def test_subnormal_psi_covers_every_row(self):
        # d_eye / 5e-324 is inf: the band ends are clamped before they become ints
        assert ero_band(make_landmarks(), DistortionSpec("ero", psi=5e-324), 64) == (0, 63)
        out, n = apply_ero(constant_image(64), make_landmarks(), DistortionSpec("ero", psi=5e-324))
        assert (out.pixels == 0).all() and n == 64 * 64

    def test_psi_validated(self):
        with pytest.raises(ValueError, match="psi"):
            DistortionSpec("ero", psi=-1.0)

    def test_nan_psi_rejected(self):
        # a NaN band end would otherwise clamp to the whole image
        with pytest.raises(ValueError, match="psi must be positive"):
            DistortionSpec("ero", psi=float("nan"))
        with pytest.raises(FormatError, match="^distortion spec: psi must be positive"):
            DistortionSpec.from_json_dict({"kind": "ero", "psi": float("nan")})


class TestFaceMasks:
    @pytest.mark.parametrize("fn,poly_attr", [
        (apply_fhbo, "forehead_polygon"), (apply_beard, "beard_polygon")])
    def test_mask_interior_zeroed_exterior_untouched(self, fn, poly_attr):
        lms = make_landmarks()
        img = constant_image(64, value=180)
        out, n = fn(img, lms)
        mask = polygon_mask(getattr(lms, poly_attr), 64, 64)
        assert (out.pixels[mask] == 0).all()
        assert (out.pixels[~mask] == 180).all()
        assert n == int(mask.sum())

    @pytest.mark.parametrize("fn,poly_attr", [
        (apply_fhbo, "forehead_polygon"), (apply_beard, "beard_polygon")])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_changes_exactly_the_oracle_mask_of_a_synthetic_face(self, fn, poly_attr, channels):
        from advface.synthface import generate_dataset

        rng = np.random.default_rng(channels)
        for item in generate_dataset(2, 2, 48, seed=9).items:
            img = Image(rng.integers(1, 256, size=(48, 48, channels), dtype=np.uint8))
            out, n = fn(img, item.landmarks)
            verts = getattr(item.landmarks, poly_attr).vertices
            mask = np.array([[point_in_polygon(verts, x, y) for x in range(48)]
                             for y in range(48)])
            changed = (out.pixels != img.pixels).any(axis=2)
            assert np.array_equal(changed, mask)
            assert (out.pixels[mask] == 0).all()
            assert n == int(mask.sum())

    def test_zero_area_polygon_rejected_at_construction(self):
        with pytest.raises(ValueError, match="degenerate"):
            Polygon([(0, 0), (5, 5), (10, 10)])


class TestDispatchAndProperties:
    def test_face_kinds_require_landmarks(self):
        img = constant_image()
        for kind in ("ero", "fhbo", "beard"):
            with pytest.raises(ValueError, match="requires landmarks"):
                apply(DistortionSpec(kind), img)

    def test_grids_rho_zero_identity_via_dispatch(self):
        img = constant_image()
        out, _ = apply(DistortionSpec("grids", rho_grids=0), img)
        assert out == img

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["grids", "xmsb", "ero", "fhbo", "beard"]))
    def test_dimension_preservation_determinism_and_occlusion_value(self, seed, kind):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(16, 33))
        channels = int(rng.choice([1, 3]))
        px = rng.integers(1, 256, size=(size, size, channels), dtype=np.uint8)
        img = Image(px)
        lms = random_landmarks(rng, size)
        spec = DistortionSpec(kind, rho_grids=int(rng.integers(0, 6)),
                              phi=tuple(rng.uniform(0, 0.3, 3)),
                              psi=float(rng.uniform(2, 12)),
                              seed=int(rng.integers(0, 2**31)))
        out1, n1 = apply(spec, img, lms)
        out2, n2 = apply(spec, img, lms)
        assert out1.pixels.shape == img.pixels.shape
        assert out1 == out2
        assert n1 == n2
        assert n1 <= size * size
        if kind != "xmsb":
            diff = (out1.pixels != img.pixels).any(axis=2)
            assert (out1.pixels[diff] == 0).all()

    def test_per_image_spec_reseeds_stochastic_kinds_only(self):
        for kind in ("grids", "xmsb"):
            spec = DistortionSpec(kind, seed=5)
            d0, d1 = per_image_spec(spec, 0), per_image_spec(spec, 1)
            assert d0.seed != d1.seed != spec.seed
            assert d0.kind == kind
        for kind in ("ero", "fhbo", "beard"):
            spec = DistortionSpec(kind, seed=5)
            assert per_image_spec(spec, 3) is spec

    @pytest.mark.parametrize("kind", distortions.KINDS)
    def test_per_image_spec_keeps_every_field_but_the_seed(self, kind):
        spec = DistortionSpec(kind, rho_grids=3, phi=(0.1, 0.2, 0.3), psi=2.5, seed=5)
        derived = per_image_spec(spec, 4)
        for field in dataclasses.fields(DistortionSpec):
            if field.name != "seed":
                assert getattr(derived, field.name) == getattr(spec, field.name), field.name
