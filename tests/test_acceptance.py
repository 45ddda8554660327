"""Acceptance suite: formula oracles, direction-preserving benchmark
experiments, invariant sweeps, and end-to-end reproducibility.

The heavyweight fixtures (trained detectors, mitigation plan) are shared
between criteria; each criterion's runtime budget covers the work attributed
to it and is measured around the corresponding fixture or test body.
"""

import json
import time

import numpy as np
import pytest

from advface import detector as det_mod
from advface import distortions, featnet, mitigator, verifybench
from advface.cli import main as cli_main
from advface.featnet import FilterMask, LayerDef, NetworkModel, forward_batch
from advface.imagecore import Image, read_image, write_image
from advface.seeds import rng_from
from advface.synthface import generate_dataset

from oracles import (
    canberra,
    canberra_loop,
    ero_rows,
    flip_bit_arithmetic,
    gar_at_far_exhaustive,
    naive_conv,
    roc_exhaustive,
)

KINDS = list(distortions.KINDS)
NET_SEED = 43
SPEC_SEED = 5
PROTOCOL_SEED = 3


def specs():
    return {k: distortions.DistortionSpec(k, seed=SPEC_SEED) for k in KINDS}


@pytest.fixture(scope="module")
def model():
    return featnet.default_network(NET_SEED)


@pytest.fixture(scope="module")
def eval_run(model):
    """Clean and distorted protocol GARs on the 400-image benchmark set."""
    start = time.monotonic()
    ds = generate_dataset(40, 10, 64, seed=11)
    sp = specs()
    rows = verifybench.run_protocol(ds, model, sp["grids"],
                                    fraction=0.5, seed=PROTOCOL_SEED)
    original = rows[0]["gar_at_far"]
    distorted = {"grids": rows[1]["gar_at_far"]}
    for kind in KINDS[1:]:
        r = verifybench.run_protocol(ds, model, sp[kind],
                                     fraction=0.5, seed=PROTOCOL_SEED)
        assert r[0]["gar_at_far"] == original
        distorted[kind] = r[1]["gar_at_far"]
    return {"ds": ds, "original": original, "distorted": distorted,
            "elapsed": time.monotonic() - start}


@pytest.fixture(scope="module")
def trained_detectors(model):
    """Per-distortion detectors from 2000 clean + 2000 distorted images,
    with held-out accuracy on a disjoint 200-image split per class."""
    start = time.monotonic()
    sp = specs()
    train = generate_dataset(200, 10, 64, seed=101)
    clean_batch = np.stack([it.image.pixels for it in train.items])
    reps = det_mod.compute_mean_reps(model, clean_batch)
    feat_clean = det_mod.canberra_features_batch(model, reps, clean_batch)
    held = generate_dataset(50, 4, 64, seed=202)
    held_clean = np.stack([it.image.pixels for it in held.items])

    detectors, accuracy = {}, {}
    for kind in KINDS:
        distorted_batch = np.stack([
            distortions.apply(distortions.per_image_spec(sp[kind], i),
                              it.image, it.landmarks)[0].pixels
            for i, it in enumerate(train.items)])
        feat_dis = det_mod.canberra_features_batch(model, reps, distorted_batch)
        det = det_mod.train_detector(model, reps, None, None, seed=7,
                                     features=(feat_clean, feat_dis))
        detectors[kind] = det
        held_dis = np.stack([
            distortions.apply(distortions.per_image_spec(sp[kind], 7000 + i),
                              it.image, it.landmarks)[0].pixels
            for i, it in enumerate(held.items)])
        s_clean = det_mod.detect_scores(det, model, held_clean)
        s_dis = det_mod.detect_scores(det, model, held_dis)
        correct = int((s_clean <= 0).sum()) + int((s_dis > 0).sum())
        accuracy[kind] = correct / (len(s_clean) + len(s_dis))
    return {"detectors": detectors, "accuracy": accuracy, "train": train,
            "elapsed": time.monotonic() - start}


@pytest.fixture(scope="module")
def mitigation_run(model, eval_run, trained_detectors):
    """Grid-searched mitigation plan and corrected-condition protocol GARs."""
    start = time.monotonic()
    sp = specs()
    train = trained_detectors["train"]
    pairs = []
    for j, kind in enumerate(KINDS):
        for i in range(60):
            item = train.items[j * 60 + i]
            dimg, _ = distortions.apply(
                distortions.per_image_spec(sp[kind], 9000 + i),
                item.image, item.landmarks)
            pairs.append((dimg, item.image))
    table = mitigator.compute_sensitivity(model, pairs)
    search_ds = generate_dataset(20, 5, 64, seed=303)
    plan = mitigator.grid_search_plan(
        model, table, search_ds, [sp[k] for k in KINDS],
        trained_detectors["detectors"],
        eta_grid=(1, 2, 3), kappa_grid=(0.1, 0.25, 0.5), seed=17)

    results = {}
    for kind in KINDS:
        rows = verifybench.run_protocol(
            eval_run["ds"], model, sp[kind],
            det=trained_detectors["detectors"][kind], plan=plan,
            fraction=0.5, seed=PROTOCOL_SEED)
        results[kind] = (rows[1]["gar_at_far"], rows[2]["gar_at_far"])
    return {"plan": plan, "table": table, "results": results,
            "elapsed": time.monotonic() - start}


# ---------------------------------------------------------------------------
# Criterion 1: formula oracles
# ---------------------------------------------------------------------------

class TestFormulaOracles:
    def test_all_formulas_match_brute_force(self):
        start = time.monotonic()
        rng = np.random.default_rng(12345)

        # Canberra distance
        for _ in range(120):
            n = int(rng.integers(1, 40))
            a = rng.normal(size=n) * rng.choice([0, 1], size=n)
            b = rng.normal(size=n) * rng.choice([0, 1], size=n)
            assert canberra(a[None], b)[0] == pytest.approx(
                canberra_loop(a, b), abs=1e-6)

        # bit-flip noise: reconstruct the seeded pixel draws and apply the
        # flips with add/subtract arithmetic only
        for _ in range(100):
            h, w = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            px = rng.integers(0, 256, size=(h, w, 1), dtype=np.uint8)
            phi = tuple(rng.uniform(0, 1, size=3))
            seed = int(rng.integers(0, 2**31))
            spec = distortions.DistortionSpec("xmsb", phi=phi, seed=seed)
            out, _ = distortions.apply_xmsb(Image(px), spec)
            expected = [[int(v) for v in row] for row in px[:, :, 0]]
            for plane, (frac, mask) in enumerate(zip(phi, (128, 64, 32))):
                count = int(np.floor(frac * h * w))
                if count == 0:
                    continue
                idx = rng_from(seed, 0xB17, plane).permutation(h * w)[:count]
                for flat in idx:
                    y, x = divmod(int(flat), w)
                    expected[y][x] = flip_bit_arithmetic(expected[y][x], mask)
            assert [[int(v) for v in row] for row in out.pixels[:, :, 0]] == expected

        # eye-band bounds
        from conftest import random_landmarks
        for _ in range(100):
            size = int(rng.integers(24, 64))
            lms = random_landmarks(rng, size)
            psi = float(rng.uniform(0.5, 20))
            lo, hi = distortions.ero_band(lms, distortions.DistortionSpec("ero", psi=psi), size)
            rows = ero_rows(lms.left_eye.x, lms.left_eye.y,
                            lms.right_eye.x, lms.right_eye.y, psi, size)
            assert list(range(lo, hi + 1)) == rows

        # convolution forward pass
        for _ in range(100):
            c = int(rng.integers(1, 3))
            o = int(rng.integers(1, 4))
            hw = int(rng.integers(4, 9))
            pad = int(rng.integers(0, 2))
            stride = int(rng.integers(1, 3))
            w_t = rng.standard_normal((o, c, 3, 3)).astype(np.float32)
            b_t = rng.standard_normal(o).astype(np.float32)
            layer = LayerDef("conv", w_t, b_t, stride=stride, pad=pad)
            net = NetworkModel((layer,), (0,), (hw, hw, c))
            batch = rng.integers(0, 256, size=(1, hw, hw, c), dtype=np.uint8)
            _, taps = forward_batch(net, batch)
            x = np.moveaxis(batch[0], 2, 0) / 255.0
            expected = naive_conv(x, w_t.astype(np.float64),
                                  b_t.astype(np.float64), stride, pad)
            assert np.allclose(taps[0][0], expected.ravel(), atol=1e-6)

        # mean representations
        tiny = self._tiny_net(np.random.default_rng(7))
        for _ in range(100):
            n = int(rng.integers(1, 5))
            batch = rng.integers(0, 256, size=(n, 6, 6, 1), dtype=np.uint8)
            reps = det_mod.compute_mean_reps(tiny, batch)
            _, taps = forward_batch(tiny, batch)
            for mu, t in zip(reps.means, taps):
                brute = [sum(float(t[i][j]) for i in range(n)) / n
                         for j in range(t.shape[1])]
                assert np.allclose(mu, brute, atol=1e-6)

        # filter sensitivity
        w_s = np.random.default_rng(8).standard_normal((2, 1, 3, 3)).astype(np.float32)
        b_s = np.random.default_rng(9).standard_normal(2).astype(np.float32)
        sens_net = NetworkModel(
            (LayerDef("conv", w_s, b_s, stride=1, pad=1), LayerDef("relu"),
             LayerDef("flatten"), LayerDef("l2norm")), (1,), (6, 6, 1))
        for _ in range(100):
            n_pairs = int(rng.integers(1, 3))
            pairs, expected = [], np.zeros(2)
            for _ in range(n_pairs):
                d = rng.integers(0, 256, size=(6, 6, 1), dtype=np.uint8)
                c_img = rng.integers(0, 256, size=(6, 6, 1), dtype=np.uint8)
                pairs.append((Image(d), Image(c_img)))
                md = np.maximum(naive_conv(d[:, :, 0][None] / 255.0, w_s, b_s, 1, 1), 0)
                mc = np.maximum(naive_conv(c_img[:, :, 0][None] / 255.0, w_s, b_s, 1, 1), 0)
                diff = md - mc
                expected += np.sqrt((diff ** 2).sum(axis=(1, 2)))
            table = mitigator.compute_sensitivity(sens_net, pairs)
            assert np.allclose(table.eps[0], expected, atol=1e-4)

        # ROC and GAR-at-FAR
        for _ in range(120):
            gen = rng.normal(0.5, 0.3, size=int(rng.integers(1, 25)))
            imp = rng.normal(0.0, 0.3, size=int(rng.integers(1, 25)))
            sm = self._score_matrix_from(gen, imp)
            curve = verifybench.roc(sm)
            expected = roc_exhaustive(gen, imp)
            assert len(curve.far) == len(curve.gar) == len(expected)
            for f1, g1, (_, f2, g2) in zip(curve.far, curve.gar, expected):
                assert abs(f1 - f2) < 1e-6
                assert abs(g1 - g2) < 1e-6
            target = float(rng.uniform(0.01, 0.99))
            assert verifybench.gar_at_far(curve, target) == pytest.approx(
                gar_at_far_exhaustive(gen, imp, target), abs=1e-6)

        assert time.monotonic() - start < 30.0

    @staticmethod
    def _tiny_net(rng):
        w = rng.standard_normal((3, 1, 3, 3)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        return NetworkModel(
            (LayerDef("conv", w, b, stride=1, pad=1), LayerDef("relu"),
             LayerDef("flatten"), LayerDef("l2norm")), (1, 3), (6, 6, 1))

    @staticmethod
    def _score_matrix_from(gen, imp):
        """Pack genuine/impostor score lists into a ScoreMatrix whose rates
        equal those of the raw lists.

        A matrix of side n+1 has exactly n(n+1) off-diagonal cells, so each of
        the n values can be placed exactly n+1 times: uniform duplication
        leaves every rate (and the threshold set) unchanged.
        """
        values = list(gen) + list(imp)
        n = len(values)
        s = n + 1
        scores = np.zeros((s, s))
        mask = np.zeros((s, s), dtype=bool)
        t = 0
        for r in range(s):
            for c in range(s):
                if r == c:
                    continue
                scores[r, c] = values[t % n]
                mask[r, c] = (t % n) < len(gen)
                t += 1
        return verifybench.ScoreMatrix(scores, mask)


# ---------------------------------------------------------------------------
# Criterion 2: degradation direction
# ---------------------------------------------------------------------------

class TestDegradationDirection:
    def test_every_distortion_lowers_gar(self, eval_run):
        original = eval_run["original"]
        assert 0.60 <= original <= 0.95
        for kind in KINDS:
            assert eval_run["distorted"][kind] < original, kind

    def test_grids_and_xmsb_drop_at_least_20_percent(self, eval_run):
        original = eval_run["original"]
        for kind in ("grids", "xmsb"):
            drop = (original - eval_run["distorted"][kind]) / original
            assert drop >= 0.20, (kind, drop)

    def test_runtime_budget(self, eval_run):
        assert eval_run["elapsed"] < 180.0


# ---------------------------------------------------------------------------
# Criterion 3: detection accuracy
# ---------------------------------------------------------------------------

class TestDetectionAccuracy:
    def test_held_out_accuracy_thresholds(self, trained_detectors):
        accuracy = trained_detectors["accuracy"]
        assert accuracy["grids"] >= 0.90
        assert accuracy["xmsb"] >= 0.90
        for kind in ("ero", "fhbo", "beard"):
            assert accuracy[kind] >= 0.80, (kind, accuracy[kind])

    def test_training_set_sizes(self, trained_detectors):
        assert len(trained_detectors["train"]) >= 2000

    def test_runtime_budget(self, trained_detectors):
        assert trained_detectors["elapsed"] < 180.0


# ---------------------------------------------------------------------------
# Criterion 4: mitigation recovery
# ---------------------------------------------------------------------------

class TestMitigationRecovery:
    def test_corrected_never_below_distorted(self, mitigation_run):
        for kind, (distorted, corrected) in mitigation_run["results"].items():
            assert corrected >= distorted, (kind, distorted, corrected)

    def test_strict_recovery_for_most_distortions(self, mitigation_run):
        strict = sum(corrected > distorted for distorted, corrected
                     in mitigation_run["results"].values())
        assert strict >= 4, mitigation_run["results"]

    def test_plan_comes_from_the_search_grid(self, mitigation_run):
        plan = mitigation_run["plan"]
        assert plan.eta in (1, 2, 3)
        assert plan.kappa in (0.1, 0.25, 0.5)

    def test_runtime_budget(self, mitigation_run):
        assert mitigation_run["elapsed"] < 300.0


# ---------------------------------------------------------------------------
# Criterion 5: invariant sweeps (compact 200-case versions of the
# per-module property suites)
# ---------------------------------------------------------------------------

class TestInvariantSweeps:
    def test_codec_round_trip_200(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "img.pnm"
        for _ in range(200):
            h, w = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            c = int(rng.choice([1, 3]))
            img = Image(rng.integers(0, 256, size=(h, w, c), dtype=np.uint8))
            write_image(img, path)
            assert read_image(path) == img

    def test_distortion_dimension_determinism_occlusion_200(self):
        from conftest import random_landmarks
        rng = np.random.default_rng(2)
        for case in range(200):
            kind = KINDS[case % len(KINDS)]
            size = int(rng.integers(16, 33))
            px = rng.integers(1, 256, size=(size, size, 1), dtype=np.uint8)
            img = Image(px)
            lms = random_landmarks(rng, size)
            spec = distortions.DistortionSpec(
                kind, rho_grids=int(rng.integers(0, 5)),
                phi=tuple(rng.uniform(0, 0.3, 3)),
                psi=float(rng.uniform(2, 12)), seed=int(rng.integers(0, 2**31)))
            out1, _ = distortions.apply(spec, img, lms)
            out2, _ = distortions.apply(spec, img, lms)
            assert out1.pixels.shape == img.pixels.shape
            assert out1 == out2
            if kind != "xmsb":
                diff = (out1.pixels != img.pixels).any(axis=2)
                assert (out1.pixels[diff] == 0).all()

    def test_masking_soundness_200(self):
        rng = np.random.default_rng(3)
        w1 = rng.standard_normal((4, 1, 3, 3)).astype(np.float32)
        b1 = rng.standard_normal(4).astype(np.float32)
        w2 = rng.standard_normal((5, 4, 3, 3)).astype(np.float32)
        b2 = rng.standard_normal(5).astype(np.float32)

        def build(wa, ba, wb, bb):
            return NetworkModel(
                (LayerDef("conv", wa, ba, stride=1, pad=1), LayerDef("relu"),
                 LayerDef("conv", wb, bb, stride=1, pad=1), LayerDef("relu"),
                 LayerDef("flatten"), LayerDef("l2norm")), (1, 3), (8, 8, 1))

        net = build(w1, b1, w2, b2)
        for _ in range(200):
            pairs = set()
            for li, n in enumerate((4, 5)):
                for fj in rng.choice(n, size=int(rng.integers(0, n + 1)),
                                     replace=False):
                    pairs.add((li, int(fj)))
            mask = FilterMask(frozenset(pairs))
            za, zb = w1.copy(), w2.copy()
            ca, cb = b1.copy(), b2.copy()
            for li, fj in pairs:
                if li == 0:
                    za[fj] = 0.0
                    ca[fj] = 0.0
                else:
                    zb[fj] = 0.0
                    cb[fj] = 0.0
            batch = rng.integers(0, 256, size=(1, 8, 8, 1), dtype=np.uint8)
            masked, _ = forward_batch(net.masked(mask), batch)
            zeroed, _ = forward_batch(build(za, ca, zb, cb), batch)
            assert np.array_equal(masked, zeroed)

    def test_plan_monotone_in_kappa_200(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            rows = tuple(rng.uniform(0, 10, size=int(rng.integers(1, 9)))
                         for _ in range(int(rng.integers(1, 5))))
            table = mitigator.SensitivityTable(rows, 1)
            eta = int(rng.integers(1, len(rows) + 1))
            k1, k2 = sorted(rng.uniform(0, 1, size=2))
            p1 = mitigator.build_plan(table, eta, float(k1))
            p2 = mitigator.build_plan(table, eta, float(k2))
            assert p1.mask.disabled <= p2.mask.disabled

    def test_roc_monotone_200(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            gen = rng.normal(0.4, 0.4, size=int(rng.integers(1, 20)))
            imp = rng.normal(0.0, 0.4, size=int(rng.integers(1, 20)))
            sm = TestFormulaOracles._score_matrix_from(gen, imp)
            curve = verifybench.roc(sm)
            assert (np.diff(curve.far) >= 0).all()
            assert (np.diff(curve.gar) >= 0).all()


# ---------------------------------------------------------------------------
# Criterion 6: end-to-end CLI reproducibility
# ---------------------------------------------------------------------------

class TestPipelineReproducibility:
    @staticmethod
    def _full_run(root):
        root.mkdir(parents=True, exist_ok=True)

        def run(*argv):
            assert cli_main([str(a) for a in argv]) == 0

        data = root / "data"
        run("gen-data", "--subjects", 3, "--samples", 3, "--size", 64,
            "--seed", 21, "--out", data)
        spec = root / "grids.json"
        spec.write_text(json.dumps({"kind": "grids", "rho_grids": 8, "seed": 6}))
        distorted = root / "distorted"
        run("distort", "--spec", spec, "--in", data, "--out", distorted)
        extracted = root / "extracted"
        run("extract", "--net-seed", 2, "--dataset", data, "--out", extracted)
        det_dir = root / "det"
        run("train-detector", "--net-seed", 2,
            "--mean-reps", extracted / "mean_reps.mrep",
            "--clean", data, "--distorted", distorted,
            "--seed", 5, "--out", det_dir)
        table = root / "table.json"
        run("sensitivity", "--net-seed", 2, "--clean", data,
            "--distorted", distorted, "--out", table)
        plan = root / "plan.json"
        run("build-plan", "--table", table, "--eta", 2, "--kappa", 0.25,
            "--out", plan)
        report = root / "report.csv"
        run("evaluate", "--net-seed", 2, "--dataset", data,
            "--distortion", spec, "--detector", det_dir / "detector.json",
            "--plan", plan, "--seed", 4, "--out", report)
        return report

    def test_two_runs_are_byte_identical(self, tmp_path):
        r1 = self._full_run(tmp_path / "run1")
        r2 = self._full_run(tmp_path / "run2")
        bytes1, bytes2 = r1.read_bytes(), r2.read_bytes()
        assert bytes1 == bytes2
        assert len(bytes1.splitlines()) == 4  # header + three conditions
        # intermediate artifacts byte-identical too
        for rel in ("table.json", "plan.json", "grids.json"):
            assert (tmp_path / "run1" / rel).read_bytes() == \
                (tmp_path / "run2" / rel).read_bytes()
        for f in sorted((tmp_path / "run1" / "data").iterdir()):
            assert f.read_bytes() == (tmp_path / "run2" / "data" / f.name).read_bytes()
