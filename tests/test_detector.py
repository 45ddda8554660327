import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advface.detector import (
    DetectorModel,
    MeanReps,
    canberra,
    canberra_features_batch,
    compute_mean_reps,
    detect_scores,
    embed_and_features,
    hinge_objective,
    load_detector,
    load_mean_reps,
    save_detector,
    save_mean_reps,
    train_detector,
)
from advface import detector, featnet
from advface.featnet import forward_batch
from advface.imagecore import FormatError

from oracles import canberra_loop, canberra_masked, mean_reps_loop


@pytest.fixture(scope="module")
def images(small_dataset):
    return small_dataset.pixel_batch()


@pytest.fixture(scope="module")
def mean_reps(default_model, images):
    return compute_mean_reps(default_model, images)


class TestMeanReps:
    def test_single_image_mean_is_its_activations(self, default_model, images):
        reps = compute_mean_reps(default_model, images[:1])
        _, taps = forward_batch(default_model, images[:1])
        for mu, t in zip(reps.means, taps):
            assert np.allclose(mu, t[0].astype(np.float64), atol=1e-9)
        assert reps.n_train == 1

    def test_two_image_mean_matches_brute_force(self, default_model, images):
        reps = compute_mean_reps(default_model, images[:2])
        _, t0 = forward_batch(default_model, images[0:1])
        _, t1 = forward_batch(default_model, images[1:2])
        for mu, a, b in zip(reps.means, t0, t1):
            brute = (a[0].astype(np.float64) + b[0].astype(np.float64)) / 2
            # single-precision forward passes round differently in a batch of
            # two than in two batches of one
            assert np.allclose(mu, brute, atol=1e-5)

    def test_order_invariance(self, default_model, images):
        fwd = compute_mean_reps(default_model, images)
        rev = compute_mean_reps(default_model, images[::-1])
        for a, b in zip(fwd.means, rev.means):
            assert np.abs(a - b).max() < 1e-9

    def test_empty_rejected(self, default_model):
        with pytest.raises(ValueError, match="at least one"):
            compute_mean_reps(default_model, np.empty((0, 64, 64, 1), np.uint8))

    def test_bitwise_equals_chunked_float64_sums(self, default_model):
        # 300 images cross the 256-image forward chunk
        batch = np.random.default_rng(12).integers(0, 256, size=(300, 64, 64, 1),
                                                     dtype=np.uint8)
        reps = compute_mean_reps(default_model, batch)
        chunks = [forward_batch(default_model, batch[lo : lo + 256])[1] for lo in (0, 256)]
        taps = [np.vstack(layer) for layer in zip(*chunks)]
        assert reps.n_train == 300
        for got, want in zip(reps.means, mean_reps_loop(taps, chunk=256)):
            assert got.dtype == np.float64
            assert np.array_equal(got, want)

    def test_n_train_validated(self):
        with pytest.raises(ValueError, match="n_train"):
            MeanReps((np.zeros(3),), 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_means_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="means must be finite"):
            MeanReps((np.zeros(3), np.array([0.0, bad])), 1)


class TestCanberra:
    def test_identical_vectors_zero(self):
        v = np.array([1.0, -2.0, 3.5])
        assert canberra(v[None], v)[0] == 0.0

    def test_hand_example(self):
        assert canberra([[1, 2, 3]], [2, 2, 4])[0] == pytest.approx(1 / 3 + 0 + 1 / 7)

    def test_both_zero_terms_contribute_zero(self):
        assert canberra([[0, 1]], [0, 1])[0] == 0.0
        assert canberra([[0, 0]], [0, 0])[0] == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            canberra([[1, 2]], [1, 2, 3])
        with pytest.raises(ValueError, match="length mismatch"):
            canberra([1, 2], [1, 2])  # one vector is not an (N, L) matrix

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_symmetry_bounds_and_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        a = rng.normal(size=n) * rng.choice([0, 1], size=n)
        b = rng.normal(size=n) * rng.choice([0, 1], size=n)
        d = canberra(a[None], b)[0]
        assert d == pytest.approx(canberra(b[None], a)[0])
        assert 0.0 <= d <= n
        assert d == pytest.approx(canberra_loop(a, b), abs=1e-9)

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 15, 16, 17, 33]),
           length=st.integers(1, 40))
    def test_blocks_bitwise_equal_whole_rows_and_loop(self, seed, n, length):
        rng = np.random.default_rng(seed)
        a = (rng.normal(size=(n, length)) * rng.choice([0, 1], size=(n, length))).astype(np.float32)
        b = rng.normal(size=length) * rng.choice([0, 1], size=length)
        got = canberra(a, b)
        t = a.astype(np.float64)  # whole-matrix float64 terms, no blocks
        denom = np.abs(t) + np.abs(b)
        terms = np.divide(np.abs(t - b), denom, out=np.zeros_like(t), where=denom > 0)
        assert np.array_equal(got, terms.sum(axis=1))
        assert canberra(a[:1], b)[0] == got[0]
        if length < 8:  # NumPy sums fewer than 8 terms one at a time, like the loop
            assert got.tolist() == [canberra_loop(row.astype(np.float64), b) for row in a]

    @settings(max_examples=150)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 15, 16, 17, 33]),
           length=st.integers(1, 300), zeros=st.sampled_from(["t", "b", "both"]))
    def test_trimmed_kernel_bitwise_equals_where_masked(self, seed, n, length, zeros):
        rng = np.random.default_rng(seed)
        # float32 rows spanning the normal range down to the smallest subnormal
        scale = 2.0 ** rng.integers(-149, 30, size=(n, length))
        a = (rng.normal(size=(n, length)) * scale).astype(np.float32)
        b = rng.normal(size=length) * 2.0 ** rng.integers(-1074, 30, size=length)
        if zeros in ("t", "both"):
            a[rng.random((n, length)) < 0.3] = 0
        if zeros in ("b", "both"):
            b[rng.random(length) < 0.3] = 0
        if zeros == "both":  # t == b == 0 cells in every row
            a[:, 0], b[0] = 0, 0
        got = canberra(a, b)
        assert np.array_equal(got, canberra_masked(a, b))

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 15, 16, 17, 33]),
           length=st.integers(1, 300), rows_per_block=st.sampled_from([1, 2, 16]))
    def test_block_size_moves_no_bit(self, seed, n, length, rows_per_block):
        rng = np.random.default_rng(seed)
        a = (rng.normal(size=(n, length)) * rng.choice([0, 1], size=(n, length))).astype(np.float32)
        b = rng.normal(size=length) * rng.choice([0, 1], size=length)
        want = canberra(a, b)  # one block: these rows are far below the budget
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detector, "_CANBERRA_BLOCK_ELEMS", rows_per_block * length)
            for workers in (1, 2):
                mp.setattr(featnet, "_WORKERS", workers)
                assert np.array_equal(canberra(a, b), want)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 256, 300])
    def test_bitwise_for_any_worker_count(self, default_model, mean_reps, monkeypatch, n):
        rng = np.random.default_rng(n)
        rows = (rng.normal(size=(n, 500)) * rng.choice([0, 1], size=(n, 500))).astype(np.float32)
        b = rng.normal(size=500) * rng.choice([0, 1], size=500)
        batch = rng.integers(0, 256, size=(n, 64, 64, 1), dtype=np.uint8)
        outs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(featnet, "_WORKERS", workers)
            outs.append((canberra(rows, b), *embed_and_features(default_model, mean_reps, batch)))
        for other in outs[1:]:
            for g, w in zip(other, outs[0]):
                assert np.array_equal(g, w)

    def test_features_match_scalar_canberra(self, default_model, mean_reps, images):
        for i in range(3):
            feats = canberra_features_batch(default_model, mean_reps, images[i : i + 1])[0]
            _, taps = forward_batch(default_model, images[i : i + 1])
            for li, (t, mu) in enumerate(zip(taps, mean_reps.means)):
                assert feats[li] == pytest.approx(
                    canberra_loop(t[0].astype(np.float64), mu), abs=1e-9)

    def test_features_batch_consistent_with_per_image(self, default_model,
                                                      mean_reps, images):
        feats = canberra_features_batch(default_model, mean_reps, images[:3])
        for i in range(3):
            single = canberra_features_batch(default_model, mean_reps, images[i : i + 1])[0]
            # batched float32 forward passes round slightly differently
            assert np.allclose(feats[i], single, rtol=1e-5)

    @pytest.mark.parametrize("n_means", [0, 4, 6])
    def test_tap_count_must_match_the_network(self, default_model, mean_reps, images,
                                              n_means):
        means = (mean_reps.means * 2)[:n_means]
        with pytest.raises(FormatError, match=f"mean reps hold {n_means} taps, "
                                              "the network has 5"):
            embed_and_features(default_model, MeanReps(means, 1), images[:1])

    @pytest.mark.parametrize("tap", [0, 3, 4])
    def test_each_mean_length_must_match_its_tap(self, default_model, mean_reps, images, tap):
        means = list(mean_reps.means)
        means[tap] = means[tap][:-1]
        want = default_model.tap_lengths()[tap]
        with pytest.raises(FormatError, match=f"^mean reps tap {tap} holds {want - 1} values, "
                                              f"the network's tap {tap} has {want}$"):
            embed_and_features(default_model, MeanReps(tuple(means), 1), images[:1])

    def test_shared_pass_across_chunk_is_bitwise(self, default_model, mean_reps):
        # 300 images cross the 256-image forward chunk
        rng = np.random.default_rng(11)
        batch = rng.integers(0, 256, size=(300, 64, 64, 1), dtype=np.uint8)
        emb, feats = embed_and_features(default_model, mean_reps, batch)
        want_emb, want_feats = [], []
        for lo in (0, 256):
            e, taps = forward_batch(default_model, batch[lo : lo + 256])
            want_emb.append(e)
            cols = []
            for t, mu in zip(taps, mean_reps.means):  # whole-chunk float64 terms
                t = t.astype(np.float64)
                denom = np.abs(t) + np.abs(mu)[None, :]
                num = np.abs(t - mu[None, :])
                cols.append(np.divide(num, denom, out=np.zeros_like(num),
                                      where=denom > 0).sum(axis=1))
            want_feats.append(np.stack(cols, axis=1))
        assert np.array_equal(emb, np.vstack(want_emb))
        assert np.array_equal(feats, np.vstack(want_feats))
        assert np.array_equal(feats, canberra_features_batch(default_model, mean_reps, batch))


def _toy_reps():
    return MeanReps((np.zeros(1),), 1)


def _scores(det, feats):
    xn = (feats - det.feat_mean) / det.feat_std
    return xn @ det.w + det.b


class TestTraining:
    def test_separable_toy_reaches_full_training_accuracy(self):
        fc = np.full((20, 1), 0.1) + np.linspace(0, 0.01, 20)[:, None]
        fd = np.full((20, 1), 5.0) + np.linspace(0, 0.01, 20)[:, None]
        det = train_detector(None, _toy_reps(), None, None,
                             features=(fc, fd), seed=0)
        assert (_scores(det, fc) < 0).all()
        assert (_scores(det, fd) > 0).all()

    def test_cv_ties_prefer_smaller_c(self):
        # widely separated classes: every C in the grid cross-validates at
        # 100%, so the tie must resolve to the smallest C
        fc = np.full((30, 1), 0.0) + np.linspace(0, 0.01, 30)[:, None]
        fd = np.full((30, 1), 10.0) + np.linspace(0, 0.01, 30)[:, None]
        det = train_detector(None, _toy_reps(), None, None,
                             C_grid=(10.0, 1.0, 0.1), features=(fc, fd), seed=0)
        assert det.C == 0.1

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        fc = rng.normal(0, 1, (25, 3))
        fd = rng.normal(1, 1, (25, 3))
        d1 = train_detector(None, _toy_reps(), None, None, features=(fc, fd), seed=4)
        d2 = train_detector(None, _toy_reps(), None, None, features=(fc, fd), seed=4)
        assert np.array_equal(d1.w, d2.w) and d1.b == d2.b and d1.C == d2.C

    def test_final_objective_not_worse_than_zero_model(self):
        rng = np.random.default_rng(1)
        fc = rng.normal(0, 1, (40, 2))
        fd = rng.normal(2, 1, (40, 2))
        det = train_detector(None, _toy_reps(), None, None, features=(fc, fd), seed=0)
        x = np.vstack([fc, fd])
        xn = (x - det.feat_mean) / det.feat_std
        y = np.concatenate([-np.ones(40), np.ones(40)])
        assert hinge_objective(det.w, det.b, xn, y, det.C) <= \
            hinge_objective(np.zeros(2), 0.0, xn, y, det.C) + 1e-9

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            train_detector(None, _toy_reps(), None, None,
                           features=(np.empty((0, 1)), np.ones((3, 1))), seed=0)

    def test_non_finite_feature_rejected(self):
        fc = np.ones((3, 1))
        fd = np.ones((3, 1))
        fd[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite feature for distorted image 1"):
            train_detector(None, _toy_reps(), None, None, features=(fc, fd), seed=0)

    def test_empty_c_grid_rejected(self):
        with pytest.raises(ValueError, match="C grid"):
            train_detector(None, _toy_reps(), None, None, C_grid=(),
                           features=(np.ones((3, 1)), np.zeros((3, 1))), seed=0)

    def test_feat_std_floored(self):
        fc = np.zeros((5, 1))
        fd = np.zeros((5, 1))
        det = train_detector(None, _toy_reps(), None, None, features=(fc, fd), seed=0)
        assert (det.feat_std >= 1e-8).all()


class TestDetect:
    @staticmethod
    def _fixed_detector(mean_reps, w, b):
        n = len(mean_reps.means)
        return DetectorModel(np.full(n, float(w)), float(b), 1.0,
                             np.zeros(n), np.ones(n), mean_reps)

    def test_verdict_threshold_strict(self, default_model, mean_reps, images):
        # "distorted" means score > 0, so a score of exactly 0 is clean
        det = self._fixed_detector(mean_reps, 0.0, 0.0)
        scores = detect_scores(det, default_model, images[:1])
        assert scores.tolist() == [0.0]
        assert not (scores > 0).any()

    def test_positive_score_is_distorted(self, default_model, mean_reps, images):
        det = self._fixed_detector(mean_reps, 0.0, 1.0)
        scores = detect_scores(det, default_model, images[:1])
        assert scores.tolist() == [1.0]
        assert (scores > 0).all()

    def test_bias_shift_moves_score_linearly(self, default_model, mean_reps, images):
        d0 = self._fixed_detector(mean_reps, 1.0, 0.0)
        d1 = self._fixed_detector(mean_reps, 1.0, 0.25)
        s0 = detect_scores(d0, default_model, images[:2])
        s1 = detect_scores(d1, default_model, images[:2])
        assert np.allclose(s1 - s0, 0.25)


class TestPersistence:
    def test_mean_reps_round_trip(self, tmp_path, mean_reps):
        path = tmp_path / "reps.mrep"
        save_mean_reps(mean_reps, path)
        back = load_mean_reps(path)
        assert back.n_train == mean_reps.n_train
        for a, b in zip(back.means, mean_reps.means):
            assert np.array_equal(a, b)

    def test_mean_reps_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mrep"
        path.write_bytes(b"NOPE!" + bytes(16))
        with pytest.raises(FormatError, match='bad magic, expected "MREP1"'):
            load_mean_reps(path)

    def test_mean_reps_truncated(self, tmp_path, mean_reps):
        path = tmp_path / "reps.mrep"
        save_mean_reps(mean_reps, path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(FormatError, match="truncated mean file"):
            load_mean_reps(path)

    def test_detector_round_trip(self, tmp_path, default_model, mean_reps, images):
        rng = np.random.default_rng(2)
        fc = rng.normal(0, 1, (10, len(mean_reps.means)))
        fd = rng.normal(3, 1, (10, len(mean_reps.means)))
        det = train_detector(None, mean_reps, None, None, features=(fc, fd), seed=0)
        save_detector(det, tmp_path / "det.json", tmp_path / "reps.mrep")
        assert json.loads((tmp_path / "det.json").read_text())["mean_reps_path"] == "reps.mrep"
        back = load_detector(tmp_path / "det.json")
        assert np.array_equal(back.w, det.w)
        assert back.b == det.b and back.C == det.C
        s1 = detect_scores(det, default_model, images[:2])
        s2 = detect_scores(back, default_model, images[:2])
        assert np.allclose(s1, s2)
