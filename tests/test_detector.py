import functools
import json
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advface.detector import (
    DEFAULT_C_GRID,
    DetectorModel,
    MeanReps,
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
from advface.featnet import (FORWARD_CHUNK, FilterMask, LayerDef, NetworkModel,
                             default_network, forward_batch)
from advface.mitigator import MitigationPlan, mitigate_batch
from advface.imagecore import FormatError

from oracles import (_fit_hinge_loop, canberra, canberra_loop, canberra_masked,
                     canberra_target_masked,
                     mean_reps_loop, train_detector_loop)


@pytest.fixture(scope="module")
def images(small_dataset):
    return small_dataset.pixel_batch()


@pytest.fixture(scope="module")
def mean_reps(default_model, images):
    return compute_mean_reps(default_model, images)


@pytest.fixture(scope="module")
def order_sensitive():
    """A net, a batch and its mean reps whose bits depend on the order of the rows.

    A few dozen of the default net's float32 rows sum exactly in float64, so
    their order never shows; this conv's taps mix 2**30-scale values, which
    cancel, with values near 1/255."""
    w = np.array([[[[2.0**30, -2.0**30], [1.0, 0.0]]]], np.float32)
    model = NetworkModel((LayerDef("conv", w, np.zeros(1, np.float32)),), (0,), (64, 64, 1))
    batch = np.random.default_rng(5).integers(0, 3, size=(40, 64, 64, 1), dtype=np.uint8)
    (taps,) = forward_batch(model, batch)[1]
    want = mean_reps_loop([taps])[0]
    block_1_first = mean_reps_loop([taps[np.r_[8:16, 0:8, 16:40]]])[0]
    assert not np.array_equal(block_1_first, want)
    return model, batch, want


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

    @pytest.mark.parametrize("run", [
        lambda model, reps, batch: compute_mean_reps(model, batch),
        lambda model, reps, batch: canberra_features_batch(model, reps, batch),
        lambda model, reps, batch: featnet.embed(model, batch),
        lambda model, reps, batch: mitigate_batch(
            model, MitigationPlan(1, 0.1, FilterMask(frozenset({(0, 1)}))), batch),
    ], ids=["compute_mean_reps", "canberra_features_batch", "embed", "mitigate_batch"])
    def test_empty_rejected(self, monkeypatch, default_model, mean_reps, run):
        # featnet.embed alone refuses an empty batch, before any forward
        calls = []
        monkeypatch.setattr(featnet, "forward_batch", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="^need at least one image$"):
            run(default_model, mean_reps, np.empty((0, 64, 64, 1), np.uint8))
        assert calls == []

    def test_bitwise_equals_row_order_float64_sums(self, default_model):
        # 300 images cross the 256-image forward chunk
        batch = np.random.default_rng(12).integers(0, 256, size=(300, 64, 64, 1),
                                                     dtype=np.uint8)
        reps = compute_mean_reps(default_model, batch)
        chunks = [forward_batch(default_model, batch[lo : lo + 256])[1] for lo in (0, 256)]
        taps = [np.vstack(layer) for layer in zip(*chunks)]
        assert reps.n_train == 300
        for got, want in zip(reps.means, mean_reps_loop(taps)):
            assert got.dtype == np.float64
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 255, 256, 257, 300])
    def test_reduced_taps_bitwise_equal_the_oracles(self, mean_reps, monkeypatch, n):
        model = default_network(43)
        batch = np.random.default_rng(n).integers(0, 256, size=(n, 64, 64, 1), dtype=np.uint8)
        # the taps-returning forward, one chunk at a time
        chunks = [forward_batch(model, batch[lo : lo + FORWARD_CHUNK])
                  for lo in range(0, n, FORWARD_CHUNK)]
        want_emb = np.vstack([emb for emb, _ in chunks])
        taps = [np.vstack(layer) for layer in zip(*(t for _, t in chunks))]
        want_means = mean_reps_loop(taps)
        want_feats = np.stack([canberra(t, mu) for t, mu in zip(taps, mean_reps.means)], axis=1)
        for workers in (1, 2):
            monkeypatch.setattr(featnet, "_WORKERS", workers)
            reps = compute_mean_reps(model, batch)
            assert reps.n_train == n
            for got, want in zip(reps.means, want_means, strict=True):
                assert got.dtype == np.float64 and np.array_equal(got, want)
            emb, feats = embed_and_features(model, mean_reps, batch)
            assert np.array_equal(emb, want_emb)
            assert feats.dtype == np.float64 and np.array_equal(feats, want_feats)

    def test_features_reuse_one_scratch_made_in_the_calling_thread(self, mean_reps,
                                                                  monkeypatch):
        # a buffer made in a pool thread lands in that thread's malloc arena
        batch = np.random.default_rng(3).integers(0, 256, size=(300, 64, 64, 1), dtype=np.uint8)
        made, makers, used = [], [], []
        real_rows = detector._canberra_rows

        class SpyNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, *args, **kwargs):
                made.append(np.empty(*args, **kwargs))
                makers.append(threading.get_ident())
                return made[-1]

        def rows(t, b, den_b, out, buf):
            used.append(buf)
            real_rows(t, b, den_b, out, buf)

        monkeypatch.setattr(featnet, "_WORKERS", 2)
        monkeypatch.setattr(detector, "np", SpyNumpy())
        monkeypatch.setattr(detector, "_canberra_rows", rows)
        embed_and_features(default_network(43), mean_reps, batch)
        assert used and all(buf is used[0] for buf in used)
        (k,) = [k for k, m in enumerate(made) if m is used[0]]
        assert makers[k] == threading.get_ident()

    def test_bits_kept_when_block_0_is_reduced_late(self, order_sensitive, monkeypatch):
        model, batch, want = order_sensitive
        delayed = []
        real = featnet.forward_batch

        def late(model, images, reduce):
            def slow(k, lo, hi, rows):
                if lo == 0:
                    delayed.append(lo)
                    time.sleep(0.2)  # the other thread's blocks are ready long before
                reduce(k, lo, hi, rows)
            return real(model, images, slow)

        monkeypatch.setattr(featnet, "_WORKERS", 2)
        monkeypatch.setattr(featnet, "forward_batch", late)
        (got,) = compute_mean_reps(model, batch).means
        assert delayed and np.array_equal(got, want)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("chunk", [8, 16, 64, 256, 1000])
    def test_bits_kept_for_any_chunk_size(self, order_sensitive, monkeypatch, chunk, workers):
        model, batch, want = order_sensitive
        monkeypatch.setattr(featnet, "FORWARD_CHUNK", chunk)
        monkeypatch.setattr(featnet, "_WORKERS", workers)
        (got,) = compute_mean_reps(model, batch).means
        assert np.array_equal(got, want)

    def test_bits_kept_with_more_threads_than_cpus(self, order_sensitive, monkeypatch):
        model, batch, want = order_sensitive
        monkeypatch.setattr(featnet, "_WORKERS", 6)
        pool = ThreadPoolExecutor(5)
        monkeypatch.setattr(featnet, "_pool", pool)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch often: a lost or reordered add shows
        try:
            for _ in range(5):
                (got,) = compute_mean_reps(model, batch).means
                assert np.array_equal(got, want)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()

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

    @settings(max_examples=150)
    @given(seed=st.integers(0, 2**32 - 1), length=st.integers(0, 300),
           special=st.sampled_from([0.0, -0.0, 2.0 ** -1074, -2.0 ** -1074, np.inf, -np.inf,
                                    np.nan]))
    def test_target_bitwise_equals_masked_form(self, seed, length, special):
        rng = np.random.default_rng(seed)
        # mixed signs over the whole float64 range, some entries replaced by special
        b = rng.normal(size=length) * 2.0 ** rng.integers(-1074, 30, size=length)
        b[rng.random(length) < 0.3] = special
        for got, want in zip(detector._canberra_target(b), canberra_target_masked(b)):
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 15, 16, 17, 33]),
           length=st.integers(1, 300), rows_per_block=st.sampled_from([0.5, 1, 2, 16]))
    def test_block_size_moves_no_bit(self, seed, n, length, rows_per_block):
        rng = np.random.default_rng(seed)
        a = (rng.normal(size=(n, length)) * rng.choice([0, 1], size=(n, length))).astype(np.float32)
        b = rng.normal(size=length) * rng.choice([0, 1], size=length)
        want = canberra(a, b)  # one block: these rows are far below the budget
        with pytest.MonkeyPatch.context() as mp:
            # 0.5: a row longer than the budget, so one row per block in a 2 * length scratch
            mp.setattr(detector, "_CANBERRA_BLOCK_ELEMS", int(rows_per_block * length))
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


def _toy_reps(width: int = 1):
    """Mean reps of `width` one-value taps: train_detector wants one feature column per tap."""
    return MeanReps((np.zeros(1),) * width, 1)


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
        d1 = train_detector(None, _toy_reps(3), None, None, features=(fc, fd), seed=4)
        d2 = train_detector(None, _toy_reps(3), None, None, features=(fc, fd), seed=4)
        assert np.array_equal(d1.w, d2.w) and d1.b == d2.b and d1.C == d2.C

    def test_final_objective_not_worse_than_zero_model(self):
        rng = np.random.default_rng(1)
        fc = rng.normal(0, 1, (40, 2))
        fd = rng.normal(2, 1, (40, 2))
        det = train_detector(None, _toy_reps(2), None, None, features=(fc, fd), seed=0)
        x = np.vstack([fc, fd])
        xn = (x - det.feat_mean) / det.feat_std
        y = np.concatenate([-np.ones(40), np.ones(40)])
        fitted, zero = (hinge_objective(w[None], np.array([b]), xn[None], y[None],
                                        np.array([det.C]))[0][0]
                        for w, b in ((det.w, det.b), (np.zeros(2), 0.0)))
        assert fitted <= zero + 1e-9

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            train_detector(None, _toy_reps(), None, None,
                           features=(np.empty((0, 1)), np.ones((3, 1))), seed=0)

    @pytest.mark.parametrize("empty", ["clean", "distorted"])
    def test_empty_class_rejected_before_any_forward(self, default_model, mean_reps, images,
                                                     forwards, empty):
        batches = {"clean": images, "distorted": images, empty: images[:0]}
        with pytest.raises(ValueError, match="^both classes must be non-empty$"):
            train_detector(default_model, mean_reps, batches["clean"], batches["distorted"])
        assert sum(n for _, n in forwards) == 0

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

    @pytest.mark.parametrize("grid", [(-1.0,), (0.0,), (float("nan"),), (float("inf"),),
                                      (1.0, -1.0)], ids=["-1", "0", "nan", "inf", "one-bad"])
    def test_c_not_finite_and_positive_rejected_before_features(self, monkeypatch, grid):
        def no_features(*args, **kwargs):
            raise AssertionError("features computed before the C grid was checked")

        monkeypatch.setattr(detector, "canberra_features_batch", no_features)
        images = np.zeros((2, 64, 64, 1), np.uint8)
        with pytest.raises(ValueError, match="every C finite and above 0"):
            train_detector(None, _toy_reps(), images, images, C_grid=grid)

    @pytest.mark.parametrize("n, C", [(20, 1e307), (600, 1e306)])
    def test_c_that_overflows_the_fit_is_refused(self, n, C):
        # the overflowed descent would end on w = 0, b = 0 and score every image 0
        rng = np.random.default_rng(1)
        fc, fd = rng.normal(0, 1, (n, 2)), rng.normal(1, 1, (n, 2))
        message = re.escape(f"C grid up to {C:g} overflows the hinge fit on {2 * n} rows")
        with pytest.raises(ValueError, match=message):
            train_detector(None, _toy_reps(2), None, None, C_grid=(1.0, C),
                           features=(fc, fd), seed=0)

    @pytest.mark.parametrize("name", ["clean", "distorted"])
    def test_feature_columns_must_match_the_mean_reps_taps(self, name):
        # such a detector would be written, then refused by load_detector
        narrow, wide = np.ones((6, 3)), np.zeros((6, 5))
        fc, fd = (narrow, wide) if name == "clean" else (wide, narrow)
        with pytest.raises(ValueError, match=re.escape(
                f"{name} features have shape (6, 3), not one column for each of the "
                "mean reps' 5 taps")):
            train_detector(None, _toy_reps(5), None, None, features=(fc, fd), seed=0)

    def test_feat_std_floored(self):
        fc = np.zeros((5, 1))
        fd = np.zeros((5, 1))
        det = train_detector(None, _toy_reps(), None, None, features=(fc, fd), seed=0)
        assert (det.feat_std >= 1e-8).all()


def _oracle_cases() -> list:
    """(clean features, distorted features, C grid, seed) for the loop oracle."""
    rng = np.random.default_rng(11)
    cases = []
    # overlapping classes, 7 to 600 rows per class
    for n_c, n_d, d in [(7, 7, 1), (9, 13, 2), (20, 20, 3), (25, 40, 5), (60, 45, 5),
                        (120, 120, 4), (300, 250, 5), (600, 600, 5)]:
        shift = rng.uniform(0.2, 1.5)
        cases.append((rng.normal(0, 1, (n_c, d)), rng.normal(shift, 1, (n_d, d)),
                      DEFAULT_C_GRID, int(rng.integers(100))))
    # 1 to 4 rows per class: empty test folds and one-class training folds,
    # against an unsorted grid holding 1.0 twice
    for n_c, n_d in [(1, 1), (1, 2), (2, 1), (1, 4), (2, 2), (3, 1), (4, 3), (2, 4), (4, 4)]:
        cases.append((rng.normal(0, 1, (n_c, 3)), rng.normal(1, 1, (n_d, 3)),
                      (1.0, 0.1, 10.0, 1.0, 0.01), n_c * 10 + n_d))
    # classes far apart: every C cross-validates at 100%
    for n, d in [(10, 1), (30, 2), (50, 4)]:
        cases.append((rng.normal(0, 0.1, (n, d)), rng.normal(10, 0.1, (n, d)),
                      (100.0, 1.0, 0.01), n))
    # one constant feature, whose std is floored
    fc, fd = rng.normal(0, 1, (15, 2)), rng.normal(0.5, 1, (15, 2))
    fc[:, 1] = fd[:, 1] = 3.0
    cases.append((fc, fd, DEFAULT_C_GRID, 3))
    return cases


ORACLE_CASES = _oracle_cases()


@functools.cache
def _oracle(case: int) -> tuple:
    fc, fd, grid, seed = ORACLE_CASES[case]
    return train_detector_loop(fc, fd, grid, seed)


def _fold_kinds(fc, fd, seed) -> set:
    y = np.concatenate([-np.ones(len(fc)), np.ones(len(fd))])
    folds = detector._fold_assignments(len(y), 5, seed)
    return {"empty" if not (folds == f).any()
            else "one-class" if len(np.unique(y[folds != f])) < 2 else "usable"
            for f in range(5)}


class TestTrainingOracle:
    """train_detector against the best-so-far loops of tests/oracles.py."""

    @pytest.mark.parametrize("case", range(len(ORACLE_CASES)))
    def test_bitwise_equals_best_so_far_loop(self, case):
        fc, fd, grid, seed = ORACLE_CASES[case]
        det = train_detector(None, _toy_reps(fc.shape[1]), None, None, C_grid=grid, seed=seed,
                             features=(fc, fd))
        w, b, C, _ = _oracle(case)
        assert det.w.tobytes() == w.tobytes()
        assert np.float64(det.b).tobytes() == np.float64(b).tobytes()
        assert det.C == C

    def test_cases_cover_degenerate_folds_duplicates_and_ties(self):
        kinds = set().union(*(_fold_kinds(fc, fd, seed) for fc, fd, _, seed in ORACLE_CASES))
        assert kinds == {"empty", "one-class", "usable"}
        assert any(len(set(grid)) < len(grid) for _, _, grid, _ in ORACLE_CASES)
        tied = 0
        for case in range(len(ORACLE_CASES)):
            _, _, C, history = _oracle(case)
            best = max(acc for _, acc in history)
            winners = sorted({c for c, acc in history if acc == best})
            if len(winners) > 1:
                tied += 1
                assert C == winners[0]
        assert tied >= 3


def _stack(F: int, n: int, d: int, seed: int) -> tuple:
    """F overlapping two-class problems of n rows and d features, C from the default grid."""
    rng = np.random.default_rng(seed)
    y = np.where(rng.random((F, n)) < 0.5, -1.0, 1.0)
    x = rng.normal(0, 1, (F, n, d)) + y[:, :, None] * rng.uniform(0.1, 1.0, (F, 1, d))
    return x, y, rng.choice(DEFAULT_C_GRID, size=F)


class TestLockstepFit:
    """Each member of a stacked _fit_hinge call against its lone fit by the loop oracle."""

    @staticmethod
    def _assert_members_equal_lone_fits(x, y, C):
        w, b = detector._fit_hinge(x, y, C)
        assert w.shape == (len(C), x.shape[2]) and b.shape == C.shape
        for f in range(len(C)):
            w1, b1 = _fit_hinge_loop(x[f], y[f], float(C[f]))
            assert w[f].tobytes() == w1.tobytes(), f"member {f}: w"
            assert np.float64(b[f]).tobytes() == np.float64(b1).tobytes(), f"member {f}: b"
        return w, b

    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("F", [1, 2, 5, 25])
    def test_members_are_bitwise_their_lone_fits(self, F, d):
        x, y, C = _stack(F, 40, d, 10 * F + d)
        if F > 1:
            assert len(set(C)) > 1
        self._assert_members_equal_lone_fits(x, y, C)

    @pytest.mark.parametrize("d", [2, 5])
    def test_zero_variance_column(self, d):
        x, y, C = _stack(5, 30, d, d)
        x[:, :, 1] = 0.0  # a constant feature, z-scored
        w, _ = self._assert_members_equal_lone_fits(x, y, C)
        assert (w[:, 1] == 0.0).all()

    @pytest.mark.parametrize("d", [1, 5])
    def test_member_stopped_by_60_halvings_leaves_the_others_going(self, d):
        x, y, C = _stack(5, 30, d, 7 + d)
        # features near the float64 limit: every step of member 2, down to 60 halvings,
        # overflows its objective to inf or nan, so it stops in its first epoch
        x[2] *= 1e300
        with np.errstate(over="ignore", invalid="ignore"):
            w, b = self._assert_members_equal_lone_fits(x, y, C)
        assert not w[2].any() and b[2] == 0.0
        assert all(w[f].any() for f in (0, 1, 3, 4))


class TestNumpySumOrder:
    """The NumPy summation rules the lockstep fit's bitwise contract rests on.

    A NumPy upgrade that breaks one fails here under the rule's name, rather
    than as a mismatch against the loop oracle.
    """

    @staticmethod
    def _rows(rng, k: int, d: int) -> np.ndarray:
        # magnitudes spread over 16 decades, so the order of the adds shows in the bits
        return rng.normal(0, 1, (k, d)) * 10.0 ** rng.integers(-8, 8, (k, 1))

    @pytest.mark.parametrize("d", [2, 5, 16])
    def test_axis0_sum_adds_rows_in_order(self, d):
        rng = np.random.default_rng(d)
        for _ in range(300):
            a = self._rows(rng, int(rng.integers(1, 200)), d)
            acc = np.zeros(d)
            for row in a:
                acc = acc + row
            assert a.sum(axis=0).tobytes() == acc.tobytes(), \
                f"rule broken: a C-contiguous (k, {d}) sum(axis=0) adds its rows in order"

    def test_bincount_adds_weights_in_order_from_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            k, n_bins = int(rng.integers(1, 400)), int(rng.integers(1, 30))
            bins = rng.integers(0, n_bins, k)
            weights = self._rows(rng, k, 1)[:, 0]
            acc = [0.0] * n_bins
            for i, v in zip(bins.tolist(), weights.tolist()):
                acc[i] += v
            got = np.bincount(bins, weights=weights, minlength=n_bins)
            assert got.tobytes() == np.array(acc).tobytes(), \
                "rule broken: np.bincount adds its weights in order from 0.0"

    def test_single_column_sum_is_the_pairwise_1d_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            a = self._rows(rng, int(rng.integers(1, 400)), 1)
            assert a.sum(axis=0).tobytes() == a[:, 0].copy().sum().tobytes(), \
                "rule broken: a (k, 1) sum(axis=0) is the 1-D pairwise .sum() of its column"


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

    @pytest.mark.parametrize("feats", [[2.0, 2.0, 0, 0, 0], [2.0, 0, 0, 0, 0]],
                             ids=["nan", "inf"])
    def test_non_finite_score_is_format_error(self, feats):
        # finite weights, but a nan score would read as clean and an inf as distorted
        det = DetectorModel(np.array([1e308, -1e308, 0, 0, 0]), 0.0, 1.0,
                            np.zeros(5), np.ones(5), _toy_reps())
        with pytest.raises(FormatError, match="detector: a score is not finite"):
            det.decision(np.array([feats]))


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

    @pytest.mark.parametrize("extra", [0, 1, -3], ids=["agrees", "one-more", "negative"])
    def test_detector_file_with_a_tap_count_copy_loads_as_without(self, tmp_path, extra):
        # files written before the tap count was dropped from the format still hold it
        det = DetectorModel(np.array([0.5, -1.0, 2.0]), 0.25, 10.0, np.array([1.0, 2.0, 3.0]),
                            np.array([0.5, 1.0, 1.5]), MeanReps((np.arange(2.0),) * 3, 4))
        path = tmp_path / "det.json"
        save_detector(det, path, tmp_path / "reps.mrep")
        doc = json.loads(path.read_text())
        assert "n_layers" not in doc
        new = load_detector(path)
        path.write_text(json.dumps({**doc, "n_layers": len(doc["w"]) + extra}))
        old = load_detector(path)
        for back in (new, old):
            assert (back.b, back.C, back.mean_reps.n_train) == (det.b, det.C, 4)
            for a, b in [(back.w, det.w), (back.feat_mean, det.feat_mean),
                         (back.feat_std, det.feat_std), *zip(back.mean_reps.means,
                                                             det.mean_reps.means)]:
                assert np.array_equal(a, b)
