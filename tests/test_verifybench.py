import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advface import detector, featnet, mitigator, verifybench
from advface.detector import DetectorModel, MeanReps, compute_mean_reps, detect_scores
from advface.distortions import DistortionSpec
from advface.featnet import FilterMask, forward_batch
from advface.imagecore import FormatError, median_filter_array
from advface.mitigator import MitigationPlan
from advface.synthface import Dataset, DatasetItem, generate_dataset
from advface.verifybench import (
    ProtocolError,
    RocCurve,
    ScoreMatrix,
    gar_at_far,
    roc,
    run_protocol,
    score_matrix,
    write_report,
)

from oracles import gar_at_far_exhaustive, roc_exhaustive


def matrix_from_pairs(genuine_vals, impostor_vals):
    """5x5 symmetric ScoreMatrix whose genuine/impostor rates match the inputs.

    Each of the 5+5 values is placed on one unordered off-diagonal pair, so
    every value appears exactly twice; duplicating the full multiset leaves
    all FAR/GAR fractions unchanged.
    """
    assert len(genuine_vals) == 5 and len(impostor_vals) == 5
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    scores = np.eye(5)
    mask = np.zeros((5, 5), dtype=bool)
    for (i, j), v in zip(pairs[:5], genuine_vals):
        scores[i, j] = scores[j, i] = v
        mask[i, j] = mask[j, i] = True
    for (i, j), v in zip(pairs[5:], impostor_vals):
        scores[i, j] = scores[j, i] = v
    return ScoreMatrix(scores, mask)


def random_score_matrix(rng):
    """(ScoreMatrix, subject ids) with random symmetric scores."""
    n = int(rng.integers(3, 8))
    emb = rng.normal(size=(n, 4))
    scores = rng.normal(size=(n, n))
    scores = (scores + scores.T) / 2
    ids = rng.integers(0, max(2, n // 2), size=n)
    while len(np.unique(ids)) < 2:
        ids = rng.integers(0, max(2, n // 2), size=n)
    return ScoreMatrix(scores, ids[:, None] == ids[None, :]), ids


def embed(model, ds):
    return forward_batch(model, ds.pixel_batch())[0]


class TestScoreMatrix:
    def test_counts_four_images_two_subjects(self, default_model):
        ds = generate_dataset(2, 2, 64, seed=1)
        sm = score_matrix(embed(default_model, ds), [it.subject_id for it in ds.items])
        assert sm.scores.shape == (4, 4)
        off_diag = sm.scores.shape[0] * (sm.scores.shape[0] - 1)
        assert off_diag == 12
        assert len(sm.genuine_scores()) == 4
        assert len(sm.impostor_scores()) == 8

    def test_single_subject_rejected(self, default_model):
        ds = generate_dataset(2, 2, 64, seed=1)
        with pytest.raises(ProtocolError, match="at least 2 subjects"):
            score_matrix(embed(default_model, ds), [0] * len(ds))

    def test_too_few_images_rejected(self, default_model):
        ds = generate_dataset(2, 2, 64, seed=1)
        with pytest.raises(ProtocolError):
            score_matrix(embed(default_model, ds)[:1], [0])

    def test_duplicate_image_under_two_subjects_scores_one(self, default_model):
        emb = embed(default_model, generate_dataset(2, 2, 64, seed=1))[:1]
        sm = score_matrix(np.vstack([emb, emb]), [0, 1])
        assert sm.impostor_scores() == pytest.approx([1.0, 1.0])

    def test_symmetry(self, default_model, small_dataset):
        sm = score_matrix(embed(default_model, small_dataset),
                          [it.subject_id for it in small_dataset.items])
        assert np.abs(sm.scores - sm.scores.T).max() < 1e-9

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes disagree"):
            ScoreMatrix(np.zeros((2, 2)), np.zeros((3, 3), dtype=bool))

    def test_zero_row_scores_zero_against_every_row(self):
        emb = np.array([[0.0, 0.0], [1.0, 2.0], [-3.0, 0.5]])
        scores = score_matrix(emb, [0, 1, 1]).scores
        assert (scores[0] == 0.0).all() and (scores[:, 0] == 0.0).all()


class TestRoc:
    def test_perfect_separation(self):
        sm = matrix_from_pairs([0.9] * 5, [0.1] * 5)
        curve = roc(sm)
        assert gar_at_far(curve, 0.01) == 1.0
        # every threshold is an observed score, at or below the genuine 0.9: GAR is already 1
        assert curve.gar.min() == 1.0

    def test_identical_distributions_gar_tracks_far(self):
        vals = [0.1, 0.3, 0.5, 0.7, 0.9]
        curve = roc(matrix_from_pairs(vals, vals))
        assert np.allclose(curve.gar, curve.far)

    def test_hand_enumerated_example(self):
        sm = matrix_from_pairs([0.9, 0.8, 0.7, 0.6, 0.5],
                               [0.65, 0.55, 0.45, 0.35, 0.25])
        curve = roc(sm)
        expected = roc_exhaustive([0.9, 0.8, 0.7, 0.6, 0.5],
                                  [0.65, 0.55, 0.45, 0.35, 0.25])
        assert len(curve.far) == len(curve.gar) == len(expected)
        for f1, g1, (_, f2, g2) in zip(curve.far, curve.gar, expected):
            assert f1 == pytest.approx(f2)
            assert g1 == pytest.approx(g2)
        assert gar_at_far(curve, 0.2) == pytest.approx(0.8)

    def test_empty_class_rejected(self):
        scores = np.array([[1.0, 0.5], [0.5, 1.0]])
        mask = np.ones((2, 2), dtype=bool)
        with pytest.raises(ProtocolError, match="at least one genuine"):
            roc(ScoreMatrix(scores, mask))

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_exhaustive_oracle_and_is_monotone(self, seed):
        rng = np.random.default_rng(seed)
        sm, _ = random_score_matrix(rng)
        curve = roc(sm)
        expected = roc_exhaustive(sm.genuine_scores(), sm.impostor_scores())
        assert len(curve.far) == len(curve.gar) == len(expected)
        for f1, g1, (_, f2, g2) in zip(curve.far, curve.gar, expected):
            assert f1 == pytest.approx(f2, abs=1e-12)
            assert g1 == pytest.approx(g2, abs=1e-12)
        assert (np.diff(curve.far) >= -1e-12).all()
        assert (np.diff(curve.gar) >= -1e-12).all()
        assert ((0 <= curve.far) & (curve.far <= 1)).all()
        assert ((0 <= curve.gar) & (curve.gar <= 1)).all()


class TestGarAtFar:
    def test_no_qualifying_threshold_gives_zero(self):
        # every impostor above every genuine: the loosest threshold already
        # admits 1/5 of impostors, above a 1% target
        sm = matrix_from_pairs([0.1] * 5, [0.9] * 5)
        assert gar_at_far(roc(sm), 0.01) == 0.0

    def test_far_target_validated(self):
        curve = roc(matrix_from_pairs([0.9] * 5, [0.1] * 5))
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError, match="far_target"):
                gar_at_far(curve, bad)

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1),
           t1=st.floats(0.01, 0.99), t2=st.floats(0.01, 0.99))
    def test_non_decreasing_in_target_and_matches_oracle(self, seed, t1, t2):
        rng = np.random.default_rng(seed)
        sm, _ = random_score_matrix(rng)
        curve = roc(sm)
        lo, hi = sorted((t1, t2))
        g_lo, g_hi = gar_at_far(curve, lo), gar_at_far(curve, hi)
        assert g_lo <= g_hi + 1e-12
        assert g_lo == pytest.approx(gar_at_far_exhaustive(
            sm.genuine_scores(), sm.impostor_scores(), lo), abs=1e-12)


class TestRelabeling:
    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_permuting_subject_labels_preserves_metrics(self, seed):
        rng = np.random.default_rng(seed)
        sm, labels = random_score_matrix(rng)
        perm = {old: new for new, old in enumerate(rng.permutation(np.unique(labels)))}
        relabeled = np.array([perm[v] for v in labels])
        sm2 = ScoreMatrix(sm.scores, relabeled[:, None] == relabeled[None, :])
        assert gar_at_far(roc(sm), 0.1) == gar_at_far(roc(sm2), 0.1)


class TestProtocol:
    def test_fraction_zero_distorted_equals_original(self, default_model, small_dataset):
        rows = run_protocol(small_dataset, default_model,
                            DistortionSpec("grids", seed=1), fraction=0.0, seed=2)
        assert [r["condition"] for r in rows] == ["original", "distorted"]
        assert rows[0]["gar_at_far"] == rows[1]["gar_at_far"]

    def test_three_conditions_with_detector_and_plan(self, default_model, small_dataset):
        reps = compute_mean_reps(default_model, small_dataset.pixel_batch())
        n = len(reps.means)
        det = DetectorModel(np.zeros(n), 1.0, 1.0, np.zeros(n), np.ones(n), reps)
        plan = MitigationPlan(1, 0.0, FilterMask())
        rows = run_protocol(small_dataset, default_model,
                            DistortionSpec("xmsb", seed=4), det=det, plan=plan,
                            fraction=0.5, seed=2)
        assert [r["condition"] for r in rows] == ["original", "distorted", "corrected"]
        sm = score_matrix(np.eye(len(small_dataset)),
                          [it.subject_id for it in small_dataset.items])
        for r in rows:
            assert 0.0 <= r["gar_at_far"] <= 1.0
            assert (r["n_genuine"], r["n_impostor"]) == (len(sm.genuine_scores()),
                                                          len(sm.impostor_scores()))

    def test_each_condition_forwards_each_image_once(self, default_model, small_dataset,
                                                     forwards):
        reps = compute_mean_reps(default_model, small_dataset.pixel_batch())
        n_taps = len(reps.means)
        spec = DistortionSpec("grids", seed=4)
        mixed = verifybench._distorted_copy(small_dataset, spec, 0.5, 2)
        feats = detector.canberra_features_batch(default_model, reps, mixed)
        # flags the images whose first-layer feature is above the median
        det = DetectorModel(np.eye(n_taps)[0], 0.0, 1.0,
                            np.r_[np.median(feats[:, 0]), np.zeros(n_taps - 1)],
                            np.ones(n_taps), reps)
        flagged = int((detect_scores(det, default_model, mixed) > 0).sum())
        assert 0 < flagged < len(mixed)
        plan = MitigationPlan(1, 0.25, FilterMask({(0, 0)}))

        counts = {"plain": 0, "masked": 0}
        forwards.clear()  # the set-up above forwards
        run_protocol(small_dataset, default_model, spec, det=det, plan=plan,
                     fraction=0.5, seed=2)
        for model, n in forwards:
            plain = all(a is b for a, b in zip(model.layers, default_model.layers))
            counts["plain" if plain else "masked"] += n
        assert counts == {"plain": 2 * len(mixed), "masked": flagged}

    def test_masked_forwards_run_in_featnet_chunks(self, default_model, monkeypatch, forwards):
        # 40 flagged images in chunks of 16, 16 and 8: each chunk has the
        # 8 or more rows for which the dense layer gives the full batch's bytes
        monkeypatch.setattr(featnet, "FORWARD_CHUNK", 16)
        ds = generate_dataset(10, 4, 64, seed=6)
        means = MeanReps(tuple(np.zeros(n) for n in default_model.tap_lengths()), 1)
        n = len(means.means)
        flag_all = DetectorModel(np.zeros(n), 1.0, 1.0, np.zeros(n), np.ones(n), means)
        plan = MitigationPlan(1, 0.25, FilterMask({(0, 0), (1, 3)}))
        spec = DistortionSpec("grids", seed=4)
        mixed = verifybench._distorted_copy(ds, spec, 0.5, 2)
        want = forward_batch(default_model.masked(plan.mask), median_filter_array(mixed, 5))[0]
        assert np.array_equal(mitigator.mitigate_batch(default_model, plan, mixed), want)
        rows = run_protocol(ds, default_model, spec, det=flag_all, plan=plan,
                            fraction=0.5, seed=2)
        plain, (corrected,) = verifybench.defended_embeddings(default_model, ds, spec, flag_all,
                                                              [plan], 0.5, 2)
        assert (corrected != plain).any(axis=1).all()  # every image flagged and replaced
        assert np.array_equal(corrected, want)
        masked = [n for model, n in forwards
                  if any(a is not b for a, b in zip(model.layers, default_model.layers))]
        assert masked == [16, 16, 8] * 3
        ids = np.array([it.subject_id for it in ds.items])
        assert rows[2]["gar_at_far"] == verifybench._gar_from_embeddings(want, ids, 0.01)

    @staticmethod
    def _half_flagging_detector(model, ds, spec):
        """Detector flagging the distorted-set images whose first-layer feature
        is above the median, with its flag count on that set."""
        reps = compute_mean_reps(model, ds.pixel_batch())
        n_taps = len(reps.means)
        mixed = verifybench._distorted_copy(ds, spec, 0.5, 2)
        feats = detector.canberra_features_batch(model, reps, mixed)
        det = DetectorModel(np.eye(n_taps)[0], 0.0, 1.0,
                            np.r_[np.median(feats[:, 0]), np.zeros(n_taps - 1)],
                            np.ones(n_taps), reps)
        return det, int((det.decision(feats) > 0).sum())

    @pytest.mark.parametrize("use_median", [True, False], ids=["median", "no-median"])
    def test_corrected_row_is_the_plan_search_score(self, default_model, small_dataset,
                                                    use_median):
        spec = DistortionSpec("grids", seed=4)
        det, flagged = self._half_flagging_detector(default_model, small_dataset, spec)
        assert 0 < flagged < len(small_dataset)
        plan = MitigationPlan(1, 0.25, FilterMask({(0, 0), (1, 3)}), use_median)
        rows = run_protocol(small_dataset, default_model, spec, det=det, plan=plan,
                            fraction=0.5, seed=2, far_target=0.05)
        plain, (corrected,) = verifybench.defended_embeddings(
            default_model, small_dataset, spec, det, [plan], fraction=0.5, seed=2)
        ids = np.array([it.subject_id for it in small_dataset.items])
        assert rows[2]["condition"] == "corrected"
        assert rows[2]["gar_at_far"] == verifybench._gar_from_embeddings(corrected, ids, 0.05)
        distorted = verifybench._gar_from_embeddings(plain, ids, 0.05)
        assert rows[1]["gar_at_far"] == distorted

    def test_each_plan_of_one_call_is_its_one_plan_call(self, default_model, small_dataset):
        # the plan search scores all its plans in one call: each matrix is
        # bitwise what run_protocol reports for that plan alone
        spec = DistortionSpec("grids", seed=4)
        det, flagged = self._half_flagging_detector(default_model, small_dataset, spec)
        assert 0 < flagged < len(small_dataset)
        plans = [MitigationPlan(1, 0.25, FilterMask({(0, 0), (1, 3)})),
                 MitigationPlan(1, 0.0, FilterMask(), False),
                 MitigationPlan(2, 0.5, FilterMask({(0, 1), (2, 5), (3, 31)}), False),
                 MitigationPlan(1, 0.1, FilterMask({(1, 0)}))]
        args = (default_model, small_dataset, spec, det)
        plain, corrected = verifybench.defended_embeddings(*args, plans, fraction=0.5, seed=2)
        assert len(corrected) == len(plans)
        assert len({m.tobytes() for m in corrected}) == len(plans)
        for plan, emb in zip(plans, corrected):
            one_plain, (one,) = verifybench.defended_embeddings(*args, [plan],
                                                                fraction=0.5, seed=2)
            assert np.array_equal(one_plain, plain)
            assert np.array_equal(one, emb)

    @pytest.mark.parametrize("use_median", [True, False], ids=["median", "no-median"])
    def test_median_runs_only_for_a_median_plan(self, default_model, small_dataset,
                                                monkeypatch, use_median):
        spec = DistortionSpec("grids", seed=4)
        det, flagged = self._half_flagging_detector(default_model, small_dataset, spec)
        calls = []

        def counting(batch, size):
            calls.append(batch.shape[0])
            return median_filter_array(batch, size)

        monkeypatch.setattr(mitigator, "median_filter_array", counting)
        run_protocol(small_dataset, default_model, spec, det=det,
                     plan=MitigationPlan(1, 0.0, FilterMask(), use_median), fraction=0.5, seed=2)
        assert calls == ([flagged] if use_median else [])

    def test_deterministic(self, default_model, small_dataset):
        args = (small_dataset, default_model, DistortionSpec("grids", seed=9))
        assert run_protocol(*args, fraction=0.5, seed=5) == \
            run_protocol(*args, fraction=0.5, seed=5)

    @pytest.mark.parametrize("defended", [False, True], ids=["plain", "defended"])
    def test_set_with_no_genuine_pair_rejected_before_any_forward(
            self, default_model, small_dataset, monkeypatch, defended):
        reps = compute_mean_reps(default_model, small_dataset.pixel_batch())
        n = len(reps.means)
        det = DetectorModel(np.zeros(n), 1.0, 1.0, np.zeros(n), np.ones(n), reps)
        defence = dict(det=det, plan=MitigationPlan(1, 0.0, FilterMask())) if defended else {}
        ds = Dataset(tuple(DatasetItem(it.image, it.landmarks, i, 0)
                           for i, it in enumerate(small_dataset.items[:4])), 0)
        forwarded = []
        monkeypatch.setattr(featnet, "forward_batch", lambda *args: forwarded.append(args))
        with pytest.raises(ProtocolError, match="need at least one genuine and one impostor"):
            run_protocol(ds, default_model, DistortionSpec("grids"), **defence)
        assert forwarded == []

    @pytest.mark.parametrize("flags", ["every-image", "no-image"])
    def test_plan_mask_the_network_lacks_rejected_before_any_forward(
            self, default_model, small_dataset, monkeypatch, flags):
        # the mask is checked whether or not any image is flagged for correction
        reps = compute_mean_reps(default_model, small_dataset.pixel_batch())
        n = len(reps.means)
        det = DetectorModel(np.zeros(n), 1.0, 1.0, np.zeros(n), np.ones(n), reps)
        if flags == "no-image":
            det = dataclasses.replace(det, b=-1e6)
        forwarded = []
        monkeypatch.setattr(featnet, "forward_batch", lambda *args: forwarded.append(args))
        with pytest.raises(FormatError, match=r"^mitigation plan: mask entry \(9, 0\) "
                                              "references no conv filter$"):
            run_protocol(small_dataset, default_model, DistortionSpec("grids", seed=4),
                         det=det, plan=MitigationPlan(1, 0.1, FilterMask({(9, 0)})))
        assert forwarded == []

    def test_single_subject_dataset_rejected(self, default_model, small_dataset):
        items = tuple(DatasetItem(it.image, it.landmarks, 0, i)
                      for i, it in enumerate(small_dataset.items))
        ds = Dataset(items, 0)
        with pytest.raises(ProtocolError, match="at least 2 subjects"):
            run_protocol(ds, default_model, DistortionSpec("grids"))


class TestReport:
    def test_csv_format(self, tmp_path):
        rows = [{"condition": "original", "distortion": "grids",
                 "gar_at_far": 0.8125, "far_target": 0.01,
                 "n_genuine": 10, "n_impostor": 20, "seed": 3}]
        path = tmp_path / "report.csv"
        write_report(rows, path)
        with open(path, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["condition", "distortion", "gar_at_far", "far_target",
                             "n_genuine", "n_impostor", "seed"]
        assert parsed[1] == ["original", "grids", "0.812500", "0.010000",
                             "10", "20", "3"]
