import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from advface.featnet import forward_batch
from advface.imagecore import Point, Polygon
from advface.synthface import (
    Dataset,
    LandmarkSet,
    _draw_subject,
    generate_dataset,
    load_dataset,
    save_dataset,
    split_protocol,
)
from advface.verifybench import score_matrix

from oracles import render_sample_loop


class TestGeneration:
    def test_counts_and_labels(self):
        ds = generate_dataset(2, 2, 64, seed=7)
        assert len(ds) == 4
        assert sorted({it.subject_id for it in ds.items}) == [0, 1]
        assert sorted(it.sample_index for it in ds.items) == [0, 0, 1, 1]

    def test_determinism(self):
        a = generate_dataset(2, 2, 64, seed=7)
        b = generate_dataset(2, 2, 64, seed=7)
        for x, y in zip(a.items, b.items):
            assert x.image == y.image
            assert x.landmarks == y.landmarks

    def test_different_seeds_differ(self):
        a = generate_dataset(2, 2, 64, seed=1)
        b = generate_dataset(2, 2, 64, seed=2)
        assert any(x.image != y.image for x, y in zip(a.items, b.items))

    @pytest.mark.parametrize("args", [(1, 2, 64), (2, 1, 64), (2, 2, 47)])
    def test_parameter_minimums(self, args):
        with pytest.raises(ValueError):
            generate_dataset(*args, seed=0)

    def test_within_subject_difference_below_across_subject(self):
        ds = generate_dataset(8, 3, 64, seed=9)
        by_subject = {}
        for it in ds.items:
            by_subject.setdefault(it.subject_id, []).append(
                it.image.pixels.astype(np.float64))
        within = [
            np.abs(imgs[i] - imgs[j]).mean()
            for imgs in by_subject.values()
            for i in range(len(imgs)) for j in range(i + 1, len(imgs))
        ]
        across = [
            np.abs(by_subject[a][0] - by_subject[b][0]).mean()
            for a in by_subject for b in by_subject if a < b
        ]
        assert len(across) >= 20
        assert np.mean(within) < np.mean(across)

    def test_landmarks_valid_for_every_image(self):
        for seed in range(5):
            ds = generate_dataset(3, 2, 64, seed=seed)
            for it in ds.items:
                lm = it.landmarks
                hi = it.image.width - 1
                assert lm.right_eye.x > lm.left_eye.x
                pts = [lm.left_eye, lm.right_eye, lm.nose, lm.mouth_center]
                pts += list(lm.forehead_polygon.vertices)
                pts += list(lm.beard_polygon.vertices)
                for p in pts:
                    assert 0 <= p.x <= hi and 0 <= p.y <= hi

    def test_identity_signal_effect_size(self, default_model):
        ds = generate_dataset(8, 4, 64, seed=21)
        batch = np.stack([it.image.pixels for it in ds.items])
        emb, _ = forward_batch(default_model, batch)
        ids = [it.subject_id for it in ds.items]
        scores = score_matrix(emb, ids).scores
        within, across = [], []
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                (within if ids[i] == ids[j] else across).append(scores[i, j])
        diff = np.mean(within) - np.mean(across)
        pooled = np.sqrt((np.var(within) + np.var(across)) / 2)
        assert diff / pooled >= 0.5


class TestBlockRenderer:
    # (subjects, samples per subject, size, seed): sample counts on both sides of
    # the 8-image block at 64x64 (3 at 96x96, 14 at 48x48), seeds 1000 * family +
    # slot as the benchmark draws them
    @pytest.mark.parametrize("shape", [
        (3, 2, 64, 1001), (5, 3, 48, 2002), (50, 4, 64, 1002), (4, 10, 96, 3005),
        (3, 17, 64, 7003), (2, 40, 48, 4001), (2, 40, 96, 5002), (3, 17, 96, 6004),
    ], ids=lambda s: "x".join(map(str, s)))
    def test_bytes_equal_the_per_image_oracle(self, shape):
        n_subjects, samples, size, seed = shape
        ds = generate_dataset(n_subjects, samples, size, seed)
        assert [(it.subject_id, it.sample_index) for it in ds.items] == \
            [(sid, k) for sid in range(n_subjects) for k in range(samples)]
        for it in ds.items:
            img, lms = render_sample_loop(_draw_subject(seed, it.subject_id, size), size,
                                          seed, it.sample_index)
            assert it.image.pixels.shape == img.pixels.shape == (size, size, 1)
            assert it.image.pixels.tobytes() == img.pixels.tobytes(), (it.subject_id,
                                                                       it.sample_index)
            assert it.landmarks == lms, (it.subject_id, it.sample_index)

    def test_pinned_digest(self):
        # recorded with the per-image renderer, so the oracle and the block
        # renderer cannot drift together
        ds = generate_dataset(3, 5, 64, seed=1001)
        h = hashlib.sha256(ds.pixel_batch().tobytes())
        h.update(json.dumps([it.landmarks.to_json_dict() for it in ds.items]).encode())
        assert h.hexdigest() == \
            "a0a7a8fd42951821ab73daadd75ece0c0c07c6fbf5fe1f26a2f28f9bfc4af5db"

    def test_peak_of_80_images_below_3_mib(self):
        generate_dataset(2, 2, 64, seed=0)   # lazy NumPy state is not the renderer's
        tracemalloc.start()
        try:
            ds = generate_dataset(2, 40, 64, seed=1001)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the output (80 images and their landmarks) is 0.6 MiB; 8-image blocks
        # peak 1.7 MiB above it, 16-image blocks 3.4, 40-image blocks (one per
        # subject) 8.6 and one 80-image block 16.4
        assert len(ds) == 80
        assert peak - current < 3 * 2**20


class TestSplitProtocol:
    def test_fraction_zero_all_clean(self, small_dataset):
        clean, distort = split_protocol(small_dataset, 0.0, seed=1)
        assert distort == []
        assert clean == list(range(len(small_dataset)))

    def test_half_of_858_is_429(self):
        stub = Dataset(tuple([None] * 858), 0)
        clean, distort = split_protocol(stub, 0.5, seed=3)
        assert len(distort) == 429
        assert len(clean) == 429
        assert sorted(clean + distort) == list(range(858))

    def test_deterministic(self, small_dataset):
        assert split_protocol(small_dataset, 0.5, 7) == split_protocol(small_dataset, 0.5, 7)

    def test_fraction_validated(self, small_dataset):
        with pytest.raises(ValueError):
            split_protocol(small_dataset, 1.5, 0)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path, small_dataset):
        manifest = save_dataset(small_dataset, tmp_path / "d")
        assert manifest.name == "manifest.json"
        back = load_dataset(tmp_path / "d")
        assert back.seed == small_dataset.seed
        assert len(back) == len(small_dataset)
        for a, b in zip(back.items, small_dataset.items):
            assert a.image == b.image
            assert a.landmarks == b.landmarks
            assert (a.subject_id, a.sample_index) == (b.subject_id, b.sample_index)

    def test_manifest_seed_beyond_int64_loads(self, tmp_path, small_dataset):
        save_dataset(Dataset(small_dataset.items[:1], 2**63), tmp_path / "d")
        assert load_dataset(tmp_path / "d").seed == 2**63

    def test_manifest_field_names(self, tmp_path, small_dataset):
        save_dataset(small_dataset, tmp_path / "d")
        doc = json.loads((tmp_path / "d" / "manifest.json").read_text())
        entry = doc["images"][0]
        assert set(entry) == {"path", "subject_id", "sample_index", "landmarks"}
        assert set(entry["landmarks"]) == {
            "left_eye", "right_eye", "nose", "mouth_center",
            "forehead_polygon", "beard_polygon"}


class TestLandmarkSet:
    def test_json_round_trip(self, small_dataset):
        lm = small_dataset.items[0].landmarks
        assert LandmarkSet.from_json_dict(lm.to_json_dict()) == lm

    def test_eye_ordering_enforced(self):
        square = Polygon([(0, 0), (3, 0), (3, 3), (0, 3)])
        with pytest.raises(ValueError, match="right eye"):
            LandmarkSet(Point(10, 5), Point(4, 5), Point(7, 8), Point(7, 12),
                        square, square)
