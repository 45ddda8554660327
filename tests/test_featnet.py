import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advface.featnet import (
    FilterMask,
    LayerDef,
    NetworkModel,
    cosine_similarity,
    default_network,
    forward,
    forward_batch,
    l2_normalize,
    load_weights,
    save_weights,
)
from advface.imagecore import FormatError, Image

from oracles import naive_conv, naive_maxpool


def tiny_conv_model(weights, bias, stride=1, pad=0, input_hw=(4, 4), channels=1):
    """Single conv layer tapped at its (pre-ReLU) output."""
    layer = LayerDef("conv", np.asarray(weights, np.float32),
                     np.asarray(bias, np.float32), stride=stride, pad=pad)
    return NetworkModel((layer,), (0,), (input_hw[1], input_hw[0], channels))


class TestDefaultNetwork:
    def test_deterministic(self):
        a, b = default_network(7), default_network(7)
        for la, lb in zip(a.layers, b.layers):
            if la.weights is not None:
                assert np.array_equal(la.weights, lb.weights)
                assert np.array_equal(la.bias, lb.bias)

    def test_different_seeds_differ(self):
        a, b = default_network(1), default_network(2)
        assert not np.array_equal(a.layers[0].weights, b.layers[0].weights)

    def test_tap_lengths(self):
        assert default_network(0).tap_lengths() == (32768, 16384, 8192, 2048, 64)

    def test_tap_lengths_match_actual_forward(self, default_model):
        rng = np.random.default_rng(1)
        batch = rng.integers(0, 256, size=(2, 64, 64, 1), dtype=np.uint8)
        _, taps = forward_batch(default_model, batch)
        assert tuple(t.shape[1] for t in taps) == default_model.tap_lengths()

    def test_embedding_unit_norm(self, default_model):
        rng = np.random.default_rng(2)
        batch = rng.integers(0, 256, size=(3, 64, 64, 1), dtype=np.uint8)
        emb, _ = forward_batch(default_model, batch)
        assert np.allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-6)

    def test_zero_image_gives_zero_taps_and_zero_embedding(self, default_model):
        batch = np.zeros((1, 64, 64, 1), dtype=np.uint8)
        emb, taps = forward_batch(default_model, batch)
        for t in taps:
            assert (t == 0).all()
        assert (emb == 0).all()


class TestForward:
    def test_one_by_one_conv_arithmetic(self):
        model = tiny_conv_model([[[[2.0]]]], [0.0], input_hw=(1, 1))
        emb, taps = forward_batch(model, np.array([[[[255]]]], dtype=np.uint8))
        assert taps[0][0, 0] == pytest.approx(2.0, abs=1e-7)

    def test_conv_on_ramp_matches_naive_oracle(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((2, 1, 3, 3)).astype(np.float32)
        b = rng.standard_normal(2).astype(np.float32)
        model = tiny_conv_model(w, b, pad=1, input_hw=(4, 4))
        ramp = np.arange(16, dtype=np.uint8).reshape(1, 4, 4, 1)
        _, taps = forward_batch(model, ramp)
        expected = naive_conv(ramp[0, :, :, 0][None] / 255.0,
                              w.astype(np.float64), b.astype(np.float64), 1, 1)
        assert np.allclose(taps[0][0], expected.ravel(), atol=1e-6)

    @pytest.mark.parametrize("window, stride", [(2, 2), (3, 2), (2, 1), (3, 3)])
    def test_maxpool_matches_naive_oracle(self, window, stride):
        layers = (LayerDef("maxpool", window=window, stride=stride),)
        model = NetworkModel(layers, (0,), (9, 7, 2))  # odd W and H
        rng = np.random.default_rng(6)
        batch = rng.integers(0, 256, size=(3, 7, 9, 2), dtype=np.uint8)
        _, taps = forward_batch(model, batch)
        for i in range(3):
            x = np.moveaxis(batch[i], 2, 0).astype(np.float32) / np.float32(255.0)
            expected = naive_maxpool(x, window, stride)
            assert np.array_equal(taps[0][i], expected.ravel())

    def test_shape_mismatch_rejected(self, default_model):
        with pytest.raises(ValueError, match="does not match model input"):
            forward_batch(default_model, np.zeros((1, 32, 32, 1), dtype=np.uint8))

    def test_forward_single_image_wrapper(self, default_model):
        rng = np.random.default_rng(7)
        px = rng.integers(0, 256, size=(64, 64, 1), dtype=np.uint8)
        emb, acts = forward(default_model, Image(px))
        emb_b, taps = forward_batch(default_model, px[None])
        assert np.array_equal(emb, emb_b[0])
        assert acts.lengths == default_model.tap_lengths()

    def test_deterministic(self, default_model):
        rng = np.random.default_rng(8)
        batch = rng.integers(0, 256, size=(2, 64, 64, 1), dtype=np.uint8)
        e1, _ = forward_batch(default_model, batch)
        e2, _ = forward_batch(default_model, batch)
        assert np.array_equal(e1, e2)


class TestMasking:
    @staticmethod
    def _small_model(seed):
        rng = np.random.default_rng(seed)
        layers = []
        taps = []
        in_c = 1
        for out_c in (4, 6):
            w = rng.standard_normal((out_c, in_c, 3, 3)).astype(np.float32)
            b = rng.standard_normal(out_c).astype(np.float32)
            layers.append(LayerDef("conv", w, b, stride=1, pad=1))
            layers.append(LayerDef("relu"))
            taps.append(len(layers) - 1)
            in_c = out_c
        layers.append(LayerDef("flatten"))
        layers.append(LayerDef("l2norm"))
        return NetworkModel(tuple(layers), tuple(taps), (8, 8, 1))

    @staticmethod
    def _literally_zeroed(model, mask):
        layers = list(model.layers)
        for conv_ord, filt in mask.disabled:
            li = model.conv_ordinals[conv_ord]
            layer = layers[li]
            w = layer.weights.copy()
            b = layer.bias.copy()
            w[filt] = 0.0
            b[filt] = 0.0
            layers[li] = LayerDef("conv", w, b, stride=layer.stride, pad=layer.pad)
        return NetworkModel(tuple(layers), model.tap_points, model.input_spec)

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_masked_forward_equals_zeroed_weights(self, seed):
        rng = np.random.default_rng(seed)
        model = self._small_model(int(rng.integers(0, 100)))
        counts = model.conv_filter_counts()
        pairs = frozenset(
            (li, int(fj))
            for li, n in enumerate(counts)
            for fj in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        )
        mask = FilterMask(pairs)
        batch = rng.integers(0, 256, size=(2, 8, 8, 1), dtype=np.uint8)
        emb_masked, taps_masked = forward_batch(model, batch, mask)
        emb_zeroed, taps_zeroed = forward_batch(self._literally_zeroed(model, mask), batch)
        assert np.array_equal(emb_masked, emb_zeroed)
        for tm, tz in zip(taps_masked, taps_zeroed):
            assert np.array_equal(tm, tz)

    def test_invalid_mask_rejected(self, default_model):
        with pytest.raises(ValueError, match="references no conv filter"):
            forward_batch(default_model, np.zeros((1, 64, 64, 1), dtype=np.uint8),
                          FilterMask(frozenset({(0, 99)})))

    def test_mask_json_list_sorted(self):
        mask = FilterMask(frozenset({(2, 1), (0, 3), (2, 0)}))
        assert mask.to_json_list() == [[0, 3], [2, 0], [2, 1]]


class TestModelValidation:
    def test_tap_points_must_be_increasing(self):
        with pytest.raises(ValueError, match="tap points"):
            NetworkModel((LayerDef("relu"), LayerDef("relu")), (1, 0), (4, 4, 1))

    def test_unknown_layer_kind(self):
        with pytest.raises(ValueError, match="unknown layer kind"):
            LayerDef("softmax")

    def test_conv_needs_weights(self):
        with pytest.raises(ValueError, match="conv layer needs"):
            LayerDef("conv")

    def test_dense_bias_shape_checked(self):
        with pytest.raises(ValueError, match="dense bias"):
            LayerDef("dense", np.zeros((3, 2), np.float32), np.zeros(2, np.float32))


class TestWeightFile:
    def test_round_trip_bit_exact(self, tmp_path):
        model = default_network(7)
        path = tmp_path / "net.fnet"
        save_weights(model, path)
        back = load_weights(path)
        assert back.input_spec == model.input_spec
        assert back.tap_points == model.tap_points
        for la, lb in zip(model.layers, back.layers):
            assert la.kind == lb.kind
            if la.weights is not None:
                assert np.array_equal(la.weights, lb.weights)
                assert np.array_equal(la.bias, lb.bias)

    def test_round_trip_same_embeddings(self, tmp_path, default_model):
        path = tmp_path / "net.fnet"
        save_weights(default_model, path)
        back = load_weights(path)
        rng = np.random.default_rng(3)
        batch = rng.integers(0, 256, size=(2, 64, 64, 1), dtype=np.uint8)
        assert np.array_equal(forward_batch(default_model, batch)[0],
                              forward_batch(back, batch)[0])

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.fnet"
        path.write_bytes(b"XXXXX" + bytes(64))
        with pytest.raises(FormatError, match='bad magic, expected "FNET1"'):
            load_weights(path)

    def test_truncated_file(self, tmp_path):
        model = default_network(1)
        path = tmp_path / "net.fnet"
        save_weights(model, path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(FormatError, match="truncated weight file"):
            load_weights(path)

    def test_unknown_kind_code(self, tmp_path):
        import struct
        path = tmp_path / "bad.fnet"
        payload = b"FNET1" + struct.pack("<I", 1) + struct.pack("<III", 4, 4, 1)
        payload += struct.pack("<I", 0) + bytes([99])
        path.write_bytes(payload)
        with pytest.raises(FormatError, match="unknown layer kind code 99 at layer 0"):
            load_weights(path)


class TestCosine:
    def test_self_similarity(self):
        v = np.array([1.0, 2.0, -3.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_hand_example(self):
        assert cosine_similarity([1, 2], [2, 1]) == pytest.approx(0.8)

    def test_zero_vector_defined_as_zero(self):
        assert cosine_similarity([0, 0], [1, 2]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            cosine_similarity([1, 2], [1, 2, 3])

    def test_l2_normalize_zero_rows_pass_through(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0]])
        out = l2_normalize(x)
        assert np.array_equal(out[0], [0.0, 0.0])
        assert np.allclose(out[1], [0.6, 0.8])
