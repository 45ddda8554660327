import dataclasses
import inspect
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import advface
from advface import featnet
from advface.featnet import (
    FORWARD_CHUNK,
    FilterMask,
    LayerDef,
    NetworkModel,
    default_network,
    forward_batch,
    l2_normalize,
    load_weights,
    save_weights,
)
from advface import detector, mitigator
from advface.imagecore import FormatError, Image
from advface.mitigator import SensitivityTable, build_plan
from advface.verifybench import score_matrix

from conftest import fnet_bytes, overflowing_network, pool_between_convs, relu_pool_relu
from oracles import layerwise_forward, naive_conv, naive_maxpool, tensordot_conv


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

    def test_is_a_plain_function(self):
        # the benchmark tracer wraps only plain functions; a cache decorator
        # here would silently take network builds out of its featnet.build group
        assert inspect.isfunction(featnet.default_network)

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_output_that_overflows_float32_is_format_error(self, default_model):
        # l2_normalize would divide each row by an inf norm, to an all-zero embedding
        batch = np.random.default_rng(4).integers(0, 256, size=(3, 64, 64, 1), dtype=np.uint8)
        with pytest.raises(FormatError, match="^network output overflows float32: "
                                              "a row's L2 norm is not finite$"):
            featnet.embed(overflowing_network(default_model), batch)


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
        with pytest.raises(FormatError, match="does not match model input"):
            forward_batch(default_model, np.zeros((1, 32, 32, 1), dtype=np.uint8))

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 256, 257, 263, 400])
    def test_embed_computes_no_taps_and_keeps_the_bits(self, net43, monkeypatch, n):
        images = np.random.default_rng(n).integers(0, 256, size=(n, 64, 64, 1), dtype=np.uint8)
        real = featnet.forward_batch
        tap_counts = []

        def spy(model, images, *args):
            emb, taps = real(model, images, *args)
            tap_counts.append(len(taps))
            return emb, taps

        for model in (net43, net43.masked(_random_mask(net43, n))):
            want = np.vstack([forward_batch(model, images[lo : lo + FORWARD_CHUNK])[0]
                              for lo in range(0, n, FORWARD_CHUNK)])
            monkeypatch.setattr(featnet, "forward_batch", spy)
            got = featnet.embed(model, images)
            monkeypatch.setattr(featnet, "forward_batch", real)
            assert tap_counts == [0] * -(-n // FORWARD_CHUNK)
            tap_counts.clear()
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_deterministic(self, default_model):
        rng = np.random.default_rng(8)
        batch = rng.integers(0, 256, size=(2, 64, 64, 1), dtype=np.uint8)
        e1, _ = forward_batch(default_model, batch)
        e2, _ = forward_batch(default_model, batch)
        assert np.array_equal(e1, e2)


def _n_conv_taps(model):
    """Taps that lie before the first flatten: conv-stage activations."""
    kinds = [layer.kind for layer in model.layers]
    end = kinds.index("flatten") if "flatten" in kinds else len(kinds)
    return sum(1 for t in model.tap_points if t < end)


@pytest.fixture(scope="module")
def net43():
    return default_network(43)


@pytest.fixture(scope="module")
def batch300():
    return np.random.default_rng(43).integers(0, 256, size=(300, 64, 64, 1), dtype=np.uint8)


@pytest.fixture(scope="module")
def plan_mask(net43):
    """The mask a mitigation plan builds: top quarter of filters in 3 layers."""
    rng = np.random.default_rng(4)
    table = SensitivityTable(tuple(rng.random(n) for n in net43.conv_filter_counts()), 1)
    return build_plan(table, 3, 0.25).mask


class TestConvKernel:
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 256, 300])
    def test_default_net_bitwise_equals_tensordot_kernel(self, net43, batch300, plan_mask,
                                                         monkeypatch, n, masked):
        model = net43.masked(plan_mask) if masked else net43
        got = forward_batch(model, batch300[:n])
        # the kernel gets each block already padded, so the adapter pads nothing
        monkeypatch.setattr(featnet, "_conv2d", lambda xp, layer, col, out: np.copyto(
            out, tensordot_conv(xp, layer.weights, layer.bias, layer.stride, 0)))
        want = forward_batch(model, batch300[:n])
        assert np.array_equal(got[0], want[0])
        assert len(got[1]) == len(want[1]) == 5  # four post-ReLU conv maps, then dense
        for g, w in zip(got[1], want[1]):
            assert g.dtype == w.dtype == np.float32
            assert np.array_equal(g, w)

    @settings(max_examples=150)
    @given(k=st.sampled_from([1, 2, 3, 5]), stride=st.integers(1, 3), pad=st.integers(0, 2),
           c=st.sampled_from([1, 3, 8]), o=st.sampled_from([1, 4, 16]),
           n=st.sampled_from([1, featnet._CONV_BLOCK - 1, featnet._CONV_BLOCK,
                              featnet._CONV_BLOCK + 1, 2 * featnet._CONV_BLOCK + 1]),
           h=st.integers(1, 6), w=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_matches_naive_conv_within_float32_bound(self, k, stride, pad, c, o, n, h, w, seed):
        assume(h + 2 * pad >= k and w + 2 * pad >= k)
        rng = np.random.default_rng(seed)
        wts = rng.standard_normal((o, c, k, k)).astype(np.float32)
        bias = rng.standard_normal(o).astype(np.float32)
        layer = LayerDef("conv", wts, bias, stride=stride, pad=pad)
        model = NetworkModel((layer,), (0,), (w, h, c))
        batch = rng.integers(0, 256, size=(n, h, w, c), dtype=np.uint8)
        _, taps = forward_batch(model, batch)
        ho, wo = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
        got = taps[0].reshape(n, o, ho, wo)
        # float32 dot of K = c*k*k terms plus a bias, inputs in [0, 1]:
        # |error| <= (K + 1) * eps32 * (sum |w_f| + |b_f|) per filter
        terms = np.abs(wts.astype(np.float64)).sum(axis=(1, 2, 3)) + np.abs(bias)
        bound = (c * k * k + 1) * np.finfo(np.float32).eps * terms
        for i in range(n):
            x = np.moveaxis(batch[i], 2, 0).astype(np.float32) / np.float32(255.0)
            want = naive_conv(x, wts, bias, stride, pad)
            assert np.all(np.abs(got[i] - want) <= bound[:, None, None])

    def test_output_is_contiguous_nchw(self, net43, batch300):
        _, taps = forward_batch(net43, batch300[:3])
        shapes = [(8, 64, 64), (16, 32, 32), (32, 16, 16), (32, 8, 8)]
        assert [t.shape for t in taps[:4]] == [(3, o * h * w) for o, h, w in shapes]
        assert all(t.flags.c_contiguous for t in taps[:4])
        # each flat tap is a view of its (N, O, H', W') map, filter-major
        assert [t.base.shape for t in taps[:4]] == [(3, *s) for s in shapes]
        assert all(t.base.flags.c_contiguous for t in taps[:4])

    def test_tapped_conv_output_is_not_overwritten_by_relu(self):
        rng = np.random.default_rng(12)
        layers = (LayerDef("conv", rng.standard_normal((3, 1, 3, 3)).astype(np.float32),
                           rng.standard_normal(3).astype(np.float32), pad=1),
                  LayerDef("relu"))
        model = NetworkModel(layers, (0, 1), (5, 5, 1))
        _, (pre, post) = forward_batch(model, rng.integers(0, 256, (2, 5, 5, 1), np.uint8))
        assert (pre < 0).any()
        assert np.array_equal(post, np.maximum(pre, 0))


def _dense_head(body, taps, seed):
    """body, then flatten, dense(4) and l2norm, tapped at taps and the dense layer."""
    flat = NetworkModel(tuple(body), (len(body) - 1,), (64, 64, 1)).tap_lengths()[0]
    dense = LayerDef("dense", np.random.default_rng(seed).standard_normal((4, flat)).astype(
        np.float32), np.zeros(4, np.float32))
    return NetworkModel((*body, LayerDef("flatten"), dense, LayerDef("l2norm")),
                        (*taps, len(body) + 1), (64, 64, 1))


def _depth_first_net(name):
    """Nets whose block stages write to every kind of place: tap rows, an
    in-place ReLU, the im2col head ahead of a padded conv, a block buffer."""
    net = default_network(43)
    if name == "default":
        return net
    if name == "conv-taps":  # conv outputs tapped, ReLUs not
        return dataclasses.replace(net, tap_points=(0, 6, 12))
    if name == "cut-at-responses":  # no flatten: every stage comes before the split
        return NetworkModel(net.layers[:11], (1, 4, 7, 10), net.input_spec)
    rng = np.random.default_rng(9)
    if name == "dense-tail":
        # l2norm before flatten, a tapped flatten, an untapped dense -> relu,
        # then dense -> relu (tapped) -> dense -> l2norm
        def dense(o, i):
            return LayerDef("dense", (rng.standard_normal((o, i)) / np.sqrt(i)).astype(np.float32),
                            (0.1 * rng.standard_normal(o)).astype(np.float32))
        return NetworkModel((*net.layers[:11], LayerDef("l2norm"), LayerDef("flatten"),
                             dense(32, 2048), LayerDef("relu"), dense(16, 32), LayerDef("relu"),
                             dense(4, 16), LayerDef("l2norm")), (4, 12, 16), net.input_spec)
    if name == "relu-pool-relu":
        return _dense_head(relu_pool_relu(rng)[0], (3,), 1)
    return _dense_head(pool_between_convs(rng)[0], (0, 3), 2)  # pool-between-convs


def _random_mask(model, seed):
    rng = np.random.default_rng(seed)
    return FilterMask(frozenset((li, int(fj)) for li, n in enumerate(model.conv_filter_counts())
                                for fj in rng.choice(n, size=max(1, n // 4), replace=False)))


class TestDepthFirst:
    """forward_batch's per-block loop gives the bits of the layer-at-a-time forward."""

    @pytest.mark.parametrize("n", [*range(1, 10), 256, 300])
    @pytest.mark.parametrize("name", ["default", "conv-taps", "cut-at-responses",
                                      "relu-pool-relu", "pool-between-convs", "dense-tail"])
    def test_bitwise_equals_layerwise_forward(self, batch300, monkeypatch, name, n):
        model = _depth_first_net(name)
        want_emb, want_taps = layerwise_forward(model, batch300[:n])
        for workers in (1, 2):
            monkeypatch.setattr(featnet, "_WORKERS", workers)
            emb, taps = forward_batch(model, batch300[:n])
            assert emb.dtype == want_emb.dtype and emb.shape == want_emb.shape
            assert np.array_equal(emb, want_emb)
            assert len(taps) == len(want_taps) == model.n_taps
            for g, w in zip(taps, want_taps):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert np.array_equal(g, w)

    @pytest.mark.parametrize("n", [1, 9, 256])
    def test_one_parallel_pass_with_bounded_scratch(self, net43, batch300, monkeypatch, n):
        calls, scratch_bytes = [], []
        real = featnet._parallel_blocks

        def nbytes(obj):
            if isinstance(obj, np.ndarray):
                return obj.nbytes
            items = obj.values() if isinstance(obj, dict) else obj
            return sum(nbytes(o) for o in items)

        def spy(n_rows, step, scratches, fn, *then):
            calls.append((n_rows, step))
            scratch_bytes.extend(nbytes(scratch) for scratch in scratches)
            return real(n_rows, step, scratches, fn, *then)

        monkeypatch.setattr(featnet, "_WORKERS", 2)
        monkeypatch.setattr(featnet, "_parallel_blocks", spy)
        forward_batch(net43, batch300[:n])
        block = featnet._CONV_BLOCK
        assert calls == [(n, block)]
        # one im2col buffer for the largest conv and a zero-bordered input
        # per padded conv: a buffer per conv per thread raised single-image peak RSS
        shape, cols, pads = (1, 64, 64), [], 0
        for layer in net43.layers[: [l.kind for l in net43.layers].index("flatten")]:
            out = featnet._out_shape(layer, shape)
            if layer.kind == "conv":
                c, h, w = shape
                p, k = layer.pad, layer.weights.shape[2]
                pads += block * c * (h + 2 * p) * (w + 2 * p) * 4
                cols.append(c * k * k * out[1] * out[2])
            shape = out
        assert len(scratch_bytes) == min(2, -(-n // block))
        assert all(b <= block * max(cols) * 4 + pads for b in scratch_bytes)


    def test_scratch_first_then_outputs_in_layer_order(self, net43, batch300, monkeypatch):
        # peak RSS hangs on this order (see the comment in forward_batch)
        n, made, makers, scratches = 256, [], [], []

        class SpyNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, *args, **kwargs):
                made.append(np.empty(*args, **kwargs))
                makers.append(threading.get_ident())
                return made[-1]

            def zeros(self, *args, **kwargs):
                made.append(np.zeros(*args, **kwargs))
                makers.append(threading.get_ident())
                return made[-1]

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                return [obj]
            return [a for o in (obj.values() if isinstance(obj, dict) else obj) for a in arrays(o)]

        real = featnet._parallel_blocks

        def spy(n_rows, step, given, fn, *then):
            scratches.extend(given)
            return real(n_rows, step, given, fn, *then)

        monkeypatch.setattr(featnet, "_WORKERS", 2)
        monkeypatch.setattr(featnet, "_parallel_blocks", spy)
        monkeypatch.setattr(featnet, "np", SpyNumpy())
        _, taps = forward_batch(net43, batch300[:n])
        monkeypatch.undo()

        def when(a):
            return next(k for k, m in enumerate(made) if m is a)
        outputs = [k for k, m in enumerate(made) if m.ndim > 1 and m.shape[0] == n]
        assert len(scratches) == 2
        assert max(when(a) for s in scratches for a in arrays(s)) < min(outputs)
        # scratch comes from the calling thread
        assert {makers[when(a)] for s in scratches for a in arrays(s)} == {threading.get_ident()}
        # every conv tap lies in one of those outputs, and they come in layer order
        assert [when(t.base) for t in taps[:4]] == outputs[:4]
        layer_outputs = iter((n, *shape) for shape in net43.shapes[1:])
        assert all(made[k].shape in layer_outputs for k in outputs)


def _reduced(model, images, reduce_of=lambda fn: fn):
    """forward_batch with a reducer that copies every tap row it is handed into
    NaN-filled (N, lambda_i) arrays; returns the forward's result, those
    arrays and the reducer's calls as (tap ordinal, lo, hi), in call order."""
    got = [np.full((len(images), length), np.nan, np.float32) for length in model.tap_lengths()]
    calls = []

    def copy(k, lo, hi, rows):
        calls.append((k, lo, hi))
        got[k][lo:hi] = rows

    return forward_batch(model, images, reduce_of(copy)), got, calls


class TestReducer:
    """forward_batch hands each tap row to a reducer once, and keeps no (N, L) tap."""

    @pytest.mark.parametrize("n", [1, 7, 9, 256, 300])
    @pytest.mark.parametrize("name", ["default", "conv-taps", "cut-at-responses",
                                      "relu-pool-relu", "pool-between-convs", "dense-tail"])
    def test_every_tap_row_handed_over_once_bitwise(self, batch300, monkeypatch, name, n):
        model = _depth_first_net(name)
        want_emb, want_taps = forward_batch(model, batch300[:n])
        split = next((i for i, l in enumerate(model.layers) if l.kind in ("flatten", "dense")),
                     len(model.layers))
        early = [k for k, t in enumerate(model.tap_points) if t < split]
        late = [k for k, t in enumerate(model.tap_points) if t >= split]
        blocks = [(k, lo, min(lo + 8, n)) for lo in range(0, n, 8) for k in early]
        for workers in (1, 2):
            monkeypatch.setattr(featnet, "_WORKERS", workers)
            (emb, taps), got, calls = _reduced(model, batch300[:n])
            assert taps == []
            assert emb.dtype == want_emb.dtype and np.array_equal(emb, want_emb)
            for g, w in zip(got, want_taps):
                assert np.array_equal(g, w)
            # the blocks before the split in row order, tap by tap within a block, then
            # one call per tap from the split on
            assert calls == blocks + [(k, 0, n) for k in late]

    def test_dense_only_taps_need_no_in_order_pass(self, net43, batch300, monkeypatch):
        # tapped only after the split, a network has no block to reduce in order
        model = dataclasses.replace(net43, tap_points=net43.tap_points[-1:])
        thens = []
        real = featnet._parallel_blocks

        def spy(n_rows, step, scratches, fn, then=None):
            thens.append(then)
            return real(n_rows, step, scratches, fn, then)

        want_emb, (want,) = forward_batch(model, batch300[:20])
        monkeypatch.setattr(featnet, "_WORKERS", 2)
        monkeypatch.setattr(featnet, "_parallel_blocks", spy)
        (emb, taps), got, calls = _reduced(model, batch300[:20])
        assert thens == [None]
        assert taps == [] and np.array_equal(emb, want_emb)
        assert calls == [(0, 0, 20)] and np.array_equal(got[0], want)

    def test_embed_hands_over_rows_of_the_whole_batch(self, net43, batch300, monkeypatch):
        monkeypatch.setattr(featnet, "FORWARD_CHUNK", 16)
        got = [np.full((40, length), np.nan, np.float32) for length in net43.tap_lengths()]

        def copy(k, lo, hi, rows):
            got[k][lo:hi] = rows

        images = batch300[:40]
        emb = featnet.embed(net43, images, copy)
        assert emb.shape == (40, 64) and emb.dtype == np.float32
        for lo in (0, 16, 32):
            want_emb, want_taps = forward_batch(net43, images[lo : lo + 16])
            assert np.array_equal(emb[lo : lo + 16], want_emb)
            for g, w in zip(got, want_taps):
                assert np.array_equal(g[lo : lo + 16], w)

    def test_in_order_blocks_wait_for_their_turn(self, net43, batch300, monkeypatch):
        monkeypatch.setattr(featnet, "_WORKERS", 2)
        active, most = [], []

        def late_first(fn):
            def reduce(k, lo, hi, rows):
                active.append(lo)
                most.append(len(active))
                if (k, lo) == (0, 0):
                    time.sleep(0.2)  # block 1 is ready long before block 0 is reduced
                fn(k, lo, hi, rows)
                active.remove(lo)
            return reduce

        _, got, calls = _reduced(net43, batch300[:40], late_first)
        # four conv taps per block, then the dense tap of all 40 rows
        assert [lo for _, lo, _ in calls] == [lo for lo in range(0, 40, 8) for _ in range(4)] + [0]
        assert max(most) == 1
        for g, w in zip(got, forward_batch(net43, batch300[:40])[1]):
            assert np.array_equal(g, w)

    def test_a_failed_reduction_ends_the_pass(self, net43, batch300, monkeypatch):
        monkeypatch.setattr(featnet, "_WORKERS", 2)
        outcome = []

        def reduce(k, lo, hi, rows):
            if lo == 0:
                time.sleep(0.1)  # the other thread has a block ready and waits for its turn
                raise RuntimeError("reduction failed")

        def forward():
            try:
                forward_batch(net43, batch300[:64], reduce)
            except RuntimeError as err:
                outcome.append(str(err))

        thread = threading.Thread(target=forward, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and outcome == ["reduction failed"]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_parallel_blocks_then_runs_in_order_after_its_block(self, threads):
        computed, order = set(), []
        delays = np.random.default_rng(threads).random(10) * 0.01

        def fn(scratch, lo, hi):
            time.sleep(delays[lo // 8])
            computed.add(lo)

        def then(scratch, lo, hi):
            assert lo in computed
            order.append((lo, hi))

        featnet._parallel_blocks(75, 8, [None] * threads, fn, then)
        assert order == [(lo, min(lo + 8, 75)) for lo in range(0, 75, 8)]


class TestReducedTapsMemory:
    """The three callers that reduce taps never hold a chunk of them."""

    @pytest.mark.parametrize("name", ["mean_reps", "features", "sensitivity"])
    def test_peak_of_256_images_below_a_chunk_of_taps(self, net43, batch300, name):
        images = batch300[:256]
        reps = detector.compute_mean_reps(net43, images[:8])
        pairs = [(Image(images[i]), Image(images[i + 1])) for i in range(0, 256, 2)]
        run = {"mean_reps": lambda: detector.compute_mean_reps(net43, images),
               "features": lambda: detector.embed_and_features(net43, reps, images),
               "sensitivity": lambda: mitigator.compute_sensitivity(net43, pairs)}[name]
        # one 256-image chunk of the default net's taps is 58 MiB; each run peaks at
        # 12.0 (mean reps), 13.0 (features) and 12.95 MiB (sensitivity)
        assert sum(net43.tap_lengths()) * 4 * 256 > 58 * 2**20
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20


class TestBatchInvariance:
    """Conv taps of an image (pre- and post-ReLU) do not depend on its batch."""

    @staticmethod
    def _assert_rows_match_single(model, batch, rows):
        _, taps = forward_batch(model, batch)
        n_conv = _n_conv_taps(model)
        assert n_conv > 0
        for i in rows:
            _, taps1 = forward_batch(model, batch[i : i + 1])
            for a, b in zip(taps[:n_conv], taps1[:n_conv]):
                assert np.array_equal(a[i], b[0])

    def test_default_net_across_block_and_chunk(self, net43):
        block = featnet._CONV_BLOCK
        batch = np.random.default_rng(7).integers(0, 256, size=(FORWARD_CHUNK + 4, 64, 64, 1),
                                                   dtype=np.uint8)
        rows = (0, block - 1, block, block + 1, FORWARD_CHUNK - 1, FORWARD_CHUNK,
                FORWARD_CHUNK + 3)
        self._assert_rows_match_single(net43, batch, rows)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_shape_net(self, seed):
        rng = np.random.default_rng(seed)
        c, h, w = int(rng.choice([1, 3])), int(rng.integers(5, 13)), int(rng.integers(5, 13))
        input_spec = (w, h, c)
        layers, taps = [], []
        for _ in range(int(rng.integers(1, 4))):
            k, s, p = int(rng.choice([1, 2, 3, 5])), int(rng.integers(1, 4)), int(rng.integers(0, 3))
            if h + 2 * p < k or w + 2 * p < k:
                break
            o = int(rng.choice([1, 4, 16]))
            layers.append(LayerDef("conv", rng.standard_normal((o, c, k, k)).astype(np.float32),
                                   rng.standard_normal(o).astype(np.float32), stride=s, pad=p))
            if rng.random() < 0.3:
                taps.append(len(layers) - 1)
            layers.append(LayerDef("relu"))
            taps.append(len(layers) - 1)
            c, h, w = o, (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
        assume(layers)
        layers += [LayerDef("flatten"),
                   LayerDef("dense", rng.standard_normal((4, c * h * w)).astype(np.float32),
                            np.zeros(4, np.float32)),
                   LayerDef("l2norm")]
        taps.append(len(layers) - 2)
        model = NetworkModel(tuple(layers), tuple(taps), input_spec)
        w_in, h_in, c_in = input_spec
        batch = rng.integers(0, 256, size=(FORWARD_CHUNK + 2, h_in, w_in, c_in), dtype=np.uint8)
        block = featnet._CONV_BLOCK
        self._assert_rows_match_single(
            model, batch, (0, block - 1, block, FORWARD_CHUNK - 1, FORWARD_CHUNK + 1))

    def test_blas_thread_count_gives_same_bytes(self):
        # the forward of 300 images, then a detector, a sensitivity table and
        # the protocol rows with that detector and a plan, on 60 faces
        script = (
            "import hashlib, numpy as np\n"
            "from advface import detector, distortions, mitigator, synthface, verifybench\n"
            "from advface.featnet import default_network, forward_batch\n"
            "b = np.random.default_rng(3).integers(0, 256, (300, 64, 64, 1), np.uint8)\n"
            "e, t = forward_batch(default_network(43), b)\n"
            "net = default_network(0)\n"
            "ds = synthface.generate_dataset(15, 4, 64, seed=5)\n"
            "spec = distortions.DistortionSpec('grids', seed=6)\n"
            "dist = [distortions.apply(distortions.per_image_spec(spec, i), it.image,\n"
            "                          it.landmarks)[0] for i, it in enumerate(ds.items)]\n"
            "clean = ds.pixel_batch()\n"
            "det = detector.train_detector(net, detector.compute_mean_reps(net, clean), clean,\n"
            "                              np.stack([d.pixels for d in dist]), seed=1)\n"
            "table = mitigator.compute_sensitivity(net, zip(dist, (it.image for it in ds.items)))\n"
            "rows = verifybench.run_protocol(ds, net, spec, det=det,\n"
            "                                plan=mitigator.build_plan(table, 2, 0.25), seed=2)\n"
            "parts = [e, *t, det.w, np.float64(det.b), *table.eps]\n"
            "print(hashlib.sha256(b''.join(a.tobytes() for a in parts)\n"
            "                     + repr(rows).encode()).hexdigest())\n")
        src = str(Path(advface.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert len(digests[0]) == 64 and digests[0] == digests[1]


WORKER_SIZES = [1, 7, 8, 9, 15, 16, 17, 256, 300]

# forward and Canberra feature bytes of 300 images, printed by a subprocess
_AFFINITY_SCRIPT = (
    "import hashlib, os, sys, numpy as np\n"
    "if sys.argv[1] == 'pin':\n"
    "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
    "from advface import detector, featnet\n"
    "net = featnet.default_network(43)\n"
    "b = np.random.default_rng(3).integers(0, 256, (300, 64, 64, 1), np.uint8)\n"
    "e, t = featnet.forward_batch(net, b)\n"
    "_, f = detector.embed_and_features(net, detector.compute_mean_reps(net, b[:64]), b)\n"
    "print(featnet._WORKERS,\n"
    "      hashlib.sha256(b''.join(a.tobytes() for a in [e, *t, f])).hexdigest())\n")


def _blocks_on_two_threads():
    """Two blocks that each wait for the other, so a pool thread must run one."""
    meet = threading.Barrier(2, timeout=30)
    featnet._parallel_blocks(16, 8, [None, None], lambda scratch, lo, hi: meet.wait())


# imports the CLI, then forwards 9 images: two conv blocks, so the pool runs
# one of them whenever the process may use two CPUs
_IMPORT_SCRIPT = (
    "import hashlib, os, sys, threading, numpy as np\n"
    "if sys.argv[1] == 'pin':\n"
    "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
    "import advface.cli\n"
    "from advface import featnet\n"
    "threads = threading.active_count()\n"
    "b = np.random.default_rng(3).integers(0, 256, (9, 64, 64, 1), np.uint8)\n"
    "e, t = featnet.forward_batch(featnet.default_network(43), b)\n"
    "print(threads, featnet._WORKERS,\n"
    "      hashlib.sha256(b''.join(a.tobytes() for a in [e, *t])).hexdigest())\n")


class TestWorkers:
    """The blocked loops give the same bytes for any worker count."""

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("n", WORKER_SIZES)
    def test_forward_bitwise_for_any_worker_count(self, net43, batch300, plan_mask,
                                                  monkeypatch, n, masked):
        model = net43.masked(plan_mask) if masked else net43
        outs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(featnet, "_WORKERS", workers)
            emb, taps = forward_batch(model, batch300[:n])
            outs.append([emb, *taps])
        assert len(outs[0]) == 1 + 5
        for other in outs[1:]:
            for g, w in zip(other, outs[0]):
                assert g.dtype == w.dtype and np.array_equal(g, w)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 8, 9, 17, 50])
    def test_parallel_blocks_covers_each_block_once(self, monkeypatch, workers, n):
        caller = threading.get_ident()
        calls, submitted = [], []
        pool = featnet._pool
        monkeypatch.setattr(featnet, "_pool", SimpleNamespace(
            submit=lambda *args: submitted.append(args) or pool.submit(*args)))
        n_blocks = -(-n // 8)
        threads = min(workers, n_blocks)  # as many scratches as forward_batch makes
        scratches = [object() for _ in range(threads)]

        featnet._parallel_blocks(n, 8, scratches,
                                 lambda scratch, lo, hi: calls.append(
                                     (lo, hi, id(scratch), threading.get_ident())))
        # every scratch used is one of those given
        assert {sid for _, _, sid, _ in calls} <= {id(s) for s in scratches}
        assert sorted((lo, hi) for lo, hi, _, _ in calls) == [
            (lo, min(lo + 8, n)) for lo in range(0, n, 8)]
        # each thread keeps to one scratch, which no other thread touches
        tid_of_scratch = {}
        for _, _, sid, tid in calls:
            assert tid_of_scratch.setdefault(sid, tid) == tid
        assert len(set(tid_of_scratch.values())) == len(tid_of_scratch)
        assert len(submitted) == threads - 1  # one thread never touches the pool
        if threads < 2:
            assert {tid for *_, tid in calls} == {caller}

    def test_caller_never_waits_for_a_helper_to_start(self, monkeypatch):
        pool = ThreadPoolExecutor(1)
        monkeypatch.setattr(featnet, "_pool", pool)
        release = threading.Event()
        blocker = pool.submit(release.wait, 60)  # the pool's only thread is busy
        timer = threading.Timer(5, release.set)  # frees the pool if the caller waits for it
        timer.start()
        try:
            tids = []
            featnet._parallel_blocks(40, 8, [None, None],
                                     lambda scratch, lo, hi: tids.append(threading.get_ident()))
            assert not release.is_set()
            assert tids == [threading.get_ident()] * 5
        finally:
            timer.cancel()
            release.set()
            blocker.result()
            pool.shutdown()

    def test_worker_errors_propagate(self):
        def fn(scratch, lo, hi):
            if lo:
                raise RuntimeError("block failed")

        with pytest.raises(RuntimeError, match="block failed"):
            featnet._parallel_blocks(16, 8, [None, None], fn)

    @pytest.mark.parametrize("used", [True, False], ids=["after-use", "before-use"])
    def test_forked_child_runs_parallel_blocks(self, monkeypatch, used):
        pool = ThreadPoolExecutor(1)  # no thread started yet, as right after import
        monkeypatch.setattr(featnet, "_pool", pool)
        if used:  # the pool starts its thread, which the child lacks
            _blocks_on_two_threads()
        child = multiprocessing.get_context("fork").Process(target=_blocks_on_two_threads)
        child.start()
        child.join(timeout=60)
        alive = child.is_alive()
        if alive:
            child.kill()
            child.join()
        pool.shutdown()
        assert not alive and child.exitcode == 0

    def test_one_cpu_affinity_gives_same_bytes(self):
        src = str(Path(advface.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = []
        for mode in ("pin", "default"):
            proc = subprocess.run([sys.executable, "-c", _AFFINITY_SCRIPT, mode], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            out.append(proc.stdout.split())
        assert out[0][0] == "1" and out[1][0] == str(len(os.sched_getaffinity(0)))
        assert len(out[0][1]) == 64 and out[0][1] == out[1][1]

    def test_import_starts_no_thread(self):
        src = str(Path(advface.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = []
        for mode in ("pin", "default"):
            proc = subprocess.run([sys.executable, "-c", _IMPORT_SCRIPT, mode], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            out.append(proc.stdout.split())
        assert [o[:2] for o in out] == [["1", "1"], ["1", str(len(os.sched_getaffinity(0)))]]
        assert len(out[0][2]) == 64 and out[0][2] == out[1][2]


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
        emb_masked, taps_masked = forward_batch(model.masked(mask), batch)
        emb_zeroed, taps_zeroed = forward_batch(self._literally_zeroed(model, mask), batch)
        assert np.array_equal(emb_masked, emb_zeroed)
        for tm, tz in zip(taps_masked, taps_zeroed):
            assert np.array_equal(tm, tz)

    @pytest.mark.parametrize("entry", [(0, 99), (0, 8), (0, -1), (4, 0), (-1, 0)])
    def test_invalid_mask_rejected(self, default_model, entry):
        with pytest.raises(ValueError, match=rf"mask entry \({entry[0]}, {entry[1]}\) "
                                             "references no conv filter"):
            default_model.masked(FilterMask(frozenset({(0, 1), entry})))

    @pytest.mark.parametrize("n", [*range(1, 10), 256, 300])
    @pytest.mark.parametrize("name", ["default", "conv-taps", "cut-at-responses",
                                      "relu-pool-relu", "pool-between-convs", "dense-tail"])
    def test_masked_network_bitwise_equals_layerwise_masking(self, batch300, monkeypatch,
                                                             name, n):
        # the oracle zeroes the disabled channels after each conv
        model = _depth_first_net(name)
        mask = _random_mask(model, n)
        want_emb, want_taps = layerwise_forward(model, batch300[:n], mask)
        masked = model.masked(mask)
        for workers in (1, 2):
            monkeypatch.setattr(featnet, "_WORKERS", workers)
            emb, taps = forward_batch(masked, batch300[:n])
            assert emb.dtype == want_emb.dtype and emb.shape == want_emb.shape
            assert np.array_equal(emb, want_emb)
            assert len(taps) == len(want_taps) == model.n_taps
            for g, w in zip(taps, want_taps):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert np.array_equal(g, w)

    def test_masked_copies_masked_layers_and_shares_the_rest(self, net43, plan_mask):
        before = [(l.weights.copy(), l.bias.copy()) for l in net43.layers if l.kind == "conv"]
        masked = net43.masked(plan_mask)
        assert (masked.tap_points, masked.input_spec) == (net43.tap_points, net43.input_spec)
        convs = net43.conv_ordinals
        hit = {convs[li] for li, _ in plan_mask.disabled}
        assert 0 < len(hit) < len(convs)
        for i, (src, got) in enumerate(zip(net43.layers, masked.layers)):
            assert (got is src) == (i not in hit)
        for li, (i, (w, b)) in enumerate(zip(convs, before)):
            src, got = net43.layers[i], masked.layers[i]
            assert np.array_equal(src.weights, w) and np.array_equal(src.bias, b)
            off = sorted(fj for lj, fj in plan_mask.disabled if lj == li)
            on = [j for j in range(len(b)) if j not in off]
            assert not got.weights.flags.writeable and not got.bias.flags.writeable
            assert (got.weights[off] == 0).all() and (got.bias[off] == 0).all()
            assert np.array_equal(got.weights[on], w[on]) and np.array_equal(got.bias[on], b[on])

    def test_empty_mask_forwards_like_the_plain_network(self, net43, batch300):
        masked = net43.masked(FilterMask())
        assert all(a is b for a, b in zip(masked.layers, net43.layers))
        got, want = forward_batch(masked, batch300[:9]), forward_batch(net43, batch300[:9])
        for g, w in zip([got[0], *got[1]], [want[0], *want[1]]):
            assert g.dtype == w.dtype and np.array_equal(g, w)

    def test_mask_json_list_sorted(self, tmp_path):
        mask = FilterMask(frozenset({(2, 1), (0, 3), (2, 0)}))
        mitigator.save_plan(mitigator.MitigationPlan(1, 0.5, mask), tmp_path / "p.json")
        assert json.loads((tmp_path / "p.json").read_text())["mask"] == [[0, 3], [2, 0], [2, 1]]


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

    def test_conv_bias_shape_checked(self):
        with pytest.raises(ValueError, match="conv bias shape mismatch"):
            LayerDef("conv", np.ones((2, 1, 3, 3), np.float32), np.zeros(3, np.float32))

    @pytest.mark.parametrize("stride, pad", [(0, 0), (-1, 1), (1, -1)])
    def test_conv_stride_and_pad_checked(self, stride, pad):
        with pytest.raises(ValueError, match="bad conv stride/pad"):
            LayerDef("conv", np.ones((2, 1, 3, 3), np.float32), np.zeros(2, np.float32),
                     stride=stride, pad=pad)

    @pytest.mark.parametrize("shape", [(3,), (3, 2, 1)])
    def test_dense_weight_rank_checked(self, shape):
        with pytest.raises(ValueError, match=r"dense layer needs \(out, in\) weights"):
            LayerDef("dense", np.ones(shape, np.float32), np.zeros(3, np.float32))

    def test_dense_bias_shape_checked(self):
        with pytest.raises(ValueError, match="dense bias"):
            LayerDef("dense", np.zeros((3, 2), np.float32), np.zeros(2, np.float32))

    @pytest.mark.parametrize("window, stride", [(0, 2), (2, 0), (0, 0)])
    def test_maxpool_window_and_stride_checked(self, window, stride):
        with pytest.raises(ValueError, match="maxpool window/stride"):
            LayerDef("maxpool", window=window, stride=stride)

    def test_empty_weights_rejected(self):
        with pytest.raises(ValueError, match="empty weights"):
            LayerDef("dense", np.zeros((0, 2), np.float32), np.zeros(0, np.float32))

    @pytest.mark.parametrize("layers, input_spec, message", [
        ((LayerDef("flatten"), LayerDef("conv", np.ones((1, 1, 1, 1), np.float32),
                                        np.zeros(1, np.float32))),
         (4, 4, 1), "conv needs a (C, H, W) input, got (16,)"),
        ((LayerDef("conv", np.ones((1, 2, 1, 1), np.float32), np.zeros(1, np.float32)),),
         (4, 4, 1), "conv expects 2 input channels, got 1"),
        ((LayerDef("flatten"), LayerDef("dense", np.ones((3, 9), np.float32),
                                        np.zeros(3, np.float32))),
         (4, 4, 1), "dense expects input length 9, got (16,)"),
        ((LayerDef("maxpool", window=5, stride=2), LayerDef("flatten")),
         (4, 4, 1), "layer 0 (maxpool) has an empty output (1, 0, 0)"),
        ((LayerDef("flatten"),), (0, 4, 1), "empty input shape (0, 4, 1)"),
    ], ids=["conv-after-flatten", "channel-mismatch", "dense-length", "pool-window-too-large",
            "zero-size-input"])
    def test_broken_chain_rejected_when_built(self, tmp_path, layers, input_spec, message):
        with pytest.raises(ValueError) as exc:
            NetworkModel(layers, (0,), input_spec)
        assert str(exc.value) == message
        # save_weights reads only these fields, so it writes a net that cannot be built
        save_weights(SimpleNamespace(layers=layers, tap_points=(0,), input_spec=input_spec),
                     tmp_path / "net.fnet")
        with pytest.raises(FormatError) as exc:
            load_weights(tmp_path / "net.fnet")
        assert str(exc.value) == f"weight file: {message}"


class TestReadOnlyWeights:
    @pytest.mark.parametrize("source", ["default_network", "load_weights"])
    def test_writing_into_weights_or_bias_raises(self, tmp_path, source):
        model = default_network(3)
        if source == "load_weights":
            save_weights(model, tmp_path / "net.fnet")
            model = load_weights(tmp_path / "net.fnet")
        layers = [l for l in model.layers if l.weights is not None]
        assert len(layers) == 5
        for layer in layers:
            with pytest.raises(ValueError, match="read-only"):
                layer.weights[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                layer.bias += 1.0
            with pytest.raises(ValueError, match="read-only"):
                layer.weights.reshape(-1)[:3] = 0.0

    def test_callers_array_is_not_frozen(self):
        w, b = np.ones((2, 1, 3, 3), np.float32), np.zeros(2, np.float32)
        layer = LayerDef("conv", w, b)
        w[0] = 5.0
        b[1] = 2.0
        assert w.flags.writeable and b.flags.writeable
        assert layer.weights[0, 0, 0, 0] == 5.0 and layer.bias[1] == 2.0


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

    def test_valid_fnet_bytes_load_and_run(self, tmp_path):
        path = tmp_path / "net.fnet"
        path.write_bytes(fnet_bytes())
        model = load_weights(path)
        assert model.tap_lengths() == (32, 3)
        emb, _ = forward_batch(model, np.full((1, 4, 4, 1), 255, np.uint8))
        assert np.isfinite(emb).all()

    def test_writer_gives_back_fnet_bytes(self, tmp_path):
        # fnet_bytes states the layout field by field, apart from save_weights
        path = tmp_path / "net.fnet"
        path.write_bytes(fnet_bytes())
        save_weights(load_weights(path), tmp_path / "out.fnet")
        assert (tmp_path / "out.fnet").read_bytes() == fnet_bytes()

    @pytest.mark.parametrize("cut, field", [(35, "out at byte 34"), (44, "k at byte 42"),
                                            (52, "pad at byte 50")])
    def test_truncated_header_names_its_field(self, tmp_path, cut, field):
        path = tmp_path / "short.fnet"
        path.write_bytes(fnet_bytes()[:cut])
        with pytest.raises(FormatError, match=f"while reading layer 0 {field}"):
            load_weights(path)

    @pytest.mark.parametrize("fields, message", [
        (dict(conv_w=np.where(np.arange(18) == 4, np.nan, 1.0).reshape(2, 1, 3, 3)),
         "non-finite weights or bias in layer 0"),
        (dict(dense_b=[0.0, np.inf, 0.0]), "non-finite weights or bias in layer 4"),
        (dict(pool_stride=0), "bad maxpool window/stride"),
        (dict(window=0), "bad maxpool window/stride"),
        (dict(window=5), "layer 2 \\(maxpool\\) has an empty output"),
        (dict(tail=b"\x00\x00"), "2 trailing bytes after the last layer"),
        (dict(conv_in=2), "conv expects 2 input channels, got 1"),
        (dict(dense_in=9), "dense expects input length 9"),
    ], ids=["nan-conv-weight", "inf-dense-bias", "pool-stride-0", "pool-window-0",
            "pool-window-too-large", "trailing-bytes", "channel-mismatch", "dense-length"])
    def test_file_that_cannot_run_is_format_error(self, tmp_path, fields, message):
        path = tmp_path / "bad.fnet"
        path.write_bytes(fnet_bytes(**fields))
        with pytest.raises(FormatError, match=message):
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
        sm = score_matrix(np.array([[1.0, 2.0, -3.0], [0.5, -1.0, 4.0]]), [0, 1])
        assert np.diag(sm.scores) == pytest.approx(np.ones(2))

    def test_orthogonal(self):
        sm = score_matrix(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), [0, 1])
        assert sm.scores[0, 1] == pytest.approx(0.0)

    def test_hand_example(self):
        sm = score_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]), [0, 1])
        assert sm.scores[0, 1] == pytest.approx(0.8)

    def test_l2_normalize_zero_rows_pass_through(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0]])
        out = l2_normalize(x)
        assert np.array_equal(out[0], [0.0, 0.0])
        assert np.allclose(out[1], [0.6, 0.8])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("row", [[3e38, 3e38], [np.inf, 0.0], [np.nan, 1.0]],
                             ids=["overflow", "inf", "nan"])
    def test_l2_normalize_non_finite_norm_is_format_error(self, row):
        x = np.array([[3.0, 4.0], row], dtype=np.float32)
        with pytest.raises(FormatError, match="a row's L2 norm is not finite"):
            l2_normalize(x)
