import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advface import featnet, mitigator
from advface.detector import DetectorModel, compute_mean_reps, train_detector
from advface.distortions import DistortionSpec, apply_grids, apply_xmsb
from advface.featnet import FilterMask, LayerDef, NetworkModel, default_network, forward_batch
from advface.imagecore import FormatError, Image, median_filter_array
from advface.mitigator import (
    MitigationPlan,
    SensitivityTable,
    build_plan,
    compute_sensitivity,
    grid_search_plan,
    load_table,
    mitigate_batch,
    save_plan,
    save_table,
)
from advface.synthface import Dataset, DatasetItem, generate_dataset

from conftest import pool_between_convs, relu_pool_relu
from oracles import naive_conv, sensitivity_loop


def _conv_maps(model, batch):
    """The default net's first four taps as (N, O, H', W') post-ReLU conv maps."""
    _, taps = forward_batch(model, batch)
    return [t.reshape(len(batch), o, s, s)
            for t, o, s in zip(taps[:4], model.conv_filter_counts(), (64, 32, 16, 8))]


def table_from(rows, n_dis=1):
    return SensitivityTable(tuple(np.asarray(r, dtype=np.float64) for r in rows), n_dis)


@pytest.fixture(scope="module")
def pairs_300():
    clean = generate_dataset(30, 10, 64, seed=21)
    return [((apply_grids(it.image, DistortionSpec("grids", rho_grids=4, seed=i)) if i % 2
              else apply_xmsb(it.image, DistortionSpec("xmsb", phi=(0.05, 0.05, 0.1),
                                                       seed=i)))[0], it.image)
            for i, it in enumerate(clean.items)]


def _response_net(name):
    """The default net 43, or net (A) or (B) under a dense head, with a function
    giving each conv's (N, O, H', W') response maps of a batch."""
    if name == "default":
        model = default_network(43)
        return model, lambda batch: _conv_maps(model, batch)
    rng = np.random.default_rng(9)
    body, responses = {"relu-pool-relu": relu_pool_relu,
                       "pool-between-convs": pool_between_convs}[name](rng)
    layers = body + (LayerDef("flatten"),
                     LayerDef("dense", rng.standard_normal((8, 4 * 32 * 32)).astype(np.float32),
                              np.zeros(8, np.float32)),
                     LayerDef("l2norm"))

    def maps(batch):  # each response from a network cut right after it
        return [forward_batch(NetworkModel(layers[:end], (end - 1,), (64, 64, 1)), batch)[1][0]
                .reshape(len(batch), *shape) for end, shape in responses]

    return NetworkModel(layers, (3, 5), (64, 64, 1)), maps


@pytest.fixture(scope="module", params=["default", "relu-pool-relu", "pool-between-convs"])
def response_maps(request, pairs_300):
    model, maps = _response_net(request.param)
    return (model, *(maps(np.stack([p[k].pixels for p in pairs_300])) for k in (0, 1)))


@pytest.fixture(scope="module")
def loop_tables(response_maps):
    """sensitivity_loop's table of each prefix of pairs_300 that the chunk test checks."""
    _, maps_d, maps_c = response_maps
    return {n: sensitivity_loop([m[:n] for m in maps_d], [m[:n] for m in maps_c], chunk=128)
            for n in (1, 127, 128, 129, 257, 300)}


class TestSensitivity:
    def test_identical_pairs_give_zero(self, default_model, small_dataset):
        imgs = [it.image for it in small_dataset.items[:3]]
        table = compute_sensitivity(default_model, [(im, im) for im in imgs])
        for row in table.eps:
            assert (row == 0).all()
        assert table.n_dis == 3

    def test_doubling_pairs_doubles_scores(self, default_model, small_dataset):
        a, b = small_dataset.items[0].image, small_dataset.items[1].image
        t1 = compute_sensitivity(default_model, [(a, b)])
        t2 = compute_sensitivity(default_model, [(a, b), (a, b)])
        for r1, r2 in zip(t1.eps, t2.eps):
            assert np.allclose(r2, 2 * r1, rtol=1e-10)

    def test_single_filter_matches_naive_conv_norm_oracle(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
        bias = rng.standard_normal(1).astype(np.float32)
        layers = (LayerDef("conv", w, bias, stride=1, pad=1), LayerDef("relu"),
                  LayerDef("flatten"), LayerDef("l2norm"))
        model = NetworkModel(layers, (1,), (6, 6, 1))
        d = rng.integers(0, 256, size=(6, 6, 1), dtype=np.uint8)
        c = rng.integers(0, 256, size=(6, 6, 1), dtype=np.uint8)
        table = compute_sensitivity(model, [(Image(d), Image(c))])
        md = np.maximum(naive_conv(d[:, :, 0][None] / 255.0, w, bias, 1, 1), 0)
        mc = np.maximum(naive_conv(c[:, :, 0][None] / 255.0, w, bias, 1, 1), 0)
        expected = np.sqrt(((md - mc) ** 2).sum())
        assert table.eps[0][0] == pytest.approx(expected, abs=1e-5)

    def test_bitwise_equals_row_major_loop_across_chunk(self):
        # 160 pairs cross the 128-pair chunk; the float64 sums must add each
        # filter's squares in row-major (h, w) order, whatever the map layout
        model = default_network(43)
        clean = generate_dataset(40, 4, 64, seed=21)
        pairs = []
        for i, it in enumerate(clean.items):
            dist = (apply_grids(it.image, DistortionSpec("grids", rho_grids=4, seed=i)) if i % 2
                    else apply_xmsb(it.image, DistortionSpec("xmsb", phi=(0.05, 0.05, 0.1),
                                                             seed=i)))[0]
            pairs.append((dist, it.image))
        assert len(pairs) == 160
        table = compute_sensitivity(model, pairs)
        # the default net taps each conv's ReLU first: those four taps are the responses
        maps_d, maps_c = (_conv_maps(model, np.stack([p[k].pixels for p in pairs]))
                          for k in (0, 1))
        want = sensitivity_loop(maps_d, maps_c, chunk=128)
        for got, exp in zip(table.eps, want):
            assert got.dtype == np.float64
            assert np.array_equal(got, exp)

    def test_empty_pairs_rejected(self, default_model):
        with pytest.raises(ValueError, match="at least one"):
            compute_sensitivity(default_model, [])

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 255, 256, 257, 300])
    def test_equals_the_loop_at_every_pair_count(self, response_maps, pairs_300,
                                                 monkeypatch, n):
        model, maps_d, maps_c = response_maps
        want = sensitivity_loop([m[:n] for m in maps_d], [m[:n] for m in maps_c], chunk=128)
        for workers in (1, 2):
            monkeypatch.setattr(featnet, "_WORKERS", workers)
            table = compute_sensitivity(model, pairs_300[:n])
            assert len(table.eps) == len(want)
            for got, exp in zip(table.eps, want):
                assert np.array_equal(got, exp)

    def test_pairs_share_full_chunks_of_the_network_tapped_at_its_responses(
            self, pairs_300, forwards):
        net = default_network(43)
        compute_sensitivity(net, pairs_300)
        # the whole network runs, tapped at the ReLU after each conv and nowhere else
        assert [(n, len(model.layers)) for model, n in forwards] == [(256, 14), (256, 14),
                                                                     (88, 14)]
        assert all(model.tap_points == (1, 4, 7, 10) and model.layers is net.layers
                   for model, _ in forwards)

    def test_every_forward_returns_the_embeddings_alone(self, pairs_300, monkeypatch):
        # an (n, 64) matrix, not the (n, 32, 8, 8) map of the last response
        shapes = []
        real = featnet.forward_batch

        def spy(model, images, *args):
            emb, taps = real(model, images, *args)
            shapes.append((emb.shape, len(taps)))
            return emb, taps

        monkeypatch.setattr(featnet, "forward_batch", spy)
        compute_sensitivity(default_network(43), pairs_300)
        assert shapes == [((256, 64), 0), ((256, 64), 0), ((88, 64), 0)]

    @pytest.mark.parametrize("chunk", [2, 6, 64, 100, 256, 512])
    def test_table_is_the_same_for_every_even_chunk_size(self, response_maps, loop_tables,
                                                         pairs_300, monkeypatch, chunk):
        monkeypatch.setattr(featnet, "FORWARD_CHUNK", chunk)
        for n, want in loop_tables.items():
            table = compute_sensitivity(response_maps[0], pairs_300[:n])
            assert len(table.eps) == len(want)
            for got, exp in zip(table.eps, want):
                assert np.array_equal(got, exp)

    def test_no_block_splits_a_pair(self, default_model, pairs_300, monkeypatch):
        # blocks of _CONV_BLOCK rows within chunks of FORWARD_CHUNK rows, both even,
        # start at even rows of the even-length batch
        assert featnet.FORWARD_CHUNK % 2 == 0 and featnet._CONV_BLOCK % 2 == 0
        sizes, scratches = [], set()
        real = mitigator._pair_norms

        def spy(t, out, scratch):
            sizes.append((len(t), len(out)))
            scratches.add(id(scratch))  # one buffer, made by the caller, serves every call
            real(t, out, scratch)

        monkeypatch.setattr(mitigator, "_pair_norms", spy)
        compute_sensitivity(default_model, pairs_300[:13])
        assert sorted(sizes) == [(2, 1)] * 4 + [(8, 4)] * 12
        assert len(scratches) == 1

    def test_network_without_conv_is_refused_before_any_forward(self, small_dataset, forwards):
        model = NetworkModel((LayerDef("flatten"),), (0,), (64, 64, 1))
        img = small_dataset.items[0].image
        with pytest.raises(ValueError, match="no conv layer"):
            compute_sensitivity(model, [(img, img)])
        assert forwards == []


class TestSensitivityTable:
    def test_negative_scores_rejected(self):
        with pytest.raises(ValueError, match="finite and non-negative"):
            table_from([[1.0, -0.5]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite and non-negative"):
            table_from([[np.inf]])

    def test_n_dis_validated(self):
        with pytest.raises(ValueError, match="n_dis"):
            table_from([[1.0]], n_dis=0)

    @pytest.mark.parametrize("rows", [[], [[]], [[1.0], []]], ids=["no-layer", "no-filter",
                                                                   "second-layer-no-filter"])
    def test_table_with_no_layer_or_an_empty_layer_rejected(self, rows):
        with pytest.raises(ValueError, match="at least one layer, each with at least one filter"):
            table_from(rows)

    def test_json_round_trip(self, tmp_path):
        t = table_from([[1.5, 0.5], [2.25]], n_dis=7)
        save_table(t, tmp_path / "t.json")
        back = load_table(tmp_path / "t.json")
        assert back.n_dis == 7
        for a, b in zip(back.eps, t.eps):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("layer_agg", [[3.0, 0.5], [99.0]], ids=["agrees", "disagrees"])
    def test_file_with_an_aggregate_copy_loads_as_without(self, tmp_path, layer_agg):
        # files written before the aggregate was dropped from the format still hold it
        save_table(table_from([[1.0, 2.0], [0.5]], n_dis=4), tmp_path / "t.json")
        doc = json.loads((tmp_path / "t.json").read_text())
        assert set(doc) == {"eps", "n_dis"}
        (tmp_path / "old.json").write_text(json.dumps({**doc, "layer_agg": layer_agg}))
        save_table(load_table(tmp_path / "old.json"), tmp_path / "back.json")
        assert json.loads((tmp_path / "back.json").read_text()) == doc

    def test_file_round_trip(self, tmp_path):
        t = table_from([[1.0, 2.0], [0.5]], n_dis=3)
        save_table(t, tmp_path / "t.json")
        back = load_table(tmp_path / "t.json")
        assert back.n_dis == 3
        assert np.array_equal(back.eps[0], t.eps[0])


class TestBuildPlan:
    def test_kappa_zero_empty_mask(self):
        plan = build_plan(table_from([[1.0, 2.0], [3.0]]), eta=2, kappa=0.0)
        assert plan.mask.disabled == frozenset()

    def test_kappa_one_eta_all_disables_everything(self):
        plan = build_plan(table_from([[1.0, 2.0], [3.0, 4.0]]), eta=2, kappa=1.0)
        assert plan.mask.disabled == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_top_layer_top_filters_selected(self):
        # second layer dominates the aggregate; kappa=0.5 takes its 2 largest
        t = table_from([[3.0], [1.0, 9.0, 5.0, 2.0]])
        plan = build_plan(t, eta=1, kappa=0.5)
        assert plan.mask.disabled == {(1, 1), (1, 2)}

    def test_layers_ranked_by_row_sum_not_row_max(self):
        # layer 0 holds the largest score, layer 1 the larger sum
        plan = build_plan(table_from([[5.0], [3.0, 4.0]]), eta=1, kappa=0.5)
        assert plan.mask.disabled == {(1, 1)}

    def test_ceiling_takes_at_least_one_filter(self):
        t = table_from([[5.0], [1.0, 2.0, 3.0]])
        plan = build_plan(t, eta=2, kappa=0.01)
        assert plan.mask.disabled == {(0, 0), (1, 2)}

    def test_layer_ties_broken_by_smaller_index(self):
        t = table_from([[2.0, 2.0], [4.0]])
        plan = build_plan(t, eta=1, kappa=1.0)
        assert plan.mask.disabled == {(0, 0), (0, 1)}

    def test_filter_ties_broken_by_smaller_index(self):
        t = table_from([[7.0, 7.0, 7.0]])
        plan = build_plan(t, eta=1, kappa=1 / 3)
        assert plan.mask.disabled == {(0, 0)}

    def test_eta_out_of_range(self):
        t = table_from([[1.0]])
        for eta in (0, 2):
            with pytest.raises(ValueError, match="eta"):
                build_plan(t, eta=eta, kappa=0.5)

    def test_kappa_out_of_range(self):
        with pytest.raises(ValueError, match="kappa"):
            build_plan(table_from([[1.0]]), eta=1, kappa=1.2)

    def test_infinite_kappa_is_a_value_error(self):
        with pytest.raises(ValueError, match="kappa"):
            build_plan(table_from([[1.0]]), eta=1, kappa=float("inf"))

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_plan_monotone_in_kappa(self, seed):
        rng = np.random.default_rng(seed)
        rows = [rng.uniform(0, 10, size=int(rng.integers(1, 9)))
                for _ in range(int(rng.integers(1, 5)))]
        t = table_from(rows)
        eta = int(rng.integers(1, len(rows) + 1))
        k1, k2 = sorted(rng.uniform(0, 1, size=2))
        p1 = build_plan(t, eta, float(k1))
        p2 = build_plan(t, eta, float(k2))
        assert p1.mask.disabled <= p2.mask.disabled


class TestMitigate:
    def test_empty_plan_without_median_is_plain_forward(self, default_model, small_dataset):
        batch = small_dataset.pixel_batch()[:2]
        plan = MitigationPlan(1, 0.0, FilterMask(), use_median_filter=False)
        emb = mitigate_batch(default_model, plan, batch)
        plain, _ = forward_batch(default_model, batch)
        assert np.array_equal(emb, plain)

    def test_median_applied_before_masked_forward(self, default_model, small_dataset):
        batch = small_dataset.pixel_batch()[:2]
        mask = FilterMask(frozenset({(0, 1)}))
        emb = mitigate_batch(default_model, MitigationPlan(1, 0.1, mask), batch)
        expected, _ = forward_batch(default_model.masked(mask), median_filter_array(batch, 5))
        assert np.array_equal(emb, expected)

    def test_embedding_unit_norm_or_zero(self, default_model, small_dataset):
        counts = default_model.conv_filter_counts()
        half = FilterMask(frozenset((li, j) for li, n in enumerate(counts)
                                    for j in range(n // 2)))
        emb = mitigate_batch(default_model, MitigationPlan(4, 0.5, half),
                             small_dataset.pixel_batch()[:2])
        for norm in np.linalg.norm(emb, axis=1):
            assert norm == pytest.approx(1.0, abs=1e-5) or norm == 0.0

    def test_full_mask_gives_zero_embedding(self, default_model, small_dataset):
        counts = default_model.conv_filter_counts()
        full = FilterMask(frozenset((li, j) for li, n in enumerate(counts)
                                    for j in range(n)))
        emb = mitigate_batch(default_model, MitigationPlan(4, 1.0, full),
                             small_dataset.pixel_batch()[:2])
        assert (emb == 0).all()

    def test_batch_matches_single(self, default_model, small_dataset):
        batch = small_dataset.pixel_batch()[:3]
        plan = MitigationPlan(1, 0.1, FilterMask(frozenset({(0, 1)})))
        out = mitigate_batch(default_model, plan, batch)
        for i in range(3):
            single = mitigate_batch(default_model, plan, batch[i : i + 1])[0]
            # batched float32 forward passes round slightly differently
            assert np.allclose(out[i], single, atol=1e-5)

    def test_invalid_mask_rejected(self, default_model, small_dataset, monkeypatch):
        calls = []
        monkeypatch.setattr(mitigator, "median_filter_array",
                            lambda batch, size: calls.append(batch.shape[0]))
        plan = MitigationPlan(1, 0.1, FilterMask(frozenset({(9, 0)})))
        with pytest.raises(ValueError, match="references no conv filter"):
            mitigate_batch(default_model, plan,
                           small_dataset.items[0].image.pixels[None])
        assert calls == []


class TestPlanPersistence:
    def test_json_round_trip(self, tmp_path):
        plan = MitigationPlan(2, 0.25, FilterMask(frozenset({(0, 1), (1, 3)})),
                              use_median_filter=False)
        save_plan(plan, tmp_path / "p.json")
        back = MitigationPlan.from_json_file(tmp_path / "p.json")
        assert back == plan

    def test_json_fields(self, tmp_path):
        plan = MitigationPlan(1, 0.1, FilterMask(frozenset({(0, 2)})))
        save_plan(plan, tmp_path / "p.json")
        doc = json.loads((tmp_path / "p.json").read_text())
        assert doc == {"eta": 1, "kappa": 0.1, "mask": [[0, 2]],
                       "use_median_filter": True}


class TestPlanRange:
    @pytest.mark.parametrize("eta, kappa", [(0, 0.1), (-5, 7.5), (1, -0.1), (1, 1.5),
                                            (1, float("nan"))])
    def test_out_of_range_plan_rejected(self, eta, kappa):
        with pytest.raises(ValueError, match=r"need eta >= 1 and kappa in \[0, 1\]"):
            MitigationPlan(eta, kappa, FilterMask())

    def test_out_of_range_plan_file_is_format_error(self, tmp_path):
        (tmp_path / "p.json").write_text(json.dumps({"eta": -5, "kappa": 7.5, "mask": []}))
        with pytest.raises(FormatError, match="mitigation plan: need eta >= 1"):
            MitigationPlan.from_json_file(tmp_path / "p.json")


class TestGridSearch:
    @staticmethod
    def _flag_all_detector(model, ds):
        reps = compute_mean_reps(model, ds.pixel_batch())
        n = len(reps.means)
        # always-positive score: every image is flagged and mitigated
        return DetectorModel(np.zeros(n), 1.0, 1.0, np.zeros(n), np.ones(n), reps)

    def test_single_cell_grid_returns_that_plan(self, default_model, small_dataset):
        imgs = [it.image for it in small_dataset.items]
        table = compute_sensitivity(
            default_model, [(imgs[0], imgs[1]), (imgs[2], imgs[3])])
        det = self._flag_all_detector(default_model, small_dataset)
        spec = DistortionSpec("grids", seed=1)
        plan = grid_search_plan(default_model, table, small_dataset, [spec], {spec.kind: det},
                                eta_grid=[2], kappa_grid=[0.25], seed=0)
        assert plan == build_plan(table, 2, 0.25)

    def test_selected_plan_beats_least_intervention_baseline(
            self, default_model, small_dataset):
        from advface import verifybench

        imgs = [it.image for it in small_dataset.items]
        table = compute_sensitivity(
            default_model, [(imgs[0], imgs[1]), (imgs[2], imgs[3])])
        det = self._flag_all_detector(default_model, small_dataset)
        specs = [DistortionSpec("grids", seed=1), DistortionSpec("xmsb", seed=1)]
        # with kappa=0 in the grid, the argmax contract guarantees the chosen
        # plan is at least as good as the least-intervention baseline
        plan = grid_search_plan(default_model, table, small_dataset, specs,
                                {s.kind: det for s in specs},
                                eta_grid=[1, 2], kappa_grid=[0.0, 0.1, 0.5], seed=3)
        assert (plan.eta, plan.kappa) in {(e, k) for e in (1, 2)
                                          for k in (0.0, 0.1, 0.5)}
        baseline = build_plan(table, 1, 0.0)
        ids = np.array([it.subject_id for it in small_dataset.items])
        corrected = [verifybench.defended_embeddings(default_model, small_dataset,
                                                     s, det, [plan, baseline], seed=3)[1]
                     for s in specs]
        assert all(len(per_plan) == 2 for per_plan in corrected)

        def mean_gar(k):
            return np.mean([verifybench._gar_from_embeddings(per_plan[k], ids, 0.01)
                            for per_plan in corrected])

        assert mean_gar(0) >= mean_gar(1)

    @pytest.mark.parametrize("etas, kappas", [([1], [0.1]), ([1, 2, 3], [0.0, 0.1, 0.5])],
                             ids=["1x1", "3x3"])
    def test_median_runs_once_per_spec_whatever_the_grid(self, default_model, small_dataset,
                                                         monkeypatch, etas, kappas):
        table = table_from([[1.0] * n for n in default_model.conv_filter_counts()])
        det = self._flag_all_detector(default_model, small_dataset)
        specs = [DistortionSpec("grids", seed=1), DistortionSpec("xmsb", seed=1)]
        calls = []

        def counting(batch, size):
            calls.append(batch.shape[0])
            return median_filter_array(batch, size)

        monkeypatch.setattr(mitigator, "median_filter_array", counting)
        grid_search_plan(default_model, table, small_dataset, specs,
                         {s.kind: det for s in specs}, etas, kappas)
        assert calls == [len(small_dataset)] * len(specs)

    @pytest.mark.parametrize("use_median", [True, False], ids=["median", "no-median"])
    def test_protocol_correction_is_mitigate_batch(self, default_model, small_dataset,
                                                   use_median):
        # with every image flagged, the protocol's corrected matrix is the
        # single-plan correction of the whole distorted set, bit for bit
        from advface import verifybench

        det = self._flag_all_detector(default_model, small_dataset)
        spec = DistortionSpec("grids", seed=1)
        plan = MitigationPlan(1, 0.25, FilterMask({(0, 0), (1, 3)}), use_median)
        plain, (corrected,) = verifybench.defended_embeddings(default_model, small_dataset,
                                                              spec, det, [plan])
        mixed = verifybench._distorted_copy(small_dataset, spec, 0.5, 0)
        assert (corrected != plain).any(axis=1).all()
        assert np.array_equal(corrected, mitigate_batch(default_model, plan, mixed))

    def test_equal_scores_pick_the_smallest_kappa_then_eta(self, default_model,
                                                           small_dataset):
        reps = compute_mean_reps(default_model, small_dataset.pixel_batch())
        n = len(reps.means)
        # an always-negative score flags nothing, so every plan leaves the
        # undefended embeddings and all nine candidates score the same GAR
        det = DetectorModel(np.zeros(n), -1.0, 1.0, np.zeros(n), np.ones(n), reps)
        table = table_from([np.arange(c, dtype=float) * (i + 1)
                            for i, c in enumerate(default_model.conv_filter_counts())])
        specs = [DistortionSpec("grids", seed=1), DistortionSpec("xmsb", seed=1)]
        plan = grid_search_plan(default_model, table, small_dataset, specs,
                                {s.kind: det for s in specs},
                                eta_grid=[3, 1, 2], kappa_grid=[0.5, 0.1, 0.25], seed=0)
        assert plan == build_plan(table, 1, 0.1)

    @pytest.mark.parametrize("grids, far, message", [
        (([9], [0.1]), 0.01, r"eta must be in \[1, 4\]"),
        (([1], [2.0]), 0.01, r"kappa in \[0, 1\]"),
        (([1], [0.1]), 0.0, r"far_target must be in \(0, 1\)"),
    ], ids=["eta-9", "kappa-2", "far-0"])
    def test_grid_and_far_checked_before_any_forward(self, default_model, small_dataset,
                                                      forwards, grids, far, message):
        table = table_from([[1.0] * n for n in default_model.conv_filter_counts()])
        det = self._flag_all_detector(default_model, small_dataset)
        forwards.clear()  # building the detector forwards
        with pytest.raises(ValueError, match=message):
            grid_search_plan(default_model, table, small_dataset, [DistortionSpec("grids")],
                             {"grids": det}, *grids, far_target=far)
        assert forwards == []

    @pytest.mark.parametrize("flags", ["trained", "no-image"])
    def test_table_of_another_network_rejected_before_any_forward(
            self, default_model, small_dataset, monkeypatch, flags):
        # a table of 64 filters per conv names filters the default network lacks
        table = table_from([[1.0] * 64] * 4)
        spec = DistortionSpec("grids", seed=1)
        clean = small_dataset.pixel_batch()
        reps = compute_mean_reps(default_model, clean)
        distorted = np.stack([apply_grids(it.image, DistortionSpec("grids", rho_grids=8,
                                                                   seed=i))[0].pixels
                              for i, it in enumerate(small_dataset.items)])
        det = train_detector(default_model, reps, clean, distorted, seed=0)
        if flags == "no-image":
            det = dataclasses.replace(det, b=-1e6)
        forwarded = []
        monkeypatch.setattr(featnet, "forward_batch", lambda *args: forwarded.append(args))
        with pytest.raises(FormatError, match=r"^mitigation plan: mask entry \(0, \d+\) "
                                              "references no conv filter$"):
            grid_search_plan(default_model, table, small_dataset, [spec], {spec.kind: det},
                             [1], [0.5])
        assert forwarded == []

    def test_missing_detector_kind_checked_before_any_forward(self, default_model,
                                                               small_dataset, monkeypatch):
        table = table_from([[1.0] * n for n in default_model.conv_filter_counts()])
        det = self._flag_all_detector(default_model, small_dataset)
        forwarded = []
        monkeypatch.setattr(featnet, "forward_batch", lambda *args: forwarded.append(args))
        specs = [DistortionSpec("grids"), DistortionSpec("beard")]
        with pytest.raises(ValueError, match=r"no detector for distortion kinds \['beard'\]"):
            grid_search_plan(default_model, table, small_dataset, specs, {"grids": det},
                             [1], [0.1])
        assert forwarded == []

    @pytest.mark.parametrize("subject, message", [
        (lambda i: 0, "training dataset must span at least 2 subjects"),
        (lambda i: i, "need at least one genuine and one impostor pair"),
    ], ids=["one-subject", "one-image-per-subject"])
    def test_set_with_no_genuine_pair_rejected_before_any_forward(
            self, default_model, small_dataset, monkeypatch, subject, message):
        from advface.verifybench import ProtocolError

        table = table_from([[1.0] * n for n in default_model.conv_filter_counts()])
        det = self._flag_all_detector(default_model, small_dataset)
        ds = Dataset(tuple(DatasetItem(it.image, it.landmarks, subject(i), 0)
                           for i, it in enumerate(small_dataset.items[:4])), 0)
        forwarded = []
        monkeypatch.setattr(featnet, "forward_batch", lambda *args: forwarded.append(args))
        with pytest.raises(ProtocolError, match=message):
            grid_search_plan(default_model, table, ds, [DistortionSpec("grids")],
                             {"grids": det}, [1], [0.1])
        assert forwarded == []

    def test_empty_grid_rejected(self, default_model, small_dataset):
        table = table_from([[1.0] * n for n in default_model.conv_filter_counts()])
        det = self._flag_all_detector(default_model, small_dataset)
        with pytest.raises(ValueError, match="non-empty"):
            grid_search_plan(default_model, table, small_dataset,
                             [DistortionSpec("grids")], {"grids": det}, [], [0.1])
