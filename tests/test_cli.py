import argparse
import json
import shutil
import struct
import sys
import threading

import numpy as np
import pytest

from advface import cli, distortions, featnet
from advface.cli import main
from advface.detector import (DetectorModel, MeanReps, load_mean_reps, save_detector,
                              save_mean_reps)
from advface.featnet import LayerDef, NetworkModel
from advface.imagecore import Image, read_image, write_image
from advface.mitigator import load_table
from advface.synthface import Dataset, load_dataset, save_dataset

from conftest import fnet_bytes, overflowing_network, pool_between_convs, relu_pool_relu
from oracles import sensitivity_loop


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small end-to-end run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run("gen-data", "--subjects", 2, "--samples", 2, "--size", 64,
               "--seed", 3, "--out", data) == 0

    spec = root / "xmsb.json"
    spec.write_text(json.dumps({"kind": "xmsb", "phi": [0.05, 0.05, 0.1], "seed": 11}))
    distorted = root / "distorted"
    assert run("distort", "--spec", spec, "--in", data, "--out", distorted) == 0

    extracted = root / "extracted"
    assert run("extract", "--net-seed", 1, "--dataset", data, "--out", extracted) == 0

    det_dir = root / "det"
    assert run("train-detector", "--net-seed", 1,
               "--mean-reps", extracted / "mean_reps.mrep",
               "--clean", data, "--distorted", distorted,
               "--seed", 5, "--out", det_dir) == 0

    table = root / "table.json"
    assert run("sensitivity", "--net-seed", 1, "--clean", data,
               "--distorted", distorted, "--out", table) == 0

    plan = root / "plan.json"
    assert run("build-plan", "--table", table, "--eta", 1, "--kappa", 0.25,
               "--out", plan) == 0
    return {"root": root, "data": data, "spec": spec, "distorted": distorted,
            "extracted": extracted, "detector": det_dir / "detector.json",
            "table": table, "plan": plan}


class TestSubcommands:
    def test_gen_data_outputs(self, pipeline):
        pgms = sorted(pipeline["data"].glob("*.pgm"))
        assert len(pgms) == 4
        assert (pipeline["data"] / "manifest.json").exists()

    def test_distort_outputs(self, pipeline):
        assert len(list(pipeline["distorted"].glob("*.pgm"))) == 4
        records = json.loads((pipeline["distorted"] / "records.json").read_text())
        assert len(records) == 4
        assert all(r["spec"]["kind"] == "xmsb" for r in records)

    @pytest.mark.parametrize("doc", [
        {"kind": "ero", "psi": 5, "seed": 7},
        {"kind": "beard", "seed": 2},
        {"kind": "xmsb", "phi": [0, 0.05, 0.1], "seed": 3},
        {"kind": "grids", "rho_grids": 3, "seed": 4},
    ], ids=["ero", "beard", "xmsb-int-phi", "grids"])
    def test_records_name_the_applied_spec(self, pipeline, tmp_path, doc):
        (tmp_path / "spec.json").write_text(json.dumps(doc))
        assert run("distort", "--spec", tmp_path / "spec.json", "--in", pipeline["data"],
                   "--out", tmp_path / "out") == 0
        records = json.loads((tmp_path / "out" / "records.json").read_text())
        spec = distortions.DistortionSpec.from_json_dict(doc)
        items = load_dataset(pipeline["data"]).items
        assert [r["index"] for r in records] == list(range(len(items)))
        for i, (r, item) in enumerate(zip(records, items)):
            applied = distortions.per_image_spec(spec, i)
            assert r["spec"] == applied.to_json_dict()
            if doc["kind"] in ("ero", "beard"):
                assert r["spec"]["seed"] == doc["seed"]  # the file's seed, not 0
            assert r["affected_pixel_count"] == distortions.apply(
                applied, item.image, item.landmarks)[1]
        if doc["kind"] == "xmsb":
            assert records[0]["spec"]["phi"] == [0, 0.05, 0.1]  # written as given

    def test_subnormal_ero_psi_blacks_out_every_image(self, pipeline, tmp_path):
        (tmp_path / "spec.json").write_text(json.dumps({"kind": "ero", "psi": 5e-324}))
        assert run("distort", "--spec", tmp_path / "spec.json", "--in", pipeline["data"],
                   "--out", tmp_path / "out") == 0
        pgms = sorted((tmp_path / "out").glob("*.pgm"))
        assert len(pgms) == 4
        assert all((read_image(p).pixels == 0).all() for p in pgms)

    def test_seeds_beyond_int64_load_back(self, pipeline, tmp_path):
        # gen-data and distort write seeds of any size; every later command reads them
        data = tmp_path / "data"
        assert run("gen-data", "--subjects", 2, "--samples", 2, "--size", 64,
                   "--seed", 2**63, "--out", data) == 0
        (tmp_path / "spec.json").write_text(json.dumps({"kind": "grids", "seed": 3}))
        assert run("distort", "--spec", tmp_path / "spec.json", "--in", data,
                   "--out", tmp_path / "out") == 0
        records = json.loads((tmp_path / "out" / "records.json").read_text())
        applied = next(r["spec"] for r in records if r["spec"]["seed"] >= 2**63)
        (tmp_path / "applied.json").write_text(json.dumps(applied))
        assert run("distort", "--spec", tmp_path / "applied.json", "--in", data,
                   "--out", tmp_path / "again") == 0

    def test_extract_outputs(self, pipeline):
        assert (pipeline["extracted"] / "network.fnet").exists()
        assert (pipeline["extracted"] / "mean_reps.mrep").exists()

    def test_detect_scores_an_image(self, pipeline, capsys):
        img = next(iter(sorted(pipeline["data"].glob("*.pgm"))))
        assert run("detect", "--net-seed", 1, "--detector", pipeline["detector"],
                   "--image", img) == 0
        out = capsys.readouterr().out.strip()
        path, score, verdict = out.split(",")
        float(score)
        assert verdict in ("clean", "distorted")

    @pytest.mark.parametrize("b, tail", [(0.0, ",0.000000,clean"),
                                         (1.0, ",1.000000,distorted")])
    def test_detect_verdict_is_distorted_iff_score_positive(self, pipeline, tmp_path,
                                                            capsys, b, tail):
        reps = load_mean_reps(pipeline["extracted"] / "mean_reps.mrep")
        n = len(reps.means)
        det = DetectorModel(np.zeros(n), b, 1.0, np.zeros(n), np.ones(n), reps)
        save_detector(det, tmp_path / "det.json", tmp_path / "reps.mrep")
        img = next(iter(sorted(pipeline["data"].glob("*.pgm"))))
        assert run("detect", "--net-seed", 1, "--detector", tmp_path / "det.json",
                   "--image", img) == 0
        assert capsys.readouterr().out == f"{img}{tail}\n"

    def test_mitigate_writes_embedding(self, pipeline, tmp_path):
        img = next(iter(sorted(pipeline["data"].glob("*.pgm"))))
        out = tmp_path / "emb.json"
        assert run("mitigate", "--net-seed", 1, "--plan", pipeline["plan"],
                   "--image", img, "--out", out) == 0
        emb = json.loads(out.read_text())
        assert len(emb) == 64

    @pytest.mark.parametrize("command", ["mitigate", "evaluate"])
    def test_mitigate_builds_one_masked_network(self, pipeline, tmp_path, monkeypatch,
                                                command):
        calls = []
        real = NetworkModel.masked

        def counting(self, mask):
            calls.append(mask)
            return real(self, mask)

        monkeypatch.setattr(NetworkModel, "masked", counting)
        img = next(iter(sorted(pipeline["data"].glob("*.pgm"))))
        args = {"mitigate": ["--image", img, "--out", tmp_path / "emb.json"],
                "evaluate": ["--dataset", pipeline["data"], "--distortion", pipeline["spec"],
                             "--detector", pipeline["detector"], "--out", tmp_path / "r.csv"]}
        assert run(command, "--net-seed", 1, "--plan", pipeline["plan"], *args[command]) == 0
        assert len(calls) == 1

    def test_evaluate_emits_three_condition_rows(self, pipeline, tmp_path):
        report = tmp_path / "report.csv"
        assert run("evaluate", "--net-seed", 1, "--dataset", pipeline["data"],
                   "--distortion", pipeline["spec"],
                   "--detector", pipeline["detector"], "--plan", pipeline["plan"],
                   "--seed", 2, "--out", report) == 0
        lines = report.read_text().strip().splitlines()
        assert len(lines) == 4
        assert [l.split(",")[0] for l in lines[1:]] == \
            ["original", "distorted", "corrected"]

    def test_detect_from_another_directory(self, pipeline, tmp_path, monkeypatch, capsys):
        # train with relative paths, then detect from a different cwd
        root = pipeline["root"]
        monkeypatch.chdir(root)
        assert run("train-detector", "--net-seed", 1,
                   "--mean-reps", pipeline["extracted"].relative_to(root) / "mean_reps.mrep",
                   "--clean", "data", "--distorted", "distorted",
                   "--seed", 5, "--out", "det_rel") == 0
        capsys.readouterr()
        img = next(iter(sorted(pipeline["data"].glob("*.pgm"))))
        assert run("detect", "--net-seed", 1, "--detector", pipeline["detector"],
                   "--image", img) == 0
        expected = capsys.readouterr().out
        monkeypatch.chdir(tmp_path)
        assert run("detect", "--net-seed", 1, "--detector", root / "det_rel" / "detector.json",
                   "--image", img) == 0
        assert capsys.readouterr().out == expected

    def test_weights_file_round_trip_through_cli(self, pipeline, tmp_path, capsys):
        img = next(iter(sorted(pipeline["data"].glob("*.pgm"))))
        assert run("detect", "--weights", pipeline["extracted"] / "network.fnet",
                   "--detector", pipeline["detector"], "--image", img) == 0
        out_weights = capsys.readouterr().out
        assert run("detect", "--net-seed", 1, "--detector", pipeline["detector"],
                   "--image", img) == 0
        assert capsys.readouterr().out == out_weights


class TestSensitivityResponses:
    """`advface sensitivity` scores each conv on its own response: the ReLU
    right after it, or the conv output when no ReLU follows."""

    @pytest.mark.parametrize("build", [relu_pool_relu, pool_between_convs],
                             ids=["relu-pool-relu", "pool-between-convs"])
    def test_each_row_is_its_convs_response(self, pipeline, tmp_path, build):
        rng = np.random.default_rng(9)
        body, responses = build(rng)
        head = (LayerDef("flatten"),
                LayerDef("dense", rng.standard_normal((8, 4 * 32 * 32)).astype(np.float32),
                         np.zeros(8, np.float32)),
                LayerDef("l2norm"))
        layers = body + head
        featnet.save_weights(NetworkModel(layers, (3, 5), (64, 64, 1)), tmp_path / "net.fnet")
        assert run("sensitivity", "--weights", tmp_path / "net.fnet",
                   "--clean", pipeline["data"], "--distorted", pipeline["distorted"],
                   "--out", tmp_path / "table.json") == 0
        table = load_table(tmp_path / "table.json")

        # each response from a network cut right after it, tapped at its last layer
        batches = [load_dataset(pipeline[k]).pixel_batch() for k in ("distorted", "data")]
        maps_d, maps_c = ([featnet.forward_batch(
            NetworkModel(layers[:end], (end - 1,), (64, 64, 1)), b)[1][0].reshape(len(b), *shape)
                           for end, shape in responses] for b in batches)
        want = sensitivity_loop(maps_d, maps_c, chunk=128)
        assert all(row.any() for row in want)
        assert len(table.eps) == len(want)
        for got, exp in zip(table.eps, want):
            assert np.array_equal(got, exp)


class TestDeterminism:
    def test_gen_data_is_byte_identical(self, tmp_path):
        for d in ("a", "b"):
            assert run("gen-data", "--subjects", 2, "--samples", 2, "--size", 64,
                       "--seed", 8, "--out", tmp_path / d) == 0
        for fa in sorted((tmp_path / "a").iterdir()):
            assert fa.read_bytes() == (tmp_path / "b" / fa.name).read_bytes()


class TestProcessCache:
    def test_seeded_network_is_one_object_per_seed(self):
        def load(seed):
            return cli._load_network(argparse.Namespace(weights=None, net_seed=seed))

        a = load(5)
        assert load(5) is a
        b = load(6)
        assert b is not a and load(6) is b
        assert not np.array_equal(a.layers[0].weights, b.layers[0].weights)

    def test_weights_file_is_read_on_every_call(self, pipeline):
        args = argparse.Namespace(weights=pipeline["extracted"] / "network.fnet", net_seed=None)
        assert cli._load_network(args) is not cli._load_network(args)

    def test_repeated_detect_and_mitigate_print_the_same_bytes(self, pipeline, tmp_path,
                                                               capsys):
        cli._seeded_network.cache_clear()  # the first call below builds the network
        img = next(iter(sorted(pipeline["data"].glob("*.pgm"))))
        outs = []
        for i in range(3):
            assert run("detect", "--net-seed", 1, "--detector", pipeline["detector"],
                       "--image", img) == 0
            emb = tmp_path / f"emb{i}.json"
            assert run("mitigate", "--net-seed", 1, "--plan", pipeline["plan"],
                       "--image", img, "--out", emb) == 0
            outs.append((capsys.readouterr().out.replace(str(emb), "EMB"), emb.read_bytes()))
        assert cli._seeded_network.cache_info().misses == 1
        assert outs[1] == outs[0] and outs[2] == outs[0]

    def test_concurrent_mitigate_calls_share_parsers_and_network(self, pipeline, tmp_path):
        img = next(iter(sorted(pipeline["data"].glob("*.pgm"))))

        def mitigate(out):
            return run("mitigate", "--net-seed", 2, "--plan", pipeline["plan"],
                       "--image", img, "--out", out)

        cli._seeded_network.cache_clear()
        codes = {}
        threads = [threading.Thread(target=lambda i=i: codes.update(
                       {i: mitigate(tmp_path / f"emb{i}.json")})) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert codes == {i: 0 for i in range(8)}
        cli._seeded_network.cache_clear()
        assert mitigate(tmp_path / "serial.json") == 0
        want = (tmp_path / "serial.json").read_bytes()
        assert all((tmp_path / f"emb{i}.json").read_bytes() == want for i in range(8))

    def test_non_integer_net_seed_from_config_is_usage_error(self, pipeline, tmp_path,
                                                             capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"net_seed": 1.0}))
        img = next(iter(sorted(pipeline["data"].glob("*.pgm"))))
        assert run("--config", cfg, "detect", "--detector", pipeline["detector"],
                   "--image", img) == 1
        err = capsys.readouterr().err
        assert err == "usage error: --net-seed must be an integer, got 1.0\n"


# a config key or value the flags refuse, and the usage error naming it
_REFUSED_CONFIGS = [
    ({"net_sed": 1}, "config key 'net_sed' names no flag"),
    ({"inp": "data"}, "config key 'inp' names no flag"),
    ({"c_grid": 5}, "--c-grid must be a non-empty list, each a number, got 5"),
    ({"c_grid": []}, "--c-grid must be a non-empty list, each a number, got []"),
    ({"eta": 2.5}, "--eta must be an integer, got 2.5"),
    ({"far": [0.1]}, "--far must be a number, got [0.1]"),
    ({"subjects": 2.5}, "--subjects must be an integer, got 2.5"),
    ({"size": None}, "--size must be an integer, got null"),
    ({"seed": 1.5}, "--seed must be an integer, got 1.5"),
    ({"seed": "x"}, '--seed must be an integer, got "x"'),
    ({"no_median": "false"}, '--no-median must be true or false, got "false"'),
    ({"fraction": True}, "--fraction must be a number, got true"),
    ({"out": 5}, "--out must be a string, got 5"),
]


class TestConfig:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"subjects": 2, "samples": 2, "size": 64,
                                   "seed": 4, "out": str(tmp_path / "from_cfg")}))
        assert run("--config", cfg, "gen-data") == 0
        assert len(list((tmp_path / "from_cfg").glob("*.pgm"))) == 4
        assert run("--config", cfg, "gen-data", "--out", tmp_path / "override") == 0
        assert len(list((tmp_path / "override").glob("*.pgm"))) == 4

    @pytest.mark.parametrize("config_first", [True, False], ids=["config-first", "plain-first"])
    def test_config_run_leaves_plain_runs_alone(self, tmp_path, capsys, config_first):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"subjects": 2, "samples": 2, "size": 48, "seed": 4,
                                   "out": str(tmp_path / "cfg_out")}))
        plain = ["gen-data", "--subjects", 2, "--samples", 2, "--out", tmp_path / "plain"]

        def config_run():
            assert run("--config", cfg, "gen-data") == 0

        def plain_runs():
            # a required flag is still required, and defaults are the parser's own
            with pytest.raises(SystemExit) as exc:
                run("gen-data", "--out", tmp_path / "missing")
            assert exc.value.code == 2
            assert "--subjects" in capsys.readouterr().err
            assert run(*plain) == 0

        for step in ([config_run, plain_runs] if config_first else [plain_runs, config_run]):
            step()
        assert run("gen-data", "--subjects", 2, "--samples", 2, "--size", 64, "--seed", 0,
                   "--out", tmp_path / "explicit_plain") == 0
        assert run("gen-data", "--subjects", 2, "--samples", 2, "--size", 48, "--seed", 4,
                   "--out", tmp_path / "explicit_cfg") == 0
        for got, want in (("plain", "explicit_plain"), ("cfg_out", "explicit_cfg")):
            names = sorted(f.name for f in (tmp_path / want).iterdir())
            assert sorted(f.name for f in (tmp_path / got).iterdir()) == names
            for name in names:
                assert (tmp_path / got / name).read_bytes() == \
                    (tmp_path / want / name).read_bytes()

    @pytest.mark.parametrize("doc", [[], [1, 2], "gen-data", 3, None])
    def test_config_that_is_not_an_object_is_usage_error(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run("--config", cfg, "build-plan", "--table", tmp_path / "t.json",
                   "--eta", 1, "--kappa", 0.25, "--out", tmp_path / "plan.json") == 1
        err = capsys.readouterr().err
        assert err == f"usage error: config {cfg} is not a JSON object\n"


    @pytest.mark.parametrize("doc, message", _REFUSED_CONFIGS, ids=[
        ",".join(f"{k}={json.dumps(v)}" for k, v in doc.items()) for doc, _ in _REFUSED_CONFIGS])
    @pytest.mark.parametrize("command", ["gen-data", "detect", "build-plan", "evaluate"])
    def test_config_key_or_value_the_flags_refuse_is_usage_error(self, pipeline, tmp_path,
                                                                 capsys, doc, message, command):
        # every key is checked whichever subcommand runs, before any work
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = {"gen-data": ["--subjects", 2, "--samples", 2, "--out", out],
                "detect": ["--detector", pipeline["detector"],
                           "--image", sorted(pipeline["data"].glob("*.pgm"))[0]],
                "build-plan": ["--table", pipeline["table"], "--eta", 1, "--kappa", 0.25,
                               "--out", out],
                "evaluate": ["--net-seed", 1, "--dataset", pipeline["data"],
                             "--distortion", pipeline["spec"], "--out", out]}[command]
        assert run("--config", cfg, command, *argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"usage error: {message}\n")
        assert not out.exists()

    def test_config_values_parse_as_the_flags_do(self, pipeline, tmp_path):
        cfg = tmp_path / "cfg.json"
        # text goes through the flag's type; `in` names --in
        cfg.write_text(json.dumps({"in": str(pipeline["data"]), "spec": str(pipeline["spec"]),
                                   "subjects": "2", "samples": 2, "size": " 64 ",
                                   "out": str(tmp_path / "cfg")}))
        assert run("--config", cfg, "distort") == 0
        assert run("--config", cfg, "gen-data") == 0
        assert run("distort", "--spec", pipeline["spec"], "--in", pipeline["data"],
                   "--out", tmp_path / "flags") == 0
        assert run("gen-data", "--subjects", 2, "--samples", 2, "--size", 64,
                   "--out", tmp_path / "flags") == 0
        names = sorted(f.name for f in (tmp_path / "flags").iterdir())
        assert sorted(f.name for f in (tmp_path / "cfg").iterdir()) == names
        for name in names:
            assert (tmp_path / "cfg" / name).read_bytes() == \
                (tmp_path / "flags" / name).read_bytes()
        # a float flag given integers parses them as --c-grid 1 10 does; a switch takes a bool
        cfg.write_text(json.dumps({"c_grid": [1, 10], "no_median": True}))
        common = ["--net-seed", 1, "--mean-reps", pipeline["extracted"] / "mean_reps.mrep",
                  "--clean", pipeline["data"], "--distorted", pipeline["distorted"]]
        assert run("--config", cfg, "train-detector", *common, "--out", tmp_path / "d1") == 0
        assert run("train-detector", *common, "--c-grid", 1, 10, "--out", tmp_path / "d2") == 0
        assert (tmp_path / "d1" / "detector.json").read_bytes() == \
            (tmp_path / "d2" / "detector.json").read_bytes()
        plan = ["--table", pipeline["table"], "--eta", 1, "--kappa", 0.25]
        assert run("--config", cfg, "build-plan", *plan, "--out", tmp_path / "p1.json") == 0
        assert run("build-plan", *plan, "--no-median", "--out", tmp_path / "p2.json") == 0
        assert (tmp_path / "p1.json").read_bytes() == (tmp_path / "p2.json").read_bytes()
        assert json.loads((tmp_path / "p1.json").read_text())["use_median_filter"] is False


class TestErrors:
    def test_sensitivity_of_sets_that_do_not_pair_is_usage_error(self, pipeline, tmp_path,
                                                                 capsys):
        other = tmp_path / "other"  # another seed's faces, in the same layout
        assert run("gen-data", "--subjects", 2, "--samples", 2, "--size", 64,
                   "--seed", 9, "--out", other) == 0
        ds = load_dataset(pipeline["distorted"])
        reordered = tmp_path / "reordered"  # item 0 stays, items 1 and 2 swap
        save_dataset(Dataset((ds.items[0], ds.items[2], ds.items[1], *ds.items[3:]), ds.seed),
                     reordered)
        capsys.readouterr()
        for distorted, message in [
                (other, "they come from gen-data seeds 3 and 9"),
                (reordered, "item 1 is subject 0 sample 1 in --clean but subject 1 sample 0 "
                            "in --distorted")]:
            out = tmp_path / "table.json"
            assert run("sensitivity", "--net-seed", 1, "--clean", pipeline["data"],
                       "--distorted", distorted, "--out", out) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (
                "", f"usage error: clean and distorted datasets must pair up 1:1: {message}\n")
            assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "flag-0", "config"])
    @pytest.mark.parametrize("command", ["extract", "train-detector", "detect", "sensitivity",
                                         "mitigate", "evaluate"])
    def test_weights_with_a_net_seed_is_usage_error(self, tmp_path, capsys, forwards, command,
                                                    source):
        # no file named exists: the conflict is found before any is read
        missing = tmp_path / "missing"
        files = {"extract": ["--dataset", "--out"],
                 "train-detector": ["--mean-reps", "--clean", "--distorted", "--out"],
                 "detect": ["--detector", "--image"],
                 "sensitivity": ["--clean", "--distorted", "--out"],
                 "mitigate": ["--plan", "--image", "--out"],
                 "evaluate": ["--dataset", "--distortion", "--out"]}[command]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"net_seed": 2}))
        seed = {"flag": ["--net-seed", 2], "flag-0": ["--net-seed", 0], "config": []}[source]
        config = ["--config", cfg] if source == "config" else []
        assert run(*config, command, "--weights", missing / "net.fnet", *seed,
                   *(a for flag in files for a in (flag, missing / flag[2:]))) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "usage error: --weights and --net-seed name two networks: give one\n")
        assert forwards == [] and not missing.exists()

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run("distort", "--spec", tmp_path / "nope.json",
                   "--in", tmp_path, "--out", tmp_path / "o") == 1

    def test_image_that_is_a_directory_is_usage_error(self, pipeline, tmp_path, capsys):
        assert run("detect", "--net-seed", 1, "--detector", pipeline["detector"],
                   "--image", tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: [Errno") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_report_path_that_is_a_directory_is_usage_error(self, pipeline, tmp_path,
                                                             capsys, forwards):
        assert run("evaluate", "--net-seed", 1, "--dataset", pipeline["data"],
                   "--distortion", pipeline["spec"], "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: [Errno") and err.count("\n") == 1
        assert "Traceback" not in err
        assert forwards == []  # the bad --out is found before the protocol runs

    @pytest.mark.parametrize("fields", [
        dict(conv_w=np.full((2, 1, 3, 3), np.nan)),
        dict(pool_stride=0),
        dict(window=0),
        dict(tail=b"\x00"),
        dict(conv_in=2),
        dict(dense_in=9),
    ], ids=["nan-weight", "pool-stride-0", "pool-window-0", "trailing-bytes",
            "channel-mismatch", "dense-length"])
    def test_weight_file_that_cannot_run_is_data_error(self, pipeline, tmp_path, capsys,
                                                       fields):
        weights = tmp_path / "bad.fnet"
        weights.write_bytes(fnet_bytes(**fields))
        img = next(iter(sorted(pipeline["data"].glob("*.pgm"))))
        assert run("detect", "--weights", weights, "--detector", pipeline["detector"],
                   "--image", img) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: weight file") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_bad_image_format_is_data_error(self, pipeline, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P7\n1 1\n255\n\x00")
        assert run("detect", "--net-seed", 1, "--detector", pipeline["detector"],
                   "--image", bad) == 2

    def test_invalid_spec_kind_is_data_error(self, pipeline, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text('{"kind": "sharpen"}')
        assert run("distort", "--spec", spec, "--in", pipeline["data"],
                   "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == \
            "error: distortion spec: unknown distortion kind 'sharpen'\n"

    def test_bad_parameter_is_usage_error(self, tmp_path):
        assert run("gen-data", "--subjects", 1, "--samples", 2, "--size", 64,
                   "--seed", 0, "--out", tmp_path / "d") == 1

    @pytest.mark.parametrize("doc", [
        {"eta": 1},
        {"eta": "1", "kappa": 0.1, "mask": []},
        {"eta": True, "kappa": 0.1, "mask": []},
        {"eta": 1, "kappa": 0.1, "mask": [[0]]},
        {"eta": 1, "kappa": 0.1, "mask": [], "use_median_filter": "no"},
        [1, 0.1],
    ])
    def test_malformed_plan_is_data_error(self, pipeline, tmp_path, capsys, doc):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(doc))
        img = next(iter(sorted(pipeline["data"].glob("*.pgm"))))
        assert run("mitigate", "--net-seed", 1, "--plan", plan, "--image", img,
                   "--out", tmp_path / "emb.json") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: mitigation plan") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("doc", [
        {"kind": "grids", "rho_grids": "x"},
        {"rho_grids": 3},
        {"kind": "xmsb", "phi": ["a", 0, 0]},
        {"kind": "grids", "seed": 1.5},
        {"kind": "ero", "psi": None},
    ])
    def test_malformed_spec_is_data_error(self, pipeline, tmp_path, capsys, doc):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert run("distort", "--spec", spec, "--in", pipeline["data"],
                   "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: distortion spec") and err.count("\n") == 1
        assert "Traceback" not in err


    @pytest.mark.parametrize("doc", [
        {},
        {"eps": [[1.0, 2.0]], "n_dis": 1},
        {"eps": [[1.0, 2.0]], "layer_agg": [3.0], "n_dis": "1"},
        {"eps": 3.0, "layer_agg": [3.0], "n_dis": 1},
    ])
    def test_malformed_table_is_data_error(self, tmp_path, capsys, doc):
        table = tmp_path / "table.json"
        table.write_text(json.dumps(doc))
        assert run("build-plan", "--table", table, "--eta", 1, "--kappa", 0.25,
                   "--out", tmp_path / "plan.json") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sensitivity table") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("doc", [
        {"eps": [[1.0, 2.0]], "layer_agg": [4.0], "n_dis": 1},
        {"eps": [[1.0, 2.0]], "layer_agg": [3.0, 0.0], "n_dis": 1},
        {"eps": [[1.0, 2.0], [3.0]], "layer_agg": [3.0], "n_dis": 1},
        {"eps": [[-1.0, 4.0]], "layer_agg": [3.0], "n_dis": 1},
        {"eps": [[float("nan"), 2.0]], "layer_agg": [3.0], "n_dis": 1},
        {"eps": [[float("inf"), 2.0]], "layer_agg": [float("inf")], "n_dis": 1},
        {"eps": [[1.0, 2.0]], "layer_agg": [3.0], "n_dis": 0},
    ])
    def test_inconsistent_table_is_data_error(self, tmp_path, capsys, doc):
        table = tmp_path / "table.json"
        table.write_text(json.dumps(doc))
        assert run("build-plan", "--table", table, "--eta", 1, "--kappa", 0.25,
                   "--out", tmp_path / "plan.json") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sensitivity table") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit", [
        lambda m: m.pop("images"),
        lambda m: m["images"][1].pop("landmarks"),
        lambda m: m["images"][0]["landmarks"]["nose"].append(3),
        lambda m: m["images"][2]["landmarks"]["beard_polygon"][1].pop(),
        lambda m: m["images"][0]["landmarks"].update(forehead_polygon=[[0, 0], [1, 1], [2, 2]]),
        lambda m: m["images"][3].update(subject_id="0"),
    ], ids=["no-images", "no-landmarks", "point-arity", "vertex-arity",
            "degenerate-polygon", "subject-str"])
    def test_malformed_manifest_is_data_error(self, pipeline, tmp_path, capsys, edit):
        manifest = json.loads((pipeline["data"] / "manifest.json").read_text())
        edit(manifest)
        self._assert_extract_data_error(pipeline, tmp_path, capsys, manifest)

    def test_non_object_manifest_is_data_error(self, pipeline, tmp_path, capsys):
        self._assert_extract_data_error(pipeline, tmp_path, capsys, [1, 2])

    @staticmethod
    def _assert_extract_data_error(pipeline, tmp_path, capsys, manifest):
        data = tmp_path / "data"
        data.mkdir()
        for pgm in pipeline["data"].glob("*.pgm"):
            (data / pgm.name).write_bytes(pgm.read_bytes())
        (data / "manifest.json").write_text(json.dumps(manifest))
        assert run("extract", "--net-seed", 1, "--dataset", data, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: manifest") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit", [
        lambda d: d.pop("feat_std"),
        lambda d: d.pop("mean_reps_path"),
        lambda d: d.update(n_layers="5"),
        lambda d: d.update(w=["0.1"] * 5),
        lambda d: d.update(b=None),
        lambda d: d.update(w=d["w"][:-1]),
        lambda d: d.update(n_layers=d["n_layers"] + 1),
        lambda d: d.update(w=d["w"] + [0.0], feat_mean=d["feat_mean"] + [0.0],
                           feat_std=d["feat_std"] + [1.0], n_layers=d["n_layers"] + 1),
        lambda d: d.update(feat_std=[0.0] * d["n_layers"]),
        lambda d: d.update(w=[float("nan")] * d["n_layers"]),
        lambda d: d.update(b=float("inf")),
    ], ids=["missing-key", "missing-path", "n_layers-str", "w-str", "b-null",
            "short-w", "n_layers-off", "more-than-mean-reps", "zero-std", "nan-w", "inf-b"])
    def test_malformed_detector_is_data_error(self, pipeline, tmp_path, capsys, edit):
        doc = json.loads(pipeline["detector"].read_text())
        doc["mean_reps_path"] = str((pipeline["detector"].parent / doc["mean_reps_path"])
                                    .resolve())
        edit(doc)
        self._assert_detect_data_error(pipeline, tmp_path, capsys, doc)

    def test_non_object_detector_is_data_error(self, pipeline, tmp_path, capsys):
        self._assert_detect_data_error(pipeline, tmp_path, capsys, [1, 2])

    @staticmethod
    def _assert_detect_data_error(pipeline, tmp_path, capsys, doc, expected=None):
        path = tmp_path / "detector.json"
        path.write_text(json.dumps(doc))
        img = next(iter(sorted(pipeline["data"].glob("*.pgm"))))
        assert run("detect", "--net-seed", 1, "--detector", path, "--image", img) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: detector") if expected is None else err == expected
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("edit, message", [
        (lambda b: b + b"\x00", "mean file has 1 trailing bytes after the last layer"),
        (lambda b: b[:17] + struct.pack("<d", float("nan")) + b[25:],
         "mean file: means must be finite"),
        (lambda b: b[:9] + struct.pack("<I", 0) + b[13:], "mean file: n_train must be >= 1"),
    ], ids=["trailing-bytes", "nan-mean", "n_train-0"])
    def test_malformed_mean_reps_is_data_error(self, pipeline, tmp_path, capsys, edit,
                                              message):
        doc = json.loads(pipeline["detector"].read_text())
        reps = pipeline["detector"].parent / doc["mean_reps_path"]
        (tmp_path / "reps.mrep").write_bytes(edit(reps.read_bytes()))
        doc["mean_reps_path"] = "reps.mrep"
        self._assert_detect_data_error(pipeline, tmp_path, capsys, doc, f"error: {message}\n")

    @pytest.mark.parametrize("n_taps", [4, 0])
    def test_mean_reps_short_of_the_network_taps_is_data_error(self, pipeline, tmp_path,
                                                               capsys, forwards, n_taps):
        # detector and mean reps agree with each other, but not with the network
        doc = json.loads(pipeline["detector"].read_text())
        reps = load_mean_reps(pipeline["detector"].parent / doc["mean_reps_path"])
        save_mean_reps(MeanReps(reps.means[:n_taps], reps.n_train), tmp_path / "reps.mrep")
        doc.update({k: doc[k][:n_taps] for k in ("w", "feat_mean", "feat_std")},
                   n_layers=n_taps, mean_reps_path="reps.mrep")
        self._assert_refused_before_forwarding(pipeline, tmp_path, capsys, forwards, doc,
                                               f"error: mean reps hold {n_taps} taps, "
                                               "the network has 5\n")

    def test_mean_length_differing_from_its_tap_is_data_error(self, pipeline, tmp_path,
                                                              capsys, forwards):
        doc = json.loads(pipeline["detector"].read_text())
        reps = load_mean_reps(pipeline["detector"].parent / doc["mean_reps_path"])
        save_mean_reps(MeanReps((reps.means[0][:100], *reps.means[1:]), reps.n_train),
                       tmp_path / "reps.mrep")
        doc["mean_reps_path"] = "reps.mrep"
        self._assert_refused_before_forwarding(pipeline, tmp_path, capsys, forwards, doc,
                                               "error: mean reps tap 0 holds 100 values, "
                                               "the network's tap 0 has 32768\n")

    def _assert_refused_before_forwarding(self, pipeline, tmp_path, capsys, forwards, doc,
                                          expected):
        """detect, then evaluate with a plan, refuse the detector before any forward pass."""
        self._assert_detect_data_error(pipeline, tmp_path, capsys, doc, expected)
        assert run("evaluate", "--net-seed", 1, "--dataset", pipeline["data"],
                   "--distortion", pipeline["spec"], "--detector", tmp_path / "detector.json",
                   "--plan", pipeline["plan"], "--out", tmp_path / "r.csv") == 2
        assert capsys.readouterr().err == expected
        assert forwards == []

    @pytest.mark.parametrize("doc, message", [
        ({"kind": "xmsb", "phi": [0.1]}, "phi must be three fractions in [0, 1]"),
        ({"kind": "foo"}, "unknown distortion kind 'foo'"),
        ({"kind": "ero", "psi": -1}, "psi must be positive"),
    ], ids=["phi-one-entry", "unknown-kind", "negative-psi"])
    def test_invalid_spec_fails_on_load(self, pipeline, tmp_path, capsys, forwards,
                                        doc, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert run("evaluate", "--net-seed", 1, "--dataset", pipeline["data"],
                   "--distortion", spec, "--out", tmp_path / "r.csv") == 2
        assert capsys.readouterr().err == f"error: distortion spec: {message}\n"
        assert forwards == []

    @pytest.mark.parametrize("given", ["detector", "plan"])
    def test_defence_with_half_its_inputs_is_usage_error(self, pipeline, tmp_path, capsys,
                                                         forwards, given):
        assert run("evaluate", "--net-seed", 1, "--dataset", pipeline["data"],
                   "--distortion", pipeline["spec"], f"--{given}", pipeline[given],
                   "--out", tmp_path / "r.csv") == 1
        assert capsys.readouterr().err == (
            "usage error: the corrected condition needs both a detector and a plan, "
            f"got only the {given}\n")
        assert forwards == []


class TestOutOfRangeInputs:
    """Bad C values, protocol parameters and plan values end in one line,
    and those found on load end before any forward pass."""

    @staticmethod
    def _one_line(capsys, start: str) -> str:
        err = capsys.readouterr().err
        assert err.startswith(start) and err.count("\n") == 1, err
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("c", ["-1", "0", "nan", "inf"])
    def test_c_grid_is_usage_error(self, pipeline, tmp_path, capsys, forwards, c):
        assert run("train-detector", "--net-seed", 1,
                   "--mean-reps", pipeline["extracted"] / "mean_reps.mrep",
                   "--clean", pipeline["data"], "--distorted", pipeline["distorted"],
                   "--c-grid", "1", c, "--out", tmp_path / "det") == 1
        assert str(float(c)) in self._one_line(capsys, "usage error: C grid")
        assert forwards == []
        assert not (tmp_path / "det").exists()

    def test_c_that_overflows_the_fit_is_usage_error(self, pipeline, tmp_path, capsys):
        assert run("train-detector", "--net-seed", 1,
                   "--mean-reps", pipeline["extracted"] / "mean_reps.mrep",
                   "--clean", pipeline["data"], "--distorted", pipeline["distorted"],
                   "--c-grid", "1e308", "--out", tmp_path / "det") == 1
        self._one_line(capsys,
                       "usage error: C grid up to 1e+308 overflows the hinge fit on 8 rows")
        assert not (tmp_path / "det").exists()

    def test_detector_whose_score_overflows_is_data_error(self, pipeline, tmp_path, capsys):
        doc = json.loads(pipeline["detector"].read_text())
        doc["mean_reps_path"] = str((pipeline["detector"].parent / doc["mean_reps_path"])
                                    .resolve())
        n = doc["n_layers"]
        doc.update(w=[1e308, -1e308] + [0.0] * (n - 2), feat_mean=[0.0] * n, feat_std=[1.0] * n)
        (tmp_path / "detector.json").write_text(json.dumps(doc))
        img = next(iter(sorted(pipeline["data"].glob("*.pgm"))))
        assert run("detect", "--net-seed", 1, "--detector", tmp_path / "detector.json",
                   "--image", img) == 2
        self._one_line(capsys, "error: detector: a score is not finite")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_network_whose_output_overflows_is_data_error(self, pipeline, tmp_path, capsys):
        # its finite weights load; every embedding would be all zero and GAR read 0
        featnet.save_weights(overflowing_network(featnet.default_network(0)),
                             tmp_path / "bad.fnet")
        assert run("evaluate", "--weights", tmp_path / "bad.fnet", "--dataset",
                   pipeline["data"], "--distortion", pipeline["spec"],
                   "--out", tmp_path / "r.csv") == 2
        assert capsys.readouterr().err == \
            "error: network output overflows float32: a row's L2 norm is not finite\n"

    @pytest.mark.parametrize("c", [0.0, -1.0, float("nan"), float("inf")])
    def test_detector_c_is_data_error(self, pipeline, tmp_path, capsys, c):
        doc = json.loads(pipeline["detector"].read_text())
        doc["mean_reps_path"] = str((pipeline["detector"].parent / doc["mean_reps_path"])
                                    .resolve())
        doc["C"] = c
        (tmp_path / "detector.json").write_text(json.dumps(doc))
        img = next(iter(sorted(pipeline["data"].glob("*.pgm"))))
        assert run("detect", "--net-seed", 1, "--detector", tmp_path / "detector.json",
                   "--image", img) == 2
        self._one_line(capsys, "error: detector: w, b, C, feat_mean and feat_std")

    @pytest.mark.parametrize("flag, value", [("--fraction", 2), ("--fraction", -0.5),
                                             ("--far", 0), ("--far", 1.5)])
    @pytest.mark.parametrize("defended", [False, True], ids=["plain", "defended"])
    def test_protocol_parameter_fails_before_forwarding(self, pipeline, tmp_path, capsys,
                                                        forwards, flag, value, defended):
        defence = ["--detector", pipeline["detector"], "--plan", pipeline["plan"]]
        assert run("evaluate", "--net-seed", 1, "--dataset", pipeline["data"],
                   "--distortion", pipeline["spec"], *(defence if defended else []),
                   flag, value, "--out", tmp_path / "r.csv") == 1
        assert capsys.readouterr().err == \
            "usage error: far_target must be in (0, 1) and fraction in [0, 1]\n"
        assert forwards == []

    def test_set_with_no_genuine_pair_fails_before_forwarding(self, pipeline, tmp_path,
                                                                capsys, forwards):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        doc = json.loads((data / "manifest.json").read_text())
        for i, e in enumerate(doc["images"]):  # 4 images of 4 subjects
            e["subject_id"] = i
        (data / "manifest.json").write_text(json.dumps(doc))
        assert run("evaluate", "--net-seed", 1, "--dataset", data,
                   "--distortion", pipeline["spec"], "--out", tmp_path / "r.csv") == 2
        assert capsys.readouterr().err == \
            "error: need at least one genuine and one impostor pair\n"
        assert forwards == []

    def test_memory_error_is_one_line(self, tmp_path, capsys, monkeypatch):
        from advface import synthface

        message = ("Unable to allocate 149. GiB for an array with shape "
                   "(2, 100000, 100000) and data type float64")

        def too_large(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(synthface, "generate_dataset", too_large)
        assert run("gen-data", "--subjects", 2, "--samples", 2, "--size", 100000,
                   "--out", tmp_path / "d") == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"

    @pytest.mark.parametrize("doc", [
        {"eta": -5, "kappa": 7.5, "mask": []},
        {"eta": 0, "kappa": 0.1, "mask": []},
        {"eta": 1, "kappa": -0.1, "mask": []},
        {"eta": 1, "kappa": 1.5, "mask": []},
        {"eta": 1, "kappa": float("nan"), "mask": []},
    ], ids=["eta-5-kappa-7.5", "eta-0", "kappa-negative", "kappa-1.5", "kappa-nan"])
    def test_plan_value_out_of_range_is_data_error(self, pipeline, tmp_path, capsys,
                                                   forwards, doc):
        (tmp_path / "plan.json").write_text(json.dumps(doc))
        img = next(iter(sorted(pipeline["data"].glob("*.pgm"))))
        assert run("mitigate", "--net-seed", 1, "--plan", tmp_path / "plan.json",
                   "--image", img, "--out", tmp_path / "emb.json") == 2
        self._one_line(capsys, "error: mitigation plan: need eta >= 1 and kappa in [0, 1]")
        assert forwards == []

    @pytest.mark.parametrize("mask, entry", [([[7, 0]], "(7, 0)"), ([[0, 99]], "(0, 99)"),
                                             ([[0, 1], [-1, 0]], "(-1, 0)")])
    @pytest.mark.parametrize("command", ["mitigate", "evaluate"])
    def test_plan_mask_the_network_lacks_is_data_error(self, pipeline, tmp_path, capsys,
                                                       forwards, mask, entry, command):
        (tmp_path / "plan.json").write_text(json.dumps({"eta": 1, "kappa": 0.25,
                                                        "mask": mask}))
        img = next(iter(sorted(pipeline["data"].glob("*.pgm"))))
        args = {"mitigate": ["--image", img, "--out", tmp_path / "emb.json"],
                "evaluate": ["--dataset", pipeline["data"], "--distortion", pipeline["spec"],
                             "--detector", pipeline["detector"], "--out", tmp_path / "r.csv"]}
        assert run(command, "--net-seed", 1, "--plan", tmp_path / "plan.json",
                   *args[command]) == 2
        assert capsys.readouterr().err == \
            f"error: mitigation plan: mask entry {entry} references no conv filter\n"
        assert forwards == []


_BIG = 10**400  # a 400-digit JSON integer: no float64 or int64 holds it


class TestJsonDataFiles:
    """A data file that is not JSON, or holds a number NumPy cannot take, is a
    data error in one line, found on load."""

    @staticmethod
    def _argv(pipeline, tmp_path, kind: str, content: bytes) -> list:
        """Write content as the `kind` data file; return the command that loads it."""
        bad = tmp_path / "bad.json"
        if kind == "manifest":
            bad = tmp_path / "data" / "manifest.json"
            shutil.copytree(pipeline["data"], bad.parent)
        bad.write_bytes(content)
        img = next(iter(sorted(pipeline["data"].glob("*.pgm"))))
        return {
            "sensitivity table": ["build-plan", "--table", bad, "--eta", 1, "--kappa", 0.1,
                                  "--out", tmp_path / "plan.json"],
            "mitigation plan": ["mitigate", "--net-seed", 1, "--plan", bad, "--image", img,
                                "--out", tmp_path / "emb.json"],
            "distortion spec": ["distort", "--spec", bad, "--in", pipeline["data"],
                                "--out", tmp_path / "out"],
            "detector": ["detect", "--net-seed", 1, "--detector", bad, "--image", img],
            "manifest": ["distort", "--spec", pipeline["spec"], "--in", bad.parent,
                         "--out", tmp_path / "out"],
        }[kind]

    @pytest.mark.parametrize("content", [b"{", b"\xff\xfe{}", b'{"n": ' + b"1" * 5000 + b"}"],
                             ids=["truncated", "not-utf8", "5000-digit-int"])
    @pytest.mark.parametrize("kind", ["sensitivity table", "mitigation plan", "distortion spec",
                                      "detector", "manifest"])
    def test_file_that_is_not_json_is_data_error(self, pipeline, tmp_path, capsys, forwards,
                                                 kind, content):
        assert run(*self._argv(pipeline, tmp_path, kind, content)) == 2
        err = TestOutOfRangeInputs._one_line(capsys, f"error: {kind}: ")
        assert "is not JSON" in err
        assert forwards == []

    @pytest.mark.parametrize("key", ["w", "feat_mean", "feat_std", "b", "C"])
    @pytest.mark.parametrize("number", [_BIG, -_BIG], ids=["big", "minus-big"])
    def test_detector_number_no_float64_holds_is_data_error(self, pipeline, tmp_path, capsys,
                                                            key, number):
        doc = json.loads(pipeline["detector"].read_text())
        doc["mean_reps_path"] = str((pipeline["detector"].parent / doc["mean_reps_path"])
                                    .resolve())
        doc[key] = [number] * doc["n_layers"] if isinstance(doc[key], list) else number
        TestErrors._assert_detect_data_error(pipeline, tmp_path, capsys, doc)

    @pytest.mark.parametrize("kind, doc, start", [
        ("sensitivity table", {"eps": [[_BIG, 1.0]], "layer_agg": [2.0], "n_dis": 1},
         "key 'eps'"),
        ("sensitivity table", {"eps": [[1.0, 1.0]], "layer_agg": [_BIG], "n_dis": 1},
         "key 'layer_agg'"),
        ("sensitivity table", {"eps": [[1.0, 1.0]], "layer_agg": [2.0], "n_dis": 2**63},
         "key 'n_dis'"),
        ("mitigation plan", {"eta": 2**63, "kappa": 0.25, "mask": []}, "key 'eta'"),
        ("mitigation plan", {"eta": 1, "kappa": 0.25, "mask": [[0, -2**63 - 1]]}, "key 'mask'"),
        ("distortion spec", {"kind": "ero", "psi": _BIG}, "key 'psi'"),
    ], ids=["table-eps", "table-layer_agg", "table-n_dis", "plan-eta", "plan-mask", "spec-psi"])
    def test_number_out_of_range_is_data_error(self, pipeline, tmp_path, capsys, forwards,
                                               kind, doc, start):
        assert run(*self._argv(pipeline, tmp_path, kind, json.dumps(doc).encode())) == 2
        TestOutOfRangeInputs._one_line(capsys, f"error: {kind}: {start} has the wrong type "
                                               "or is out of range")
        assert forwards == []

    @pytest.mark.parametrize("spec, path", [
        ({"kind": "beard", "seed": 2}, ("beard_polygon", 1, 0)),
        ({"kind": "ero", "seed": 2}, ("right_eye", 0)),
    ], ids=["beard-vertex", "ero-right-eye"])
    def test_landmark_no_int64_holds_is_data_error(self, pipeline, tmp_path, capsys, spec,
                                                   path):
        manifest = json.loads((pipeline["data"] / "manifest.json").read_text())
        point = manifest["images"][0]["landmarks"]
        for k in path[:-1]:
            point = point[k]
        point[path[-1]] = _BIG
        argv = self._argv(pipeline, tmp_path, "manifest", json.dumps(manifest).encode())
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        argv[argv.index("--spec") + 1] = tmp_path / "spec.json"
        assert run(*argv) == 2
        TestOutOfRangeInputs._one_line(
            capsys, f"error: manifest image 0: landmarks: key {path[0]!r} has the wrong type")

    @pytest.mark.parametrize("kind, edit", [
        ("detector", lambda d: d.update(w=[10**20] * d["n_layers"])),
        ("detector", lambda d: d.update(C=10**20)),
        ("sensitivity table", lambda d: d.update(eps=[[10**20, 1.0]], layer_agg=[1e20])),
    ], ids=["detector-w", "detector-C", "table-eps"])
    def test_integer_beyond_int64_that_float64_holds_is_read(self, pipeline, tmp_path, capsys,
                                                             kind, edit):
        if kind == "detector":
            doc = json.loads(pipeline["detector"].read_text())
            doc["mean_reps_path"] = str(pipeline["extracted"] / "mean_reps.mrep")
        else:
            doc = json.loads(pipeline["table"].read_text())
        edit(doc)
        assert run(*self._argv(pipeline, tmp_path, kind, json.dumps(doc).encode())) == 0
        assert capsys.readouterr().err == ""


def _conv_relu_fnet() -> bytes:
    """FNET1 bytes of a 64x64x1 conv + relu net: it runs, but its output is a map."""
    return b"".join([b"FNET1", struct.pack("<IIIIII", 2, 64, 64, 1, 1, 1),
                     struct.pack("<BIIIII", 0, 1, 1, 3, 1, 1), np.ones(10, "<f4").tobytes(),
                     struct.pack("<B", 1)])


def _first_layer(b: bytes) -> int:
    """Offset of the first layer's kind byte in FNET1 bytes."""
    return 25 + 4 * struct.unpack_from("<I", b, 21)[0]


def _json_update(**fields):
    return lambda b: json.dumps({**json.loads(b), **fields}).encode()


def _manifest_subject(subject_id):
    def edit(b):
        doc = json.loads(b)
        doc["images"][0]["subject_id"] = subject_id
        return json.dumps(doc).encode()
    return edit


def _manifest_small_image(b):
    """Point manifest image 1 at small.pgm, a 32x32 PGM among 64x64 ones."""
    doc = json.loads(b)
    doc["images"][1]["path"] = "small.pgm"
    return json.dumps(doc).encode()


_U32_MAX = 2**32 - 1
_TRUNCATED = ("truncated", lambda b: b[: len(b) // 2])
# manifests whose images do not stack into one batch
_UNSTACKABLE_MANIFESTS = [("no-images", _json_update(images=[])),
                          ("image-shapes-differ", _manifest_small_image)]

# kind -> (mistyped, integer beyond int64 or, in binary formats, the widest the
# field holds, and further cases), each an (id, edit of the good file's bytes)
_ARTIFACT_CASES = {
    "FNET1": [
        ("mistyped-layer-kind",
         lambda b: b[: _first_layer(b)] + b"\x09" + b[_first_layer(b) + 1:]),
        ("conv-bytes-beyond-int64", lambda b: b[: _first_layer(b) + 1]
         + struct.pack("<III", _U32_MAX, _U32_MAX, _U32_MAX) + b[_first_layer(b) + 13:]),
        ("output-not-a-vector", lambda b: _conv_relu_fnet()),
    ],
    "MREP1": [
        ("mistyped-magic", lambda b: b"FNET1" + b[5:]),
        ("u32-max-length", lambda b: b[:13] + struct.pack("<I", _U32_MAX) + b[17:]),
    ],
    "detector": [("mistyped-b", _json_update(b="0")), ("C-beyond-int64", _json_update(C=-10**20))],
    "table": [
        ("mistyped-n_dis", _json_update(n_dis="1")),
        ("eps-beyond-int64", _json_update(eps=[[-10**20, 1.0]], layer_agg=[-1e20])),
    ],
    "plan": [("mistyped-kappa", _json_update(kappa="0.25")),
             ("eta-beyond-int64", _json_update(eta=2**64))],
    "spec": [("mistyped-kind", _json_update(kind=3)),
             ("rho_grids-beyond-int64", _json_update(rho_grids=2**64))],
    "manifest": [("mistyped-seed", _json_update(seed="3")),
                 ("subject_id-beyond-int64", _manifest_subject(2**64)),
                 *_UNSTACKABLE_MANIFESTS],
    "PGM": [("mistyped-width", lambda b: b.replace(b"64", b"xx", 1)),
            ("width-beyond-int64", lambda b: b.replace(b"64", str(2**64).encode(), 1))],
}


class TestArtifactFuzz:
    """Every artifact kind, truncated, mistyped or holding an out-of-range
    integer, ends its command in exit 1 or 2 with one stderr line."""

    @staticmethod
    def _argv(pipeline, tmp_path, kind: str) -> tuple:
        """(path of the good `kind` file, the bad file's path, the command that loads it)."""
        img = next(iter(sorted(pipeline["data"].glob("*.pgm"))))
        bad = tmp_path / "bad"
        plan = tmp_path / "empty-plan.json"
        plan.write_text(json.dumps({"eta": 1, "kappa": 0.0, "mask": []}))
        good, argv = {
            "FNET1": (pipeline["extracted"] / "network.fnet",
                      ["mitigate", "--weights", bad, "--plan", plan, "--image", img,
                       "--out", tmp_path / "emb.json"]),
            "MREP1": (pipeline["extracted"] / "mean_reps.mrep",
                      ["train-detector", "--net-seed", 1, "--mean-reps", bad,
                       "--clean", pipeline["data"], "--distorted", pipeline["distorted"],
                       "--out", tmp_path / "det"]),
            "detector": (pipeline["detector"],
                         ["detect", "--net-seed", 1, "--detector", bad, "--image", img]),
            "table": (pipeline["table"],
                      ["build-plan", "--table", bad, "--eta", 1, "--kappa", 0.25,
                       "--out", tmp_path / "plan.json"]),
            "plan": (pipeline["plan"],
                     ["mitigate", "--net-seed", 1, "--plan", bad, "--image", img,
                      "--out", tmp_path / "emb.json"]),
            "spec": (pipeline["spec"],
                     ["distort", "--spec", bad, "--in", pipeline["data"],
                      "--out", tmp_path / "out"]),
            "manifest": (pipeline["data"] / "manifest.json",
                         ["distort", "--spec", pipeline["spec"], "--in", bad.parent / "data",
                          "--out", tmp_path / "out"]),
            "PGM": (img, ["detect", "--net-seed", 1, "--detector", pipeline["detector"],
                          "--image", bad]),
        }[kind]
        if kind == "manifest":
            shutil.copytree(pipeline["data"], tmp_path / "data")
            write_image(Image(np.zeros((32, 32, 1), np.uint8)), tmp_path / "data" / "small.pgm")
            bad = tmp_path / "data" / "manifest.json"
        return good, bad, argv

    @pytest.mark.parametrize("kind, edit", [
        pytest.param(kind, edit, id=f"{kind}-{name}")
        for kind, cases in _ARTIFACT_CASES.items()
        for name, edit in [_TRUNCATED, *cases]])
    def test_bad_artifact_is_one_line_error(self, pipeline, tmp_path, capsys, kind, edit):
        good, bad, argv = self._argv(pipeline, tmp_path, kind)
        content = good.read_bytes()
        if kind == "detector":  # the copy lives elsewhere: name its mean reps absolutely
            content = _json_update(mean_reps_path=str(
                pipeline["extracted"] / "mean_reps.mrep"))(content)
        bad.write_bytes(edit(content))
        assert run(*argv) in (1, 2)
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["distort", "extract", "sensitivity", "evaluate"])
    @pytest.mark.parametrize("name, edit", _UNSTACKABLE_MANIFESTS,
                             ids=[name for name, _ in _UNSTACKABLE_MANIFESTS])
    def test_unstackable_manifest_is_data_error(self, pipeline, tmp_path, capsys, command,
                                                name, edit):
        good, bad, _ = self._argv(pipeline, tmp_path, "manifest")
        bad.write_bytes(edit(good.read_bytes()))
        data = bad.parent
        argv = {"distort": ["--spec", pipeline["spec"], "--in", data, "--out", tmp_path / "o"],
                "extract": ["--net-seed", 1, "--dataset", data, "--out", tmp_path / "o"],
                "sensitivity": ["--net-seed", 1, "--clean", data,
                                "--distorted", pipeline["distorted"], "--out", tmp_path / "t"],
                "evaluate": ["--net-seed", 1, "--dataset", data,
                             "--distortion", pipeline["spec"], "--out", tmp_path / "r.csv"]}
        assert run(command, *argv[command]) == 2
        assert capsys.readouterr().err == {
            "no-images": "error: manifest: lists no images\n",
            "image-shapes-differ": "error: manifest image 1: small.pgm has shape (32, 32, 1), "
                                   "manifest image 0 has (64, 64, 1)\n"}[name]
