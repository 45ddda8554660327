import json

import numpy as np
import pytest

from advface.cli import main
from advface.detector import DetectorModel, load_mean_reps, save_detector
from advface.imagecore import read_image


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


class TestDeterminism:
    def test_gen_data_is_byte_identical(self, tmp_path):
        for d in ("a", "b"):
            assert run("gen-data", "--subjects", 2, "--samples", 2, "--size", 64,
                       "--seed", 8, "--out", tmp_path / d) == 0
        for fa in sorted((tmp_path / "a").iterdir()):
            assert fa.read_bytes() == (tmp_path / "b" / fa.name).read_bytes()


class TestConfig:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"subjects": 2, "samples": 2, "size": 64,
                                   "seed": 4, "out": str(tmp_path / "from_cfg")}))
        assert run("--config", cfg, "gen-data") == 0
        assert len(list((tmp_path / "from_cfg").glob("*.pgm"))) == 4
        assert run("--config", cfg, "gen-data", "--out", tmp_path / "override") == 0
        assert len(list((tmp_path / "override").glob("*.pgm"))) == 4


class TestErrors:
    def test_missing_file_is_usage_error(self, tmp_path):
        assert run("distort", "--spec", tmp_path / "nope.json",
                   "--in", tmp_path, "--out", tmp_path / "o") == 1

    def test_bad_image_format_is_data_error(self, pipeline, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P7\n1 1\n255\n\x00")
        assert run("detect", "--net-seed", 1, "--detector", pipeline["detector"],
                   "--image", bad) == 2

    def test_invalid_spec_kind_is_usage_error(self, pipeline, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text('{"kind": "sharpen"}')
        assert run("distort", "--spec", spec, "--in", pipeline["data"],
                   "--out", tmp_path / "o") == 1

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
    def _assert_detect_data_error(pipeline, tmp_path, capsys, doc):
        path = tmp_path / "detector.json"
        path.write_text(json.dumps(doc))
        img = next(iter(sorted(pipeline["data"].glob("*.pgm"))))
        assert run("detect", "--net-seed", 1, "--detector", path, "--image", img) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: detector") and err.count("\n") == 1
        assert "Traceback" not in err
