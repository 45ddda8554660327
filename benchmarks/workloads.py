"""The benchmark's three workloads, driven only through advface's public API.

A workload builds its inputs in `setup` from an input family (derived from
the benchmark seed) and a scale, then exposes one round of timed work as a
list of operations. Each operation returns raw outputs; `values` turns them
into JSON values that are compared with the recorded reference and with the
first round, and `check` applies seed-independent invariants.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from advface import cli, detector, distortions, featnet, imagecore, mitigator
from advface import synthface, verifybench

from checks import bits, digest, probe

KINDS = distortions.KINDS
NET_SEED = 43
ETA_GRID = (1, 2, 3)
KAPPA_GRID = (0.1, 0.25, 0.5)

# (subjects, samples per subject) of each generated dataset, per scale
SIZES = {
    "train-detect": {
        "bench": {"corpus": (60, 10), "held": (50, 4)},
        "smoke": {"corpus": (4, 4), "held": (3, 2)},
    },
    "defend-eval": {
        "bench": {"det": (24, 4), "pairs": (30, 10), "search": (20, 5), "eval": (40, 10)},
        "smoke": {"det": (5, 3), "pairs": (5, 2), "search": (4, 3), "eval": (5, 3)},
    },
    "single-image": {
        "bench": {"train": (12, 5), "pool": (16, 4)},
        "smoke": {"train": (4, 3), "pool": (4, 2)},
    },
}


@dataclass
class Op:
    name: str
    run: Callable[[dict], object]   # round context -> raw output
    images: int                     # input images the operation consumes


@dataclass
class State:
    family: int
    workdir: Path
    model: featnet.NetworkModel
    data: dict = field(default_factory=dict)


def _seed(family: int, slot: int) -> int:
    return 1000 * family + slot


def _dataset(family: int, slot: int, size) -> synthface.Dataset:
    return synthface.generate_dataset(size[0], size[1], 64, _seed(family, slot))


def _pixels(ds: synthface.Dataset) -> np.ndarray:
    return np.stack([it.image.pixels for it in ds.items])


def _distort(ds: synthface.Dataset, spec: distortions.DistortionSpec,
             offset: int) -> np.ndarray:
    return np.stack([
        distortions.apply(distortions.per_image_spec(spec, offset + i),
                          it.image, it.landmarks)[0].pixels
        for i, it in enumerate(ds.items)])


def _specs(family: int) -> dict:
    return {k: distortions.DistortionSpec(k, seed=_seed(family, 90)) for k in KINDS}


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _canberra_rows(taps, means) -> np.ndarray:
    """Per-layer Canberra distances, written out term by term in float64."""
    out = []
    for t, mu in zip(taps, means):
        t = np.asarray(t, dtype=np.float64)
        num = np.abs(t - mu)
        den = np.abs(t) + np.abs(mu)
        out.append(np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0).sum(axis=-1))
    return np.stack(out, axis=-1)


# ---------------------------------------------------------------------------
# train-detect: the fit side
# ---------------------------------------------------------------------------

class TrainDetect:
    name = "train-detect"

    def setup(self, family: int, scale: str, workdir: Path) -> State:
        size = SIZES[self.name][scale]
        st = State(family, workdir, featnet.default_network(NET_SEED))
        corpus = _dataset(family, 1, size["corpus"])
        held = _dataset(family, 2, size["held"])
        st.data.update(corpus=corpus, held=held, clean=_pixels(corpus),
                       held_clean=_pixels(held), specs=_specs(family))
        return st

    def ops(self, st: State) -> list[Op]:
        d = st.data
        n, h = len(d["corpus"]), len(d["held"])

        def mean_reps(ctx):
            ctx["reps"] = detector.compute_mean_reps(st.model, d["clean"])
            ctx["fc"] = detector.canberra_features_batch(st.model, ctx["reps"], d["clean"])
            return ctx["reps"], ctx["fc"]

        def train(kind):
            def run(ctx):
                spec = d["specs"][kind]
                fd = detector.canberra_features_batch(
                    st.model, ctx["reps"], _distort(d["corpus"], spec, 0))
                det = detector.train_detector(st.model, ctx["reps"], None, None,
                                              seed=_seed(st.family, 7),
                                              features=(ctx["fc"], fd))
                held_dis = _distort(d["held"], spec, 7000)
                s_clean = detector.detect_scores(det, st.model, d["held_clean"])
                s_dis = detector.detect_scores(det, st.model, held_dis)
                return det, s_clean, s_dis
            return run

        return [Op("mean_reps", mean_reps, n)] + [
            Op(f"train:{k}", train(k), n + 2 * h) for k in KINDS]

    def values(self, st: State, op: str, raw) -> dict:
        if op == "mean_reps":
            reps, fc = raw
            return {"n_train": reps.n_train, "means": [probe(m) for m in reps.means],
                    "features": probe(fc),
                    "digest": digest(*reps.means, fc)}
        det, s_clean, s_dis = raw
        return {"w": det.w.tolist(), "b": det.b, "C": det.C,
                "feat_mean": det.feat_mean.tolist(), "feat_std": det.feat_std.tolist(),
                "held_clean_flags": bits(s_clean > 0), "held_distorted_flags": bits(s_dis > 0),
                "scores": probe(np.concatenate([s_clean, s_dis])),
                "digest": digest(det.w, np.float64(det.b), s_clean, s_dis)}

    def check(self, st: State, op: str, raw, ctx: dict) -> list[str]:
        errors = []
        if op == "mean_reps":
            reps, fc = raw
            n = len(st.data["corpus"])
            if reps.n_train != n or len(reps.means) != st.model.n_taps:
                errors.append("mean reps cover the wrong corpus or taps")
            if fc.shape != (n, st.model.n_taps) or not np.all(np.isfinite(fc)) or fc.min() < 0:
                errors.append("clean features are not finite non-negative (N, taps)")
            # spot-check the batched features against a term-by-term recomputation
            _, taps = featnet.forward_batch(st.model, st.data["clean"][:2])
            want = _canberra_rows(taps, reps.means)
            if not np.allclose(fc[:2], want, rtol=1e-4):
                errors.append("batched Canberra features disagree with a direct computation")
            return errors
        det, s_clean, s_dis = raw
        if det.C not in detector.DEFAULT_C_GRID:
            errors.append(f"chosen C {det.C} is not in the grid")
        if det.w.shape != (st.model.n_taps,) or not np.all(np.isfinite(det.w)):
            errors.append("detector weights are not finite per-tap values")
        if s_clean.shape != (len(st.data["held"]),) or s_dis.shape != s_clean.shape:
            errors.append("held-out scores have the wrong shape")
        elif not (np.all(np.isfinite(s_clean)) and np.all(np.isfinite(s_dis))):
            errors.append("held-out scores are not finite")
        return errors

    def quality(self, st: State, raws: dict) -> dict:
        accs = {}
        for k in KINDS:
            _, s_clean, s_dis = raws[f"train:{k}"]
            accs[k] = (int((s_clean <= 0).sum()) + int((s_dis > 0).sum())) / (2 * len(s_clean))
        return {"detector_acc": float(np.mean(list(accs.values()))),
                "detector_acc_by_kind": accs}

    def replay_batch(self, st: State) -> np.ndarray:
        return st.data["clean"][:256]

    def flags(self, st: State, raws: dict) -> tuple[int, int, int]:
        """(flagged, flagged and truly distorted, scored) over one round."""
        flagged = tp = scored = 0
        for k in KINDS:
            _, s_clean, s_dis = raws[f"train:{k}"]
            flagged += int((s_clean > 0).sum() + (s_dis > 0).sum())
            tp += int((s_dis > 0).sum())
            scored += len(s_clean) + len(s_dis)
        return flagged, tp, scored


# ---------------------------------------------------------------------------
# defend-eval: sensitivity, plan search and the protocol
# ---------------------------------------------------------------------------

class DefendEval:
    name = "defend-eval"

    def setup(self, family: int, scale: str, workdir: Path) -> State:
        size = SIZES[self.name][scale]
        st = State(family, _fresh_dir(workdir), featnet.default_network(NET_SEED))
        specs = _specs(family)
        corpus = _dataset(family, 1, size["det"])
        clean = _pixels(corpus)
        reps = detector.compute_mean_reps(st.model, clean)
        fc = detector.canberra_features_batch(st.model, reps, clean)
        dets = {}
        for k in KINDS:
            fd = detector.canberra_features_batch(st.model, reps, _distort(corpus, specs[k], 0))
            dets[k] = detector.train_detector(st.model, reps, None, None,
                                              seed=_seed(family, 7), features=(fc, fd))
        pair_ds = _dataset(family, 3, size["pairs"])
        pairs = []
        for i, it in enumerate(pair_ds.items):
            spec = specs[KINDS[i % len(KINDS)]]
            dimg, _ = distortions.apply(distortions.per_image_spec(spec, 9000 + i),
                                        it.image, it.landmarks)
            pairs.append((dimg, it.image))
        st.data.update(specs=specs, dets=dets, pairs=pairs,
                       search=_dataset(family, 4, size["search"]),
                       eval=_dataset(family, 5, size["eval"]))
        return st

    def ops(self, st: State) -> list[Op]:
        d = st.data

        def sensitivity(ctx):
            ctx["table"] = mitigator.compute_sensitivity(st.model, d["pairs"])
            return ctx["table"]

        def grid_search(ctx):
            ctx["plan"] = mitigator.grid_search_plan(
                st.model, ctx["table"], d["search"], [d["specs"][k] for k in KINDS],
                d["dets"], eta_grid=ETA_GRID, kappa_grid=KAPPA_GRID,
                seed=_seed(st.family, 17))
            path = st.workdir / "plan.json"
            mitigator.save_plan(ctx["plan"], path)
            return ctx["plan"], path.read_text()

        def protocol(kind):
            def run(ctx):
                rows = verifybench.run_protocol(
                    d["eval"], st.model, d["specs"][kind], det=d["dets"][kind],
                    plan=ctx["plan"], fraction=0.5, seed=_seed(st.family, 3))
                path = st.workdir / f"report-{kind}.csv"
                verifybench.write_report(rows, path)
                return rows, path.read_text()
            return run

        return ([Op("sensitivity", sensitivity, 2 * len(d["pairs"])),
                 Op("grid_search", grid_search, len(KINDS) * len(d["search"]))]
                + [Op(f"protocol:{k}", protocol(k), len(d["eval"])) for k in KINDS])

    def values(self, st: State, op: str, raw) -> dict:
        if op == "sensitivity":
            return {"eps": [row.tolist() for row in raw.eps], "n_dis": raw.n_dis,
                    "digest": digest(*raw.eps)}
        if op == "grid_search":
            return {"plan_json": raw[1], "digest": digest(raw[1].encode())}
        return {"csv": raw[1], "digest": digest(raw[1].encode())}

    def check(self, st: State, op: str, raw, ctx: dict) -> list[str]:
        errors = []
        if op == "sensitivity":
            if raw.n_dis != len(st.data["pairs"]):
                errors.append("sensitivity table counts the wrong number of pairs")
            if [len(r) for r in raw.eps] != list(st.model.conv_filter_counts()):
                errors.append("sensitivity table shape differs from the network")
            return errors
        if op == "grid_search":
            plan = raw[0]
            if plan.eta not in ETA_GRID or plan.kappa not in KAPPA_GRID:
                errors.append(f"plan ({plan.eta}, {plan.kappa}) is outside the grid")
            elif ctx["raws"]["sensitivity"] is not None and plan.mask != mitigator.build_plan(
                    ctx["raws"]["sensitivity"], plan.eta, plan.kappa).mask:
                errors.append("plan mask differs from build_plan on the same table")
            return errors
        rows, _ = raw
        ds = st.data["eval"]
        ids = np.array([it.subject_id for it in ds.items])
        n_gen = int((ids[:, None] == ids[None, :]).sum()) - len(ids)
        n_imp = len(ids) * (len(ids) - 1) - n_gen
        if [r["condition"] for r in rows] != ["original", "distorted", "corrected"]:
            errors.append("protocol rows are not original/distorted/corrected")
        for r in rows:
            if not 0 <= r["gar_at_far"] <= 1:
                errors.append(f"{r['condition']} GAR {r['gar_at_far']} outside [0, 1]")
            if (r["n_genuine"], r["n_impostor"]) != (n_gen, n_imp):
                errors.append(f"{r['condition']} pair counts differ from the dataset")
        first = ctx.get("original_gar")
        if first is None:
            ctx["original_gar"] = rows[0]["gar_at_far"]
        elif rows[0]["gar_at_far"] != first:
            errors.append("original-condition GAR differs between distortions")
        return errors

    def quality(self, st: State, raws: dict) -> dict:
        rows = {k: raws[f"protocol:{k}"][0] for k in KINDS}
        plan = raws["grid_search"][0]
        return {"gar_original": rows[KINDS[0]][0]["gar_at_far"],
                "gar_distorted": float(np.mean([r[1]["gar_at_far"] for r in rows.values()])),
                "gar_corrected": float(np.mean([r[2]["gar_at_far"] for r in rows.values()])),
                "plan": {"eta": plan.eta, "kappa": plan.kappa,
                         "disabled_filters": len(plan.mask.disabled)}}

    def replay_batch(self, st: State) -> np.ndarray:
        return _pixels(st.data["eval"])[:256]  # the protocol forwards in chunks of 256

    def flags(self, st: State, raws: dict) -> tuple[int, int, int]:
        """Recompute the protocol's detector flags on its 50%-distorted sets."""
        d, ds = st.data, st.data["eval"]
        _, to_distort = synthface.split_protocol(ds, 0.5, _seed(st.family, 3))
        truth = np.zeros(len(ds), dtype=bool)
        truth[to_distort] = True
        flagged = tp = scored = 0
        for k in KINDS:
            batch = _pixels(ds)
            for i in to_distort:
                it = ds.items[i]
                batch[i] = distortions.apply(distortions.per_image_spec(d["specs"][k], i),
                                             it.image, it.landmarks)[0].pixels
            f = detector.detect_scores(d["dets"][k], st.model, batch) > 0
            flagged += int(f.sum())
            tp += int((f & truth).sum())
            scored += len(ds)
        return flagged, tp, scored


# ---------------------------------------------------------------------------
# single-image: one client calling the CLI, closed loop
# ---------------------------------------------------------------------------

def run_cli(argv: list[str]) -> str:
    """`advface <argv>` in this process; returns its stdout, raises on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"advface {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


class SingleImage:
    name = "single-image"
    DISTORTED_SHARE = 0.25

    def setup(self, family: int, scale: str, workdir: Path) -> State:
        size = SIZES[self.name][scale]
        wd = _fresh_dir(workdir)
        net = ["--net-seed", str(NET_SEED)]
        subjects, samples = size["train"]
        run_cli(["gen-data", "--subjects", str(subjects), "--samples", str(samples),
                 "--seed", str(_seed(family, 1)), "--out", str(wd / "clean")])
        for k, spec in _specs(family).items():
            (wd / f"{k}.json").write_text(json.dumps(spec.to_json_dict()))
            run_cli(["distort", "--spec", str(wd / f"{k}.json"), "--in", str(wd / "clean"),
                     "--out", str(wd / f"dist-{k}")])
        # one distorted training set mixing all kinds, paired 1:1 with clean
        by_kind = {k: synthface.load_dataset(wd / f"dist-{k}") for k in KINDS}
        n = len(by_kind[KINDS[0]])
        mixed = tuple(by_kind[KINDS[i % len(KINDS)]].items[i] for i in range(n))
        synthface.save_dataset(synthface.Dataset(mixed, _seed(family, 1)), wd / "dist-mixed")
        run_cli(["extract", *net, "--dataset", str(wd / "clean"), "--out", str(wd / "model")])
        run_cli(["train-detector", *net, "--mean-reps", str(wd / "model" / "mean_reps.mrep"),
                 "--clean", str(wd / "clean"), "--distorted", str(wd / "dist-mixed"),
                 "--seed", str(_seed(family, 7)), "--out", str(wd / "det")])
        run_cli(["sensitivity", *net, "--clean", str(wd / "clean"),
                 "--distorted", str(wd / "dist-mixed"), "--out", str(wd / "table.json")])
        run_cli(["build-plan", "--table", str(wd / "table.json"), "--eta", "2",
                 "--kappa", "0.25", "--out", str(wd / "plan.json")])

        # the request pool: about a quarter distorted, spread over the kinds
        pool = _dataset(family, 2, size["pool"])
        rng = np.random.default_rng(_seed(family, 8))
        n_dis = int(round(self.DISTORTED_SHARE * len(pool)))
        distorted = sorted(int(i) for i in rng.permutation(len(pool))[:n_dis])
        specs = _specs(family)
        (wd / "pool").mkdir()
        (wd / "emb").mkdir()
        paths, truth = [], np.zeros(len(pool), dtype=bool)
        for i, it in enumerate(pool.items):
            img = it.image
            if i in distorted:
                spec = specs[KINDS[distorted.index(i) % len(KINDS)]]
                img, _ = distortions.apply(distortions.per_image_spec(spec, 5000 + i),
                                           img, it.landmarks)
                truth[i] = True
            path = wd / "pool" / f"{i:04d}.pgm"
            imagecore.write_image(img, path)
            paths.append(path)
        st = State(family, wd, featnet.default_network(NET_SEED))
        st.data.update(paths=paths, truth=truth,
                       order=[int(i) for i in rng.permutation(len(pool))])
        return st

    def ops(self, st: State) -> list[Op]:
        wd, net = st.workdir, ["--net-seed", str(NET_SEED)]

        def request(i):
            image = str(st.data["paths"][i])
            emb_path = wd / "emb" / f"{i:04d}.json"

            def run(ctx):
                line = run_cli(["detect", *net, "--detector", str(wd / "det" / "detector.json"),
                                   "--image", image])
                emb = None
                if line.rstrip().endswith(",distorted"):
                    run_cli(["mitigate", *net, "--plan", str(wd / "plan.json"),
                             "--image", image, "--out", str(emb_path)])
                    emb = emb_path.read_bytes()
                return line, emb
            return run

        return [Op(f"request:{i:04d}", request(i), 1) for i in st.data["order"]]

    def values(self, st: State, op: str, raw) -> dict:
        line, emb = raw
        parts = line.strip().split(",")
        out = {"verdict": parts[-1], "score": float(parts[-2]) if len(parts) >= 3 else None,
               "embedding": None, "digest": digest(",".join(parts[-2:]), emb or b"")}
        if emb is not None:
            out["embedding"] = probe(np.array(json.loads(emb)))
        return out

    def _batch_reference(self, st: State, ctx: dict) -> dict:
        """Scores and mitigated embeddings of the whole pool via the batched API."""
        if "api" not in ctx:
            wd = st.workdir
            det = detector.load_detector(wd / "det" / "detector.json")
            plan = mitigator.MitigationPlan.from_json_file(wd / "plan.json")
            batch = np.stack([imagecore.read_image(p).pixels for p in st.data["paths"]])
            ctx["api"] = {"scores": detector.detect_scores(det, st.model, batch),
                          "emb": mitigator.mitigate_batch(st.model, plan, batch)}
        return ctx["api"]

    def check(self, st: State, op: str, raw, ctx: dict) -> list[str]:
        i = int(op.split(":")[1])
        line, emb = raw
        parts = line.strip().split(",")
        if len(parts) < 3 or parts[-1] not in ("clean", "distorted") or line.count("\n") != 1:
            return [f"detect printed {line!r}, not one 'path,score,verdict' line"]
        api = self._batch_reference(st, ctx)
        score = float(parts[-2])
        errors = []
        if abs(score - api["scores"][i]) > 1e-4:
            errors.append(f"CLI score {score} differs from batched score {api['scores'][i]:.6f}")
        elif abs(api["scores"][i]) > 1e-4 and (parts[-1] == "distorted") != (api["scores"][i] > 0):
            errors.append("CLI verdict differs from the batched detector")
        if emb is not None and not np.allclose(json.loads(emb), api["emb"][i], atol=1e-5):
            errors.append("CLI mitigated embedding differs from the batched mitigation")
        return errors

    def quality(self, st: State, raws: dict) -> dict:
        flagged, tp, scored = self.flags(st, raws)
        truth = st.data["truth"]
        correct = tp + (scored - int(truth.sum())) - (flagged - tp)
        return {"detector_acc": correct / scored, "flagged_share": flagged / scored,
                "distorted_share": float(truth.mean())}

    def replay_batch(self, st: State) -> np.ndarray:
        return imagecore.read_image(st.data["paths"][0]).pixels[None]

    def flags(self, st: State, raws: dict) -> tuple[int, int, int]:
        flagged = tp = 0
        for op, (line, _) in raws.items():
            if line.rstrip().endswith(",distorted"):
                flagged += 1
                tp += int(st.data["truth"][int(op.split(":")[1])])
        return flagged, tp, len(raws)


WORKLOADS = {w.name: w for w in (TrainDetect(), DefendEval(), SingleImage())}
