"""Batch command-line entry point for the full pipeline.

Every subcommand is deterministic: identical flags and seed give
byte-identical outputs. A JSON config file can supply flag defaults
(flags given on the command line win). Within one process, `main` reuses
its parsers and each seeded network, so a caller that serves one image per
call does not rebuild them every time.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import detector as det_mod
from . import distortions, featnet, mitigator, synthface, verifybench
from .imagecore import FormatError, read_image


@functools.lru_cache(maxsize=8)
def _seeded_network(seed: int) -> featnet.NetworkModel:
    # cached here, not on default_network, so that stays a plain function;
    # the model is shared between calls, which its read-only arrays allow
    return featnet.default_network(seed)


def _load_network(args) -> featnet.NetworkModel:
    # --net-seed defaults to None, so only a seed given by flag or config conflicts
    if not args.weights:
        return _seeded_network(args.net_seed or 0)
    if args.net_seed is not None:
        raise ValueError("--weights and --net-seed name two networks: give one")
    return featnet.load_weights(args.weights)


def _cmd_gen_data(args):
    ds = synthface.generate_dataset(args.subjects, args.samples, args.size, args.seed)
    out = Path(args.out)
    synthface.save_dataset(ds, out)
    print(f"wrote {len(ds)} images + manifest.json to {out}")


def _cmd_distort(args):
    spec = distortions.DistortionSpec.from_json_file(args.spec)
    ds = synthface.load_dataset(args.inp)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    items = []
    records = []
    for i, item in enumerate(ds.items):
        spec_i = distortions.per_image_spec(spec, i)
        img, affected = distortions.apply(spec_i, item.image, item.landmarks)
        items.append(synthface.DatasetItem(img, item.landmarks,
                                           item.subject_id, item.sample_index))
        records.append({"index": i, "spec": spec_i.to_json_dict(),
                        "affected_pixel_count": affected})
    synthface.save_dataset(synthface.Dataset(tuple(items), ds.seed), out)
    (out / "records.json").write_text(json.dumps(records, indent=2))
    print(f"distorted {len(items)} images into {out}")


def _cmd_extract(args):
    model = _load_network(args)
    ds = synthface.load_dataset(args.dataset)
    reps = det_mod.compute_mean_reps(model, ds.pixel_batch())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    featnet.save_weights(model, out / "network.fnet")
    det_mod.save_mean_reps(reps, out / "mean_reps.mrep")
    print(f"wrote network.fnet and mean_reps.mrep ({reps.n_train} images) to {out}")


def _cmd_train_detector(args):
    model = _load_network(args)
    reps = det_mod.load_mean_reps(args.mean_reps)
    clean = synthface.load_dataset(args.clean)
    distorted = synthface.load_dataset(args.distorted)
    det = det_mod.train_detector(model, reps, clean.pixel_batch(), distorted.pixel_batch(),
                                 C_grid=args.c_grid, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    det_mod.save_detector(det, out / "detector.json", out / "mean_reps.mrep")
    print(f"trained detector (C={det.C}) -> {out / 'detector.json'}")


def _cmd_detect(args):
    model = _load_network(args)
    det = det_mod.load_detector(args.detector)
    score = det_mod.detect_scores(det, model, read_image(args.image).pixels[None])[0]
    print(f"{args.image},{score:.6f},{'distorted' if score > 0 else 'clean'}")


def _cmd_sensitivity(args):
    model = _load_network(args)
    clean = synthface.load_dataset(args.clean)
    distorted = synthface.load_dataset(args.distorted)
    if len(clean) != len(distorted):
        raise ValueError("clean and distorted datasets must pair up 1:1")
    if clean.seed != distorted.seed:  # `advface distort` keeps its input's seed
        raise ValueError("clean and distorted datasets must pair up 1:1: they come from "
                         f"gen-data seeds {clean.seed} and {distorted.seed}")
    for i, (c, d) in enumerate(zip(clean.items, distorted.items)):
        if (c.subject_id, c.sample_index) != (d.subject_id, d.sample_index):
            raise ValueError(f"clean and distorted datasets must pair up 1:1: item {i} is "
                             f"subject {c.subject_id} sample {c.sample_index} in --clean but "
                             f"subject {d.subject_id} sample {d.sample_index} in --distorted")
    pairs = [(d.image, c.image) for d, c in zip(distorted.items, clean.items)]
    table = mitigator.compute_sensitivity(model, pairs)
    mitigator.save_table(table, args.out)
    print(f"sensitivity table over {table.n_dis} pairs -> {args.out}")


def _cmd_build_plan(args):
    table = mitigator.load_table(args.table)
    plan = mitigator.build_plan(table, args.eta, args.kappa,
                                use_median_filter=not args.no_median)
    mitigator.save_plan(plan, args.out)
    print(f"plan eta={plan.eta} kappa={plan.kappa} "
          f"({len(plan.mask.disabled)} filters disabled) -> {args.out}")


def _cmd_mitigate(args):
    model = _load_network(args)
    plan = mitigator.MitigationPlan.from_json_file(args.plan)
    emb = mitigator.mitigate_batch(model, plan, read_image(args.image).pixels[None])[0]
    Path(args.out).write_text(json.dumps([float(v) for v in emb]))
    print(f"embedding ({len(emb)}-d) -> {args.out}")


def _cmd_evaluate(args):
    model = _load_network(args)
    ds = synthface.load_dataset(args.dataset)
    spec = distortions.DistortionSpec.from_json_file(args.distortion)
    det = det_mod.load_detector(args.detector) if args.detector else None
    plan = mitigator.MitigationPlan.from_json_file(args.plan) if args.plan else None
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    open(out, "a").close()  # an unwritable --out fails here, before any forward pass
    rows = verifybench.run_protocol(ds, model, spec, det=det, plan=plan,
                                    fraction=args.fraction, seed=args.seed,
                                    far_target=args.far)
    verifybench.write_report(rows, out)
    for r in rows:
        print(f"{r['condition']}: GAR@{r['far_target']:g}FAR = {r['gar_at_far']:.6f}")
    print(f"report -> {out}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="advface",
                                description="Face distortion attacks, detection, mitigation")
    p.add_argument("--config", help="JSON file supplying flag defaults")
    sub = p.add_subparsers(dest="command", required=True)

    def net_flags(sp):
        sp.add_argument("--weights", help="FNET1 weight file (default: seeded network)")
        sp.add_argument("--net-seed", type=int, help="seed of the default network (default: 0)")

    sp = sub.add_parser("gen-data", help="generate a synthetic labeled dataset")
    sp.add_argument("--subjects", type=int, required=True)
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--size", type=int, default=64)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_gen_data)

    sp = sub.add_parser("distort", help="apply a distortion spec to a dataset")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--in", dest="inp", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_distort)

    sp = sub.add_parser("extract", help="save network weights and clean mean activations")
    net_flags(sp)
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_extract)

    sp = sub.add_parser("train-detector", help="train the clean/distorted classifier")
    net_flags(sp)
    sp.add_argument("--mean-reps", required=True)
    sp.add_argument("--clean", required=True)
    sp.add_argument("--distorted", required=True)
    sp.add_argument("--c-grid", type=float, nargs="+", default=list(det_mod.DEFAULT_C_GRID))
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_train_detector)

    sp = sub.add_parser("detect", help="score one image with a trained detector")
    net_flags(sp)
    sp.add_argument("--detector", required=True)
    sp.add_argument("--image", required=True)
    sp.set_defaults(func=_cmd_detect)

    sp = sub.add_parser("sensitivity", help="per-filter sensitivity from paired datasets")
    net_flags(sp)
    sp.add_argument("--clean", required=True)
    sp.add_argument("--distorted", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_sensitivity)

    sp = sub.add_parser("build-plan", help="derive a mitigation plan from a table")
    sp.add_argument("--table", required=True)
    sp.add_argument("--eta", type=int, required=True)
    sp.add_argument("--kappa", type=float, required=True)
    sp.add_argument("--no-median", action="store_true")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_build_plan)

    sp = sub.add_parser("mitigate", help="embed one image under a mitigation plan")
    net_flags(sp)
    sp.add_argument("--plan", required=True)
    sp.add_argument("--image", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_mitigate)

    sp = sub.add_parser("evaluate", help="run the 50%-distorted protocol")
    net_flags(sp)
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--distortion", required=True)
    sp.add_argument("--detector")
    sp.add_argument("--plan")
    sp.add_argument("--far", type=float, default=0.01)
    sp.add_argument("--fraction", type=float, default=0.5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_evaluate)
    return p


# what a flag of each type takes from a config besides text, and how an error names it
_TAKES = {bool: ((bool,), "true or false"), int: ((str, int), "an integer"),
          float: ((str, int, float), "a number"), str: ((str,), "a string")}


def _config_value(action: argparse.Action, value):
    """A config value as the flag's own parsing gives it, or ValueError naming the flag.

    Text goes through the flag's type, as on the command line; any other JSON
    value must already be of that type, where a float flag takes any number.
    A switch takes true or false, a list flag a non-empty list of such values.
    """
    conv = bool if action.nargs == 0 else action.type or str
    takes, want = _TAKES[conv]
    many = action.nargs == "+"
    items = (value if type(value) is list else None) if many else [value]
    if items and all(type(v) in takes for v in items):
        try:
            got = [conv(v) for v in items]
            return got if many else got[0]
        except (ValueError, OverflowError):  # float() of a huge int overflows
            pass
    want = f"a non-empty list, each {want}" if many else want
    raise ValueError(f"{action.option_strings[0]} must be {want}, got {json.dumps(value)}")


def _apply_config(parser: argparse.ArgumentParser, path) -> None:
    """Install a JSON config file's values as flag defaults, including for required flags.

    A key names a flag of any subcommand by its option name, "_" standing for
    "-"; every key and value is checked before any work.
    """
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"config {path} is not a JSON object")
    flags: dict[str, list] = {}  # option name -> its action in each subcommand that has it
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for sub in subs.choices.values():
        for action in sub._actions:
            if action.option_strings and action.dest != "help":
                flags.setdefault(action.option_strings[0], []).append(action)
    for key, value in doc.items():
        actions = flags.get("--" + key.replace("_", "-"))
        if not actions:
            raise ValueError(f"config key {key!r} names no flag")
        for action in actions:
            action.default = _config_value(action, value)
            action.required = False


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The (pre, full) parser pair, built once; parsing never changes them."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    return pre, build_parser()


def main(argv=None) -> int:
    pre, parser = _parsers()
    known, _ = pre.parse_known_args(argv)
    if known.config:
        parser = build_parser()  # _apply_config changes defaults: never the shared one
        try:
            _apply_config(parser, known.config)
        except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
            print(f"usage error: {exc}", file=sys.stderr)
            return 1
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (FormatError, verifybench.ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:  # JSONDecodeError is a ValueError
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
