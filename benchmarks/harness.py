"""Measurement and reporting for one workload run; see run.py for the command."""

from __future__ import annotations

import json
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import tracing
from workloads import WORKLOADS

FAMILIES = 8           # inputs are made from seed % FAMILIES; each has a reference
SETUP_REPEATS = 3
IMPORT_REPEATS = 3  # this process's own import plus fresh interpreters


def import_times(first_s: float) -> list[float]:
    """Seconds to import NumPy, advface and the benchmark, over IMPORT_REPEATS.

    The first sample is this process's own import; the others import the
    same modules in fresh interpreters with the same environment (BLAS pinned).
    """
    code = (f"import sys, time; sys.path[:0] = {sys.path[:2]!r}; "
            "t = time.perf_counter(); import harness; print(time.perf_counter() - t)")
    samples = [first_s]
    for _ in range(IMPORT_REPEATS - 1):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=60)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def percentile_summary(samples_ms: list[float]) -> dict:
    """Median plus the highest of p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(samples_ms)
    out = {"n": n, "p50": float(np.percentile(samples_ms, 50))}
    for p in (90, 99, 99.9):
        if n * (1 - p / 100) >= 10:
            out["tail_percentile"] = p
            out["tail"] = float(np.percentile(samples_ms, p))
    return out


class Runner:
    def __init__(self, args, workload, out_dir: Path):
        self.args = args
        self.wl = workload
        self.family = args.family
        self.key = f"{args.scale}/family{self.family}"
        self.out_dir = out_dir
        self.reference = None if args.record else checks.load_reference(workload.name, self.key)
        self.first_values: dict = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.digest_changes: list[str] = []  # within tolerance, but other bytes
        self.ctx: dict = {}  # shared by checks; "raws" holds the round being checked
        self.last_raws: dict = {}
        self.tracer = None  # set while a traced window is open
        self.cpu_s: list[float] = []  # process CPU time of each round

    def setup(self, tag: str):
        return self.wl.setup(self.family, self.args.scale, self.out_dir / tag)

    def round(self, st) -> tuple[float, dict, int]:
        """One timed round: (wall seconds, latency of each operation by name, images)."""
        ctx, raws, latencies, images = {}, {}, {}, 0
        cpu_start = time.process_time()
        start = time.perf_counter()
        for op in self.wl.ops(st):
            t0 = time.perf_counter()
            try:
                raws[op.name] = op.run(ctx)
            except Exception:  # an operation failure is counted, not fatal
                raws[op.name] = None
                self.failures.append(f"{op.name}: {traceback.format_exc(limit=3)}")
            latencies[op.name] = time.perf_counter() - t0
            images += op.images
        end = time.perf_counter()
        wall = end - start
        self.cpu_s.append(time.process_time() - cpu_start)
        window = self.tracer.window if self.tracer else None
        if window:
            self.tracer.intervals[window].append((start, end))
        if self.tracer:  # checks are not part of the traced workload
            self.tracer.window = None
        self._check_round(st, raws)
        if self.tracer:
            self.tracer.window = window
        self.last_raws = raws
        return wall, latencies, images

    def _check_round(self, st, raws: dict) -> None:
        self.ctx["raws"] = raws
        for op, raw in raws.items():
            self.attempted += 1
            if raw is None:
                continue  # already counted as failed
            try:
                errors = self.wl.check(st, op, raw, self.ctx)
                values = self.wl.values(st, op, raw)
            except Exception:
                errors, values = [traceback.format_exc(limit=3)], None
            canonical = json.dumps(values, sort_keys=True)
            if op not in self.first_values:
                self.first_values[op] = canonical
                if not self.args.record and values is not None:
                    errors += self._against_reference(op, values)
            elif canonical != self.first_values[op]:
                errors.append("output differs from the first round in this process")
            if errors:
                self.failures.append(f"{op}: " + "; ".join(errors))

    def _against_reference(self, op: str, values: dict) -> list[str]:
        if self.reference is None or op not in self.reference:
            return [f"no reference recorded for {op} in {self.key}"]
        if self.reference[op]["digest"] != values["digest"]:
            self.digest_changes.append(op)
        return checks.compare(self.reference[op], values, op)

    def last_round_complete(self) -> bool:
        """Whether every operation of the last round returned; quality figures need it."""
        return all(raw is not None for raw in self.last_raws.values())

    def digests(self) -> dict:
        return {op: (json.loads(v) or {}).get("digest")
                for op, v in sorted(self.first_values.items())}

    def record(self) -> None:
        checks.store_reference(self.wl.name, self.key,
                               {op: json.loads(v) for op, v in self.first_values.items()})


def timed_rounds(runner: Runner, st, seconds: float):
    """Rounds until `seconds` have passed, at least one.

    Returns round wall times, each operation's latencies by name, the image
    rate of each round and the images of one round.
    """
    walls, latencies, rates = [], {}, []
    start = time.perf_counter()
    while True:
        wall, lat, images = runner.round(st)
        walls.append(wall)
        for name, t in lat.items():
            latencies.setdefault(name, []).append(t)
        rates.append(images / wall)
        if time.perf_counter() - start >= seconds:
            return walls, latencies, rates, images


def metric(value, unit, better, **extra) -> dict:
    return {"value": value, "unit": unit, "better": better, **extra}


def untraced(runner: Runner, first_import_s: float) -> tuple[dict, dict]:
    imports = import_times(first_import_s)
    setup_times = []
    st = None
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        st = runner.setup(f"setup-{k}")
        setup_times.append(time.perf_counter() - t0)
    walls, latencies, rates, images = timed_rounds(runner, st, runner.args.seconds)
    # A request is one named operation of a round; its latency is its median
    # over the rounds, which keeps one slow round from moving the percentiles.
    per_request_ms = [float(np.median(v)) * 1000 for v in latencies.values()]
    lat = percentile_summary([t * 1000 for v in latencies.values() for t in v])

    metrics = {
        "setup_s": metric(float(np.median(imports) + np.median(setup_times)), "s", "lower",
                          samples=SETUP_REPEATS, import_runs_s=imports,
                          setup_runs_s=setup_times),
        "images_per_s": metric(float(np.median(rates)), "img/s", "higher",
                               samples=len(rates), images_per_round=images,
                               round_s=walls, round_cpu_s=runner.cpu_s),
        "request_p50_ms": metric(float(np.percentile(per_request_ms, 50)), "ms", "lower",
                                 requests=len(per_request_ms), rounds=len(walls)),
        "request_p90_ms": metric(float(np.percentile(per_request_ms, 90)), "ms", "lower",
                                 requests=len(per_request_ms), rounds=len(walls),
                                 all_samples=lat),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "MB", "lower"),
    }
    return metrics, runner.wl.quality(st, runner.last_raws) if runner.last_round_complete() else {}


def traced(runner: Runner, st_untraced) -> dict:
    walls_plain, *_ = timed_rounds(runner, st_untraced, runner.args.seconds / 2)
    tracer = runner.tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.window = "setup"
        t0 = time.perf_counter()
        st = runner.setup("traced-setup")
        t1 = time.perf_counter()
        tracer.intervals["setup"].append((t0, t1))
        setup_wall = t1 - t0
        tracer.window = "timed"
        walls_traced, _, _, _ = timed_rounds(runner, st, runner.args.seconds / 2)
    finally:
        tracer.window = None
        tracer.uninstall()
    rounds = len(walls_traced)
    timed = tracer.summary("timed", sum(walls_traced))
    setup = tracer.summary("setup", setup_wall)
    tracer.write_spans(runner.out_dir / "spans.jsonl")
    runner.attempted += 1  # the span accounting is checked like an operation
    if timed["errors"] or setup["errors"]:
        runner.failures.append("trace accounting: " + "; ".join(
            (timed["errors"] + setup["errors"])[:5]))

    replay = tracing.replay_layers(st.model, runner.wl.replay_batch(st))
    flagged, tp, scored = runner.wl.flags(st, runner.last_raws) \
        if runner.last_round_complete() else (0, 0, 0)
    return per_layer(timed, setup, rounds, replay, flagged, tp, scored,
                     float(np.median(walls_traced)) / float(np.median(walls_plain)) - 1)


def per_layer(timed: dict, setup: dict, rounds: int, replay: dict,
              flagged: int, tp: int, scored: int, overhead: float) -> dict:
    """Per-layer metrics of the timed phase, per round, plus setup's synthface."""
    wall = timed["wall_s"] / rounds
    layer = {k: v / rounds for k, v in timed["layer_self_s"].items()}
    group = {k: v / rounds for k, v in timed["group_self_s"].items()}
    calls = {k: v / rounds for k, v in timed["calls"].items()}
    units = {k: v / rounds for k, v in timed["units"].items()}
    incl = {k: v / rounds for k, v in timed["inclusive_s"].items()}

    def g(name):
        return group.get(name, 0.0)

    out = {}

    def put(name, value, unit, better):
        if unit == "count" and float(value).is_integer():
            value = int(value)
        out[name] = metric(value, unit, better)

    def put_time(name, seconds):
        """A self time, as seconds and as a share of the round's traced wall time."""
        put(f"{name}.self_s", seconds, "s", "lower")
        put(f"{name}.self_share", seconds / wall, "ratio", "lower")

    fwd_images = units.get("featnet.forward_batch", 0)
    put("featnet.forward.calls", calls.get("featnet.forward_batch", 0), "count", "lower")
    put("featnet.forward.images", fwd_images, "count", "lower")
    put_time("featnet", layer["featnet"])
    put("featnet.forward.us_per_image",
        g("featnet.forward") / fwd_images * 1e6 if fwd_images else 0.0, "us", "lower")
    for name in tracing.REPLAY_NAMES:
        put(f"featnet.{name}.us_per_image", replay[name], "us", "lower")
    put_time("featnet.build", g("featnet.build"))
    put_time("detector", layer["detector"])
    for sub in ("mean_reps", "features", "fit", "score", "load"):
        put_time(f"detector.{sub}", g(f"detector.{sub}"))
    put("detector.fit.hinge_fits", calls.get("detector._fit_hinge", 0), "count", "lower")
    put("detector.flagged_frac", flagged / scored if scored else 0.0, "ratio", "lower")
    put("detector.flag_precision", tp / flagged if flagged else 0.0, "ratio", "higher")
    put_time("distortions", layer["distortions"])
    for kind in tracing.DISTORTION_KINDS:
        fn = f"distortions.apply_{kind}"
        n = calls.get(fn, 0)
        put(f"distortions.{kind}.ms_per_image", incl.get(fn, 0.0) / n * 1e3 if n else 0.0,
            "ms", "lower")
        put(f"distortions.{kind}.share", incl.get(fn, 0.0) / wall, "ratio", "lower")
    put_time("imagecore", layer["imagecore"])
    put_time("imagecore.median", g("imagecore.median"))
    put("imagecore.median.images", units.get("imagecore.median_filter", 0)
        + units.get("imagecore.median_filter_array", 0), "count", "lower")
    put_time("imagecore.pgm", g("imagecore.pgm"))
    put_time("mitigator", layer["mitigator"])
    for sub in ("sensitivity", "grid_search", "mitigate"):
        put_time(f"mitigator.{sub}", g(f"mitigator.{sub}"))
    put("mitigator.grid_search.plans", calls.get("mitigator.build_plan", 0), "count", "lower")
    put("mitigator.mitigate.images", units.get("mitigator.mitigate", 0)
        + units.get("mitigator.mitigate_batch", 0), "count", "lower")
    put_time("verifybench", layer["verifybench"])
    put_time("verifybench.protocol", g("verifybench.protocol"))
    put_time("verifybench.roc", g("verifybench.roc"))
    put("verifybench.roc.calls", calls.get("verifybench.roc", 0), "count", "lower")
    put("verifybench.score_pairs", units.get("verifybench.roc", 0), "count", "lower")
    put_time("cli", layer["cli"])
    put("cli.requests", calls.get("cli.main", 0), "count", "lower")
    put_time("synthface.timed", layer["synthface"])
    # faces are generated in setup, which is where synthface's cost lands
    put("synthface.self_s", setup["layer_self_s"]["synthface"], "s", "lower")
    put("synthface.images", setup["units"].get("synthface.generate_dataset", 0), "count", "lower")
    put("trace.wall_s", wall, "s", "lower")
    put("trace.unattributed_s", timed["unattributed_s"] / rounds, "s", "lower")
    put("trace.overhead_frac", overhead, "ratio", "lower")
    put("trace.rounds", rounds, "count", "higher")
    put("trace.setup.wall_s", setup["wall_s"], "s", "lower")
    put("trace.setup.unattributed_s", setup["unattributed_s"], "s", "lower")
    for name, v in setup["layer_self_s"].items():
        put(f"trace.setup.{name}.self_s", v, "s", "lower")
    return out


def record(args, root: Path) -> int:
    """Replace the workload's references: family 0 at smoke scale, every family at bench."""
    checks.reference_path(args.workload).unlink(missing_ok=True)
    for scale, family in [("smoke", 0)] + [("bench", f) for f in range(FAMILIES)]:
        args.scale, args.family = scale, family
        out_dir = root / ".bench_out" / f"{args.workload}-record"
        runner = Runner(args, WORKLOADS[args.workload], out_dir)
        runner.round(runner.setup(f"{scale}-{family}"))
        shutil.rmtree(out_dir, ignore_errors=True)
        if runner.failures:
            print("\n".join(runner.failures), file=sys.stderr)
            return 1
        runner.record()
        print(f"recorded {runner.wl.name} {runner.key}", flush=True)
    return 0


def main(args, root: Path, import_s: float, blas_threads: str) -> int:
    if args.record:
        return record(args, root)
    args.family = args.seed % FAMILIES
    out_dir = root / ".bench_out" / f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(args, WORKLOADS[args.workload], out_dir)

    report = {"workload": args.workload, "seed": args.seed, "family": runner.family,
              "scale": args.scale, "trace": args.trace,
              "environment": checks.environment(blas_threads)}
    if args.trace:
        st = runner.setup("setup")
        metrics = traced(runner, st)
        report["quality"] = runner.wl.quality(st, runner.last_raws) \
            if runner.last_round_complete() else {}
    else:
        metrics, report["quality"] = untraced(runner, import_s)

    failed = len(runner.failures)  # one entry per failed operation
    attempted = max(runner.attempted, 1)
    report.update(metrics=metrics, digests=runner.digests(),
                  digests_changed_from_reference=runner.digest_changes,
                  failed_frac=failed / attempted, failures=runner.failures[:20])
    for work in out_dir.iterdir():  # generated inputs; keep only report and spans
        if work.is_dir():
            shutil.rmtree(work)
    (out_dir / "report.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(report))
    names = driver_metrics(root)[args.trace]
    result = {"correct": not runner.failures, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
                          for k in names}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def driver_metrics(root: Path) -> dict:
    """Names of the metrics the final line carries, as BENCHMARK.json lists them."""
    doc = json.loads((root / "BENCHMARK.json").read_text())
    return {0: [m["name"] for m in doc["end_to_end"]],
            1: [m["name"] for m in doc["per_layer"]]}
