"""Mitigation of detected distortions via selective dropout.

Per-filter sensitivity scores accumulate the L2 norm of each conv filter's
response difference between distorted/clean image pairs. A mitigation plan
disables the most sensitive filter fraction in the most affected layers and
median-filters the input before the masked forward pass. Plan parameters are
chosen by grid search with verification performance as the criterion.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .imagecore import FormatError, check_json, median_filter_array
from .featnet import FilterMask, NetworkModel, _forward_chunks, forward_batch
from .synthface import Dataset

_AGG_TOL = 1e-6
MEDIAN_WINDOW = 5  # side of the median filter a plan applies before the masked forward
SENSITIVITY_CHUNK = 128  # pairs per forward pass in compute_sensitivity
# pairs per float64 difference block: conv1's block is 2 MiB, not 67 MB for a chunk
_DIFF_PAIRS = 8


@dataclass(frozen=True)
class SensitivityTable:
    """Per-filter distortion sensitivity; eps[i][j] for filter j of conv layer i."""

    eps: tuple[np.ndarray, ...]
    n_dis: int

    def __post_init__(self):
        if self.n_dis < 1:
            raise ValueError("n_dis must be >= 1")
        for row in self.eps:
            if not np.all(np.isfinite(row)) or np.any(row < 0):
                raise ValueError("sensitivity scores must be finite and non-negative")

    @property
    def layer_agg(self) -> np.ndarray:
        return np.array([row.sum() for row in self.eps])

    def to_json_dict(self) -> dict:
        return {"eps": [row.tolist() for row in self.eps],
                "layer_agg": self.layer_agg.tolist(), "n_dis": self.n_dis}

    @classmethod
    def from_json_dict(cls, d: dict) -> "SensitivityTable":
        check_json(d, "sensitivity table",
                   {"eps": (list, (list, float)), "layer_agg": (list, float), "n_dis": int}, {})
        try:
            table = cls(tuple(np.array(row) for row in d["eps"]), d["n_dis"])
        except ValueError as exc:
            raise FormatError(f"sensitivity table: {exc}") from None
        if (len(d["layer_agg"]) != len(table.eps)
                or not np.allclose(table.layer_agg, d["layer_agg"], atol=_AGG_TOL)):
            raise FormatError("sensitivity table: layer aggregates inconsistent with eps matrix")
        return table


@dataclass(frozen=True)
class MitigationPlan:
    eta: int
    kappa: float
    mask: FilterMask
    use_median_filter: bool = True

    def to_json_dict(self) -> dict:
        return {"eta": self.eta, "kappa": self.kappa, "mask": self.mask.to_json_list(),
                "use_median_filter": self.use_median_filter}

    @classmethod
    def from_json_dict(cls, d: dict) -> "MitigationPlan":
        check_json(d, "mitigation plan", {"eta": int, "kappa": float, "mask": (list, (list, int))},
                   {"use_median_filter": bool})
        if any(len(pair) != 2 for pair in d["mask"]):
            raise FormatError("mitigation plan: mask entries must be [layer, filter] pairs")
        return cls(d["eta"], d["kappa"], FilterMask(frozenset(map(tuple, d["mask"]))),
                   d.get("use_median_filter", True))

    @classmethod
    def from_json_file(cls, path) -> "MitigationPlan":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


def compute_sensitivity(model: NetworkModel, pairs) -> SensitivityTable:
    """Accumulate per-filter L2 response differences over (distorted, clean) pairs.

    A conv's response is the ReLU right after it, or the conv itself when no
    ReLU follows; the forward pass taps exactly those layers.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one image pair")
    kinds = [layer.kind for layer in model.layers] + [None]
    responses = replace(model, tap_points=tuple(
        i + 1 if kinds[i + 1] == "relu" else i for i in model.conv_ordinals))
    sums = [np.zeros(n) for n in model.conv_filter_counts()]
    chunks = [_forward_chunks(responses, np.stack([p[k].pixels for p in pairs]),
                              chunk=SENSITIVITY_CHUNK) for k in (0, 1)]
    for (_, (_, taps_d)), (_, (_, taps_c)) in zip(*chunks):
        for s, td, tc in zip(sums, taps_d, taps_c):
            s += _pair_norms(td, tc, len(s)).sum(axis=0)
        # free these taps: zip runs the next two forwards before the names are rebound
        del taps_d, taps_c, td, tc
    return SensitivityTable(tuple(sums), len(pairs))


def _pair_norms(td: np.ndarray, tc: np.ndarray, o: int) -> np.ndarray:
    """(N, O) L2 norm of each filter's response difference, per pair, from
    flat (N, O*H'*W') taps."""
    n = td.shape[0]
    # channels-last views: the position sum then accumulates each filter's
    # squares in row-major (h, w) order, one add at a time
    md, mc = (t.reshape(n, o, -1).transpose(0, 2, 1) for t in (td, tc))
    norms = np.empty((n, o))
    diff = np.empty((min(n, _DIFF_PAIRS), md.shape[1], o))
    for lo in range(0, n, _DIFF_PAIRS):
        d = diff[: min(n - lo, _DIFF_PAIRS)]
        np.subtract(md[lo : lo + len(d)], mc[lo : lo + len(d)], out=d, dtype=np.float64)
        norms[lo : lo + len(d)] = np.sqrt(np.square(d, out=d).sum(axis=1))
    return norms


def build_plan(table: SensitivityTable, eta: int, kappa: float,
               use_median_filter: bool = True) -> MitigationPlan:
    """Disable the top-kappa filter fraction in the eta most affected layers."""
    n_layers = len(table.eps)
    if not 1 <= eta <= n_layers:
        raise ValueError(f"eta must be in [1, {n_layers}]")
    if not 0 <= kappa <= 1:
        raise ValueError("kappa must be in [0, 1]")
    agg = table.layer_agg
    layer_order = sorted(range(n_layers), key=lambda i: (-agg[i], i))
    disabled = set()
    if kappa > 0:
        for li in layer_order[:eta]:
            row = table.eps[li]
            take = math.ceil(kappa * len(row))
            order = sorted(range(len(row)), key=lambda j: (-row[j], j))
            disabled.update((li, j) for j in order[:take])
    return MitigationPlan(eta, kappa, FilterMask(frozenset(disabled)), use_median_filter)


def mitigate_batch(model: NetworkModel, plan: MitigationPlan, images: np.ndarray) -> np.ndarray:
    """Embeddings of a (N, H, W, C) uint8 batch after median filtering and masked forward."""
    if plan.use_median_filter:
        images = median_filter_array(images, MEDIAN_WINDOW)
    return forward_batch(model, images, plan.mask)[0]


def grid_search_plan(model: NetworkModel, table: SensitivityTable, train_ds: Dataset,
                     distortion_specs, det, eta_grid, kappa_grid,
                     far_target: float = 0.01, seed: int = 0) -> MitigationPlan:
    """Pick the (eta, kappa) maximizing mean GAR over the given distortions.

    Each candidate plan is scored by running the detect-then-mitigate pipeline
    on a 50%-distorted copy of train_ds and computing GAR at far_target,
    averaged across distortions. Ties prefer smaller kappa, then smaller eta.
    """
    from . import verifybench  # local import: verifybench depends on this module

    eta_grid = sorted(set(eta_grid))
    kappa_grid = sorted(set(kappa_grid))
    specs = list(distortion_specs)
    if not eta_grid or not kappa_grid or not specs:
        raise ValueError("grids and distortion list must be non-empty")
    subjects = {it.subject_id for it in train_ds.items}
    if len(subjects) < 2:
        raise ValueError("training dataset must span at least 2 subjects")

    # per-spec precomputation independent of the candidate plan;
    # det may be one detector or a mapping from distortion kind to detector
    prepared = [
        verifybench.prepare_pipeline_eval(
            model, train_ds, spec,
            det[spec.kind] if isinstance(det, dict) else det,
            fraction=0.5, seed=seed)
        for spec in specs
    ]
    best = None
    best_gar = -1.0
    for kappa in kappa_grid:
        for eta in eta_grid:
            plan = build_plan(table, eta, kappa)
            gars = [verifybench.finish_pipeline_eval(model, prep, plan, far_target)
                    for prep in prepared]
            mean_gar = float(np.mean(gars))
            if mean_gar > best_gar:
                best_gar, best = mean_gar, plan
    return best


def save_table(table: SensitivityTable, path) -> None:
    Path(path).write_text(json.dumps(table.to_json_dict(), indent=2))


def load_table(path) -> SensitivityTable:
    return SensitivityTable.from_json_dict(json.loads(Path(path).read_text()))


def save_plan(plan: MitigationPlan, path) -> None:
    Path(path).write_text(json.dumps(plan.to_json_dict(), indent=2))
