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

from .imagecore import FormatError, check_json, load_json, median_filter_array, reading
from .featnet import FilterMask, NetworkModel, embed, forward_chunks
from .synthface import Dataset

MEDIAN_WINDOW = 5  # side of the median filter a plan applies before the masked forward
# pairs whose norms are added in order before their total joins the table's. Kept until a
# re-record: a plain-order sum moved the 300-pair bench tables by up to 1.7e-15 relative
_SUM_PAIRS = 128


@dataclass(frozen=True)
class SensitivityTable:
    """Per-filter distortion sensitivity; eps[i][j] for filter j of conv layer i."""

    eps: tuple[np.ndarray, ...]
    n_dis: int

    def __post_init__(self):
        if self.n_dis < 1:
            raise ValueError("n_dis must be >= 1")
        if not self.eps or not all(len(row) for row in self.eps):
            raise ValueError("eps must hold at least one layer, each with at least one filter")
        for row in self.eps:
            if not np.all(np.isfinite(row)) or np.any(row < 0):
                raise ValueError("sensitivity scores must be finite and non-negative")

    def to_json_dict(self) -> dict:
        return {"eps": [row.tolist() for row in self.eps], "n_dis": self.n_dis}

    @classmethod
    def from_json_dict(cls, d: dict) -> "SensitivityTable":
        check_json(d, "sensitivity table", {"eps": (list, (list, float)), "n_dis": int}, {})
        with reading("sensitivity table"):
            return cls(tuple(np.array(row, dtype=np.float64) for row in d["eps"]), d["n_dis"])


@dataclass(frozen=True)
class MitigationPlan:
    eta: int
    kappa: float
    mask: FilterMask
    use_median_filter: bool = True

    def __post_init__(self):
        if self.eta < 1 or not 0 <= self.kappa <= 1:
            raise ValueError(f"need eta >= 1 and kappa in [0, 1], got {self.eta}, {self.kappa}")

    def to_json_dict(self) -> dict:
        return {"eta": self.eta, "kappa": self.kappa, "mask": self.mask.to_json_list(),
                "use_median_filter": self.use_median_filter}

    @classmethod
    def from_json_dict(cls, d: dict) -> "MitigationPlan":
        check_json(d, "mitigation plan", {"eta": int, "kappa": float, "mask": (list, (list, int))},
                   {"use_median_filter": bool})
        if any(len(pair) != 2 for pair in d["mask"]):
            raise FormatError("mitigation plan: mask entries must be [layer, filter] pairs")
        with reading("mitigation plan"):
            return cls(d["eta"], d["kappa"], FilterMask(frozenset(map(tuple, d["mask"]))),
                       d.get("use_median_filter", True))

    @classmethod
    def from_json_file(cls, path) -> "MitigationPlan":
        return cls.from_json_dict(load_json(path, "mitigation plan"))


def compute_sensitivity(model: NetworkModel, pairs) -> SensitivityTable:
    """Accumulate per-filter L2 response differences over (distorted, clean) pairs.

    A conv's response is the ReLU right after it, or the conv itself when no
    ReLU follows; the forward pass taps exactly those layers and stops at the
    last. Each distorted image is stacked right before its clean pair, and the
    forward hands over the responses block by block, each block starting at
    an even row of the even-length batch, so no block splits a pair; each
    block's pair norms are written as it comes. The pair norms are then added
    in order within each _SUM_PAIRS group, then the group totals in order,
    whatever the chunk.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one image pair")
    if not model.conv_ordinals:
        raise ValueError("the network has no conv layer to score")
    kinds = [layer.kind for layer in model.layers] + [None]
    taps = tuple(i + 1 if kinds[i + 1] == "relu" else i for i in model.conv_ordinals)
    responses = NetworkModel(model.layers[: max(taps) + 1], taps, model.input_spec)
    images = np.stack([p[k].pixels for p in pairs for k in (0, 1)])
    norms = [np.empty((len(pairs), n)) for n in model.conv_filter_counts()]
    # one image's float64 difference, made here, not in the reducer: by
    # featnet's reducer contract a reducer may run in a pool thread, whose own
    # malloc arena would keep it, but one call at a time, so one buffer serves all
    diff = np.empty(max(responses.tap_lengths()))

    def pair_norms(k: int, lo: int, hi: int, rows: np.ndarray) -> None:
        _pair_norms(rows, norms[k][lo // 2 : hi // 2], diff)

    for _ in forward_chunks(responses, images, pair_norms):
        pass  # the reducer fills norms
    sums = (sum(a[g : g + _SUM_PAIRS].sum(axis=0) for g in range(0, len(a), _SUM_PAIRS))
            for a in norms)
    return SensitivityTable(tuple(sums), len(pairs))


def _pair_norms(t: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Write into out's rows the (O,) L2 norm of each filter's response difference,
    one pair per row, from a flat (2N, O*H'*W') tap block of N (distorted, clean) pairs;
    scratch is a float64 array of at least O*H'*W' entries."""
    # channels-last views: the position sum then accumulates each filter's
    # squares in row-major (h, w) order, one add at a time
    m = t.reshape(len(t), out.shape[1], -1).transpose(0, 2, 1)
    diff = scratch[: t.shape[1]].reshape(m.shape[1:])
    for i, row in enumerate(out):
        np.subtract(m[2 * i], m[2 * i + 1], out=diff, dtype=np.float64)
        np.sqrt(np.square(diff, out=diff).sum(axis=0), out=row)


def build_plan(table: SensitivityTable, eta: int, kappa: float,
               use_median_filter: bool = True) -> MitigationPlan:
    """Disable the top-kappa filter fraction in the eta most affected layers."""
    n_layers = len(table.eps)
    if not 1 <= eta <= n_layers:
        raise ValueError(f"eta must be in [1, {n_layers}]")
    plan = MitigationPlan(eta, kappa, FilterMask(), use_median_filter)  # checks kappa
    layer_order = sorted(range(n_layers), key=lambda i: (-table.eps[i].sum(), i))
    disabled = set()
    for li in layer_order[:eta]:
        row = table.eps[li]
        order = sorted(range(len(row)), key=lambda j: (-row[j], j))
        disabled.update((li, j) for j in order[:math.ceil(kappa * len(row))])
    return replace(plan, mask=FilterMask(frozenset(disabled)))


def mitigate_each(masked: list[tuple[MitigationPlan, NetworkModel]],
                  images: np.ndarray) -> list[np.ndarray]:
    """One (N, D) embedding matrix of a (N, H, W, C) uint8 batch per (plan, masked
    network) pair: the median is taken once, and only if some plan asks for it, and
    each plan forwards the filtered images, or the raw ones, through its network."""
    median = (median_filter_array(images, MEDIAN_WINDOW)
              if any(plan.use_median_filter for plan, _ in masked) else None)
    return [embed(net, median if plan.use_median_filter else images) for plan, net in masked]


def mitigate_batch(model: NetworkModel, plan: MitigationPlan, images: np.ndarray) -> np.ndarray:
    """Embeddings of a (N, H, W, C) uint8 batch, median filtered, by the plan's masked network."""
    return mitigate_each([(plan, model.masked(plan.mask))], images)[0]  # mask checked, then median


def grid_search_plan(model: NetworkModel, table: SensitivityTable, train_ds: Dataset,
                     distortion_specs, det, eta_grid, kappa_grid,
                     far_target: float = 0.01, seed: int = 0) -> MitigationPlan:
    """Pick the (eta, kappa) maximizing mean GAR over the given distortions.

    Each candidate plan is scored by running the detect-then-mitigate pipeline
    on a 50%-distorted copy of train_ds and computing GAR at far_target,
    averaged across distortions; `det` maps each kind to its detector. The
    first maximum wins, so ties prefer smaller kappa, then smaller eta. The
    grids, far_target, the detectors' kinds, the set's genuine pairs and the
    plans' masks are checked before any forward pass.
    """
    from . import verifybench  # local import: verifybench depends on this module

    eta_grid = sorted(set(eta_grid))
    kappa_grid = sorted(set(kappa_grid))
    specs = list(distortion_specs)
    if not eta_grid or not kappa_grid or not specs:
        raise ValueError("grids and distortion list must be non-empty")
    ids = np.array([it.subject_id for it in train_ds.items])
    verifybench.pair_counts(ids, "training dataset")
    if not 0 < far_target < 1:
        raise ValueError("far_target must be in (0, 1)")
    missing = sorted({spec.kind for spec in specs} - set(det))
    if missing:
        raise ValueError(f"no detector for distortion kinds {missing}")
    plans = [build_plan(table, eta, kappa) for kappa in kappa_grid for eta in eta_grid]
    gars = [[verifybench._gar_from_embeddings(emb, ids, far_target)
             for emb in verifybench.defended_embeddings(model, train_ds, spec, det[spec.kind],
                                                        plans, fraction=0.5, seed=seed)[1]]
            for spec in specs]
    means = [float(np.mean(per_spec)) for per_spec in zip(*gars)]
    return plans[means.index(max(means))]


def save_table(table: SensitivityTable, path) -> None:
    Path(path).write_text(json.dumps(table.to_json_dict(), indent=2))


def load_table(path) -> SensitivityTable:
    return SensitivityTable.from_json_dict(load_json(path, "sensitivity table"))


def save_plan(plan: MitigationPlan, path) -> None:
    Path(path).write_text(json.dumps(plan.to_json_dict(), indent=2))
