"""Verification benchmark: score matrices, ROC, GAR@FAR, distortion protocol.

All-vs-all matching: every image is compared with every other, self-matches
excluded. The protocol evaluates three conditions — original, distorted
(a fraction of images corrupted, no defense), and corrected (the corrupted
set run through detect-then-mitigate).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import distortions
from .detector import embed_and_features
from .featnet import NetworkModel, _forward_chunks, forward_batch
from .mitigator import MEDIAN_WINDOW, MitigationPlan, mitigate_batch
from .imagecore import median_filter_array
from .synthface import Dataset, split_protocol


class ProtocolError(ValueError):
    """Evaluation input cannot support the verification protocol."""


@dataclass(frozen=True)
class ScoreMatrix:
    scores: np.ndarray
    genuine_mask: np.ndarray

    def __post_init__(self):
        if self.scores.shape != self.genuine_mask.shape:
            raise ValueError("scores and genuine mask shapes disagree")

    def _offdiag(self) -> np.ndarray:
        return ~np.eye(self.scores.shape[0], dtype=bool)

    def genuine_scores(self) -> np.ndarray:
        return self.scores[self.genuine_mask & self._offdiag()]

    def impostor_scores(self) -> np.ndarray:
        return self.scores[~self.genuine_mask & self._offdiag()]


@dataclass(frozen=True)
class RocCurve:
    """Operating points at descending thresholds; FAR/GAR non-decreasing."""

    thresholds: np.ndarray
    far: np.ndarray
    gar: np.ndarray

    @property
    def points(self) -> list[tuple[float, float, float]]:
        return list(zip(self.thresholds.tolist(), self.far.tolist(), self.gar.tolist()))


def _embed_plain(model: NetworkModel, batch: np.ndarray) -> np.ndarray:
    return np.vstack([emb for _, (emb, _) in _forward_chunks(model, batch)])


def _embed_and_flag(model: NetworkModel, batch: np.ndarray,
                    det) -> tuple[np.ndarray, np.ndarray]:
    """Plain embeddings and detector flags of a batch, from one forward pass."""
    emb, feats = embed_and_features(model, det.mean_reps, batch)
    return emb, det.decision(feats) > 0


def _cosine_matrix(emb: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    unit = np.divide(emb, norms, out=np.zeros_like(emb), where=norms > 0)
    return unit @ unit.T


def score_matrix(emb: np.ndarray, ids) -> ScoreMatrix:
    """All-vs-all cosine score matrix of (N, D) embeddings with one subject id per row."""
    ids = np.asarray(ids)
    if len(ids) < 2 or len(np.unique(ids)) < 2:
        raise ProtocolError("need at least 2 images spanning at least 2 subjects")
    return ScoreMatrix(_cosine_matrix(emb), ids[:, None] == ids[None, :])


def roc(sm: ScoreMatrix) -> RocCurve:
    """Threshold sweep over all observed scores, descending."""
    gen = sm.genuine_scores()
    imp = sm.impostor_scores()
    if len(gen) == 0 or len(imp) == 0:
        raise ProtocolError("need at least one genuine and one impostor pair")
    thresholds = np.unique(np.concatenate([gen, imp]))[::-1]
    imp_sorted = np.sort(imp)
    gen_sorted = np.sort(gen)
    # count of scores >= t via binary search on the ascending-sorted arrays;
    # dividing the integer counts directly keeps the rates exact fractions
    far = (len(imp) - np.searchsorted(imp_sorted, thresholds, side="left")) / len(imp)
    gar = (len(gen) - np.searchsorted(gen_sorted, thresholds, side="left")) / len(gen)
    return RocCurve(thresholds, far, gar)


def gar_at_far(curve: RocCurve, far_target: float) -> float:
    """GAR at the best qualifying operating point (FAR <= target), no interpolation."""
    if not 0 < far_target < 1:
        raise ValueError("far_target must be in (0, 1)")
    ok = curve.far <= far_target
    if not ok.any():
        return 0.0
    return float(curve.gar[ok].max())


# ---------------------------------------------------------------------------
# 50%-distorted protocol
# ---------------------------------------------------------------------------

def _distorted_copy(ds: Dataset, spec: distortions.DistortionSpec,
                    fraction: float, seed: int):
    """(pixel batch, subject ids, distorted-index set) for the protocol split."""
    _, to_distort = split_protocol(ds, fraction, seed)
    distorted = set(to_distort)
    batch = ds.pixel_batch()
    for i in sorted(distorted):
        item = ds.items[i]
        out, _ = distortions.apply(distortions.per_image_spec(spec, i),
                                   item.image, item.landmarks)
        batch[i] = out.pixels
    ids = np.array([it.subject_id for it in ds.items])
    return batch, ids, distorted


def _gar_from_embeddings(emb: np.ndarray, ids: np.ndarray,
                         far_target: float) -> tuple[float, int, int]:
    sm = score_matrix(emb, ids)
    return (gar_at_far(roc(sm), far_target),
            len(sm.genuine_scores()), len(sm.impostor_scores()))


def run_protocol(ds: Dataset, model: NetworkModel, spec: distortions.DistortionSpec,
                 det=None, plan: MitigationPlan | None = None,
                 fraction: float = 0.5, seed: int = 0,
                 far_target: float = 0.01) -> list[dict]:
    """Original / distorted / corrected GAR@FAR rows for one distortion."""
    clean_batch = ds.pixel_batch()
    ids = np.array([it.subject_id for it in ds.items])
    if len(np.unique(ids)) < 2:
        raise ProtocolError("dataset must span at least 2 subjects")

    rows = []

    def row(condition, gar, n_gen, n_imp):
        rows.append({
            "condition": condition, "distortion": spec.kind, "gar_at_far": gar,
            "far_target": far_target, "n_genuine": n_gen, "n_impostor": n_imp,
            "seed": seed,
        })

    gar, n_gen, n_imp = _gar_from_embeddings(_embed_plain(model, clean_batch),
                                             ids, far_target)
    row("original", gar, n_gen, n_imp)

    # with a defence, the distorted condition's forward pass also scores the
    # detector, so each image is forwarded once per condition
    mixed, _, _ = _distorted_copy(ds, spec, fraction, seed)
    defended = det is not None and plan is not None
    if defended:
        emb, flags = _embed_and_flag(model, mixed, det)
    else:
        emb = _embed_plain(model, mixed)
    gar, n_gen, n_imp = _gar_from_embeddings(emb, ids, far_target)
    row("distorted", gar, n_gen, n_imp)

    if defended:
        if flags.any():
            emb[flags] = mitigate_batch(model, plan, mixed[flags])
        gar, n_gen, n_imp = _gar_from_embeddings(emb, ids, far_target)
        row("corrected", gar, n_gen, n_imp)
    return rows


def write_report(rows, path) -> None:
    """CSV report with 6-decimal fixed-point metrics."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["condition", "distortion", "gar_at_far", "far_target",
                         "n_genuine", "n_impostor", "seed"])
        for r in rows:
            writer.writerow([r["condition"], r["distortion"],
                             f"{r['gar_at_far']:.6f}", f"{r['far_target']:.6f}",
                             r["n_genuine"], r["n_impostor"], r["seed"]])


# ---------------------------------------------------------------------------
# Split evaluation used by the mitigation grid search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineEval:
    """Plan-independent state of the corrected condition on one distorted set."""

    ids: np.ndarray              # subject id per image
    emb_plain: np.ndarray        # undefended embeddings
    flags: np.ndarray            # detector verdict per image, True = distorted
    flagged_raw: np.ndarray      # pixels of the flagged images
    flagged_median: np.ndarray   # the same, median filtered as a plan does it


def prepare_pipeline_eval(model: NetworkModel, ds: Dataset,
                          spec: distortions.DistortionSpec, det,
                          fraction: float = 0.5, seed: int = 0) -> PipelineEval:
    """Plan-independent state for repeated corrected-GAR evaluations."""
    mixed, ids, _ = _distorted_copy(ds, spec, fraction, seed)
    emb_plain, flags = _embed_and_flag(model, mixed, det)
    flagged_raw = mixed[flags]
    return PipelineEval(ids, emb_plain, flags, flagged_raw,
                        median_filter_array(flagged_raw, MEDIAN_WINDOW))


def finish_pipeline_eval(model: NetworkModel, prep: PipelineEval, plan: MitigationPlan,
                         far_target: float) -> float:
    """Corrected-condition GAR@FAR for one candidate plan."""
    emb = prep.emb_plain.copy()
    if prep.flags.any():
        batch = prep.flagged_median if plan.use_median_filter else prep.flagged_raw
        masked, _ = forward_batch(model, batch, plan.mask)
        emb[prep.flags] = masked
    gar, _, _ = _gar_from_embeddings(emb, prep.ids, far_target)
    return gar
