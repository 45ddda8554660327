"""Verification benchmark: score matrices, ROC, GAR@FAR, distortion protocol.

All-vs-all matching: every image is compared with every other, self-matches
excluded. The protocol evaluates three conditions — original, distorted
(a fraction of images corrupted, no defense), and corrected (the corrupted
set run through detect-then-mitigate). The corrected condition has one
implementation, `defended_embeddings`, which the mitigation plan search shares.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import distortions
from .detector import embed_and_features
from .featnet import NetworkModel, embed, l2_normalize
from .mitigator import MitigationPlan, mitigate_each
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


def _cosine_matrix(emb: np.ndarray) -> np.ndarray:
    unit = l2_normalize(emb)
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
                    fraction: float, seed: int) -> np.ndarray:
    """Pixel batch of ds with the protocol split's images distorted."""
    _, to_distort = split_protocol(ds, fraction, seed)
    batch = ds.pixel_batch()
    for i in to_distort:
        item = ds.items[i]
        out, _ = distortions.apply(distortions.per_image_spec(spec, i),
                                   item.image, item.landmarks)
        batch[i] = out.pixels
    return batch


def pair_counts(ids, what: str = "dataset") -> tuple[int, int]:
    """(genuine, impostor) counts of the ordered off-diagonal pairs of a set with
    these subject ids; a set that cannot give both kinds is a ProtocolError."""
    per_subject = np.unique(ids, return_counts=True)[1]
    if len(per_subject) < 2:
        raise ProtocolError(f"{what} must span at least 2 subjects")
    n_gen = int((per_subject * (per_subject - 1)).sum())
    if n_gen == 0:  # no subject has two images
        raise ProtocolError("need at least one genuine and one impostor pair")
    return n_gen, len(ids) * (len(ids) - 1) - n_gen


def _gar_from_embeddings(emb: np.ndarray, ids: np.ndarray, far_target: float) -> float:
    return gar_at_far(roc(score_matrix(emb, ids)), far_target)


def defended_embeddings(model: NetworkModel, ds: Dataset, spec: distortions.DistortionSpec,
                        det, plans, fraction: float = 0.5,
                        seed: int = 0) -> tuple[np.ndarray, list[np.ndarray]]:
    """Embeddings of the distorted set, plain and corrected under each plan.

    Each plan's masked network is built first: a mask that does not fit is a
    FormatError before any forward, flagged or not. The distorted set is
    forwarded once, for its embeddings and the detector's features. Each
    corrected matrix is the plain one with every flagged row replaced by the
    plan's embedding from `mitigate_each`, which median filters them once.
    """
    masked = [(plan, model.masked(plan.mask)) for plan in plans]
    mixed = _distorted_copy(ds, spec, fraction, seed)
    emb_plain, feats = embed_and_features(model, det.mean_reps, mixed)
    flags = det.decision(feats) > 0
    corrected = [emb_plain.copy() for _ in plans]
    if flags.any():
        for emb, fixed in zip(corrected, mitigate_each(masked, mixed[flags])):
            emb[flags] = fixed
    return emb_plain, corrected


def run_protocol(ds: Dataset, model: NetworkModel, spec: distortions.DistortionSpec,
                 det=None, plan: MitigationPlan | None = None,
                 fraction: float = 0.5, seed: int = 0,
                 far_target: float = 0.01) -> list[dict]:
    """Original / distorted / corrected GAR@FAR rows for one distortion.

    With a detector and a plan, the distorted and corrected conditions come
    from defended_embeddings, which the plan search scores its candidates
    on; only one of the two, or a far_target or fraction out of range, is a
    ValueError, a set with no genuine pair a ProtocolError, and a plan's mask
    or a detector's mean reps that do not fit the network a FormatError, all
    raised before any forward pass.
    """
    if not 0 < far_target < 1 or not 0 <= fraction <= 1:
        raise ValueError("far_target must be in (0, 1) and fraction in [0, 1]")
    if (det is None) != (plan is None):
        raise ValueError("the corrected condition needs both a detector and a plan, "
                         f"got only the {'plan' if det is None else 'detector'}")
    ids = np.array([it.subject_id for it in ds.items])
    n_gen, n_imp = pair_counts(ids)  # the same for every condition
    # first: it refuses a mask or mean reps that do not fit before any forward pass
    defended = (None if det is None
                else defended_embeddings(model, ds, spec, det, [plan], fraction, seed))
    conditions = {"original": embed(model, ds.pixel_batch())}
    if defended is not None:
        conditions["distorted"], (conditions["corrected"],) = defended
    else:
        conditions["distorted"] = embed(model, _distorted_copy(ds, spec, fraction, seed))
    return [{"condition": condition, "distortion": spec.kind,
             "gar_at_far": _gar_from_embeddings(emb, ids, far_target),
             "far_target": far_target, "n_genuine": n_gen, "n_impostor": n_imp, "seed": seed}
            for condition, emb in conditions.items()]


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
