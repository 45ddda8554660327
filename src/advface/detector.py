"""Distorted-input detection from hidden-layer activation statistics.

Clean training images define a per-layer mean activation vector. Any image is
then summarized by one Canberra distance per tapped layer between its
activations and those means; a linear max-margin classifier over the
z-scored distance vector separates clean from distorted inputs.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .imagecore import FormatError, _Reader, check_json, load_json, reading
from . import featnet
from .featnet import NetworkModel
from .seeds import rng_from

_MREP_MAGIC = b"MREP1"
_STD_FLOOR = 1e-8
# float64 entries per Canberra block buffer: two of them, 1 MiB, stay in a core's L2
_CANBERRA_BLOCK_ELEMS = 1 << 16

DEFAULT_C_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)
_EPOCHS = 300  # subgradient steps per hinge fit, at most


@dataclass(frozen=True)
class MeanReps:
    """Mean activation vector per tapped layer over a clean training corpus."""

    means: tuple[np.ndarray, ...]
    n_train: int

    def __post_init__(self):
        if self.n_train < 1:
            raise ValueError("n_train must be >= 1")
        if not all(np.isfinite(mu).all() for mu in self.means):
            raise ValueError("means must be finite")


@dataclass(frozen=True)
class DetectorModel:
    w: np.ndarray
    b: float
    C: float
    feat_mean: np.ndarray
    feat_std: np.ndarray
    mean_reps: MeanReps

    def decision(self, feats: np.ndarray) -> np.ndarray:
        """Scores of an (N, n_taps) feature matrix; > 0 means "distorted". A
        score that overflows (extreme finite weights) is a FormatError."""
        with np.errstate(all="ignore"):
            scores = ((feats - self.feat_mean) / self.feat_std) @ self.w + self.b
        if not np.isfinite(scores).all():
            raise FormatError("detector: a score is not finite (weights or features too large)")
        return scores


def compute_mean_reps(model: NetworkModel, clean_images: np.ndarray) -> MeanReps:
    """Elementwise average of tapped activations over a (N, H, W, C) uint8 clean batch.

    Every row is added to its tap's float64 sum one at a time, in row order (a
    block waits for its turn), so the bits depend on neither the worker count
    nor the forward's chunk size.
    """
    sums = [np.zeros(length) for length in model.tap_lengths()]

    def add_rows(k: int, lo: int, hi: int, rows: np.ndarray) -> None:
        for row in rows:
            np.add(sums[k], row, out=sums[k])

    featnet.embed(model, clean_images, add_rows)
    n = clean_images.shape[0]
    return MeanReps(tuple(s / n for s in sums), n)


def _canberra_target(b) -> tuple[np.ndarray, np.ndarray]:
    """b as a float64 vector, and |b| with its zeros raised to 2**-1074, the
    smallest positive float64, so the Canberra divide needs no mask: where
    t == b == 0 the term is 0 / 2**-1074 = 0, and any other |t| absorbs the
    raise when it is at least 2**-1020. That holds for every nonzero float32
    (the network's taps) or integer entry; a float64 entry below it, against a
    zero of b, gives a term just under 1."""
    b = np.asarray(b, dtype=np.float64).ravel()
    return b, np.maximum(np.abs(b), np.nextafter(0.0, 1.0))


def _canberra_rows(rows: np.ndarray, b: np.ndarray, den_b: np.ndarray, out: np.ndarray,
                   scratch: np.ndarray) -> None:
    """Write into out the Canberra distance of each row of rows to b, den_b
    from _canberra_target(b). Rows are reduced in float64 blocks of about
    _CANBERRA_BLOCK_ELEMS entries, at least one row, in a flat float64
    scratch of at least 2 * max(_CANBERRA_BLOCK_ELEMS, len(b)) entries; each
    row is still summed whole, so blocking moves no bit."""
    step = max(1, _CANBERRA_BLOCK_ELEMS // b.shape[0])
    m = min(len(rows), step)
    num, den = scratch[: 2 * m * b.shape[0]].reshape(2, m, b.shape[0])
    for lo in range(0, rows.shape[0], step):
        block = rows[lo : lo + step]
        nu, de = num[: len(block)], den[: len(block)]
        # one exact cast of the block: mixed float32/float64 ufuncs take NumPy's slower
        # buffered casting loop
        np.copyto(de, block)
        np.abs(np.subtract(de, b, out=nu), out=nu)
        np.add(np.abs(de, out=de), den_b, out=de)
        np.divide(nu, de, out=nu)
        out[lo : lo + len(block)] = nu.sum(axis=1)


def embed_and_features(model: NetworkModel, mean_reps: MeanReps,
                       images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Embeddings (N, D) and per-layer Canberra features (N, n_taps) of a
    (N, H, W, C) uint8 batch, from one pass.

    The batch goes through featnet.embed, so each embedding is bitwise the
    one embed gives without a reducer; the features are written
    block by block as the forward hands over its taps. Mean reps whose tap
    count or tap lengths differ from the network's are a FormatError, before
    any forward.
    """
    if len(mean_reps.means) != model.n_taps:
        # zipping taps with means would silently drop the unmatched ones
        raise FormatError(f"mean reps hold {len(mean_reps.means)} taps, "
                          f"the network has {model.n_taps}")
    for i, (mu, length) in enumerate(zip(mean_reps.means, model.tap_lengths())):
        if len(mu) != length:
            raise FormatError(f"mean reps tap {i} holds {len(mu)} values, "
                              f"the network's tap {i} has {length}")
    targets = [_canberra_target(mu) for mu in mean_reps.means]
    feats = np.empty((images.shape[0], len(targets)))
    # made here, not in the reducer: by featnet's reducer contract a reducer may
    # run in a pool thread, whose own malloc arena would keep it, but one call
    # at a time, so one scratch serves every call
    scratch = np.empty(2 * max([_CANBERRA_BLOCK_ELEMS, *model.tap_lengths()]))

    def features(k: int, lo: int, hi: int, rows: np.ndarray) -> None:
        _canberra_rows(rows, *targets[k], feats[lo:hi, k], scratch)

    return featnet.embed(model, images, features), feats


def canberra_features_batch(model: NetworkModel, mean_reps: MeanReps,
                            images: np.ndarray) -> np.ndarray:
    """(N, n_taps) matrix of per-layer Canberra distances to the clean means."""
    return embed_and_features(model, mean_reps, images)[1]


# ---------------------------------------------------------------------------
# Linear soft-margin classifier (L2-regularized hinge, monotone full-batch descent)
# ---------------------------------------------------------------------------

def hinge_objective(w: np.ndarray, b: np.ndarray, x: np.ndarray, y: np.ndarray,
                    C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The objectives (F,) of F stacked fits at (w (F, d), b (F,)) over x
    (F, n, d), y (F, n) and C (F,), and the margins 1 - y * (x @ w + b) (F, n)
    they sum. Each fit's values are bitwise those of its lone (F = 1) call."""
    margins = (x @ w[:, :, None])[:, :, 0]
    margins += b[:, None]
    margins *= y
    np.subtract(1.0, margins, out=margins)
    ww = (w[:, None, :] @ w[:, :, None])[:, 0, 0]
    return 0.5 * ww + C * np.maximum(margins, 0.0).sum(axis=1), margins


def _fit_hinge(x: np.ndarray, y: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full-batch subgradient descent with backtracking for F problems in
    lockstep; no fit's objective ever increases. x is (F, n, d), y (F, n) and
    C (F,); returns w (F, d) and b (F,).

    Each pass tries one step for every live fit. A fit that lowers (or keeps)
    its objective takes the step, grows it by 1.3 and starts its next epoch
    from the subgradient at its new margins; one that does not halves its
    step. A fit stops after _EPOCHS epochs or 60 halvings in a row. So every
    fit takes the steps it would take alone, whatever its stack-mates: the
    active rows' sums add in row order from 0.0 (np.bincount), as a lone
    (k, d) sum(axis=0) does for d >= 2; for d = 1, where that sum is NumPy's
    pairwise 1-D sum, each fit's column is summed on its own.
    """
    F, n, d = x.shape
    # columns y * x and y of every row, and the (fit, column) bin of each entry
    yxy = np.concatenate([y[:, :, None] * x, y[:, :, None]], axis=2).reshape(F * n, d + 1)
    bins = np.arange(F * n)[:, None] // n * (d + 1) + np.arange(d + 1)
    w, b = np.zeros((F, d)), np.zeros(F)
    step = 1.0 / (C * n + 1.0)
    f, margins = hinge_objective(w, b, x, y, C)
    epochs, halvings = np.zeros(F, dtype=int), np.zeros(F, dtype=int)
    live = np.ones(F, dtype=bool)
    while live.any():
        # a fit that did not move gets its subgradient again, bitwise the same
        rows = np.flatnonzero(margins > 0)
        sums = np.bincount(np.take(bins, rows, axis=0).ravel(), minlength=F * (d + 1),
                           weights=np.take(yxy, rows, axis=0).ravel()).reshape(F, d + 1)
        if d == 1:
            cut = np.searchsorted(rows, np.arange(1, F) * n)
            sums[:, 0] = [part.sum() for part in np.split(yxy[rows, 0], cut)]
        w_new = w - step[:, None] * (w - C[:, None] * sums[:, :d])
        b_new = b - step * (-C * sums[:, d])
        f_new, m_new = hinge_objective(w_new, b_new, x, y, C)
        moved = live & (f_new <= f)
        np.copyto(w, w_new, where=moved[:, None])
        np.copyto(b, b_new, where=moved)
        np.copyto(f, f_new, where=moved)
        np.copyto(margins, m_new, where=moved[:, None])
        step *= np.where(moved, 1.3, 0.5)  # a stopped fit's step is never read again
        epochs += moved
        halvings = np.where(moved, 0, halvings + 1)
        live &= (epochs < _EPOCHS) & (halvings < 60)
    return w, b


def _fold_assignments(n: int, k: int, seed: int) -> np.ndarray:
    perm = rng_from(seed, 0xF01D).permutation(n)
    folds = np.empty(n, dtype=int)
    folds[perm] = np.arange(n) % k
    return folds


def train_detector(model: NetworkModel, mean_reps: MeanReps, clean, distorted,
                   C_grid=DEFAULT_C_GRID, seed: int = 0,
                   features: tuple[np.ndarray, np.ndarray] | None = None) -> DetectorModel:
    """Fit the clean/distorted classifier with 5-fold cross-validated C.

    `features` optionally supplies precomputed (clean, distorted) Canberra
    feature matrices, one column per tap of `mean_reps`, to skip the forward
    passes; an empty class is refused before any forward. The smallest C
    with the best mean accuracy over the usable folds wins.
    """
    C_grid = sorted(C_grid)
    if not C_grid or not all(np.isfinite(C) and C > 0 for C in C_grid):
        raise ValueError(f"C grid must be non-empty, every C finite and above 0, got {C_grid}")
    if any(a.shape[0] == 0 for a in (features if features is not None else (clean, distorted))):
        raise ValueError("both classes must be non-empty")
    fc, fd = features if features is not None else [
        canberra_features_batch(model, mean_reps, imgs) for imgs in (clean, distorted)]
    for name, f in (("clean", fc), ("distorted", fd)):
        if f.shape[1:] != (len(mean_reps.means),):  # load_detector would refuse the file
            raise ValueError(f"{name} features have shape {f.shape}, not one column for each "
                             f"of the mean reps' {len(mean_reps.means)} taps")
        bad = ~np.isfinite(f)
        if bad.any():
            raise ValueError(f"non-finite feature for {name} image "
                             f"{int(np.argwhere(bad.any(axis=1))[0][0])}")
    x = np.vstack([fc, fd])
    y = np.concatenate([-np.ones(fc.shape[0]), np.ones(fd.shape[0])])

    feat_mean = x.mean(axis=0)
    feat_std = np.maximum(x.std(axis=0), _STD_FLOOR)
    xn = (x - feat_mean) / feat_std

    folds = _fold_assignments(len(y), 5, seed)
    splits = [(np.flatnonzero(tr), te) for tr, te in ((folds != f, folds == f) for f in range(5))
              if te.any() and len(np.unique(y[tr])) > 1]
    # the accuracy of every C on every usable fold, one stacked fit per training-set size
    accs = np.zeros((len(C_grid), len(splits)))
    try:  # a huge C overflows the descent, which would then end on w = 0, b = 0
        with np.errstate(over="raise", invalid="raise"):
            for size in {len(tr) for tr, _ in splits}:
                group = [(i, j) for i in range(len(C_grid))
                         for j, (tr, _) in enumerate(splits) if len(tr) == size]
                tr = np.array([splits[j][0] for _, j in group])  # (F, size) training rows
                ws, bs = _fit_hinge(xn[tr], y[tr],
                                    np.array([C_grid[i] for i, _ in group], dtype=float))
                for (i, j), w, b in zip(group, ws, bs):
                    te = splits[j][1]
                    accs[i, j] = ((xn[te] @ w + b > 0) == (y[te] > 0)).mean()
            cv = accs.mean(axis=1) if splits else np.zeros(len(C_grid))
            best_C = C_grid[int(np.argmax(cv))]  # the first maximum
            w, b = _fit_hinge(xn[None], y[None], np.array([best_C], dtype=float))
    except FloatingPointError:
        raise ValueError(f"C grid up to {C_grid[-1]:g} overflows the hinge fit on {len(y)} "
                         "rows; use smaller C values") from None
    return DetectorModel(w[0], float(b[0]), float(best_C), feat_mean, feat_std, mean_reps)


def detect_scores(det: DetectorModel, model: NetworkModel, images: np.ndarray) -> np.ndarray:
    """Detector scores of a (N, H, W, C) uint8 batch; > 0 means "distorted"."""
    return det.decision(canberra_features_batch(model, det.mean_reps, images))


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_mean_reps(reps: MeanReps, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_MREP_MAGIC)
        fh.write(struct.pack("<II", len(reps.means), reps.n_train))
        for mu in reps.means:
            fh.write(struct.pack("<I", len(mu)))
            fh.write(np.asarray(mu, "<f8").tobytes())


def load_mean_reps(path) -> MeanReps:
    """Read an MREP1 file; truncation, trailing bytes, a non-finite mean and
    n_train < 1 are FormatError."""
    with open(path, "rb") as fh:
        rd = _Reader(fh.read(), "mean file")
    if rd.take(5, "magic") != _MREP_MAGIC:
        raise FormatError('bad magic, expected "MREP1"')
    n_layers = rd.u32("layer count")
    n_train = rd.u32("training image count")
    means = []
    for i in range(n_layers):
        length = rd.u32(f"layer {i} length")
        means.append(np.frombuffer(rd.take(8 * length, f"layer {i} means"), "<f8").copy())
    rd.finish("the last layer")
    with reading("mean file"):
        return MeanReps(tuple(means), n_train)


def save_detector(det: DetectorModel, path, mean_reps_path) -> None:
    """Write the detector JSON and its mean reps, named relative to the JSON's directory."""
    save_mean_reps(det.mean_reps, mean_reps_path)
    reps_rel = os.path.relpath(mean_reps_path, Path(path).parent)
    doc = {
        "w": det.w.tolist(),
        "b": det.b,
        "C": det.C,
        "feat_mean": det.feat_mean.tolist(),
        "feat_std": det.feat_std.tolist(),
        "mean_reps_path": Path(reps_rel).as_posix(),
    }
    Path(path).write_text(json.dumps(doc, indent=2))


def load_detector(path) -> DetectorModel:
    """Read a detector JSON; its mean reps path is relative to the JSON's directory.
    An older file's n_layers copy is not read."""
    doc = load_json(path, "detector")
    check_json(doc, "detector", {"w": (list, float), "b": float, "C": float,
                                 "feat_mean": (list, float), "feat_std": (list, float),
                                 "mean_reps_path": str}, {"n_layers": int})
    reps = load_mean_reps(Path(path).parent / doc["mean_reps_path"])
    lengths = [len(doc["w"]), len(doc["feat_mean"]), len(doc["feat_std"]), len(reps.means)]
    if len(set(lengths)) != 1:
        raise FormatError("detector: lengths of w, feat_mean, feat_std and the mean reps' "
                          f"taps disagree: {lengths}")
    # float64 dtype: an integer beyond int64 would otherwise make an object array
    w, feat_mean, feat_std, b_c = (np.array(v, dtype=np.float64) for v in (
        doc["w"], doc["feat_mean"], doc["feat_std"], [doc["b"], doc["C"]]))
    finite = np.isfinite(np.concatenate([w, feat_mean, feat_std, b_c])).all()
    if not finite or (feat_std <= 0).any() or doc["C"] <= 0:
        # a zero std or a non-finite weight would score every image -inf or nan
        raise FormatError("detector: w, b, C, feat_mean and feat_std must be finite, "
                          "C and feat_std positive")
    return DetectorModel(w, doc["b"], doc["C"], feat_mean, feat_std, reps)
