"""Contrastive and orientation losses with label smoothing, noise masking,
and hand-derived gradients.

Masking semantics: a masked row never anchors a cross-entropy term, but its
embedding stays in every softmax denominator, so noisy samples still act as
negatives.  Orientation terms skip masked rows entirely; their logit and
prediction gradients are exactly zero.

InfoNCE workspace: infonce_with_grad writes its n x n temporaries (scores,
row- and column-shifted logits, exp scratch) into the C-ordered (n, n)
starts of four flat float64 buffers in a caller's ``work`` dict, replaced
only when a larger n arrives: a run pays their page faults once, and its
512- and 488-row batches share one set.  trainer.train owns one dict per
run, so they are freed before embed and eval.  Four buffers, not one: numpy
advises blocks of 4 MB and more onto huge pages, and the later stages' heap
then stayed on them, raising peak RSS.

Summation order: the loss and gradients keep the bits of the form that
reduced ``_log_softmax(S)`` and ``_log_softmax(S.T)`` with fresh arrays.
Row reductions of a C-ordered array are pairwise per row; reducing the
F-ordered S.T along its rows adds the rows of S one after another, which
is what ``sum(axis=0)`` does on C-ordered S.  The sat-anchor CE row sums
were pairwise over gathered rows, so they are taken from a C-ordered copy
of the transposed logits.  Max, exp and the elementwise gradient steps are
order-free; the diagonal target is one rounded scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllMasked, ConfigError, DataError, NonFiniteLoss
from .pose_geometry import LabelConfig

MODE_CLASSIFICATION = "classification"
MODE_REGRESSION = "regression"
MODE_NONE = "none"
ORIENTATION_MODES = (MODE_CLASSIFICATION, MODE_REGRESSION, MODE_NONE)


@dataclass(frozen=True)
class LossConfig:
    smoothing: float = 0.1
    temperature: float = 0.07
    orientation_mode: str = MODE_CLASSIFICATION
    orientation_weight: float = 0.5
    bins: int = 8

    def __post_init__(self):
        if not 0.0 <= self.smoothing < 1.0:
            raise ConfigError(f"smoothing must be in [0, 1), got {self.smoothing}")
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")
        if self.orientation_mode not in ORIENTATION_MODES:
            raise ConfigError(f"unknown orientation_mode {self.orientation_mode!r}")
        if self.orientation_weight < 0:
            raise ConfigError("orientation_weight must be >= 0")
        LabelConfig(self.bins)


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _smoothed_ce(row_sums: np.ndarray, target_logp: np.ndarray, c: int,
                 eps: float) -> np.ndarray:
    """Row CE from each row's logp sum and its target logp."""
    return -(eps / c) * row_sums - (1.0 - eps) * target_logp


def _smoothed_ce_rows(logp: np.ndarray, targets: np.ndarray, eps: float) -> np.ndarray:
    """Row CE against q = eps/C + (1-eps)*onehot(target), C = column count."""
    n, c = logp.shape
    return _smoothed_ce(logp.sum(axis=1), logp[np.arange(n), targets], c, eps)


def infonce_with_grad(emb_sat: np.ndarray, emb_drone: np.ndarray, mask: np.ndarray,
                      tau: float, eps: float, work: dict | None = None):
    """Masked, smoothed, symmetric InfoNCE.

    Returns (loss, d_emb_sat, d_emb_drone, d_tau).  Row i of both matrices
    is the positive pair for building i.  S = drone . sat^T / tau; the
    drone->sat direction anchors on unmasked rows of S, the sat->drone
    direction on unmasked columns of S; every row and column stays in all
    denominators.  Loss is the mean over the 2U unmasked anchor terms.

    work, if given, holds the n x n buffers between calls (see the module
    docstring); the returned arrays never share memory with it.
    """
    n = emb_sat.shape[0]
    if n < 2:
        raise DataError(f"contrastive batch needs at least 2 rows, got {n}")
    if emb_drone.shape != emb_sat.shape or mask.shape[0] != n:
        raise DataError("embedding/mask shapes disagree")
    masked = np.asarray(mask, dtype=bool)
    anchors = np.nonzero(~masked)[0]
    u = anchors.size
    if u == 0:
        raise AllMasked("every row of the batch is masked; no anchor terms remain")

    work = {} if work is None else work
    bufs = work.get("infonce", ())
    if not bufs or bufs[0].size < n * n:  # replaced only when a larger n arrives
        bufs = work["infonce"] = [np.empty(n * n) for _ in range(4)]
    scores, ds, sd, ex = (b[:n * n].reshape(n, n) for b in bufs)
    np.matmul(emb_drone, emb_sat.T, out=scores)
    scores /= tau
    # drone anchors: log-softmax along the rows of S
    np.subtract(scores, scores.max(axis=1, keepdims=True), out=ds)
    ds -= np.log(np.exp(ds, out=ex).sum(axis=1, keepdims=True))
    # sat anchors: log-softmax down the columns of S; sum(axis=0) adds the
    # rows one after another, the order in which S.T reduces along its rows
    np.subtract(scores, scores.max(axis=0), out=sd)
    sd -= np.log(np.exp(sd, out=ex).sum(axis=0))

    # a gathered row is summed pairwise: sum the C-ordered rows of sd.T
    np.copyto(ex, sd.T)
    ce_ds = _smoothed_ce(ds.sum(axis=1)[anchors], ds[anchors, anchors], n, eps)
    ce_sd = _smoothed_ce(ex.sum(axis=1)[anchors], sd[anchors, anchors], n, eps)
    loss = float((ce_ds.sum() + ce_sd.sum()) / (2.0 * u))

    # dCE/dlogit for an anchor is softmax - target, weight 1/(2U).  The
    # diagonal target eps/n + (1 - eps) is rounded once and subtracted from
    # exp(l_ii) in one step: two separate subtractions move bits.
    off, on = eps / n, eps / n + (1.0 - eps)
    for g in (ds, sd):
        np.exp(g, out=g)
        diag = g.diagonal() - on
        g -= off
        np.fill_diagonal(g, diag)
    ds[masked] = 0.0
    sd[:, masked] = 0.0
    ds += sd
    ds /= 2.0 * u

    d_drone = ds @ emb_sat / tau
    d_sat = ds.T @ emb_drone / tau
    d_tau = float(-np.multiply(ds, scores, out=scores).sum() / tau)
    return loss, d_sat, d_drone, d_tau


def orientation_ce_with_grad(logits: np.ndarray, labels: np.ndarray,
                             mask: np.ndarray, eps: float):
    """Smoothed cross-entropy over unmasked rows; (loss, dlogits).

    All-masked batches yield loss 0, and masked rows always carry an exactly
    zero gradient row.
    """
    mask = np.asarray(mask, dtype=bool)
    dlogits = np.zeros_like(logits, dtype=float)
    rows = np.nonzero(~mask)[0]
    if rows.size == 0:
        return 0.0, dlogits
    labs = np.asarray(labels)[rows]
    if labs.min() < 0 or labs.max() >= logits.shape[1]:
        raise DataError("unmasked orientation label out of range")
    logp = _log_softmax(logits[rows].astype(float))
    loss = float(_smoothed_ce_rows(logp, labs, eps).mean())
    b = logits.shape[1]
    q = np.full((rows.size, b), eps / b)
    q[np.arange(rows.size), labs] += 1.0 - eps
    dlogits[rows] = (np.exp(logp) - q) / rows.size
    return loss, dlogits


def unit_circle_target(angles_deg: np.ndarray) -> np.ndarray:
    """(cos, sin) pairs; this parameterization has no 0/360 seam."""
    rad = np.radians(np.asarray(angles_deg, dtype=float))
    return np.stack([np.cos(rad), np.sin(rad)], axis=1)


def orientation_mse_with_grad(pred: np.ndarray, angles_deg: np.ndarray, mask: np.ndarray):
    """Mean squared error to unit-circle targets over unmasked rows."""
    mask = np.asarray(mask, dtype=bool)
    dpred = np.zeros_like(pred, dtype=float)
    rows = np.nonzero(~mask)[0]
    if rows.size == 0:
        return 0.0, dpred
    target = unit_circle_target(np.asarray(angles_deg)[rows])
    diff = pred[rows].astype(float) - target
    loss = float((diff * diff).sum(axis=1).mean())
    dpred[rows] = 2.0 * diff / rows.size
    return loss, dpred


def joint(l_contrastive: float, l_orientation: float, cfg: LossConfig) -> float:
    """Total loss; contrastive and orientation stand in ratio 1 : weight."""
    if not (math.isfinite(l_contrastive) and math.isfinite(l_orientation)):
        raise NonFiniteLoss(
            f"loss terms not finite: contrastive={l_contrastive}, orientation={l_orientation}"
        )
    if cfg.orientation_mode == MODE_NONE:
        return l_contrastive
    return l_contrastive + cfg.orientation_weight * l_orientation
