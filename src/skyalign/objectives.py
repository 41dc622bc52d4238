"""Contrastive and orientation losses with label smoothing, noise masking,
and hand-derived gradients.

Masking semantics: a masked row never anchors a cross-entropy term, but its
embedding stays in every softmax denominator, so noisy samples still act as
negatives.  Orientation terms skip masked rows entirely; their logit and
prediction gradients are exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllMasked, ConfigError, DataError, NonFiniteLoss

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
        if self.bins < 2:
            raise ConfigError("bins must be >= 2")


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _smoothed_ce_rows(logp: np.ndarray, targets: np.ndarray, eps: float) -> np.ndarray:
    """Row CE against q = eps/C + (1-eps)*onehot(target), C = column count."""
    n, c = logp.shape
    rows = np.arange(n)
    return -(eps / c) * logp.sum(axis=1) - (1.0 - eps) * logp[rows, targets]


def infonce_with_grad(emb_sat: np.ndarray, emb_drone: np.ndarray, mask: np.ndarray,
                      tau: float, eps: float):
    """Masked, smoothed, symmetric InfoNCE.

    Returns (loss, d_emb_sat, d_emb_drone, d_tau).  Row i of both matrices
    is the positive pair for building i.  S = drone . sat^T / tau; the
    drone->sat direction anchors on unmasked rows of S, the sat->drone
    direction on unmasked rows of S^T; every row and column stays in all
    denominators.  Loss is the mean over the 2U unmasked anchor terms.
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

    scores = emb_drone @ emb_sat.T / tau
    logp_ds = _log_softmax(scores)          # drone anchors vs sat columns
    logp_sd = _log_softmax(scores.T)        # sat anchors vs drone columns

    ce_ds = _smoothed_ce_rows(logp_ds[anchors], anchors, eps)
    ce_sd = _smoothed_ce_rows(logp_sd[anchors], anchors, eps)
    loss = float((ce_ds.sum() + ce_sd.sum()) / (2.0 * u))

    # dCE/drow for an anchor row is softmax - target; weight 1/(2U).  The
    # diagonal target is rounded once: two separate subtractions move bits.
    q = np.full((n, n), eps / n)
    np.fill_diagonal(q, eps / n + (1.0 - eps))
    g = np.exp(logp_ds, out=logp_ds)  # in place: the loss no longer needs logp
    g -= q
    g_sd = np.exp(logp_sd, out=logp_sd)
    g_sd -= q
    g[masked] = g_sd[masked] = 0.0
    g += g_sd.T
    g /= 2.0 * u

    d_drone = g @ emb_sat / tau
    d_sat = g.T @ emb_drone / tau
    d_tau = float(-(g * scores).sum() / tau)
    return loss, d_sat, d_drone, d_tau


def infonce(emb_sat: np.ndarray, emb_drone: np.ndarray, mask: np.ndarray,
            tau: float, eps: float) -> float:
    loss, _, _, _ = infonce_with_grad(emb_sat, emb_drone, mask, tau, eps)
    return loss


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


def orientation_ce(logits, labels, mask, eps: float) -> float:
    loss, _ = orientation_ce_with_grad(logits, labels, mask, eps)
    return loss


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


def orientation_mse(pred, angles_deg, mask) -> float:
    loss, _ = orientation_mse_with_grad(pred, angles_deg, mask)
    return loss


def joint(l_contrastive: float, l_orientation: float, cfg: LossConfig) -> float:
    """Total loss; contrastive and orientation stand in ratio 1 : weight."""
    if not (math.isfinite(l_contrastive) and math.isfinite(l_orientation)):
        raise NonFiniteLoss(
            f"loss terms not finite: contrastive={l_contrastive}, orientation={l_orientation}"
        )
    if cfg.orientation_mode == MODE_NONE:
        return l_contrastive
    return l_contrastive + cfg.orientation_weight * l_orientation
