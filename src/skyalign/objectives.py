"""Contrastive and orientation losses with label smoothing, noise masking,
and hand-derived gradients.

Masking semantics: a masked row never anchors a cross-entropy term, but its
embedding stays in every softmax denominator, so noisy samples still act as
negatives.  Orientation terms skip masked rows entirely; their logit and
prediction gradients are exactly zero.

InfoNCE arithmetic: every score of S lies in [-b, b], b = max|drone_i|
max|sat_j| / tau (1/tau on the encoder's unit rows), so one exp
E = exp(S - b) gives both directions' softmax normalisers as its row and
column sums (arXiv 1805.02867).  That needs exp(-2b) to stay a normal
float64 with 53 bits to spare, 2b <= (1022 - 53) ln 2 = 671.7: down to
tau = 0.003 on unit rows.  Below it, each row and each column is shifted by
its own max, with two exps.  Besides E's sums, the loss and the gradient's
constant terms need only n x e products.

InfoNCE workspace: the n x n block (S, then E, then the gradient) and a
64-row scratch block share one flat float64 buffer in a caller's ``work``
dict (2.4 MB at n = 512, below the 4 MB from which numpy advises huge
pages), replaced only when a larger n arrives: a run pays its page faults
once, and its 512- and 488-row batches share it.  trainer.train owns one
dict per run, so it is freed before embed and eval.
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
_MAX_SPREAD = 667.0  # one-exp InfoNCE's limit on 2b: 2 / 0.003 (module docstring)
_BLOCK = 64  # rows per InfoNCE outer-sum block: 256 KB of scratch at n = 512


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


def _smoothed_ce_rows(logp: np.ndarray, targets: np.ndarray, eps: float) -> np.ndarray:
    """Row CE against q = eps/C + (1-eps)*onehot(target), C = column count."""
    n, c = logp.shape
    return -(eps / c) * logp.sum(axis=1) - (1.0 - eps) * logp[np.arange(n), targets]


def infonce_with_grad(emb_sat: np.ndarray, emb_drone: np.ndarray, mask: np.ndarray,
                      tau: float, eps: float, work: dict | None = None):
    """Masked, smoothed, symmetric InfoNCE.

    Returns (loss, d_emb_sat, d_emb_drone, d_tau).  Row i of both matrices
    is the positive pair for building i.  S = drone . sat^T / tau; the
    drone->sat direction anchors on unmasked rows of S, the sat->drone
    direction on unmasked columns of S; every row and column stays in all
    denominators.  Loss is the mean over the 2U unmasked anchor terms.

    work, if given, holds the workspace between calls (see the module
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
    buf = work.get("infonce")
    if buf is None or buf.size < n * (n + _BLOCK):  # replaced only when a larger n arrives
        buf = work["infonce"] = np.empty(n * (n + _BLOCK))
    ex = np.matmul(emb_drone / tau, emb_sat.T, out=buf[:n * n].reshape(n, n))  # S
    s_diag = ex.diagonal().copy()  # from the matrix, so it rounds as the shifts do
    bound = math.sqrt(np.einsum("ij,ij->i", emb_drone, emb_drone).max()
                      * np.einsum("ij,ij->i", emb_sat, emb_sat).max()) / tau  # >= |S|
    if 2.0 * bound <= _MAX_SPREAD:  # one shift and one exp for both directions
        row_shift = col_shift = bound
        ex_col = ex
    else:  # small tau: each row and each column shifted by its own max, two exps
        row_shift, col_shift = ex.max(axis=1), ex.max(axis=0)
        ex_col = np.exp(ex - col_shift)
    ex -= np.reshape(row_shift, (-1, 1))
    r, c = np.exp(ex, out=ex).sum(axis=1), ex_col.sum(axis=0)

    # an anchor's smoothed CE is lse - (eps/n) * (its sum of S) - (1 - eps) * S_ii
    sum_sat, sum_drone = emb_sat.sum(axis=0), emb_drone.sum(axis=0)
    ce = (row_shift + col_shift + np.log(r) + np.log(c)
          - (eps / n) * (emb_drone @ sum_sat + emb_sat @ sum_drone) / tau
          - 2.0 * (1.0 - eps) * s_diag)
    loss = float(ce[anchors].sum() / (2.0 * u))

    # dL/dS is G = E * (a_i/r_i + a_j/c_j) - (eps/n)(a_i + a_j) - 2(1 - eps) a_i [i = j],
    # over 2U, with a the unmasked indicator; the constant terms act on G @ sat
    # and G.T @ drone, and -sum(G * S) / tau is -sum(drone * (G @ sat)) / tau^2
    aw = (~masked) / (2.0 * u)
    alpha, beta = aw / r, aw / c
    if ex_col is ex:  # the outer sum one row block at a time, in the scratch block
        for r0 in range(0, n, _BLOCK):
            blk = ex[r0:r0 + _BLOCK]
            blk *= np.add(alpha[r0:r0 + _BLOCK, None], beta,
                          out=buf[n * n:n * n + blk.size].reshape(blk.shape))
    else:
        ex *= alpha[:, None]
        ex += ex_col * beta
    k, on = eps / n, 2.0 * (1.0 - eps)
    d_drone = (ex @ emb_sat - aw[:, None] * (k * sum_sat + on * emb_sat)
               - k * (aw @ emb_sat)) / tau
    d_sat = (ex.T @ emb_drone - aw[:, None] * (k * sum_drone + on * emb_drone)
             - k * (aw @ emb_drone)) / tau
    d_tau = float(-np.einsum("ij,ij->", emb_drone, d_drone) / tau)
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
