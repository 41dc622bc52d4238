"""Weight-shared two-layer encoder with L2-normalized outputs, a linear
orientation head over the concatenated pair embedding, and hand-derived
gradients for the joint objective.

Both views pass through the single parameter set (Siamese by construction).
The orientation head consumes [satellite embedding ; drone embedding], i.e.
exactly the vectors retrieval compares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import binio
from .dataset import TrainBatch
from .errors import NormDegenerate
from .objectives import (
    MODE_CLASSIFICATION,
    MODE_NONE,
    MODE_REGRESSION,
    LossConfig,
    infonce_with_grad,
    joint,
    orientation_ce_with_grad,
    orientation_mse_with_grad,
)

DEFAULT_TAU = 0.07
NORM_FLOOR = 1e-12


@dataclass
class ModelParams:
    """Encoder and head parameters; field order is the checkpoint layout."""

    W1: np.ndarray       # h x (m+2)
    b1: np.ndarray       # h
    W2: np.ndarray       # e x h
    b2: np.ndarray       # e
    head_W: np.ndarray   # head_rows x 2e
    head_b: np.ndarray   # head_rows
    temperature: float

    @property
    def input_dim(self) -> int:
        return self.W1.shape[1]

    @property
    def embed_dim(self) -> int:
        return self.W2.shape[0]

    @property
    def head_rows(self) -> int:
        return self.head_W.shape[0]

    def copy(self) -> "ModelParams":
        return ModelParams(self.W1.copy(), self.b1.copy(), self.W2.copy(),
                           self.b2.copy(), self.head_W.copy(), self.head_b.copy(),
                           float(self.temperature))


@dataclass
class Gradients:
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    head_W: np.ndarray
    head_b: np.ndarray
    temperature: float


def _xavier(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    s = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-s, s, size=(rows, cols))


def init(rng: np.random.Generator, latent_dim: int, hidden: int, embed: int,
         head_rows: int) -> ModelParams:
    """Xavier-uniform weights, zero biases, temperature 0.07.

    latent_dim counts only the latent block; inputs carry two extra
    orientation coordinates.  head_rows is the bin count for classification
    or 2 for unit-circle regression.
    """
    if min(latent_dim, hidden, embed, head_rows) < 1:
        raise ValueError("all model dimensions must be >= 1")
    m2 = latent_dim + 2
    return ModelParams(
        W1=_xavier(rng, hidden, m2),
        b1=np.zeros(hidden),
        W2=_xavier(rng, embed, hidden),
        b2=np.zeros(embed),
        head_W=_xavier(rng, head_rows, 2 * embed),
        head_b=np.zeros(head_rows),
        temperature=DEFAULT_TAU,
    )


def _forward(params: ModelParams, x: np.ndarray):
    """Shared-branch forward pass with caches for the backward pass."""
    z1 = x @ params.W1.T + params.b1
    a = np.maximum(z1, 0.0)
    z2 = a @ params.W2.T + params.b2
    norms = np.linalg.norm(z2, axis=1, keepdims=True)
    if norms.size and norms.min() < NORM_FLOOR:
        row = int(np.argmin(norms))
        raise NormDegenerate(f"pre-normalization row {row} has norm {norms.min():.3e}")
    emb = z2 / norms
    return emb, (x, z1, a, norms, emb)


def encode(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Unit-norm embeddings: L2-normalize(W2 relu(W1 x + b1) + b2) rowwise."""
    emb, _ = _forward(params, np.asarray(x, dtype=float))
    return emb


def orientation_logits(params: ModelParams, emb_sat: np.ndarray,
                       emb_drone: np.ndarray) -> np.ndarray:
    """Linear head on the concatenated embeddings, satellite half first."""
    if emb_sat.shape[0] != emb_drone.shape[0]:
        raise ValueError("row counts differ")
    cat = np.concatenate([emb_sat, emb_drone], axis=1)
    return cat @ params.head_W.T + params.head_b


def _backprop_branch(params: ModelParams, cache, d_emb: np.ndarray):
    """Gradient of the encoder branch, through the L2 normalization."""
    x, z1, a, norms, emb = cache
    # d/dz2 of z2/|z2|: remove the component of d_emb along emb, scale by 1/|z2|
    dz2 = (d_emb - (d_emb * emb).sum(axis=1, keepdims=True) * emb) / norms
    d_w2 = dz2.T @ a
    d_b2 = dz2.sum(axis=0)
    da = dz2 @ params.W2
    dz1 = da * (z1 > 0)
    d_w1 = dz1.T @ x
    d_b1 = dz1.sum(axis=0)
    return d_w1, d_b1, d_w2, d_b2


def forward_backward(params: ModelParams, batch: TrainBatch, cfg: LossConfig,
                     work: dict | None = None):
    """Joint loss and its exact analytic gradients.

    Returns (total, Gradients, parts) where parts = (contrastive,
    orientation).  The temperature gradient is always the true derivative;
    whether it is applied is the optimizer's decision.  work is passed to
    infonce_with_grad, which keeps its n x n buffers there between steps.
    """
    emb_sat, cache_sat = _forward(params, np.asarray(batch.sat_inputs, dtype=float))
    emb_drone, cache_drone = _forward(params, np.asarray(batch.drone_inputs, dtype=float))

    l_con, d_sat, d_drone, d_tau = infonce_with_grad(
        emb_sat, emb_drone, batch.mask, params.temperature, cfg.smoothing, work
    )

    l_orient = 0.0
    d_head_w = np.zeros_like(params.head_W)
    d_head_b = np.zeros_like(params.head_b)
    if cfg.orientation_mode != MODE_NONE:
        out = orientation_logits(params, emb_sat, emb_drone)
        if cfg.orientation_mode == MODE_CLASSIFICATION:
            l_orient, d_out = orientation_ce_with_grad(
                out, batch.orientation_bins, batch.mask, cfg.smoothing
            )
        elif cfg.orientation_mode == MODE_REGRESSION:
            l_orient, d_out = orientation_mse_with_grad(
                out, batch.relative_angle_deg, batch.mask
            )
        else:
            raise AssertionError(cfg.orientation_mode)
        w = cfg.orientation_weight
        cat = np.concatenate([emb_sat, emb_drone], axis=1)
        d_head_w = w * (d_out.T @ cat)
        d_head_b = w * d_out.sum(axis=0)
        d_cat = w * (d_out @ params.head_W)
        e = params.embed_dim
        d_sat = d_sat + d_cat[:, :e]
        d_drone = d_drone + d_cat[:, e:]

    total = joint(l_con, l_orient, cfg)

    w1_s, b1_s, w2_s, b2_s = _backprop_branch(params, cache_sat, d_sat)
    w1_d, b1_d, w2_d, b2_d = _backprop_branch(params, cache_drone, d_drone)
    grads = Gradients(
        W1=w1_s + w1_d,
        b1=b1_s + b1_d,
        W2=w2_s + w2_d,
        b2=b2_s + b2_d,
        head_W=d_head_w,
        head_b=d_head_b,
        temperature=d_tau,
    )
    return total, grads, (l_con, l_orient)


def _checkpoint_shapes(dims):
    m, h, e, head_rows = (int(d) for d in dims)
    return [(h, m + 2), (h,), (e, h), (e,), (head_rows, 2 * e), (head_rows,)]


def save_checkpoint(params: ModelParams, path) -> None:
    m = params.input_dim - 2
    h = params.b1.shape[0]
    e = params.embed_dim
    binio.write_checkpoint(
        path,
        (m, h, e, params.head_rows),
        [params.W1, params.b1, params.W2, params.b2, params.head_W, params.head_b],
        params.temperature,
    )


def load_checkpoint(path) -> ModelParams:
    _, arrays, tau = binio.read_checkpoint(path, _checkpoint_shapes)
    w1, b1, w2, b2, head_w, head_b = (a.astype(np.float64) for a in arrays)
    return ModelParams(w1, b1, w2, b2, head_w, head_b, float(tau))
