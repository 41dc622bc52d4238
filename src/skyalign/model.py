"""Weight-shared two-layer encoder with L2-normalized outputs, a linear
orientation head over the concatenated pair embedding, and hand-derived
gradients for the joint objective.

Both views pass through the single parameter set (Siamese by construction).
The orientation head consumes [satellite embedding ; drone embedding], i.e.
exactly the vectors retrieval compares.

The parameters, and their gradient, are one float64 vector each, in CKP1's
order, plus a scalar temperature.
"""

from __future__ import annotations

import math

import numpy as np

from . import binio
from .dataset import TrainBatch
from .errors import FormatError, NormDegenerate, NumericError
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
_FIELDS = ("W1", "b1", "W2", "b2", "head_W", "head_b")  # CKP1's array order


class ModelParams:
    """Encoder and head parameters.  flat holds W1 (h x (m+2)), b1 (h), W2
    (e x h), b2 (e), head_W (head_rows x 2e) and head_b (head_rows) in that
    order, and each field is a reshaped view into it: write into a field
    (params.b1[...] = x), never rebind it.  A gradient is a ModelParams too."""

    def __init__(self, W1, b1, W2, b2, head_W, head_b, temperature):
        arrays = (W1, b1, W2, b2, head_W, head_b)
        self._bind(np.concatenate([np.ravel(a) for a in arrays]).astype(np.float64, copy=False),
                   [np.shape(a) for a in arrays], temperature)

    def like(self, flat: np.ndarray, temperature) -> "ModelParams":
        """The same layout over another vector of flat's size."""
        other = object.__new__(ModelParams)
        other._bind(flat, [getattr(self, name).shape for name in _FIELDS], temperature)
        return other

    def _bind(self, flat, shapes, temperature) -> None:
        self.flat, self.temperature = flat, temperature
        self.matrix_slices, start = [], 0  # flat ranges of W1, W2 and head_W
        for name, shape in zip(_FIELDS, shapes):
            stop = start + math.prod(shape)
            setattr(self, name, flat[start:stop].reshape(shape))
            if len(shape) == 2:
                self.matrix_slices.append(slice(start, stop))
            start = stop

    @property
    def input_dim(self) -> int:
        return self.W1.shape[1]

    @property
    def embed_dim(self) -> int:
        return self.W2.shape[0]

    @property
    def head_rows(self) -> int:
        return self.head_W.shape[0]


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

    Returns (total, grads, parts) where grads is a ModelParams over a new
    vector and parts = (contrastive, orientation).  The temperature gradient
    is always the true derivative; whether it is applied is the optimizer's
    decision.  work is passed to infonce_with_grad, which keeps its n x n
    buffers there between steps.
    """
    emb_sat, cache_sat = _forward(params, np.asarray(batch.sat_inputs, dtype=float))
    emb_drone, cache_drone = _forward(params, np.asarray(batch.drone_inputs, dtype=float))

    l_con, d_sat, d_drone, d_tau = infonce_with_grad(
        emb_sat, emb_drone, batch.mask, params.temperature, cfg.smoothing, work
    )
    grads = params.like(np.zeros(params.flat.size), d_tau)

    l_orient = 0.0
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
        grads.head_W[...] = w * (d_out.T @ cat)
        grads.head_b[...] = w * d_out.sum(axis=0)
        d_cat = w * (d_out @ params.head_W)
        e = params.embed_dim
        d_sat = d_sat + d_cat[:, :e]
        d_drone = d_drone + d_cat[:, e:]

    total = joint(l_con, l_orient, cfg)

    sat = _backprop_branch(params, cache_sat, d_sat)
    drone = _backprop_branch(params, cache_drone, d_drone)
    for view, term_sat, term_drone in zip((grads.W1, grads.b1, grads.W2, grads.b2), sat, drone):
        np.add(term_sat, term_drone, out=view)
    return total, grads, (l_con, l_orient)


def _checkpoint_shapes(dims):
    m, h, e, head_rows = (int(d) for d in dims)
    if min(m, h, e, head_rows) < 1:
        raise FormatError(f"checkpoint dims (m, h, e, head_rows) = {tuple(dims)} "
                          "must all be >= 1")
    return [(h, m + 2), (h,), (e, h), (e,), (head_rows, 2 * e), (head_rows,)]


def save_checkpoint(params: ModelParams, path) -> None:
    """Write flat and the temperature as float32; NumericError, before path
    is opened, if either is not finite as float32."""
    with np.errstate(over="ignore"):
        flat, tau = params.flat.astype("<f4"), np.float32(params.temperature)
    if not (np.isfinite(flat).all() and np.isfinite(tau)):
        raise NumericError(f"{path}: a parameter or the temperature is not finite as float32")
    dims = (params.input_dim - 2, params.b1.size, params.embed_dim, params.head_rows)
    binio.write_checkpoint(path, dims, [flat], params.temperature)


def load_checkpoint(path) -> ModelParams:
    _, arrays, tau = binio.read_checkpoint(path, _checkpoint_shapes)
    return ModelParams(*arrays, float(tau))
