"""Optimization loop: AdamW with decoupled weight decay, cosine learning
rate with linear warmup, deterministic epoch orchestration, CSV logging.
AdamW updates ModelParams.flat, and its moments are vectors of that layout.

RNG discipline: substreams of the config seed are keyed by purpose
(1 = parameter init, 2 = batch sampling, 3 = rotation augmentation) so that
the three consumers never share a stream.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import BatchSampler, CrossViewDataset, apply_aligned_rotation
from .errors import NonFiniteLoss
from .model import ModelParams, forward_backward, init
from .objectives import MODE_REGRESSION, LossConfig
from .pose_geometry import LabelConfig

TRAIN_LOG_HEADER = ["step", "lr", "loss_total", "loss_contrastive", "loss_orientation"]


@dataclass(frozen=True)
class TrainConfig:
    peak_lr: float = 4e-5
    warmup_frac: float = 0.10
    epochs: int = 1
    batch_size: int = 64
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    rotation_prob: float = 0.30
    hidden_dim: int = 64
    embed_dim: int = 64
    train_temperature: bool = False
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        if not self.peak_lr >= 0:
            raise ValueError("peak_lr must be >= 0")
        if not 0.0 <= self.warmup_frac < 1.0:
            raise ValueError("warmup_frac must be in [0, 1)")
        if not 0.0 <= self.rotation_prob <= 1.0:
            raise ValueError("rotation_prob must be in [0, 1]")
        if min(self.epochs, self.hidden_dim, self.embed_dim) < 1:
            raise ValueError("epochs, hidden_dim and embed_dim must be >= 1")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        if not self.weight_decay >= 0:
            raise ValueError("weight_decay must be >= 0")
        if not self.adam_eps > 0:
            raise ValueError("adam_eps must be > 0")


@dataclass
class OptimizerState:
    m: np.ndarray  # laid out as ModelParams.flat
    v: np.ndarray
    m_tau: float = 0.0
    v_tau: float = 0.0
    step: int = 0

    @classmethod
    def fresh(cls, params: ModelParams) -> "OptimizerState":
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


@dataclass
class TrainLogRow:
    step: int
    lr: float
    loss_total: float
    loss_contrastive: float
    loss_orientation: float


def lr_at(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Linear warmup to peak over round(warmup_frac * total) steps, then
    cosine decay to zero at total_steps."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    warm = round(cfg.warmup_frac * total_steps)
    if step < warm:
        return cfg.peak_lr * step / warm
    span = max(1, total_steps - warm)
    return cfg.peak_lr * 0.5 * (1.0 + math.cos(math.pi * (step - warm) / span))


def adamw_step(params: ModelParams, grads: ModelParams, state: OptimizerState,
               lr: float, cfg: TrainConfig) -> tuple[ModelParams, OptimizerState]:
    """One decoupled-weight-decay Adam update, in place, over params.flat.

    Only the three weight matrices are decayed: biases and the temperature
    never are.  The temperature moves only when cfg.train_temperature is set.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    g = grads.flat
    state.m *= cfg.beta1
    state.m += (1.0 - cfg.beta1) * g
    state.v *= cfg.beta2
    state.v += (1.0 - cfg.beta2) * (g * g)
    update = state.m / bc1
    update /= np.sqrt(state.v / bc2) + cfg.adam_eps
    for rows in params.matrix_slices:
        update[rows] += cfg.weight_decay * params.flat[rows]
    params.flat -= lr * update
    if cfg.train_temperature:
        g = grads.temperature
        state.m_tau = cfg.beta1 * state.m_tau + (1.0 - cfg.beta1) * g
        state.v_tau = cfg.beta2 * state.v_tau + (1.0 - cfg.beta2) * g * g
        params.temperature -= lr * (state.m_tau / bc1) / (
            math.sqrt(state.v_tau / bc2) + cfg.adam_eps
        )
    return params, state


def train(cfg: TrainConfig, dataset: CrossViewDataset) -> tuple[ModelParams, list[TrainLogRow]]:
    """Full run: sample -> rotate -> forward/backward -> AdamW, per step.

    Deterministic for fixed (cfg, dataset): same seed gives bit-identical
    parameters and logs.  The InfoNCE buffers live in this call's work dict,
    so they are freed when training returns.
    """
    init_rng = np.random.default_rng([cfg.seed, 1])
    sampler_rng = np.random.default_rng([cfg.seed, 2])
    aug_rng = np.random.default_rng([cfg.seed, 3])

    head_rows = 2 if cfg.loss.orientation_mode == MODE_REGRESSION else cfg.loss.bins
    params = init(init_rng, dataset.input_dim - 2, cfg.hidden_dim, cfg.embed_dim, head_rows)
    params.temperature = cfg.loss.temperature

    sampler = BatchSampler(dataset, cfg.batch_size, sampler_rng)
    label_cfg = LabelConfig(cfg.loss.bins)
    total_steps = cfg.epochs * sampler.batches_per_epoch
    state = OptimizerState.fresh(params)
    log: list[TrainLogRow] = []
    work: dict = {}
    # a diverging run overflows in numpy first; the loss checks report it once
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(total_steps):
            batch = sampler.sample_batch()
            batch = apply_aligned_rotation(batch, aug_rng, cfg.rotation_prob, label_cfg)
            lr = lr_at(step, total_steps, cfg)
            total, grads, (l_con, l_orient) = forward_backward(params, batch, cfg.loss, work)
            if not math.isfinite(total):
                raise NonFiniteLoss(f"loss {total} at step {step}")
            params, state = adamw_step(params, grads, state, lr, cfg)
            log.append(TrainLogRow(step, lr, total, l_con, l_orient))
    return params, log


def write_train_log(rows: list[TrainLogRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAIN_LOG_HEADER)
        for r in rows:
            writer.writerow(
                [r.step, repr(r.lr), repr(r.loss_total), repr(r.loss_contrastive),
                 repr(r.loss_orientation)]
            )


def read_train_log(path) -> list[TrainLogRow]:
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRAIN_LOG_HEADER:
            raise ValueError(f"{path}: bad train log header {header!r}")
        for rec in reader:
            rows.append(TrainLogRow(int(rec[0]), float(rec[1]), float(rec[2]),
                                    float(rec[3]), float(rec[4])))
    return rows
