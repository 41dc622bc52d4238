"""Central finite-difference harness for the joint loss.

The analytic route under test is forward_backward's gradient output; the
reference route re-evaluates the loss value at perturbed parameters.  Both
are exercised coordinate by coordinate.
"""

from __future__ import annotations

import numpy as np

from skyalign.dataset import TrainBatch
from skyalign.errors import NormDegenerate
from skyalign.model import ModelParams, forward_backward, init
from skyalign.objectives import MODE_REGRESSION, LossConfig

STEP = 1e-5
REL_TOL = 1e-4
ABS_FLOOR = 1e-7

_FIELDS = ("W1", "b1", "W2", "b2", "head_W", "head_b")


def make_batch(rng: np.random.Generator, n: int, latent_dim: int, bins: int,
               mask_frac: float = 0.25) -> TrainBatch:
    """Random batch with valid labels; at least one row stays unmasked."""
    mask = rng.random(n) < mask_frac
    if mask.all():
        mask[int(rng.integers(n))] = False
    angles = rng.uniform(0.0, 360.0, size=n)
    width = 360.0 / bins
    bins_arr = np.where(mask, -1, (angles // width).astype(np.int64))
    return TrainBatch(
        sat_inputs=rng.standard_normal((n, latent_dim + 2)),
        drone_inputs=rng.standard_normal((n, latent_dim + 2)),
        drone_rows=np.arange(n),
        orientation_bins=bins_arr,
        mask=mask,
        sat_angle_deg=np.zeros(n),
        relative_angle_deg=np.where(mask, np.nan, angles),
    )


def _coord_mismatches(params: ModelParams, batch: TrainBatch, cfg: LossConfig):
    """Yield (name, index, analytic, numeric) for every parameter coordinate."""
    _, grads, _ = forward_backward(params, batch, cfg)

    def loss_at(p: ModelParams) -> float:
        return forward_backward(p, batch, cfg)[0]

    for name in _FIELDS:
        arr = getattr(params, name)
        g = getattr(grads, name)
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + STEP
            up = loss_at(params)
            arr[idx] = orig - STEP
            down = loss_at(params)
            arr[idx] = orig
            yield name, idx, float(g[idx]), (up - down) / (2 * STEP)

    # the loss scales as 1/tau, so a central difference in tau errs by about
    # (step / tau)^2 relative: below tau = 0.05 the step shrinks with tau
    orig = params.temperature
    step = STEP * min(1.0, orig / 0.05)
    params.temperature = orig + step
    up = loss_at(params)
    params.temperature = orig - step
    down = loss_at(params)
    params.temperature = orig
    yield "temperature", (), float(grads.temperature), (up - down) / (2 * step)


def check_config(rng: np.random.Generator, mode: str,
                 temperature: float | None = None) -> tuple[int, list]:
    """One random small configuration; returns (n_coords, failures).  A given
    temperature replaces the random one; the draws stay the same."""
    for _ in range(20):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 7))
        h = int(rng.integers(2, 9))
        e = int(rng.integers(2, 9))
        bins = int(rng.choice([2, 4, 8]))
        head_rows = 2 if mode == MODE_REGRESSION else bins
        params = init(rng, m, h, e, head_rows)
        # random small biases: with zero b2 a batch row whose relus are all
        # inactive would hit the (legitimate) degenerate-norm guard
        params.b1[...] = rng.uniform(-0.3, 0.3, size=h)
        params.b2[...] = rng.uniform(-0.3, 0.3, size=e)
        params.head_b[...] = rng.uniform(-0.3, 0.3, size=head_rows)
        params.temperature = float(rng.uniform(0.05, 1.0))
        if temperature is not None:
            params.temperature = temperature
        cfg = LossConfig(smoothing=float(rng.choice([0.0, 0.1])),
                         temperature=params.temperature,
                         orientation_mode=mode,
                         orientation_weight=0.5,
                         bins=bins)
        batch = make_batch(rng, n, m, bins)
        try:
            forward_backward(params, batch, cfg)
            break
        except NormDegenerate:
            continue
    failures = []
    count = 0
    for name, idx, analytic, numeric in _coord_mismatches(params, batch, cfg):
        count += 1
        err = abs(analytic - numeric)
        bound = max(ABS_FLOOR, REL_TOL * max(abs(analytic), abs(numeric)))
        if err > bound:
            failures.append((name, idx, analytic, numeric, err))
    return count, failures
