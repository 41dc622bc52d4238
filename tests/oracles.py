"""Naive reference implementations used to cross-check the package.

The naive_* functions are plain term-by-term Python loops over math
functions, deliberately independent of the vectorized numpy routes in the
package.  Tests compare the two routes; neither is derived from the other.
The loop-form references at the end are exact-equality references for the
training batch path.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from skyalign.dataset import BatchSampler, TrainBatch
from skyalign.objectives import _log_softmax, _smoothed_ce_rows
from skyalign.pose_geometry import rotate_label


def softmax_row(row):
    mx = max(row)
    exps = [math.exp(v - mx) for v in row]
    total = sum(exps)
    return [v / total for v in exps]


def smoothed_ce_row(row, target, eps):
    """Cross-entropy of one logit row against q_j = eps/C + (1-eps)[j=target]."""
    probs = softmax_row(row)
    c = len(row)
    ce = 0.0
    for j, p in enumerate(probs):
        q = eps / c + ((1.0 - eps) if j == target else 0.0)
        ce -= q * math.log(p)
    return ce


def naive_infonce(emb_sat, emb_drone, mask, tau, eps):
    """Symmetric masked InfoNCE, one scalar at a time.

    Builds the similarity matrix with explicit dot-product loops, then sums
    cross-entropy terms for every unmasked anchor in both directions, always
    keeping all rows/columns in each softmax.
    """
    n = len(emb_sat)
    dim = len(emb_sat[0])
    s = [[sum(emb_drone[i][d] * emb_sat[j][d] for d in range(dim)) / tau
          for j in range(n)] for i in range(n)]
    anchors = [i for i in range(n) if not mask[i]]
    assert anchors, "oracle needs at least one unmasked row"
    total = 0.0
    for i in anchors:  # drone anchor vs satellite columns
        total += smoothed_ce_row(s[i], i, eps)
    for i in anchors:  # satellite anchor vs drone columns
        column = [s[r][i] for r in range(n)]
        total += smoothed_ce_row(column, i, eps)
    return total / (2.0 * len(anchors))


def naive_orientation_ce(logits, labels, mask, eps):
    rows = [i for i in range(len(logits)) if not mask[i]]
    if not rows:
        return 0.0
    return sum(smoothed_ce_row(list(logits[i]), int(labels[i]), eps) for i in rows) / len(rows)


def naive_orientation_mse(pred, angles_deg, mask):
    rows = [i for i in range(len(pred)) if not mask[i]]
    if not rows:
        return 0.0
    total = 0.0
    for i in rows:
        rad = math.radians(float(angles_deg[i]))
        dx = float(pred[i][0]) - math.cos(rad)
        dy = float(pred[i][1]) - math.sin(rad)
        total += dx * dx + dy * dy
    return total / len(rows)


def naive_topk(gallery_ids, gallery_rows, query_row, k):
    """Exhaustive scoring and full sort; ties by ascending gallery id."""
    dim = len(query_row)
    scored = []
    for gid, grow in zip(gallery_ids, gallery_rows):
        score = sum(float(query_row[d]) * float(grow[d]) for d in range(dim))
        scored.append((gid, score))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k]


def naive_recall_at_k(ranked_ids, relevant, k):
    return 1.0 if any(g in relevant for g in ranked_ids[:k]) else 0.0


def naive_average_precision(ranked_ids, relevant):
    hits = 0
    total = 0.0
    for pos, gid in enumerate(ranked_ids, start=1):
        if gid in relevant:
            hits += 1
            total += hits / pos
    assert hits == len(relevant), "ranking must contain every relevant id"
    return total / len(relevant)


def central_difference(f, x, step):
    """d f / d x by central finite difference at scalar x."""
    return (f(x + step) - f(x - step)) / (2.0 * step)


# ---------------------------------------------------------------------------
# Loop-form references for the batch path.  These are the earlier per-row
# (sampler, rotation) and index-scatter (InfoNCE gradient) implementations,
# kept verbatim apart from the batch fields they fill.  The array forms in
# the package must reproduce them exactly: same arrays, same generator state
# afterwards.


def _loop_orientation_block(angle_deg):
    rad = math.radians(angle_deg)
    return np.array([math.cos(rad), math.sin(rad)])


class LoopBatchSampler(BatchSampler):
    """BatchSampler whose view choice is one scalar draw per building."""

    def sample_batch(self) -> TrainBatch:
        if not self._queue:
            self._refill()
        buildings = self._queue.pop()
        ds = self.dataset
        drones_of = [
            np.nonzero(ds.drone_building_idx == b)[0] for b in range(ds.n_buildings)
        ]
        picks = np.empty(len(buildings), dtype=np.int64)
        for i, b in enumerate(buildings):
            rows = drones_of[b]
            picks[i] = rows[self.rng.integers(len(rows))]
        mask = ds.drone_masked[picks].copy()
        azimuth = np.where(mask, np.nan, ds.drone_azimuth_deg[picks])
        return TrainBatch(
            sat_inputs=ds.sat_inputs[buildings].copy(),
            drone_inputs=ds.drone_inputs[picks].copy(),
            drone_rows=picks,
            orientation_bins=ds.drone_bins[picks].copy(),
            mask=mask,
            sat_angle_deg=np.zeros(len(buildings)),
            relative_angle_deg=azimuth.copy(),
        )


def loop_aligned_rotation(batch, rng, p, cfg):
    """Per-row aligned rotation: one coin per row, then one k per hit row."""
    n = batch.size
    m2 = batch.sat_inputs.shape[1]
    out = replace(
        batch,
        sat_inputs=batch.sat_inputs.copy(),
        drone_inputs=batch.drone_inputs.copy(),
        drone_rows=batch.drone_rows.copy(),
        orientation_bins=batch.orientation_bins.copy(),
        mask=batch.mask.copy(),
        sat_angle_deg=batch.sat_angle_deg.copy(),
        relative_angle_deg=batch.relative_angle_deg.copy(),
    )
    if p <= 0 or n == 0:
        return out
    coins = rng.random(n)
    for i in range(n):
        if coins[i] >= p:
            continue
        k = int(rng.integers(1, cfg.bins))
        step = k * cfg.bin_width_deg
        out.sat_angle_deg[i] = (out.sat_angle_deg[i] + step) % 360.0
        out.sat_inputs[i, m2 - 2:m2] = _loop_orientation_block(out.sat_angle_deg[i])
        if not out.mask[i]:
            out.orientation_bins[i] = rotate_label(int(out.orientation_bins[i]), k, cfg)
            out.relative_angle_deg[i] = (out.relative_angle_deg[i] + step) % 360.0
    return out


def scatter_infonce_with_grad(emb_sat, emb_drone, mask, tau, eps):
    """InfoNCE whose gradient is scattered anchor row by anchor row."""
    n = emb_sat.shape[0]
    anchors = np.nonzero(~np.asarray(mask, dtype=bool))[0]
    u = anchors.size

    scores = emb_drone @ emb_sat.T / tau
    logp_ds = _log_softmax(scores)          # drone anchors vs sat columns
    logp_sd = _log_softmax(scores.T)        # sat anchors vs drone columns

    ce_ds = _smoothed_ce_rows(logp_ds[anchors], anchors, eps)
    ce_sd = _smoothed_ce_rows(logp_sd[anchors], anchors, eps)
    loss = float((ce_ds.sum() + ce_sd.sum()) / (2.0 * u))

    # dCE/drow for an anchor row is softmax - target; weight 1/(2U)
    q = np.full((u, n), eps / n)
    q[np.arange(u), anchors] += 1.0 - eps
    g = np.zeros((n, n))
    g[anchors, :] += np.exp(logp_ds[anchors]) - q
    g[:, anchors] += (np.exp(logp_sd[anchors]) - q).T
    g /= 2.0 * u

    d_drone = g @ emb_sat / tau
    d_sat = g.T @ emb_drone / tau
    d_tau = float(-(g * scores).sum() / tau)
    return loss, d_sat, d_drone, d_tau
