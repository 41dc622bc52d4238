"""Naive reference implementations used to cross-check the package.

The naive_* functions are plain term-by-term Python loops over math
functions, deliberately independent of the vectorized numpy routes in the
package.  Tests compare the two routes; neither is derived from the other.
The loop-form references are exact-equality references for the training
batch path and for top_k's block selection; the two log-softmax InfoNCE
forms equal each other bit for bit and bound the one-exp InfoNCE by a
tolerance; the
record-form references after them are those for the column pose manifest
and its labels; the object-form references are those for the generator's
view table and the dataset builder; the dense-table metric path and the csv.writer
score-table save are those for the streaming evaluate and the joined-row
ScoreTable.save; the per-field gradient assembly and AdamW are those for
the flat parameter vector; and the record-by-record FEA1/EMB1 readers and
writers and the per-pair rank count are those for binio's table-at-a-time
I/O and retrieval_eval's sorted-row ranks; the in-process sweep loops are
those for the sweep engine and its worker processes; and the per-writer
csv.writer code at the end is the byte reference for the CSV writers that
share errors.write_csv.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from skyalign import binio
from skyalign.ablations import BINS_NONE, train_and_score
from skyalign.dataset import (
    BUILDING_SPACING_M,
    DRONE_ALTITUDE_M,
    DRONE_RADIUS_M,
    MASKED_BIN,
    BatchSampler,
    CrossViewDataset,
    GenConfig,
    TrainBatch,
)
from skyalign.binio import (
    EMB_MAGIC,
    FEA_MAGIC,
    KIND_DRONE_CODE,
    KIND_SAT_CODE,
    Views,
    _check_magic,
    _check_room,
    _read_exact,
)
from skyalign.errors import DataError, FormatError, ManifestError, UnknownQuery
from skyalign.model import _forward, orientation_logits
from skyalign.objectives import (
    MODE_CLASSIFICATION,
    MODE_NONE,
    MODE_REGRESSION,
    LossConfig,
    _log_softmax,
    _smoothed_ce_rows,
    infonce_with_grad,
    joint,
    orientation_ce_with_grad,
    orientation_mse_with_grad,
)
from skyalign.pose_geometry import (
    DEGENERATE_SQ_M2,
    KIND_DRONE,
    KIND_SAT,
    LABEL_HEADER,
    MANIFEST_HEADER,
    STATUS_FAILED,
    STATUS_OK,
    LabelConfig,
    Labels,
    Manifest,
    rotate_label,
)
from skyalign.retrieval_eval import _block_candidates, _id_ordered, _merge, score_table
from skyalign.trainer import TRAIN_LOG_HEADER


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


def dense_infonce_with_grad(emb_sat, emb_drone, mask, tau, eps):
    """InfoNCE with the dense in-place gradient and freshly allocated n x n
    temporaries; the sat->drone softmax reduces the F-ordered scores.T."""
    n = emb_sat.shape[0]
    masked = np.asarray(mask, dtype=bool)
    anchors = np.nonzero(~masked)[0]
    u = anchors.size

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


def whole_block_topk(gallery, queries, k, gallery_block):
    """top_k without the threshold filter: every gallery block's candidates
    from _block_candidates, merged into the running list.  (ids, score
    bytes) per query."""
    gids, gmat = _id_ordered(gallery)
    run_s = np.empty((len(queries.ids), 0), dtype=queries.matrix.dtype)
    run_i = np.empty((len(queries.ids), 0), dtype=np.int64)
    for c0 in range(0, gmat.shape[0], gallery_block):
        scores = queries.matrix @ gmat[c0:c0 + gallery_block].T
        cand_s, cand_i = _block_candidates(scores, c0, k)
        run_s, run_i = _merge(run_s, run_i, cand_s, cand_i, k)
    return [([gids[j] for j in row_i], row_s.tobytes()) for row_s, row_i in zip(run_s, run_i)]


# ---------------------------------------------------------------------------
# Record-form references for the pose manifest.  These are the earlier
# manifest and label types, one object per view, with the scalar bearing,
# binning and labelling functions and the record writers; they are kept
# verbatim apart from their names.  The column forms in the package
# (Manifest, Labels, relative_azimuth, bin_of, generate_labels,
# write_manifest, write_labels) must reproduce them exactly: same bits, the
# same first error and the same bytes.  manifest_of, records_of and
# label_records convert between the two forms.


class DegenerateAzimuth(DataError):
    """Horizontal offset too small to define an azimuth."""


@dataclass
class PoseRecord:
    """One view's estimated 3D position plus its estimation status.

    Failed records carry no usable position; their coordinate fields are
    ignored by every consumer.
    """

    view_id: str
    building_id: str
    kind: str  # KIND_SAT or KIND_DRONE
    position: tuple[float, float, float]
    status: str  # STATUS_OK or STATUS_FAILED


@dataclass
class OrientationLabel:
    """Pseudo-label for one drone view.

    ``masked`` is True exactly when azimuth and bin are absent (failed pose
    estimate or degenerate geometry).
    """

    view_id: str
    building_id: str
    azimuth_deg: Optional[float]
    bin: Optional[int]
    masked: bool


def record_relative_azimuth(sat_pos: Sequence[float], drone_pos: Sequence[float]) -> float:
    """Compass bearing of the drone as seen from the satellite position.

    Returns degrees in ``[0, 360)`` with 0 = due north (+y) and 90 = due
    east (+x).  The z components are ignored.  Raises DegenerateAzimuth
    when the drone sits (numerically) directly above the satellite.
    """
    dx = float(drone_pos[0]) - float(sat_pos[0])
    dy = float(drone_pos[1]) - float(sat_pos[1])
    if dx * dx + dy * dy < DEGENERATE_SQ_M2:
        raise DegenerateAzimuth(
            f"horizontal offset ({dx}, {dy}) too small to define a bearing"
        )
    az = math.degrees(math.atan2(dx, dy)) % 360.0
    # a tiny negative angle can round up to exactly 360.0 under the modulo
    if az >= 360.0:
        az = 0.0
    return az


def record_bin_of(azimuth_deg: float, cfg: LabelConfig) -> int:
    """Discrete bin of an azimuth in [0, 360): half-open sectors of equal width.

    Bin k covers [k*360/b, (k+1)*360/b), so 0 degrees belongs to bin 0.
    """
    idx = int(azimuth_deg // cfg.bin_width_deg)
    if idx >= cfg.bins:  # float edge just below 360
        idx = cfg.bins - 1
    return idx


def record_generate_labels(manifest: Iterable[PoseRecord], cfg: LabelConfig
                           ) -> list[OrientationLabel]:
    """Produce one OrientationLabel per drone record in manifest order.

    A drone is masked when its pose estimate failed or its geometry is
    degenerate; otherwise azimuth and bin are filled in relative to its
    building's satellite view.  Raises ManifestError when view ids repeat,
    when a building carries more than one satellite record, or when a
    building with drone views lacks a satellite record with status ok.
    """
    records = list(manifest)
    seen_ids = set()
    sat_by_building: dict[str, PoseRecord] = {}
    for rec in records:
        if rec.view_id in seen_ids:
            raise ManifestError(f"duplicate view_id {rec.view_id!r}")
        seen_ids.add(rec.view_id)
        if rec.kind == KIND_SAT:
            if rec.building_id in sat_by_building:
                raise ManifestError(
                    f"building {rec.building_id!r} has more than one satellite record"
                )
            sat_by_building[rec.building_id] = rec

    labels = []
    for rec in records:
        if rec.kind != KIND_DRONE:
            continue
        sat = sat_by_building.get(rec.building_id)
        if sat is None or sat.status != STATUS_OK:
            raise ManifestError(
                f"building {rec.building_id!r} lacks a satellite record with status ok"
            )
        if rec.status != STATUS_OK:
            labels.append(OrientationLabel(rec.view_id, rec.building_id, None, None, True))
            continue
        try:
            az = record_relative_azimuth(sat.position, rec.position)
        except DegenerateAzimuth:
            labels.append(OrientationLabel(rec.view_id, rec.building_id, None, None, True))
            continue
        labels.append(
            OrientationLabel(rec.view_id, rec.building_id, az, record_bin_of(az, cfg), False)
        )
    return labels


def record_write_manifest(records: Iterable[PoseRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for rec in records:
            x, y, z = rec.position
            writer.writerow(
                [rec.view_id, rec.building_id, rec.kind, repr(x), repr(y), repr(z), rec.status]
            )


def record_write_labels(labels: Iterable[OrientationLabel], path) -> None:
    """Write a label table CSV; masked rows leave azimuth and bin empty."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABEL_HEADER)
        for lab in labels:
            if lab.masked:
                writer.writerow([lab.view_id, lab.building_id, "", "", "true"])
            else:
                writer.writerow(
                    [lab.view_id, lab.building_id, repr(lab.azimuth_deg), lab.bin, "false"]
                )


def manifest_of(records: Iterable[PoseRecord]) -> Manifest:
    """The column form of a list of pose records."""
    records = list(records)
    return Manifest([rec.view_id for rec in records], [rec.building_id for rec in records],
                    np.array([rec.kind == KIND_SAT for rec in records], dtype=bool),
                    np.array([rec.position for rec in records], dtype=np.float64).reshape(-1, 3),
                    np.array([rec.status == STATUS_OK for rec in records], dtype=bool))


def records_of(manifest: Manifest) -> list[PoseRecord]:
    """The record form of a manifest, with Python floats for positions."""
    return [PoseRecord(view_id, bid, KIND_SAT if is_sat else KIND_DRONE, tuple(pos),
                       STATUS_OK if ok else STATUS_FAILED)
            for view_id, bid, is_sat, pos, ok in zip(
                manifest.view_ids, manifest.building_ids, manifest.is_sat.tolist(),
                manifest.xyz.tolist(), manifest.ok.tolist())]


def label_records(labels: Labels) -> list[OrientationLabel]:
    """The record form of a label table: None for a masked row's azimuth
    and bin, Python floats and ints elsewhere."""
    return [OrientationLabel(view_id, bid, None, None, True) if bin_ == MASKED_BIN
            else OrientationLabel(view_id, bid, az, bin_, False)
            for view_id, bid, az, bin_ in zip(labels.view_ids, labels.building_ids,
                                              labels.azimuth_deg.tolist(), labels.bin.tolist())]


# ---------------------------------------------------------------------------
# Object-form references for the view table.  These are the earlier
# generator, feature writer and loader and dataset builders, which held one ViewFeature
# object per view; they are kept verbatim apart from their names.  The
# column form in the package (generate, CrossViewDataset) must reproduce
# them exactly: same arrays, dtypes and ids.


@dataclass
class ViewFeature:
    """One synthetic view.

    angle_deg is the drone's true relative azimuth, or the satellite's
    orientation feature angle (0 at generation time).  Masked drone views
    keep their true azimuth here; consumers must honor the masked flag.
    """

    view_id: str
    building_id: str
    kind: str
    input_vector: np.ndarray  # length latent_dim + 2
    angle_deg: float
    masked: bool


def _orientation_block(angle_deg: float) -> np.ndarray:
    rad = math.radians(angle_deg)
    return np.array([math.cos(rad), math.sin(rad)])


def generate_objects(cfg: GenConfig) -> tuple[list[ViewFeature], list[PoseRecord]]:
    """Generate per-building satellite and drone views plus a pose manifest.

    Per building, an independent RNG substream keyed by (seed, 0, building
    index) draws the latent, the satellite noise, then per drone view the
    azimuth, the noise, and the failure coin, in that fixed order.  The
    manifest places the drone at the drawn bearing on a 100 m circle and the
    stored azimuth is recomputed from those positions, so label generation
    from the manifest reproduces the generator's bins exactly.
    """
    label_cfg = LabelConfig(cfg.bins)
    features: list[ViewFeature] = []
    manifest: list[PoseRecord] = []
    for b in range(cfg.n_buildings):
        rng = np.random.default_rng([cfg.seed, 0, b])
        bid = f"b{b:04d}"
        sat_pos = (b * BUILDING_SPACING_M, 0.0, 0.0)
        latent = rng.standard_normal(cfg.latent_dim)
        latent /= np.linalg.norm(latent)

        sat_vec = np.concatenate(
            [latent + cfg.noise_sigma * rng.standard_normal(cfg.latent_dim), _orientation_block(0.0)]
        )
        sat_id = f"{bid}_sat"
        features.append(ViewFeature(sat_id, bid, KIND_SAT, sat_vec, 0.0, False))
        manifest.append(PoseRecord(sat_id, bid, KIND_SAT, sat_pos, STATUS_OK))

        for v in range(cfg.views_per_building):
            drawn = rng.uniform(0.0, 360.0)
            rad = math.radians(drawn)
            drone_pos = (
                sat_pos[0] + DRONE_RADIUS_M * math.sin(rad),
                sat_pos[1] + DRONE_RADIUS_M * math.cos(rad),
                DRONE_ALTITUDE_M,
            )
            # the azimuth actually encoded everywhere is the one the manifest
            # geometry reproduces, not the drawn angle (they differ in the
            # last ulps)
            azimuth = record_relative_azimuth(sat_pos, drone_pos)
            noise = rng.standard_normal(cfg.latent_dim)
            failed = bool(rng.random() < cfg.fail_prob)
            vec = np.concatenate(
                [latent + cfg.noise_sigma * noise, _orientation_block(azimuth)]
            )
            view_id = f"{bid}_d{v:02d}"
            features.append(ViewFeature(view_id, bid, KIND_DRONE, vec, azimuth, failed))
            manifest.append(
                PoseRecord(view_id, bid, KIND_DRONE, drone_pos,
                           STATUS_FAILED if failed else STATUS_OK)
            )
    # internal consistency guard, cheap relative to generation
    labels = record_generate_labels(manifest, label_cfg)
    by_view = {lab.view_id: lab for lab in labels}
    for feat in features:
        if feat.kind == KIND_DRONE and not feat.masked:
            assert by_view[feat.view_id].bin == record_bin_of(feat.angle_deg, label_cfg)
    return features, manifest


def save_features(features: list[ViewFeature], path) -> None:
    ids = [f.view_id for f in features]
    kinds = [binio.KIND_SAT_CODE if f.kind == KIND_SAT else binio.KIND_DRONE_CODE for f in features]
    vectors = np.stack([f.input_vector for f in features])
    azimuths = [f.angle_deg for f in features]
    masked = [f.masked for f in features]
    binio.write_features(path, ids, kinds, vectors, azimuths, masked)


def load_features(path, building_of: dict[str, str]) -> list[ViewFeature]:
    """Load a feature file, resolving building ids through a manifest mapping."""
    ids, kinds, vectors, azimuths, masked = binio.read_features(path)
    features = []
    for i, view_id in enumerate(ids):
        bid = building_of.get(view_id)
        if bid is None:
            raise DataError(f"{path}: view {view_id!r} missing from manifest")
        kind = KIND_SAT if kinds[i] == binio.KIND_SAT_CODE else KIND_DRONE
        features.append(
            ViewFeature(view_id, bid, kind, vectors[i].astype(np.float64),
                        float(azimuths[i]), bool(masked[i]))
        )
    return features


class ObjectDataset:
    """Feature views grouped by building, with orientation bins resolved.

    Satellite order follows first appearance in the feature list.  Bins for
    unmasked drones come either from the views' own azimuths
    (from_features) or from pose-manifest geometry (load); the two agree by
    the generator's round-trip construction.
    """

    def __init__(self, bins: int):
        self.label_cfg = LabelConfig(bins)
        self.building_ids: list[str] = []
        self.sat_view_ids: list[str] = []
        self.sat_inputs: Optional[np.ndarray] = None
        self.drone_inputs: Optional[np.ndarray] = None
        self.drone_view_ids: list[str] = []
        self.drone_building_idx: Optional[np.ndarray] = None
        self.drone_azimuth_deg: Optional[np.ndarray] = None
        self.drone_masked: Optional[np.ndarray] = None
        self.drone_bins: Optional[np.ndarray] = None
        # drone rows sorted stably by building, and each building's row count
        self.drone_order: Optional[np.ndarray] = None
        self.drone_counts: Optional[np.ndarray] = None

    @property
    def n_buildings(self) -> int:
        return len(self.building_ids)

    @property
    def input_dim(self) -> int:
        return self.sat_inputs.shape[1]

    @classmethod
    def from_features(cls, features: list[ViewFeature], bins: int,
                      bins_by_view: Optional[dict[str, int]] = None) -> "ObjectDataset":
        ds = cls(bins)
        sat_rows = []
        building_index: dict[str, int] = {}
        drone_feats: list[ViewFeature] = []
        for feat in features:
            if feat.kind == KIND_SAT:
                if feat.building_id in building_index:
                    raise DataError(f"building {feat.building_id!r} has two satellite views")
                building_index[feat.building_id] = len(sat_rows)
                ds.building_ids.append(feat.building_id)
                ds.sat_view_ids.append(feat.view_id)
                sat_rows.append(feat.input_vector)
            else:
                drone_feats.append(feat)
        if not sat_rows:
            raise DataError("no satellite views in feature set")
        ds.sat_inputs = np.stack(sat_rows)

        n_drones = len(drone_feats)
        if n_drones == 0:
            raise DataError("no drone views in feature set")
        ds.drone_inputs = np.stack([f.input_vector for f in drone_feats])
        ds.drone_view_ids = [f.view_id for f in drone_feats]
        ds.drone_azimuth_deg = np.array([f.angle_deg for f in drone_feats])
        ds.drone_masked = np.array([f.masked for f in drone_feats])
        ds.drone_building_idx = np.empty(n_drones, dtype=np.int64)
        ds.drone_bins = np.full(n_drones, MASKED_BIN, dtype=np.int64)
        for i, feat in enumerate(drone_feats):
            if feat.building_id not in building_index:
                raise DataError(f"drone {feat.view_id!r}: no satellite for building "
                                f"{feat.building_id!r}")
            ds.drone_building_idx[i] = building_index[feat.building_id]
            if not feat.masked:
                if bins_by_view is not None:
                    ds.drone_bins[i] = bins_by_view[feat.view_id]
                else:
                    ds.drone_bins[i] = record_bin_of(feat.angle_deg, ds.label_cfg)
        ds.drone_order = np.argsort(ds.drone_building_idx, kind="stable")
        ds.drone_counts = np.bincount(ds.drone_building_idx, minlength=ds.n_buildings)
        empty = np.flatnonzero(ds.drone_counts == 0)
        if empty.size:
            raise DataError(f"building {ds.building_ids[empty[0]]!r} has no drone views")
        return ds

    @classmethod
    def load(cls, features_path, manifest_records: list[PoseRecord], bins: int) -> "ObjectDataset":
        """Build from a feature file plus its pose manifest.

        Bins come from manifest geometry via record_generate_labels, so the same
        feature file can be re-binned under any bin count.
        """
        building_of = {rec.view_id: rec.building_id for rec in manifest_records}
        features = load_features(features_path, building_of)
        labels = record_generate_labels(manifest_records, LabelConfig(bins))
        label_by_view = {lab.view_id: lab for lab in labels}
        for feat in features:
            if feat.kind == KIND_DRONE:
                lab = label_by_view.get(feat.view_id)
                if lab is None:
                    raise DataError(f"drone {feat.view_id!r} missing from manifest")
                feat.masked = lab.masked
                if not lab.masked:
                    # manifest geometry is the binning authority after a
                    # round-trip; the file's float32 azimuth is only the
                    # oracle record
                    feat.angle_deg = lab.azimuth_deg
        bins_by_view = {
            lab.view_id: lab.bin for lab in labels if not lab.masked
        }
        return cls.from_features(features, bins, bins_by_view)


# --- the dense-table metric path and the csv.writer score-table save, as they
# were before evaluate streamed query blocks and save joined score rows.

def dense_table_metrics(table, relevance: dict[str, set[str]],
                        ks: list[int]) -> list[tuple[str, str, float]]:
    """metrics_from_rankings' rows from the rank of each relevant item: 1 +
    the items scoring higher + the equal-scoring ones in earlier columns, which
    is top_k's tie rule when gallery columns are in ascending id order."""
    if min(ks, default=1) < 1:
        raise ValueError("k must be >= 1")
    col = dict(zip(table.gallery_ids, range(len(table.gallery_ids))))
    pairs = []
    for i, qid in enumerate(table.query_ids):
        if qid not in relevance:
            raise UnknownQuery(f"query {qid!r} missing from relevance map")
        cols = [col.get(g, -1) for g in relevance[qid]]
        if not cols or -1 in cols:
            raise DataError(f"query {qid!r}: relevant set empty or not in gallery")
        pairs += [(i, c) for c in cols]
    qrow, rcol = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    rank = np.empty(len(qrow), dtype=np.int64)
    step = max(1, (1 << 22) // max(1, len(col)))  # score rows compared at once
    for s in range(0, len(qrow), step):
        block, c = table.scores[qrow[s:s + step]], rcol[s:s + step, None]
        v, pos = np.take_along_axis(block, c, axis=1), np.arange(block.shape[1])
        rank[s:s + step] = 1 + ((block > v) | (block == v) & (pos < c)).sum(axis=1)
    rank = rank[np.lexsort((rank, qrow))]
    hit = np.arange(len(qrow)) - np.searchsorted(qrow, qrow)
    prec = np.zeros((len(table.query_ids), hit.max(initial=0) + 1))
    prec[qrow, hit] = (hit + 1) / rank  # summed in rank order, as average_precision does
    ap = np.cumsum(prec, axis=1)[:, -1] / np.bincount(qrow, minlength=len(prec))
    rows = [("recall", str(k), float(np.mean(rank[hit == 0] <= k))) for k in ks]
    return rows + [("ap", "", float(np.mean(ap)))]


def dense_evaluate(queries, gallery, relevance: dict[str, set[str]],
                   ks: list[int]) -> list[tuple[str, str, float]]:
    """Score every query against the gallery, then R@k and mean AP."""
    return dense_table_metrics(score_table(gallery, queries), relevance, ks)


def csv_writer_save(table, path) -> None:
    """ScoreTable.save with every cell through csv.writer."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id"] + table.gallery_ids)
        for i, qid in enumerate(table.query_ids):
            writer.writerow([qid] + [repr(float(v)) for v in table.scores[i]])


# --- parameters, gradients and AdamW as six separate arrays, as they were
# before ModelParams became one flat vector.  The bodies of
# field_forward_backward, field_backprop_branch and field_adamw_step are the
# earlier package code.

FIELDS = ("W1", "b1", "W2", "b2", "head_W", "head_b")
DECAYED_FIELDS = ("W1", "W2", "head_W")


@dataclass
class FieldParams:
    """Parameters, or their gradient, in six arrays and a float."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    head_W: np.ndarray
    head_b: np.ndarray
    temperature: float

    @property
    def embed_dim(self) -> int:
        return self.W2.shape[0]

    @classmethod
    def copy_of(cls, params) -> "FieldParams":
        return cls(*(getattr(params, name).copy() for name in FIELDS), params.temperature)

    def concatenated(self) -> np.ndarray:
        return np.concatenate([getattr(self, name).ravel() for name in FIELDS])


@dataclass
class FieldOptimizerState:
    m: dict
    v: dict
    m_tau: float = 0.0
    v_tau: float = 0.0
    step: int = 0

    @classmethod
    def fresh(cls, params) -> "FieldOptimizerState":
        zeros = {name: np.zeros_like(getattr(params, name)) for name in FIELDS}
        return cls(m=zeros, v={k: a.copy() for k, a in zeros.items()})


def field_backprop_branch(params, cache, d_emb: np.ndarray):
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


def field_forward_backward(params, batch: TrainBatch, cfg: LossConfig,
                           work: dict | None = None):
    """forward_backward with each gradient field assembled on its own."""
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

    w1_s, b1_s, w2_s, b2_s = field_backprop_branch(params, cache_sat, d_sat)
    w1_d, b1_d, w2_d, b2_d = field_backprop_branch(params, cache_drone, d_drone)
    grads = FieldParams(
        W1=w1_s + w1_d,
        b1=b1_s + b1_d,
        W2=w2_s + w2_d,
        b2=b2_s + b2_d,
        head_W=d_head_w,
        head_b=d_head_b,
        temperature=d_tau,
    )
    return total, grads, (l_con, l_orient)


def field_adamw_step(params: FieldParams, grads: FieldParams, state: FieldOptimizerState,
                     lr: float, cfg) -> tuple[FieldParams, FieldOptimizerState]:
    """adamw_step one field at a time, each moment a new array per step."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    for name in FIELDS:
        g = getattr(grads, name)
        state.m[name] = cfg.beta1 * state.m[name] + (1.0 - cfg.beta1) * g
        state.v[name] = cfg.beta2 * state.v[name] + (1.0 - cfg.beta2) * (g * g)
        update = (state.m[name] / bc1) / (np.sqrt(state.v[name] / bc2) + cfg.adam_eps)
        theta = getattr(params, name)
        if name in DECAYED_FIELDS:
            update = update + cfg.weight_decay * theta
        theta -= lr * update
    if cfg.train_temperature:
        g = grads.temperature
        state.m_tau = cfg.beta1 * state.m_tau + (1.0 - cfg.beta1) * g
        state.v_tau = cfg.beta2 * state.v_tau + (1.0 - cfg.beta2) * g * g
        params.temperature -= lr * (state.m_tau / bc1) / (
            math.sqrt(state.v_tau / bc2) + cfg.adam_eps
        )
    return params, state


# --- FEA1/EMB1 read and written one record at a time, and each relevant
# pair's rank counted over its own gathered row, as they were before binio
# read and wrote whole tables and _count_ranks sorted multi-relevant rows.
# The bodies are the earlier package code.

_BLOCK_VALUES = 1 << 20


def _read_id(fh, path) -> str:
    (length,) = struct.unpack("<H", _read_exact(fh, 2, path, "id length"))
    try:
        return _read_exact(fh, length, path, "id bytes").decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: id is not valid UTF-8") from None


def _write_id(fh, ident: str) -> None:
    raw = ident.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise FormatError(f"id too long to encode ({len(raw)} bytes)")
    fh.write(struct.pack("<H", len(raw)))
    fh.write(raw)


def record_write_features(path, ids, kinds, vectors, azimuths, masked) -> None:
    """Write a FEA1 file from the columns of a Views table."""
    vec = np.ascontiguousarray(vectors, dtype="<f4")
    n, dim = vec.shape
    if not (len(ids) == len(kinds) == len(azimuths) == len(masked) == n):
        raise ValueError("feature field lengths disagree")
    with open(path, "wb") as fh:
        fh.write(FEA_MAGIC)
        fh.write(struct.pack("<II", n, dim))
        for i in range(n):
            _write_id(fh, ids[i])
            fh.write(struct.pack("<B", int(kinds[i])))
            fh.write(vec[i].tobytes())
            fh.write(struct.pack("<f", float(azimuths[i])))
            fh.write(struct.pack("<B", 1 if masked[i] else 0))


def record_read_features(path):
    """Read a FEA1 file -> Views(ids, kinds u8, vectors f32, azimuths f32, masked bool)."""
    with open(path, "rb") as fh:
        _check_magic(fh, FEA_MAGIC, path)
        n, dim = struct.unpack("<II", _read_exact(fh, 8, path, "header"))
        # a record is at least an id length, a kind, the vector, an azimuth and a flag
        _check_room(fh, n * (8 + 4 * dim), path, f"{n} records of dim {dim}")
        ids = []
        kinds = np.empty(n, dtype=np.uint8)
        vectors = np.empty((n, dim), dtype=np.float32)
        azimuths = np.empty(n, dtype=np.float32)
        masked = np.empty(n, dtype=bool)
        row_bytes = 4 * dim
        for i in range(n):
            ids.append(_read_id(fh, path))
            (kind,) = struct.unpack("<B", _read_exact(fh, 1, path, "kind"))
            if kind not in (KIND_SAT_CODE, KIND_DRONE_CODE):
                raise FormatError(f"{path}: record {i}: bad kind code {kind}")
            kinds[i] = kind
            vectors[i] = np.frombuffer(
                _read_exact(fh, row_bytes, path, f"record {i} vector"), dtype="<f4"
            )
            (azimuths[i],) = struct.unpack("<f", _read_exact(fh, 4, path, "azimuth"))
            (mk,) = struct.unpack("<B", _read_exact(fh, 1, path, "masked flag"))
            masked[i] = bool(mk)
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after {n} records")
    for what, finite in (("vector", np.isfinite(vectors).all(axis=1)),
                         ("azimuth", np.isfinite(azimuths))):
        if not finite.all():
            raise FormatError(f"{path}: record {int(np.argmin(finite))}: {what} is not finite")
    return Views(ids, kinds, vectors, azimuths, masked)


def record_write_embeddings(path, ids, matrix) -> None:
    mat = np.ascontiguousarray(matrix, dtype="<f4")
    n, dim = mat.shape
    if len(ids) != n:
        raise ValueError("id count does not match row count")
    with open(path, "wb") as fh:
        fh.write(EMB_MAGIC)
        fh.write(struct.pack("<II", n, dim))
        fh.write(mat.tobytes())
        for ident in ids:
            _write_id(fh, ident)


def record_read_embeddings(path):
    """Read an EMB1 file -> (ids, float32 matrix)."""
    with open(path, "rb") as fh:
        _check_magic(fh, EMB_MAGIC, path)
        n, dim = struct.unpack("<II", _read_exact(fh, 8, path, "header"))
        _check_room(fh, n * (4 * dim + 2), path, f"{n} rows of dim {dim} and their ids")
        raw = _read_exact(fh, 4 * n * dim, path, "matrix")
        matrix = np.frombuffer(raw, dtype="<f4").reshape(n, dim).copy()
        ids = [_read_id(fh, path) for _ in range(n)]
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after id block")
    return ids, matrix


def read_outcome(reader, path):
    """The reader's result, or its FormatError's message."""
    try:
        return reader(path)
    except FormatError as exc:
        return f"FormatError: {exc}"


def same_read(a, b) -> bool:
    """Two read_outcome values are the same message, or the same fields:
    equal lists, and arrays of one dtype, shape and bytes."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return all(type(x) is type(y) and (x == y if isinstance(x, list) else
                                       (x.dtype, x.shape, x.tobytes())
                                       == (y.dtype, y.shape, y.tobytes()))
               for x, y in zip(a, b))


def compare_count_ranks(scores: np.ndarray, qrow: np.ndarray, rcol: np.ndarray,
                        out: np.ndarray) -> None:
    """out[i] = the rank of column rcol[i] in score row qrow[i]: 1 + the
    scores above it + the equal ones in earlier columns.  The rows are
    gathered _BLOCK_VALUES scores at a time."""
    step = max(1, _BLOCK_VALUES // max(1, scores.shape[1]))
    pos = np.arange(scores.shape[1])
    for s in range(0, len(qrow), step):
        block, c = scores[qrow[s:s + step]], rcol[s:s + step, None]
        v = np.take_along_axis(block, c, axis=1)
        out[s:s + step] = 1 + ((block > v) | (block == v) & (pos < c)).sum(axis=1)


# --- the sweeps as they were before their jobs ran in worker processes: each
# setting and seed trained and scored in turn in this process.  The bodies are
# the earlier package code.

def loop_ablate_bins(features_path, manifest: Manifest, base,
                     bins_list: list, seeds: list[int]) -> list[dict]:
    views = binio.read_features(features_path)
    rows = []
    for setting in bins_list:
        if setting == BINS_NONE:
            dataset = CrossViewDataset(views, manifest, base.loss.bins)
            loss = replace(base.loss, orientation_mode=MODE_NONE)
        else:
            bins = int(setting)
            dataset = CrossViewDataset(views, manifest, bins)
            loss = replace(base.loss, orientation_mode=MODE_CLASSIFICATION, bins=bins)
        for seed in seeds:
            cfg = replace(base, seed=seed, loss=loss)
            scores = train_and_score(cfg, dataset)
            rows.append({"bins": str(setting), "seed": seed,
                         "recall_at_1": scores["recall@1"], "ap": scores["ap"]})
    return rows


def loop_ablate_dim(features_path, manifest: Manifest, base,
                    dims: list[int], seeds: list[int]) -> list[dict]:
    dataset = CrossViewDataset.load(features_path, manifest, base.loss.bins)
    rows = []
    for dim in dims:
        for seed in seeds:
            cfg = replace(base, seed=seed, embed_dim=int(dim))
            scores = train_and_score(cfg, dataset)
            rows.append({"embed_dim": int(dim), "seed": seed,
                         "recall_at_1": scores["recall@1"], "ap": scores["ap"]})
    return rows


# --- the CSV writers as they were before they shared errors.write_csv: each
# opened its file and drove its own csv.writer (csv.DictWriter for sweeps).
# The bodies are the earlier package code.

def own_writer_relevance(rel: dict[str, set[str]], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "gallery_id"])
        for qid in sorted(rel):
            for gid in sorted(rel[qid]):
                writer.writerow([qid, gid])


def own_writer_metrics(rows: list[tuple[str, str, float]], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "k", "value"])
        for metric, k, value in rows:
            writer.writerow([metric, k, repr(float(value))])


def own_writer_train_log(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAIN_LOG_HEADER)
        for r in rows:
            writer.writerow(
                [r.step, repr(r.lr), repr(r.loss_total), repr(r.loss_contrastive),
                 repr(r.loss_orientation)]
            )


def own_writer_sweep_csv(rows: list[dict], fieldnames: list[str], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
