"""Synthetic cross-view features, the one-drone-view-per-building batch
sampler, and the aligned-rotation augmentation.

Batch sampling and aligned rotation are array operations that draw from
their generators exactly what one scalar call per row would.

Each building owns a fixed unit-norm latent vector.  A view's input is that
latent plus Gaussian noise, concatenated with (cos, sin) of an orientation
angle: the drone's true relative azimuth, or the satellite's orientation
feature angle (0 until augmented).  Noise perturbs only the latent block, so
identity is noisy while orientation stays clean.

Sign convention for rotations: rotating a satellite view clockwise by one
bin width decreases its feature angle's physical rotation, so the drone's
bearing relative to the rotated view increases by one bin width.  We track
the feature-block angle alpha directly; the physical rotation is (-alpha)
mod 360, and the relative orientation that defines the label is
(azimuth + alpha) mod 360.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import binio
from .errors import BatchTooLarge, ConfigError, DataError
from .pose_geometry import (
    KIND_DRONE,
    KIND_SAT,
    STATUS_FAILED,
    STATUS_OK,
    LabelConfig,
    PoseRecord,
    bin_of,
    generate_labels,
    relative_azimuth,
    rotate_label,
)

# Drone poses sit on a fixed circle around the building so that manifest
# round-trips are exact: the bearing recomputed from positions is stored back
# as the view's true azimuth.
DRONE_RADIUS_M = 100.0
DRONE_ALTITUDE_M = 50.0
BUILDING_SPACING_M = 1000.0

MASKED_BIN = -1


@dataclass(frozen=True)
class GenConfig:
    n_buildings: int
    views_per_building: int
    latent_dim: int
    noise_sigma: float
    fail_prob: float
    seed: int
    bins: int

    def __post_init__(self):
        if self.n_buildings < 2:
            raise ConfigError(f"n_buildings must be >= 2, got {self.n_buildings}")
        if self.views_per_building < 1:
            raise ConfigError("views_per_building must be >= 1")
        if self.latent_dim < 1:
            raise ConfigError("latent_dim must be >= 1")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")
        if not 0.0 <= self.fail_prob <= 1.0:
            raise ConfigError("fail_prob must be in [0, 1]")
        if self.bins < 2:
            raise ConfigError("bins must be >= 2")


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


@dataclass
class TrainBatch:
    """One training batch: row i of both input matrices is the building of
    dataset drone row drone_rows[i].

    orientation_bins uses MASKED_BIN for masked rows; relative_angle_deg is
    NaN there.  sat_angle_deg is the satellite feature-block angle alpha;
    relative_angle_deg = (drone azimuth + alpha) mod 360 is the ground truth
    the bin label discretizes.
    """

    sat_inputs: np.ndarray
    drone_inputs: np.ndarray
    drone_rows: np.ndarray
    orientation_bins: np.ndarray
    mask: np.ndarray
    sat_angle_deg: np.ndarray
    relative_angle_deg: np.ndarray

    @property
    def size(self) -> int:
        return len(self.drone_rows)


def _orientation_block(angle_deg: float) -> np.ndarray:
    rad = math.radians(angle_deg)
    return np.array([math.cos(rad), math.sin(rad)])


def generate(cfg: GenConfig) -> tuple[list[ViewFeature], list[PoseRecord]]:
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
            azimuth = relative_azimuth(sat_pos, drone_pos)
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
    labels = generate_labels(manifest, label_cfg)
    by_view = {lab.view_id: lab for lab in labels}
    for feat in features:
        if feat.kind == KIND_DRONE and not feat.masked:
            assert by_view[feat.view_id].bin == bin_of(feat.angle_deg, label_cfg)
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


class CrossViewDataset:
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
                      bins_by_view: Optional[dict[str, int]] = None) -> "CrossViewDataset":
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
                    ds.drone_bins[i] = bin_of(feat.angle_deg, ds.label_cfg)
        ds.drone_order = np.argsort(ds.drone_building_idx, kind="stable")
        ds.drone_counts = np.bincount(ds.drone_building_idx, minlength=ds.n_buildings)
        empty = np.flatnonzero(ds.drone_counts == 0)
        if empty.size:
            raise DataError(f"building {ds.building_ids[empty[0]]!r} has no drone views")
        return ds

    @classmethod
    def load(cls, features_path, manifest_records: list[PoseRecord], bins: int) -> "CrossViewDataset":
        """Build from a feature file plus its pose manifest.

        Bins come from manifest geometry via generate_labels, so the same
        feature file can be re-binned under any bin count.
        """
        building_of = {rec.view_id: rec.building_id for rec in manifest_records}
        features = load_features(features_path, building_of)
        labels = generate_labels(manifest_records, LabelConfig(bins))
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

    def with_mask_cleared(self) -> "CrossViewDataset":
        """Copy with every drone unmasked, bins filled from stored azimuths.

        Turns the retained-but-hidden azimuths of masked views into live
        labels, for measuring what masking discards.
        """
        ds = CrossViewDataset(self.label_cfg.bins)
        ds.building_ids = list(self.building_ids)
        ds.sat_view_ids = list(self.sat_view_ids)
        ds.sat_inputs = self.sat_inputs.copy()
        ds.drone_inputs = self.drone_inputs.copy()
        ds.drone_view_ids = list(self.drone_view_ids)
        ds.drone_building_idx = self.drone_building_idx.copy()
        ds.drone_azimuth_deg = self.drone_azimuth_deg.copy()
        ds.drone_masked = np.zeros_like(self.drone_masked)
        ds.drone_bins = np.array(
            [bin_of(az, self.label_cfg) for az in self.drone_azimuth_deg], dtype=np.int64
        )
        ds.drone_order = self.drone_order.copy()
        ds.drone_counts = self.drone_counts.copy()
        return ds


def relevance_maps(features: list[ViewFeature]) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    """(drone-to-sat, sat-to-drone) relevance: a view is relevant to every
    view of its own building on the other side."""
    sat_of: dict[str, str] = {}
    drones_of: dict[str, set[str]] = {}
    for feat in features:
        if feat.kind == KIND_SAT:
            sat_of[feat.building_id] = feat.view_id
        else:
            drones_of.setdefault(feat.building_id, set()).add(feat.view_id)
    d2s = {}
    s2d = {}
    for bid, sat_id in sat_of.items():
        drones = drones_of.get(bid, set())
        if drones:
            s2d[sat_id] = set(drones)
            for did in drones:
                d2s[did] = {sat_id}
    return d2s, s2d


class BatchSampler:
    """Epoch-partitioned sampler: one drone view per building, no building
    twice within an epoch cycle.

    Each epoch shuffles the buildings and chunks them into ceil(B/N)
    batches; a trailing chunk of a single building is folded into the
    previous batch so every batch can serve as a contrastive batch.
    """

    def __init__(self, dataset: CrossViewDataset, batch_size: int, rng: np.random.Generator):
        if batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {batch_size}")
        if batch_size > dataset.n_buildings:
            raise BatchTooLarge(
                f"batch_size {batch_size} exceeds {dataset.n_buildings} buildings"
            )
        self.dataset = dataset
        self.batch_size = batch_size
        self.rng = rng
        self._queue: list[np.ndarray] = []
        self._starts = np.cumsum(dataset.drone_counts) - dataset.drone_counts  # in drone_order

    @property
    def batches_per_epoch(self) -> int:
        n, size = self.dataset.n_buildings, self.batch_size
        chunks = -(-n // size)
        if chunks > 1 and n % size == 1:
            chunks -= 1  # singleton tail folded into previous batch
        return chunks

    def _refill(self) -> None:
        perm = self.rng.permutation(self.dataset.n_buildings)
        chunks = [perm[i:i + self.batch_size] for i in range(0, len(perm), self.batch_size)]
        if len(chunks) > 1 and len(chunks[-1]) < 2:
            tail = chunks.pop()
            chunks[-1] = np.concatenate([chunks[-1], tail])
        self._queue = chunks[::-1]

    def sample_batch(self) -> TrainBatch:
        if not self._queue:
            self._refill()
        buildings = self._queue.pop()
        ds = self.dataset
        pick = self.rng.integers(ds.drone_counts[buildings])
        rows = ds.drone_order[self._starts[buildings] + pick]
        mask = ds.drone_masked[rows]
        return TrainBatch(
            sat_inputs=ds.sat_inputs[buildings],
            drone_inputs=ds.drone_inputs[rows],
            drone_rows=rows,
            orientation_bins=ds.drone_bins[rows],
            mask=mask,
            sat_angle_deg=np.zeros(len(buildings)),
            relative_angle_deg=np.where(mask, np.nan, ds.drone_azimuth_deg[rows]),
        )


def apply_aligned_rotation(batch: TrainBatch, rng: np.random.Generator,
                           p: float, cfg: LabelConfig) -> TrainBatch:
    """Rotate satellite orientation features by whole bin widths, adjusting
    labels to match.

    Independently per row with probability p, draw k in {1, ..., bins-1},
    advance the satellite feature angle by k bin widths, and advance the bin
    label (and relative angle) identically; masked rows rotate features but
    keep the sentinel label.  Returns a new batch, sharing the arrays it
    does not change with the input; the input is untouched.
    """
    sat_inputs = batch.sat_inputs.copy()
    bins = batch.orientation_bins.copy()
    sat_angle = batch.sat_angle_deg.copy()
    relative = batch.relative_angle_deg.copy()
    if p > 0 and batch.size:
        hit = np.flatnonzero(rng.random(batch.size) < p)
        k = rng.integers(1, cfg.bins, size=hit.size)
        step = k * cfg.bin_width_deg
        sat_angle[hit] = (sat_angle[hit] + step) % 360.0
        rad = np.radians(sat_angle[hit])
        sat_inputs[hit, -2] = np.cos(rad)
        sat_inputs[hit, -1] = np.sin(rad)
        live = ~batch.mask[hit]
        rows = hit[live]
        bins[rows] = rotate_label(bins[rows], k[live], cfg)
        relative[rows] = (relative[rows] + step[live]) % 360.0
    return replace(batch, sat_inputs=sat_inputs, orientation_bins=bins,
                   sat_angle_deg=sat_angle, relative_angle_deg=relative)
