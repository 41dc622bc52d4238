"""Synthetic cross-view features, the one-drone-view-per-building batch
sampler, and the aligned-rotation augmentation.

Views travel as one column table (binio.Views, the FEA1 record fields) from
the generator through the feature file to CrossViewDataset.  The pose
manifest is the only labelling authority: a dataset takes each view's
building, and each drone's mask, azimuth and orientation bin, from
generate_labels, never from the views' own azimuth or masked columns.

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

import numpy as np

from . import binio
from .binio import Views
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


def _orientation_block(angle_deg: float) -> tuple[float, float]:
    rad = math.radians(angle_deg)
    return math.cos(rad), math.sin(rad)


def generate(cfg: GenConfig) -> tuple[Views, list[PoseRecord]]:
    """Generate per-building satellite and drone views plus a pose manifest.

    Per building, an independent RNG substream keyed by (seed, 0, building
    index) draws the latent, the satellite noise, then per drone view the
    azimuth, the noise, and the failure coin, in that fixed order.  The
    manifest places the drone at the drawn bearing on a 100 m circle and the
    stored azimuth is recomputed from those positions, so label generation
    from the manifest reproduces the generator's bins exactly.  The views
    hold float64 vectors and azimuths; a satellite's azimuth is 0.
    """
    per_building = 1 + cfg.views_per_building
    n = cfg.n_buildings * per_building
    ids: list[str] = []
    kinds = np.full(n, binio.KIND_DRONE_CODE, dtype=np.uint8)
    kinds[::per_building] = binio.KIND_SAT_CODE
    vectors = np.empty((n, cfg.latent_dim + 2))
    azimuths = np.zeros(n)
    masked = np.zeros(n, dtype=bool)
    manifest: list[PoseRecord] = []
    for b in range(cfg.n_buildings):
        rng = np.random.default_rng([cfg.seed, 0, b])
        bid = f"b{b:04d}"
        sat_pos = (b * BUILDING_SPACING_M, 0.0, 0.0)
        latent = rng.standard_normal(cfg.latent_dim)
        latent /= np.linalg.norm(latent)

        row = b * per_building
        vectors[row, :-2] = latent + cfg.noise_sigma * rng.standard_normal(cfg.latent_dim)
        vectors[row, -2:] = _orientation_block(0.0)
        sat_id = f"{bid}_sat"
        ids.append(sat_id)
        manifest.append(PoseRecord(sat_id, bid, KIND_SAT, sat_pos, STATUS_OK))

        for v in range(cfg.views_per_building):
            row += 1
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
            vectors[row, :-2] = latent + cfg.noise_sigma * noise
            vectors[row, -2:] = _orientation_block(azimuth)
            azimuths[row] = azimuth
            masked[row] = failed
            view_id = f"{bid}_d{v:02d}"
            ids.append(view_id)
            manifest.append(
                PoseRecord(view_id, bid, KIND_DRONE, drone_pos,
                           STATUS_FAILED if failed else STATUS_OK)
            )
    # internal consistency guard, cheap relative to generation
    label_cfg = LabelConfig(cfg.bins)
    drones = np.flatnonzero(kinds == binio.KIND_DRONE_CODE)
    for row, lab in zip(drones, generate_labels(manifest, label_cfg)):
        assert lab.view_id == ids[row] and lab.masked == masked[row]
        if not lab.masked:
            assert lab.bin == bin_of(azimuths[row], label_cfg)
    return Views(ids, kinds, vectors, azimuths, masked), manifest


class CrossViewDataset:
    """Views grouped by building, with orientation labels from a pose manifest.

    The manifest is the only labelling authority: each view's building, and
    each drone's mask, azimuth and bin under the given bin count, come from
    generate_labels.  A masked drone keeps the azimuth stored in the views,
    which no label uses.  Satellite order follows first appearance in the
    views; inputs are float64 whatever the views' dtype.
    """

    def __init__(self, views: Views, manifest: list[PoseRecord], bins: int):
        dim = views.vectors.shape[1]
        if dim < 3:
            raise DataError(f"feature vectors have {dim} columns; need a latent block "
                            f"and 2 orientation columns")
        building_of = {rec.view_id: rec.building_id for rec in manifest}
        for view_id in views.ids:
            if view_id not in building_of:
                raise DataError(f"view {view_id!r} missing from manifest")
        label_of = {lab.view_id: lab for lab in generate_labels(manifest, LabelConfig(bins))}
        is_sat = views.kinds == binio.KIND_SAT_CODE
        sat_rows = np.flatnonzero(is_sat)
        drone_rows = np.flatnonzero(~is_sat)

        building_index: dict[str, int] = {}
        for row in sat_rows:
            bid = building_of[views.ids[row]]
            if bid in building_index:
                raise DataError(f"building {bid!r} has two satellite views")
            building_index[bid] = len(building_index)
        if not building_index:
            raise DataError("no satellite views in feature set")
        self.building_ids = list(building_index)
        self.sat_view_ids = [views.ids[row] for row in sat_rows]
        self.sat_inputs = views.vectors[sat_rows].astype(np.float64, copy=False)

        if drone_rows.size == 0:
            raise DataError("no drone views in feature set")
        self.drone_view_ids = [views.ids[row] for row in drone_rows]
        labels = []
        for view_id in self.drone_view_ids:
            lab = label_of.get(view_id)
            if lab is None:
                raise DataError(f"drone {view_id!r} missing from manifest")
            if lab.building_id not in building_index:
                raise DataError(f"drone {view_id!r}: no satellite for building "
                                f"{lab.building_id!r}")
            labels.append(lab)
        self.drone_inputs = views.vectors[drone_rows].astype(np.float64, copy=False)
        self.drone_building_idx = np.array(
            [building_index[lab.building_id] for lab in labels], dtype=np.int64)
        self.drone_masked = np.array([lab.masked for lab in labels])
        self.drone_azimuth_deg = np.array(
            [float(views.azimuths[row]) if lab.masked else lab.azimuth_deg
             for row, lab in zip(drone_rows, labels)])
        self.drone_bins = np.array(
            [MASKED_BIN if lab.masked else lab.bin for lab in labels], dtype=np.int64)
        # drone rows sorted stably by building, and each building's row count
        self.drone_order = np.argsort(self.drone_building_idx, kind="stable")
        self.drone_counts = np.bincount(self.drone_building_idx, minlength=self.n_buildings)
        empty = np.flatnonzero(self.drone_counts == 0)
        if empty.size:
            raise DataError(f"building {self.building_ids[empty[0]]!r} has no drone views")

    @property
    def n_buildings(self) -> int:
        return len(self.building_ids)

    @property
    def input_dim(self) -> int:
        return self.sat_inputs.shape[1]

    @classmethod
    def load(cls, features_path, manifest_records: list[PoseRecord], bins: int) -> "CrossViewDataset":
        """Build from a feature file plus its pose manifest.

        Bins come from manifest geometry, so the same feature file can be
        re-binned under any bin count.
        """
        return cls(binio.read_features(features_path), manifest_records, bins)


def relevance_maps(manifest: list[PoseRecord]) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    """(drone-to-sat, sat-to-drone) relevance: a view is relevant to every
    view of its own building on the other side."""
    sat_of: dict[str, str] = {}
    drones_of: dict[str, set[str]] = {}
    for rec in manifest:
        if rec.kind == KIND_SAT:
            sat_of[rec.building_id] = rec.view_id
        else:
            drones_of.setdefault(rec.building_id, set()).add(rec.view_id)
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
