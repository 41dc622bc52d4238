"""Synthetic cross-view features, the one-drone-view-per-building batch
sampler, and the aligned-rotation augmentation.

Views travel as one column table (binio.Views, the FEA1 record fields) from
the generator through the feature file to CrossViewDataset, and the pose
manifest as another (pose_geometry.Manifest).  The manifest is the only
labelling authority: a dataset takes each view's building from its columns,
and each drone's mask, azimuth and orientation bin from the Labels table
that generate_labels makes of it, never from the views' own azimuth or
masked columns.

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

from dataclasses import dataclass

import numpy as np

from . import binio
from .binio import Views
from .errors import BatchTooLarge, ConfigError, DataError, check_nbytes
from .pose_geometry import (
    MASKED_BIN,
    LabelConfig,
    Manifest,
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
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
        LabelConfig(self.bins)


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


def generate(cfg: GenConfig) -> tuple[Views, Manifest]:
    """Generate per-building satellite and drone views plus a pose manifest.

    Per building, an independent RNG substream keyed by (seed, 0, building
    index) draws the latent, the satellite noise, then per drone view the
    azimuth, the noise, and the failure coin, in that fixed order.  The
    manifest places the drone at the drawn bearing on a 100 m circle and the
    stored azimuth is recomputed from those positions, so label generation
    from the manifest reproduces the generator's bins exactly.  The views
    hold float64 vectors and azimuths; a satellite's azimuth is 0.  Only the
    draws run per building; the rest is column arithmetic.
    """
    per_building = 1 + cfg.views_per_building
    n = cfg.n_buildings * per_building
    check_nbytes(8 * n * (cfg.latent_dim + 2), f"{n} views of {cfg.latent_dim + 2} values")
    kinds = np.full(n, binio.KIND_DRONE_CODE, dtype=np.uint8)
    kinds[::per_building] = binio.KIND_SAT_CODE
    drone = kinds == binio.KIND_DRONE_CODE
    vectors = np.empty((n, cfg.latent_dim + 2))
    latents = np.empty((cfg.n_buildings, 1, cfg.latent_dim))
    drawn, coins = np.zeros(n), np.zeros(n)  # per row: drawn bearing, failure coin
    for b in range(cfg.n_buildings):
        rng = np.random.default_rng([cfg.seed, 0, b])
        latent = rng.standard_normal(cfg.latent_dim)
        latents[b, 0] = latent / np.linalg.norm(latent)
        row = b * per_building
        vectors[row, :-2] = rng.standard_normal(cfg.latent_dim)
        for row in range(row + 1, row + per_building):
            drawn[row] = rng.uniform(0.0, 360.0)
            vectors[row, :-2] = rng.standard_normal(cfg.latent_dim)
            coins[row] = rng.random()
    by_building = vectors.reshape(cfg.n_buildings, per_building, -1)[..., :-2]
    by_building *= cfg.noise_sigma
    by_building += latents

    xyz = np.zeros((n, 3))
    xyz[:, 0] = np.repeat(np.arange(cfg.n_buildings) * BUILDING_SPACING_M, per_building)
    sat_xyz = xyz[drone]  # each drone's satellite position
    rad = np.radians(drawn[drone])
    xyz[drone, 0] += DRONE_RADIUS_M * np.sin(rad)
    xyz[drone, 1] += DRONE_RADIUS_M * np.cos(rad)
    xyz[drone, 2] = DRONE_ALTITUDE_M
    # the azimuth actually encoded everywhere is the one the manifest geometry
    # reproduces, not the drawn angle (they differ in the last ulps)
    azimuths = np.zeros(n)
    azimuths[drone] = relative_azimuth(sat_xyz, xyz[drone])
    rad = np.radians(azimuths)
    vectors[:, -2] = np.cos(rad)
    vectors[:, -1] = np.sin(rad)
    masked = drone & (coins < cfg.fail_prob)

    bids = [f"b{b:04d}" for b in range(cfg.n_buildings)]
    views = ["sat"] + [f"d{v:02d}" for v in range(cfg.views_per_building)]
    ids = [f"{bid}_{view}" for bid in bids for view in views]
    manifest = Manifest(ids, [bid for bid in bids for _ in views], ~drone, xyz, ~masked)
    # internal consistency guard, cheap relative to generation
    label_cfg = LabelConfig(cfg.bins)
    assert np.array_equal(generate_labels(manifest, label_cfg).bin,
                          np.where(masked, MASKED_BIN, bin_of(azimuths, label_cfg))[drone])
    return Views(ids, kinds, vectors, azimuths, masked), manifest


class CrossViewDataset:
    """Views grouped by building, with orientation labels from a pose manifest.

    The manifest is the only labelling authority: each view's building, and
    each drone's mask, azimuth and bin under the given bin count, come from
    the manifest's columns and generate_labels.  A masked drone keeps the
    azimuth stored in the views, which no label uses.  Satellite order
    follows first appearance in the views; inputs are float64 whatever the
    views' dtype.  Of several faults, the one a view-by-view pass meets
    first is reported.
    """

    def __init__(self, views: Views, manifest: Manifest, bins: int):
        dim = views.vectors.shape[1]
        if dim < 3:
            raise DataError(f"feature vectors have {dim} columns; need a latent block "
                            f"and 2 orientation columns")
        row_of = dict(zip(manifest.view_ids, range(len(manifest.view_ids))))
        rows = [row_of.get(view_id, -1) for view_id in views.ids]  # each view's manifest row
        if -1 in rows:
            raise DataError(f"view {views.ids[rows.index(-1)]!r} missing from manifest")
        labels = generate_labels(manifest, LabelConfig(bins))
        rows = np.array(rows, dtype=np.intp)
        is_sat = views.kinds == binio.KIND_SAT_CODE
        sat_rows = np.flatnonzero(is_sat)
        drone_rows = np.flatnonzero(~is_sat)

        building_index: dict[str, int] = {}
        for row in rows[sat_rows]:
            bid = manifest.building_ids[row]
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
        manifest_rows = rows[drone_rows]  # of the drone views
        bids = [manifest.building_ids[row] for row in manifest_rows]
        in_labels = ~manifest.is_sat[manifest_rows]  # a drone in the manifest too
        labelled = np.cumsum(~manifest.is_sat)[manifest_rows] - 1  # its row in labels
        self.drone_building_idx = np.array([building_index.get(bid, -1) for bid in bids],
                                           dtype=np.int64)
        bad = np.flatnonzero(~in_labels | (self.drone_building_idx < 0))
        if bad.size:
            view_id = self.drone_view_ids[bad[0]]
            if not in_labels[bad[0]]:
                raise DataError(f"drone {view_id!r} missing from manifest")
            raise DataError(f"drone {view_id!r}: no satellite for building {bids[bad[0]]!r}")
        self.drone_inputs = views.vectors[drone_rows].astype(np.float64, copy=False)
        self.drone_bins = labels.bin[labelled]
        self.drone_masked = self.drone_bins == MASKED_BIN
        self.drone_azimuth_deg = np.where(self.drone_masked, views.azimuths[drone_rows],
                                          labels.azimuth_deg[labelled])
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
    def load(cls, features_path, manifest: Manifest, bins: int) -> "CrossViewDataset":
        """Build from a feature file plus its pose manifest.

        Bins come from manifest geometry, so the same feature file can be
        re-binned under any bin count.
        """
        return cls(binio.read_features(features_path), manifest, bins)


def relevance_maps(manifest: Manifest) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    """(drone-to-sat, sat-to-drone) relevance: a view is relevant to every
    view of its own building on the other side."""
    columns = list(zip(manifest.view_ids, manifest.building_ids, manifest.is_sat.tolist()))
    sat_of = {bid: view_id for view_id, bid, is_sat in columns if is_sat}
    drones_of: dict[str, set[str]] = {}
    for view_id, bid, is_sat in columns:
        if not is_sat:
            drones_of.setdefault(bid, set()).add(view_id)
    s2d = {sat_of[bid]: drones for bid, drones in drones_of.items() if bid in sat_of}
    return {did: {sat_id} for sat_id, drones in s2d.items() for did in drones}, s2d


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
        # (start, stop) of each batch in an epoch's shuffle; a 1-building tail joins the one before
        n = dataset.n_buildings
        firsts = list(range(0, n - (n % batch_size == 1), batch_size))
        self._bounds = list(zip(firsts, firsts[1:] + [n]))

    @property
    def batches_per_epoch(self) -> int:
        return len(self._bounds)

    def _refill(self) -> None:
        perm = self.rng.permutation(self.dataset.n_buildings)
        self._queue = [perm[a:b] for a, b in reversed(self._bounds)]

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
                           p: float, cfg: LabelConfig) -> None:
    """Rotate satellite orientation features by whole bin widths, adjusting
    labels to match, in place.

    Independently per row with probability p, draw k in {1, ..., bins-1},
    advance the satellite feature angle by k bin widths, and advance the bin
    label (and relative angle) identically; masked rows rotate features but
    keep the sentinel label.  Writing into the batch is safe because
    sample_batch builds every array of a batch by fancy indexing or
    np.zeros/np.where, so no array is a view of the dataset.
    """
    if p > 0 and batch.size:
        hit = np.flatnonzero(rng.random(batch.size) < p)
        k = rng.integers(1, cfg.bins, size=hit.size)
        step = k * cfg.bin_width_deg
        batch.sat_angle_deg[hit] = (batch.sat_angle_deg[hit] + step) % 360.0
        rad = np.radians(batch.sat_angle_deg[hit])
        batch.sat_inputs[hit, -2] = np.cos(rad)
        batch.sat_inputs[hit, -1] = np.sin(rad)
        live = ~batch.mask[hit]
        rows = hit[live]
        batch.orientation_bins[rows] = rotate_label(batch.orientation_bins[rows], k[live], cfg)
        batch.relative_angle_deg[rows] = (batch.relative_angle_deg[rows] + step[live]) % 360.0
