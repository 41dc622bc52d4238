"""Azimuths, orientation bins, and pseudo-labels from estimated camera poses.

Coordinate convention used throughout the package: x points east, y points
north, z points up, all in meters.  Azimuths are compass bearings measured
clockwise from north, normalised to ``[0, 360)``, so due north is 0 and due
east is 90.  Only the horizontal components matter; elevation is ignored.

The pose manifest and its labels are column tables (Manifest, Labels), and
every function here works on whole columns.  Each bearing still comes from
``math.atan2``, one call per row: numpy's vectorised arctan2 can differ from
it in the last bit, which can move an azimuth across a bin edge.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ManifestError, open_text, write_csv

KIND_SAT = "sat"
KIND_DRONE = "drone"
STATUS_OK = "ok"
STATUS_FAILED = "failed"

# Below this squared horizontal distance (m^2) the bearing is undefined and
# the sample has to be masked instead of labelled.
DEGENERATE_SQ_M2 = 1e-12

MASKED_BIN = -1

MANIFEST_HEADER = ["view_id", "building_id", "kind", "x", "y", "z", "status"]
LABEL_HEADER = ["view_id", "building_id", "azimuth_deg", "bin", "masked"]


class Manifest(NamedTuple):
    """The pose manifest as columns, one row per view: satellite or drone,
    an n x 3 float64 position estimate, and whether that estimate is ok.
    The position of a failed row is ignored by every consumer."""

    view_ids: list[str]
    building_ids: list[str]
    is_sat: np.ndarray
    xyz: np.ndarray
    ok: np.ndarray


class Labels(NamedTuple):
    """Pseudo-labels as columns, one row per drone view in manifest order.
    A masked row (failed pose estimate or degenerate geometry) has azimuth
    NaN and bin MASKED_BIN."""

    view_ids: list[str]
    building_ids: list[str]
    azimuth_deg: np.ndarray
    bin: np.ndarray


@dataclass(frozen=True)
class LabelConfig:
    """Number of discrete orientation bins; bin width is 360/bins degrees.
    The one check of a bin count: every config with a bins key makes one."""

    bins: int

    def __post_init__(self):
        if self.bins < 2:
            raise ConfigError(f"bins must be >= 2, got {self.bins}")
        if self.bins >= 2**63:  # bins are int64 labels
            raise ConfigError(f"bins must be < 2**63, got {self.bins}")

    @property
    def bin_width_deg(self) -> float:
        return 360.0 / self.bins


def relative_azimuth(sat_xyz: np.ndarray, drone_xyz: np.ndarray) -> np.ndarray:
    """Compass bearing of each drone as seen from its satellite position.

    Takes n x 3 float64 arrays of (x, y, z) rows and returns degrees in
    ``[0, 360)`` with 0 = due north (+y) and 90 = due east (+x).  The z
    components are ignored.  A row is NaN when its drone sits (numerically)
    directly above the satellite, where no bearing exists.
    """
    dx = drone_xyz[:, 0] - sat_xyz[:, 0]
    dy = drone_xyz[:, 1] - sat_xyz[:, 1]
    angle = np.fromiter(map(math.atan2, dx.tolist(), dy.tolist()), np.float64, dx.size)
    az = np.degrees(angle) % 360.0
    # a tiny negative angle can round up to exactly 360.0 under the modulo
    az[az >= 360.0] = 0.0
    az[dx * dx + dy * dy < DEGENERATE_SQ_M2] = np.nan
    return az


def bin_of(azimuth_deg, cfg: LabelConfig):
    """Discrete bin of each azimuth in [0, 360): half-open sectors of equal
    width, elementwise over an array or a scalar.

    Bin k covers [k*360/b, (k+1)*360/b), so 0 degrees belongs to bin 0.
    """
    idx = np.floor_divide(azimuth_deg, cfg.bin_width_deg).astype(np.int64)
    return np.minimum(idx, cfg.bins - 1)  # float edge just below 360


def rotate_label(bin_idx, k_steps, cfg: LabelConfig):
    """Adjust bin labels for satellite views rotated by whole bin widths,
    elementwise over arrays or scalars.

    Rotating the satellite view clockwise by ``k_steps`` bin widths
    increases the relative label by ``k_steps`` (mod bins).  The synthetic
    generator mirrors exactly this convention.
    """
    return (bin_idx + k_steps) % cfg.bins


def generate_labels(manifest: Manifest, cfg: LabelConfig) -> Labels:
    """Label every drone row of the manifest, in manifest order.

    A drone is masked when its pose estimate failed or its geometry is
    degenerate; otherwise azimuth and bin are filled in relative to its
    building's satellite view.  Raises ManifestError when view ids repeat,
    when a building carries more than one satellite record, or when a
    building with drone views lacks a satellite record with status ok.
    """
    seen_ids = set()
    sat_of: dict[str, int] = {}  # building id -> satellite row
    for row, (view_id, bid, is_sat) in enumerate(
            zip(manifest.view_ids, manifest.building_ids, manifest.is_sat.tolist())):
        if view_id in seen_ids:
            raise ManifestError(f"duplicate view_id {view_id!r}")
        seen_ids.add(view_id)
        if is_sat:
            if bid in sat_of:
                raise ManifestError(f"building {bid!r} has more than one satellite record")
            sat_of[bid] = row

    drones = np.flatnonzero(~manifest.is_sat)
    bids = [manifest.building_ids[row] for row in drones]
    sat = np.array([sat_of.get(bid, -1) for bid in bids], dtype=np.intp)
    lacking = np.flatnonzero((sat < 0) | ~manifest.ok[sat])
    if lacking.size:
        raise ManifestError(
            f"building {bids[lacking[0]]!r} lacks a satellite record with status ok"
        )
    live = manifest.ok[drones]
    azimuth = np.full(drones.size, np.nan)
    azimuth[live] = relative_azimuth(manifest.xyz[sat[live]], manifest.xyz[drones[live]])
    bins = np.full(drones.size, MASKED_BIN, dtype=np.int64)
    defined = ~np.isnan(azimuth)
    bins[defined] = bin_of(azimuth[defined], cfg)
    return Labels([manifest.view_ids[row] for row in drones], bids, azimuth, bins)


def read_manifest(path) -> Manifest:
    """Read a pose manifest CSV (header view_id,building_id,kind,x,y,z,status).

    Every coordinate must be finite; a failed record may leave them blank.
    """
    view_ids, building_ids, is_sat, xyz, ok = [], [], [], [], []
    with open_text(path, ManifestError) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ManifestError(f"{path}: empty manifest") from None
        if header != MANIFEST_HEADER:
            raise ManifestError(f"{path}: bad header {header!r}")
        for row in reader:
            if not row:
                continue
            if len(row) != 7:
                raise ManifestError(f"{path}:{reader.line_num}: expected 7 fields, got {len(row)}")
            view_id, building_id, kind, xs, ys, zs, status = row
            if kind not in (KIND_SAT, KIND_DRONE):
                raise ManifestError(f"{path}:{reader.line_num}: bad kind {kind!r}")
            if status not in (STATUS_OK, STATUS_FAILED):
                raise ManifestError(f"{path}:{reader.line_num}: bad status {status!r}")
            try:
                if status == STATUS_FAILED:
                    # position of a failed record is ignored; tolerate blanks
                    pos = tuple(float(v) if v else 0.0 for v in (xs, ys, zs))
                else:
                    pos = (float(xs), float(ys), float(zs))
            except ValueError:
                raise ManifestError(f"{path}:{reader.line_num}: bad coordinate") from None
            if not all(map(math.isfinite, pos)):
                raise ManifestError(f"{path}:{reader.line_num}: coordinate is not finite")
            view_ids.append(view_id)
            building_ids.append(building_id)
            is_sat.append(kind == KIND_SAT)
            xyz.append(pos)
            ok.append(status == STATUS_OK)
    return Manifest(view_ids, building_ids, np.array(is_sat, dtype=bool),
                    np.array(xyz, dtype=np.float64).reshape(-1, 3), np.array(ok, dtype=bool))


def write_manifest(manifest: Manifest, path) -> None:
    kinds = np.where(manifest.is_sat, KIND_SAT, KIND_DRONE).tolist()
    statuses = np.where(manifest.ok, STATUS_OK, STATUS_FAILED).tolist()
    x, y, z = (map(repr, col) for col in manifest.xyz.T.tolist())
    write_csv(path, MANIFEST_HEADER,
              zip(manifest.view_ids, manifest.building_ids, kinds, x, y, z, statuses))


def write_labels(labels: Labels, path) -> None:
    """Write a label table CSV; masked rows leave azimuth and bin empty."""
    write_csv(path, LABEL_HEADER, (
        [view_id, building_id, "", "", "true"] if bin_ == MASKED_BIN
        else [view_id, building_id, repr(azimuth), bin_, "false"]
        for view_id, building_id, azimuth, bin_ in zip(
            labels.view_ids, labels.building_ids, labels.azimuth_deg.tolist(),
            labels.bin.tolist())
    ))
