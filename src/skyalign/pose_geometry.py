"""Azimuths, orientation bins, and pseudo-labels from estimated camera poses.

Coordinate convention used throughout the package: x points east, y points
north, z points up, all in meters.  Azimuths are compass bearings measured
clockwise from north, normalised to ``[0, 360)``, so due north is 0 and due
east is 90.  Only the horizontal components matter; elevation is ignored.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import DegenerateAzimuth, ManifestError, open_text

KIND_SAT = "sat"
KIND_DRONE = "drone"
STATUS_OK = "ok"
STATUS_FAILED = "failed"

# Below this squared horizontal distance (m^2) the bearing is undefined and
# the sample has to be masked instead of labelled.
DEGENERATE_SQ_M2 = 1e-12

MANIFEST_HEADER = ["view_id", "building_id", "kind", "x", "y", "z", "status"]
LABEL_HEADER = ["view_id", "building_id", "azimuth_deg", "bin", "masked"]


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


@dataclass(frozen=True)
class LabelConfig:
    """Number of discrete orientation bins; bin width is 360/bins degrees."""

    bins: int

    def __post_init__(self):
        if self.bins < 2:
            raise ValueError(f"bins must be >= 2, got {self.bins}")

    @property
    def bin_width_deg(self) -> float:
        return 360.0 / self.bins


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


def relative_azimuth(sat_pos: Sequence[float], drone_pos: Sequence[float]) -> float:
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


def bin_of(azimuth_deg: float, cfg: LabelConfig) -> int:
    """Discrete bin of an azimuth in [0, 360): half-open sectors of equal width.

    Bin k covers [k*360/b, (k+1)*360/b), so 0 degrees belongs to bin 0.
    """
    idx = int(azimuth_deg // cfg.bin_width_deg)
    if idx >= cfg.bins:  # float edge just below 360
        idx = cfg.bins - 1
    return idx


def rotate_label(bin_idx: int, k_steps: int, cfg: LabelConfig) -> int:
    """Adjust a bin label for a satellite view rotated by whole bin widths.

    Rotating the satellite view clockwise by ``k_steps`` bin widths
    increases the relative label by ``k_steps`` (mod bins).  The synthetic
    generator mirrors exactly this convention.
    """
    return (bin_idx + k_steps) % cfg.bins


def generate_labels(manifest: Iterable[PoseRecord], cfg: LabelConfig) -> list[OrientationLabel]:
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
            az = relative_azimuth(sat.position, rec.position)
        except DegenerateAzimuth:
            labels.append(OrientationLabel(rec.view_id, rec.building_id, None, None, True))
            continue
        labels.append(
            OrientationLabel(rec.view_id, rec.building_id, az, bin_of(az, cfg), False)
        )
    return labels


def read_manifest(path) -> list[PoseRecord]:
    """Read a pose manifest CSV (header view_id,building_id,kind,x,y,z,status).

    Every coordinate must be finite; a failed record may leave them blank.
    """
    records = []
    with open_text(path, ManifestError) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ManifestError(f"{path}: empty manifest") from None
        if header != MANIFEST_HEADER:
            raise ManifestError(f"{path}: bad header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 7:
                raise ManifestError(f"{path}:{lineno}: expected 7 fields, got {len(row)}")
            view_id, building_id, kind, xs, ys, zs, status = row
            if kind not in (KIND_SAT, KIND_DRONE):
                raise ManifestError(f"{path}:{lineno}: bad kind {kind!r}")
            if status not in (STATUS_OK, STATUS_FAILED):
                raise ManifestError(f"{path}:{lineno}: bad status {status!r}")
            try:
                if status == STATUS_FAILED:
                    # position of a failed record is ignored; tolerate blanks
                    pos = tuple(float(v) if v else 0.0 for v in (xs, ys, zs))
                else:
                    pos = (float(xs), float(ys), float(zs))
            except ValueError:
                raise ManifestError(f"{path}:{lineno}: bad coordinate") from None
            if not all(map(math.isfinite, pos)):
                raise ManifestError(f"{path}:{lineno}: coordinate is not finite")
            records.append(PoseRecord(view_id, building_id, kind, pos, status))
    return records


def write_manifest(records: Iterable[PoseRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for rec in records:
            x, y, z = rec.position
            writer.writerow(
                [rec.view_id, rec.building_id, rec.kind, repr(x), repr(y), repr(z), rec.status]
            )


def write_labels(labels: Iterable[OrientationLabel], path) -> None:
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


def read_labels(path) -> list[OrientationLabel]:
    labels = []
    with open_text(path, ManifestError) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != LABEL_HEADER:
            raise ManifestError(f"{path}: bad header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise ManifestError(f"{path}:{lineno}: expected 5 fields")
            view_id, building_id, azs, bins_, masked_s = row
            masked = masked_s == "true"
            if masked:
                labels.append(OrientationLabel(view_id, building_id, None, None, True))
            else:
                labels.append(
                    OrientationLabel(view_id, building_id, float(azs), int(bins_), False)
                )
    return labels
