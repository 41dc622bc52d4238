"""Azimuth convention, binning, label rotation, and manifest/label I/O."""

import csv
import math

import numpy as np
import pytest

from skyalign.dataset import GenConfig, generate
from skyalign.errors import ConfigError, ManifestError
from skyalign.pose_geometry import (
    DEGENERATE_SQ_M2,
    LABEL_HEADER,
    MASKED_BIN,
    LabelConfig,
    Labels,
    bin_of,
    generate_labels,
    read_manifest,
    relative_azimuth,
    rotate_label,
    write_labels,
    write_manifest,
)
from oracles import (
    DegenerateAzimuth,
    PoseRecord,
    label_records,
    manifest_of,
    record_bin_of,
    record_generate_labels,
    record_relative_azimuth,
    record_write_labels,
    record_write_manifest,
    records_of,
)

ORIGIN = (0.0, 0.0, 0.0)


def _az(sat, drone):
    """relative_azimuth of one satellite and drone position."""
    return relative_azimuth(np.array([sat], dtype=float), np.array([drone], dtype=float))[0]


class TestRelativeAzimuth:
    @pytest.mark.parametrize("offset,expected", [
        ((0.0, 10.0), 0.0),      # due north
        ((10.0, 0.0), 90.0),     # due east
        ((0.0, -10.0), 180.0),   # due south
        ((-10.0, 0.0), 270.0),   # due west
        ((5.0, 5.0), 45.0),
        ((-3.0, 3.0), 315.0),
    ])
    def test_cardinal_and_diagonal(self, offset, expected):
        az = _az(ORIGIN, (offset[0], offset[1], 50.0))
        assert az == pytest.approx(expected, abs=1e-12)

    def test_altitude_ignored(self):
        low = _az(ORIGIN, (7.0, 3.0, 0.0))
        high = _az(ORIGIN, (7.0, 3.0, 999.0))
        assert low == high

    def test_translation_invariance(self):
        base = _az(ORIGIN, (4.0, -9.0, 10.0))
        shifted = _az((100.0, 200.0, 5.0), (104.0, 191.0, 15.0))
        assert shifted == pytest.approx(base, abs=1e-9)

    def test_range_half_open(self):
        rng = np.random.default_rng(7)
        offsets = rng.uniform(-50, 50, size=(500, 2))
        offsets = offsets[(offsets ** 2).sum(axis=1) >= 1e-10]
        drones = np.column_stack([offsets, np.zeros(len(offsets))])
        az = relative_azimuth(np.zeros_like(drones), drones)
        assert ((0.0 <= az) & (az < 360.0)).all()

    def test_degenerate_overhead(self):
        assert math.isnan(_az(ORIGIN, (0.0, 0.0, 120.0)))
        assert math.isnan(_az(ORIGIN, (1e-8, -1e-8, 50.0)))

    def test_just_above_threshold_ok(self):
        az = _az(ORIGIN, (2e-6, 0.0, 50.0))
        assert az == pytest.approx(90.0)


class TestBinning:
    def test_half_open_edges(self):
        cfg = LabelConfig(8)
        assert bin_of(0.0, cfg) == 0
        assert bin_of(44.999999, cfg) == 0
        assert bin_of(45.0, cfg) == 1
        assert bin_of(359.999, cfg) == 7

    @pytest.mark.parametrize("bins", [4, 8, 16, 32])
    def test_grid_bin_index(self, bins):
        # every multiple of the width lands at the start of its own bin
        cfg = LabelConfig(bins)
        width = 360.0 / bins
        for k in range(bins):
            assert bin_of(k * width, cfg) == k
            assert bin_of(k * width + width / 2, cfg) == k

    def test_bins_validation(self):
        with pytest.raises(ConfigError, match="bins must be >= 2, got 1"):
            LabelConfig(1)
        with pytest.raises(ConfigError, match=r"bins must be < 2\*\*63, got 9223372036854775808"):
            LabelConfig(2**63)
        assert LabelConfig(2**63 - 1).bins == 2**63 - 1

    def test_rotate_label_wraps(self):
        cfg = LabelConfig(4)
        assert rotate_label(1, 1, cfg) == 2
        assert rotate_label(3, 1, cfg) == 0
        assert rotate_label(0, 7, cfg) == 3

    @pytest.mark.parametrize("bins", [4, 8, 16, 32])
    def test_rotation_group_law_exhaustive(self, bins):
        cfg = LabelConfig(bins)
        for start in range(bins):
            for k1 in range(bins):
                for k2 in range(bins):
                    two_steps = rotate_label(rotate_label(start, k1, cfg), k2, cfg)
                    assert two_steps == rotate_label(start, k1 + k2, cfg)
            # inverse rotation restores the label
            for k in range(bins):
                assert rotate_label(rotate_label(start, k, cfg), bins - k, cfg) == start

    @pytest.mark.parametrize("bins", [4, 8, 16, 32])
    def test_azimuth_shift_consistency_half_degree_grid(self, bins):
        # shifting an azimuth by whole bin widths shifts its bin label the
        # same number of steps; the 0.5 degree grid and the bin widths are
        # all exact quarter multiples so no float rounding interferes
        cfg = LabelConfig(bins)
        width = 360.0 / bins
        for i in range(720):
            az = i * 0.5
            base = bin_of(az, cfg)
            assert 0 <= base < bins
            for k in range(bins):
                shifted = (az + k * width) % 360.0
                assert bin_of(shifted, cfg) == rotate_label(base, k, cfg)


def _manifest(*rows):
    """A Manifest from (view_id, building_id, kind, (x, y, z), status) rows."""
    return manifest_of(PoseRecord(*row) for row in rows)


TWO_BUILDINGS = [
    ("s0", "b0", "sat", (0.0, 0.0, 0.0), "ok"),
    ("d0", "b0", "drone", (10.0, 0.0, 50.0), "ok"),
    ("d1", "b0", "drone", (0.0, -10.0, 50.0), "failed"),
    ("s1", "b1", "sat", (1000.0, 0.0, 0.0), "ok"),
    ("d2", "b1", "drone", (1000.0, 25.0, 50.0), "ok"),
]


class TestGenerateLabels:
    def test_labels_in_manifest_order(self):
        labels = generate_labels(_manifest(*TWO_BUILDINGS), LabelConfig(4))
        assert labels.view_ids == ["d0", "d1", "d2"]
        assert labels.building_ids == ["b0", "b0", "b1"]
        assert labels.azimuth_deg[0] == pytest.approx(90.0)
        assert labels.bin[0] == 1
        assert labels.bin[1] == MASKED_BIN and math.isnan(labels.azimuth_deg[1])
        assert labels.bin[2] == 0 and labels.azimuth_deg[2] == 0.0

    def test_degenerate_geometry_masks(self):
        manifest = _manifest(
            ("s0", "b0", "sat", (0.0, 0.0, 0.0), "ok"),
            ("d0", "b0", "drone", (0.0, 0.0, 80.0), "ok"),
            ("s1", "b1", "sat", (5.0, 5.0, 0.0), "ok"),
            ("d1", "b1", "drone", (5.0, 6.0, 80.0), "ok"),
        )
        labels = generate_labels(manifest, LabelConfig(8))
        assert labels.bin.tolist() == [MASKED_BIN, 0]
        assert math.isnan(labels.azimuth_deg[0]) and labels.azimuth_deg[1] == 0.0

    def test_duplicate_view_id_rejected(self):
        manifest = _manifest(*TWO_BUILDINGS, ("d0", "b1", "drone", (1.0, 1.0, 1.0), "ok"))
        with pytest.raises(ManifestError, match="duplicate view_id"):
            generate_labels(manifest, LabelConfig(4))

    def test_two_satellites_rejected(self):
        manifest = _manifest(*TWO_BUILDINGS, ("s9", "b0", "sat", (1.0, 1.0, 0.0), "ok"))
        with pytest.raises(ManifestError, match="more than one satellite"):
            generate_labels(manifest, LabelConfig(4))

    def test_missing_satellite_rejected(self):
        manifest = _manifest(("d0", "b7", "drone", (1.0, 1.0, 50.0), "ok"))
        with pytest.raises(ManifestError, match="lacks a satellite"):
            generate_labels(manifest, LabelConfig(4))

    def test_failed_satellite_rejected(self):
        manifest = _manifest(
            ("s0", "b0", "sat", (0.0, 0.0, 0.0), "failed"),
            ("d0", "b0", "drone", (1.0, 1.0, 50.0), "ok"),
        )
        with pytest.raises(ManifestError):
            generate_labels(manifest, LabelConfig(4))

    def test_coarser_bins_relate_by_integer_division(self):
        rng = np.random.default_rng(3)
        rows = [("s0", "b0", "sat", (0.0, 0.0, 0.0), "ok")]
        for i in range(64):
            ang = math.radians(rng.uniform(0, 360))
            rows.append((f"d{i}", "b0", "drone",
                         (100 * math.sin(ang), 100 * math.cos(ang), 50.0), "ok"))
        fine = generate_labels(_manifest(*rows), LabelConfig(8))
        coarse = generate_labels(_manifest(*rows), LabelConfig(4))
        assert np.array_equal(coarse.bin, fine.bin // 2)

    @pytest.mark.parametrize("extra", [
        [("d0", "b1", "drone", (1.0, 1.0, 1.0), "ok"), ("s9", "b0", "sat", ORIGIN, "ok")],
        [("s9", "b0", "sat", ORIGIN, "ok"), ("d0", "b1", "drone", (1.0, 1.0, 1.0), "ok")],
        [("s0", "b0", "sat", ORIGIN, "ok")],  # a repeated id that is also a second satellite
        [("d5", "b7", "drone", ORIGIN, "ok"), ("d0", "b0", "drone", ORIGIN, "ok")],
        [("d5", "b7", "drone", ORIGIN, "ok"), ("s7", "b7", "sat", ORIGIN, "failed")],
        [("d5", "b7", "drone", ORIGIN, "ok"), ("d6", "b8", "drone", ORIGIN, "ok")],
    ], ids=["dup-then-sat", "sat-then-dup", "dup-and-sat", "lacking-then-dup",
            "failed-sat", "two-lacking"])
    def test_first_error_matches_record_form(self, extra):
        records = [PoseRecord(*row) for row in TWO_BUILDINGS + extra]
        with pytest.raises(ManifestError) as want:
            record_generate_labels(records, LabelConfig(4))
        with pytest.raises(ManifestError) as got:
            generate_labels(manifest_of(records), LabelConfig(4))
        assert str(got.value) == str(want.value)


def _record_azimuths(sat_xyz, drone_xyz) -> list:
    """record_relative_azimuth row by row, None where it raises."""
    out = []
    for sat, drone in zip(sat_xyz.tolist(), drone_xyz.tolist()):
        try:
            out.append(record_relative_azimuth(sat, drone))
        except DegenerateAzimuth:
            out.append(None)
    return out


def _assert_same_azimuths(sat_xyz, drone_xyz):
    got = relative_azimuth(sat_xyz, drone_xyz)
    want = _record_azimuths(sat_xyz, drone_xyz)
    assert [None if math.isnan(a) else a for a in got.tolist()] == want


class TestMatchesRecordForms:
    """The array labeller equals the scalar, record-by-record forms bit for
    bit, and the table writers write their bytes."""

    @pytest.mark.parametrize("n_buildings", [200, 1000], ids=["desk", "scale"])
    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_every_generated_drone(self, tmp_path, n_buildings, seed):
        _, manifest = generate(GenConfig(n_buildings, 10, 32, 0.5, 0.1, seed, 8))
        records = records_of(manifest)
        drones = np.flatnonzero(~manifest.is_sat)
        sat_xyz = manifest.xyz[drones - drones % 11]  # each building's satellite row
        _assert_same_azimuths(sat_xyz, manifest.xyz[drones])
        for bins in (5, 8):
            cfg = LabelConfig(bins)
            labels = generate_labels(manifest, cfg)
            want = record_generate_labels(records, cfg)
            assert label_records(labels) == want
            record_write_labels(want, tmp_path / "want.csv")
            write_labels(labels, tmp_path / "got.csv")
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        record_write_manifest(records, tmp_path / "want.csv")
        write_manifest(manifest, tmp_path / "got.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    # at 11 and 13 bins, floor(a / width) differs from a // width near edges
    @pytest.mark.parametrize("bins", [2, 3, 5, 7, 8, 11, 12, 13, 16, 32])
    def test_bin_edge_neighbours(self, bins):
        cfg = LabelConfig(bins)
        edges = np.array([k * cfg.bin_width_deg for k in range(bins + 1)]
                         + [k * 360.0 / bins for k in range(bins + 1)])
        below, above = np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)
        angles = np.concatenate([np.nextafter(below, -np.inf), below, edges, above,
                                 np.nextafter(above, np.inf)])
        angles = angles[(angles >= 0.0) & (angles < 360.0)]
        assert bin_of(angles, cfg).tolist() == [record_bin_of(a, cfg) for a in angles.tolist()]

    def test_degenerate_threshold_neighbours(self):
        edge = math.sqrt(DEGENERATE_SQ_M2)
        steps = [np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)]
        half = math.sqrt(DEGENERATE_SQ_M2 / 2)
        steps_half = [np.nextafter(half, 0.0), half, np.nextafter(half, np.inf)]
        offsets = ([(s, 0.0) for s in steps] + [(0.0, -s) for s in steps]
                   + [(s, s) for s in steps_half] + [(-s, s) for s in steps_half])
        drones = np.array([(dx, dy, 50.0) for dx, dy in offsets])
        _assert_same_azimuths(np.zeros_like(drones), drones)
        got = relative_azimuth(np.zeros_like(drones), drones)
        assert np.isnan(got).any() and not np.isnan(got).all()

    def test_signed_zero_and_angles_that_round_to_360(self):
        offsets = [(0.0, 5.0), (-0.0, 5.0), (0.0, -5.0), (-0.0, -5.0),
                   (-1e-17, 1.0), (-1e-16, 1.0), (-3e-16, 1.0), (-5e-16, 1.0),
                   (-1e-15, 1.0), (-1e-14, 1.0), (-1e-300, 1.0)]
        drones = np.array([(dx, dy, 0.0) for dx, dy in offsets])
        sats = np.array([(0.0, 0.0, 0.0)] * len(offsets))
        _assert_same_azimuths(sats, drones)
        got = relative_azimuth(sats, drones)
        assert got[4] == 0.0 and got[-1] == 0.0  # rounded up to 360, then wrapped
        assert ((0.0 <= got) & (got < 360.0)).all()


class TestManifestIO:
    def test_round_trip_exact(self, tmp_path):
        # throw in a value with an awkward decimal expansion
        records = [PoseRecord(*row) for row in TWO_BUILDINGS]
        records.append(PoseRecord("d9", "b1", "drone", (1000.1, -0.3333333333333333, 12.7), "ok"))
        path = tmp_path / "m.csv"
        write_manifest(manifest_of(records), path)
        back = read_manifest(path)
        assert records_of(back) == records
        assert back.xyz.dtype == np.float64 and back.is_sat.dtype == back.ok.dtype == bool

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(ManifestError, match="empty manifest"):
            read_manifest(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("id,x,y\n")
        with pytest.raises(ManifestError, match="bad header"):
            read_manifest(path)

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "view_id,building_id,kind,x,y,z,status\n"
            "s0,b0,sat,0,0,0,ok\n"
            "d0,b0,drone,oops,0,50,ok\n"
        )
        with pytest.raises(ManifestError, match=r":3:"):
            read_manifest(path)

    def test_error_names_the_file_line_after_a_quoted_newline(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "view_id,building_id,kind,x,y,z,status\n"
            '"s\n0",b0,sat,0,0,0,ok\n'
            "d0,b0,drone,oops,0,50,ok\n"
        )
        with pytest.raises(ManifestError) as exc:
            read_manifest(path)
        assert str(exc.value) == f"{path}:4: bad coordinate"

    def test_bad_kind_and_status(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "view_id,building_id,kind,x,y,z,status\n"
            "s0,b0,orbiter,0,0,0,ok\n"
        )
        with pytest.raises(ManifestError, match="bad kind"):
            read_manifest(path)
        path.write_text(
            "view_id,building_id,kind,x,y,z,status\n"
            "s0,b0,sat,0,0,0,meh\n"
        )
        with pytest.raises(ManifestError, match="bad status"):
            read_manifest(path)

    def test_failed_row_tolerates_blank_coordinates(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "view_id,building_id,kind,x,y,z,status\n"
            "s0,b0,sat,0,0,0,ok\n"
            "d0,b0,drone,,,,failed\n"
        )
        manifest = read_manifest(path)
        assert manifest.ok.tolist() == [True, False]
        assert manifest.xyz[1].tolist() == [0.0, 0.0, 0.0]

    def test_header_only_file_is_an_empty_table(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("view_id,building_id,kind,x,y,z,status\n")
        manifest = read_manifest(path)
        assert manifest.view_ids == [] and manifest.xyz.shape == (0, 3)
        labels = generate_labels(manifest, LabelConfig(8))
        assert labels.view_ids == [] and labels.bin.shape == (0,)

    @pytest.mark.parametrize("status", ["ok", "failed"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_rejected(self, tmp_path, status, value):
        path = tmp_path / "m.csv"
        path.write_text(
            "view_id,building_id,kind,x,y,z,status\n"
            "s0,b0,sat,0,0,0,ok\n"
            f"d0,b0,drone,0,{value},50,{status}\n"
        )
        with pytest.raises(ManifestError, match=r":3: coordinate is not finite"):
            read_manifest(path)


class TestLabelIO:
    def test_round_trip(self, tmp_path):
        labels = Labels(["d0", "d1"], ["b0", "b0"], np.array([123.456789012345, np.nan]),
                        np.array([2, MASKED_BIN]))
        path = tmp_path / "labels.csv"
        write_labels(labels, path)
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [LABEL_HEADER, ["d0", "b0", "123.456789012345", "2", "false"],
                        ["d1", "b0", "", "", "true"]]

    def test_masked_fields_empty_in_csv(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_labels(Labels(["d1"], ["b0"], np.array([np.nan]), np.array([MASKED_BIN])), path)
        text = path.read_text()
        assert "d1,b0,,,true" in text
