"""Azimuth convention, binning, label rotation, and manifest/label I/O."""

import math

import numpy as np
import pytest

from skyalign.errors import DegenerateAzimuth, ManifestError
from skyalign.pose_geometry import (
    LabelConfig,
    OrientationLabel,
    PoseRecord,
    bin_of,
    generate_labels,
    read_labels,
    read_manifest,
    relative_azimuth,
    rotate_label,
    write_labels,
    write_manifest,
)

ORIGIN = (0.0, 0.0, 0.0)


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
        az = relative_azimuth(ORIGIN, (offset[0], offset[1], 50.0))
        assert az == pytest.approx(expected, abs=1e-12)

    def test_altitude_ignored(self):
        low = relative_azimuth(ORIGIN, (7.0, 3.0, 0.0))
        high = relative_azimuth(ORIGIN, (7.0, 3.0, 999.0))
        assert low == high

    def test_translation_invariance(self):
        base = relative_azimuth(ORIGIN, (4.0, -9.0, 10.0))
        shifted = relative_azimuth((100.0, 200.0, 5.0), (104.0, 191.0, 15.0))
        assert shifted == pytest.approx(base, abs=1e-9)

    def test_range_half_open(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            dx, dy = rng.uniform(-50, 50, size=2)
            if dx * dx + dy * dy < 1e-10:
                continue
            az = relative_azimuth(ORIGIN, (dx, dy, 0.0))
            assert 0.0 <= az < 360.0

    def test_degenerate_overhead(self):
        with pytest.raises(DegenerateAzimuth):
            relative_azimuth(ORIGIN, (0.0, 0.0, 120.0))
        with pytest.raises(DegenerateAzimuth):
            relative_azimuth(ORIGIN, (1e-8, -1e-8, 50.0))

    def test_just_above_threshold_ok(self):
        az = relative_azimuth(ORIGIN, (2e-6, 0.0, 50.0))
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
        with pytest.raises(ValueError):
            LabelConfig(1)

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


def _manifest_two_buildings():
    return [
        PoseRecord("s0", "b0", "sat", (0.0, 0.0, 0.0), "ok"),
        PoseRecord("d0", "b0", "drone", (10.0, 0.0, 50.0), "ok"),
        PoseRecord("d1", "b0", "drone", (0.0, -10.0, 50.0), "failed"),
        PoseRecord("s1", "b1", "sat", (1000.0, 0.0, 0.0), "ok"),
        PoseRecord("d2", "b1", "drone", (1000.0, 25.0, 50.0), "ok"),
    ]


class TestGenerateLabels:
    def test_labels_in_manifest_order(self):
        labels = generate_labels(_manifest_two_buildings(), LabelConfig(4))
        assert [lab.view_id for lab in labels] == ["d0", "d1", "d2"]
        assert labels[0].azimuth_deg == pytest.approx(90.0)
        assert labels[0].bin == 1
        assert labels[1].masked and labels[1].azimuth_deg is None and labels[1].bin is None
        assert labels[2].bin == 0 and not labels[2].masked

    def test_degenerate_geometry_masks(self):
        manifest = [
            PoseRecord("s0", "b0", "sat", (0.0, 0.0, 0.0), "ok"),
            PoseRecord("d0", "b0", "drone", (0.0, 0.0, 80.0), "ok"),
            PoseRecord("s1", "b1", "sat", (5.0, 5.0, 0.0), "ok"),
            PoseRecord("d1", "b1", "drone", (5.0, 6.0, 80.0), "ok"),
        ]
        labels = generate_labels(manifest, LabelConfig(8))
        assert labels[0].masked
        assert not labels[1].masked

    def test_duplicate_view_id_rejected(self):
        manifest = _manifest_two_buildings()
        manifest.append(PoseRecord("d0", "b1", "drone", (1.0, 1.0, 1.0), "ok"))
        with pytest.raises(ManifestError, match="duplicate view_id"):
            generate_labels(manifest, LabelConfig(4))

    def test_two_satellites_rejected(self):
        manifest = _manifest_two_buildings()
        manifest.append(PoseRecord("s9", "b0", "sat", (1.0, 1.0, 0.0), "ok"))
        with pytest.raises(ManifestError, match="more than one satellite"):
            generate_labels(manifest, LabelConfig(4))

    def test_missing_satellite_rejected(self):
        manifest = [PoseRecord("d0", "b7", "drone", (1.0, 1.0, 50.0), "ok")]
        with pytest.raises(ManifestError, match="lacks a satellite"):
            generate_labels(manifest, LabelConfig(4))

    def test_failed_satellite_rejected(self):
        manifest = [
            PoseRecord("s0", "b0", "sat", (0.0, 0.0, 0.0), "failed"),
            PoseRecord("d0", "b0", "drone", (1.0, 1.0, 50.0), "ok"),
        ]
        with pytest.raises(ManifestError):
            generate_labels(manifest, LabelConfig(4))

    def test_coarser_bins_relate_by_integer_division(self):
        rng = np.random.default_rng(3)
        manifest = [PoseRecord("s0", "b0", "sat", (0.0, 0.0, 0.0), "ok")]
        for i in range(64):
            ang = math.radians(rng.uniform(0, 360))
            manifest.append(PoseRecord(
                f"d{i}", "b0", "drone",
                (100 * math.sin(ang), 100 * math.cos(ang), 50.0), "ok"))
        fine = generate_labels(manifest, LabelConfig(8))
        coarse = generate_labels(manifest, LabelConfig(4))
        for f, c in zip(fine, coarse):
            assert c.bin == f.bin // 2


class TestManifestIO:
    def test_round_trip_exact(self, tmp_path):
        manifest = _manifest_two_buildings()
        # throw in a value with an awkward decimal expansion
        manifest.append(PoseRecord("d9", "b1", "drone", (1000.1, -0.3333333333333333, 12.7), "ok"))
        path = tmp_path / "m.csv"
        write_manifest(manifest, path)
        back = read_manifest(path)
        assert back == manifest

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
        records = read_manifest(path)
        assert records[1].status == "failed"

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
        labels = [
            OrientationLabel("d0", "b0", 123.456789012345, 2, False),
            OrientationLabel("d1", "b0", None, None, True),
        ]
        path = tmp_path / "labels.csv"
        write_labels(labels, path)
        back = read_labels(path)
        assert back == labels

    def test_masked_fields_empty_in_csv(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_labels([OrientationLabel("d1", "b0", None, None, True)], path)
        text = path.read_text()
        assert "d1,b0,,,true" in text
