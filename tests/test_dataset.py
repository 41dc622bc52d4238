"""Generator, batch sampler, and aligned-rotation augmentation."""

import copy
import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from skyalign.dataset import (
    CrossViewDataset,
    BatchSampler,
    GenConfig,
    apply_aligned_rotation,
    generate,
    load_features,
    relevance_maps,
    save_features,
)
from skyalign.errors import BatchTooLarge, ConfigError, DataError
from oracles import LoopBatchSampler, loop_aligned_rotation
from skyalign.pose_geometry import LabelConfig, bin_of, generate_labels


def small_cfg(**over):
    base = dict(n_buildings=6, views_per_building=4, latent_dim=5,
                noise_sigma=0.3, fail_prob=0.0, seed=11, bins=8)
    base.update(over)
    return GenConfig(**base)


class TestGenerate:
    def test_counts_and_ids(self):
        feats, manifest = generate(small_cfg(n_buildings=2, views_per_building=3))
        assert len(feats) == 2 * (1 + 3)
        assert len(manifest) == len(feats)
        kinds = [f.kind for f in feats]
        assert kinds.count("sat") == 2 and kinds.count("drone") == 6
        assert len({f.view_id for f in feats}) == len(feats)

    def test_noise_free_structure(self):
        cfg = small_cfg(noise_sigma=0.0)
        feats, _ = generate(cfg)
        by_building = {}
        for f in feats:
            by_building.setdefault(f.building_id, []).append(f)
        for views in by_building.values():
            sat = next(f for f in views if f.kind == "sat")
            latent = sat.input_vector[:cfg.latent_dim]
            assert np.linalg.norm(latent) == pytest.approx(1.0, abs=1e-12)
            assert sat.input_vector[-2:] == pytest.approx([1.0, 0.0])
            for f in views:
                if f.kind == "drone":
                    # same latent, orientation block encodes the azimuth
                    assert np.array_equal(f.input_vector[:cfg.latent_dim], latent)
                    rad = math.radians(f.angle_deg)
                    assert f.input_vector[-2] == pytest.approx(math.cos(rad), abs=1e-12)
                    assert f.input_vector[-1] == pytest.approx(math.sin(rad), abs=1e-12)

    def test_fail_prob_one_masks_every_drone(self):
        feats, manifest = generate(small_cfg(fail_prob=1.0))
        assert all(f.masked for f in feats if f.kind == "drone")
        labels = generate_labels(manifest, LabelConfig(8))
        assert all(lab.masked for lab in labels)

    def test_mask_count_default_dataset(self):
        # binomial(2000, 0.1): 140-260 is a 4.5-sigma window; the seeded run
        # gives exactly 206
        feats, _ = generate(GenConfig(200, 10, 32, 0.5, 0.1, 1, 8))
        masked = sum(1 for f in feats if f.masked)
        assert masked == 206
        assert 140 <= masked <= 260

    @pytest.mark.parametrize("seed", range(4))
    def test_manifest_reproduces_bins(self, seed):
        cfg = small_cfg(seed=seed, noise_sigma=0.7, fail_prob=0.2)
        feats, manifest = generate(cfg)
        labels = {lab.view_id: lab for lab in generate_labels(manifest, LabelConfig(cfg.bins))}
        for f in feats:
            if f.kind != "drone":
                continue
            lab = labels[f.view_id]
            assert lab.masked == f.masked
            if not f.masked:
                assert lab.azimuth_deg == f.angle_deg  # exact, not approx
                assert lab.bin == bin_of(f.angle_deg, LabelConfig(cfg.bins))

    def test_determinism_and_seed_sensitivity(self):
        a1, m1 = generate(small_cfg())
        a2, m2 = generate(small_cfg())
        assert m1 == m2
        for f, g in zip(a1, a2):
            assert f.view_id == g.view_id and np.array_equal(f.input_vector, g.input_vector)
        b, _ = generate(small_cfg(seed=12))
        assert not np.array_equal(a1[0].input_vector, b[0].input_vector)

    def test_per_building_substreams(self):
        # adding buildings must not disturb earlier buildings' draws
        small, _ = generate(small_cfg(n_buildings=3))
        large, _ = generate(small_cfg(n_buildings=6))
        for f, g in zip(small, large):
            assert f.view_id == g.view_id
            assert np.array_equal(f.input_vector, g.input_vector)
            assert f.angle_deg == g.angle_deg and f.masked == g.masked

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            small_cfg(n_buildings=1)
        with pytest.raises(ConfigError):
            small_cfg(fail_prob=1.5)
        with pytest.raises(ConfigError):
            small_cfg(noise_sigma=-0.1)


class TestDatasetViews:
    def test_from_features_groups_and_bins(self):
        cfg = small_cfg(fail_prob=0.3, seed=5)
        feats, _ = generate(cfg)
        ds = CrossViewDataset.from_features(feats, cfg.bins)
        assert ds.n_buildings == cfg.n_buildings
        assert ds.drone_inputs.shape == (cfg.n_buildings * cfg.views_per_building,
                                         cfg.latent_dim + 2)
        for i, masked in enumerate(ds.drone_masked):
            if masked:
                assert ds.drone_bins[i] == -1
            else:
                assert ds.drone_bins[i] == bin_of(ds.drone_azimuth_deg[i], ds.label_cfg)

    def test_load_matches_from_features(self, tmp_path):
        cfg = small_cfg(fail_prob=0.25, seed=9)
        feats, manifest = generate(cfg)
        path = tmp_path / "f.bin"
        save_features(feats, path)
        direct = CrossViewDataset.from_features(feats, cfg.bins)
        loaded = CrossViewDataset.load(path, manifest, cfg.bins)
        assert loaded.building_ids == direct.building_ids
        assert loaded.drone_view_ids == direct.drone_view_ids
        assert np.array_equal(loaded.drone_bins, direct.drone_bins)
        assert np.array_equal(loaded.drone_masked, direct.drone_masked)
        # stored vectors are float32; the in-memory ones are float64
        assert np.array_equal(loaded.drone_inputs,
                              direct.drone_inputs.astype(np.float32).astype(np.float64))

    def test_load_rebins_under_other_bin_count(self, tmp_path):
        cfg = small_cfg(seed=2)
        feats, manifest = generate(cfg)
        path = tmp_path / "f.bin"
        save_features(feats, path)
        coarse = CrossViewDataset.load(path, manifest, 4)
        fine = CrossViewDataset.load(path, manifest, 8)
        assert np.array_equal(coarse.drone_bins, fine.drone_bins // 2)

    def test_missing_view_in_manifest(self, tmp_path):
        feats, manifest = generate(small_cfg())
        path = tmp_path / "f.bin"
        save_features(feats, path)
        with pytest.raises(DataError):
            load_features(path, {})

    def test_with_mask_cleared(self):
        cfg = small_cfg(fail_prob=0.5, seed=21)
        feats, _ = generate(cfg)
        ds = CrossViewDataset.from_features(feats, cfg.bins)
        assert ds.drone_masked.any()
        clear = ds.with_mask_cleared()
        assert not clear.drone_masked.any()
        assert (clear.drone_bins >= 0).all()
        for i in range(len(clear.drone_bins)):
            assert clear.drone_bins[i] == bin_of(clear.drone_azimuth_deg[i], clear.label_cfg)
        # original untouched
        assert ds.drone_masked.any()

    def test_relevance_maps(self):
        feats, _ = generate(small_cfg(n_buildings=2, views_per_building=3))
        d2s, s2d = relevance_maps(feats)
        assert len(d2s) == 6 and len(s2d) == 2
        assert d2s["b0000_d01"] == {"b0000_sat"}
        assert s2d["b0001_sat"] == {"b0001_d00", "b0001_d01", "b0001_d02"}


class TestBatchSampler:
    def _dataset(self, **over):
        cfg = small_cfg(**over)
        feats, _ = generate(cfg)
        return CrossViewDataset.from_features(feats, cfg.bins)

    def test_batch_shape_and_distinct_buildings(self):
        ds = self._dataset()
        sampler = BatchSampler(ds, 4, np.random.default_rng(0))
        batch = sampler.sample_batch()
        assert batch.size == 4
        buildings = ds.drone_building_idx[batch.drone_rows]
        assert len(set(buildings.tolist())) == 4
        assert batch.sat_inputs.shape == batch.drone_inputs.shape
        # row i of both matrices belongs to the same building
        for i, b in enumerate(buildings):
            assert np.array_equal(batch.sat_inputs[i], ds.sat_inputs[b])
            assert np.array_equal(batch.drone_inputs[i], ds.drone_inputs[batch.drone_rows[i]])

    def test_full_batch_covers_every_building(self):
        ds = self._dataset()
        sampler = BatchSampler(ds, ds.n_buildings, np.random.default_rng(1))
        batch = sampler.sample_batch()
        assert sorted(ds.drone_building_idx[batch.drone_rows]) == list(range(ds.n_buildings))

    def test_epoch_partition(self):
        ds = self._dataset(n_buildings=10)
        sampler = BatchSampler(ds, 4, np.random.default_rng(3))
        assert sampler.batches_per_epoch == 3  # 4 + 4 + 2
        for _ in range(5):  # several epochs in a row
            seen = []
            for _ in range(sampler.batches_per_epoch):
                seen.extend(ds.drone_building_idx[sampler.sample_batch().drone_rows])
            assert sorted(seen) == list(range(ds.n_buildings))

    def test_singleton_tail_folds(self):
        ds = self._dataset(n_buildings=9)
        sampler = BatchSampler(ds, 4, np.random.default_rng(0))
        assert sampler.batches_per_epoch == 2
        sizes = sorted(sampler.sample_batch().size for _ in range(2))
        assert sizes == [4, 5]

    def test_batch_too_large(self):
        ds = self._dataset()
        with pytest.raises(BatchTooLarge):
            BatchSampler(ds, ds.n_buildings + 1, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            BatchSampler(ds, 1, np.random.default_rng(0))

    def test_determinism(self):
        ds = self._dataset()
        a = BatchSampler(ds, 3, np.random.default_rng(42))
        b = BatchSampler(ds, 3, np.random.default_rng(42))
        for _ in range(7):
            ba, bb = a.sample_batch(), b.sample_batch()
            assert np.array_equal(ba.drone_rows, bb.drone_rows)

    def test_view_choice_uniform(self):
        # each building's drone views should be picked equally often in the
        # long run; chi-square over 10^4 epochs at alpha = 0.01
        cfg = small_cfg(n_buildings=2, views_per_building=5, seed=1)
        feats, _ = generate(cfg)
        ds = CrossViewDataset.from_features(feats, cfg.bins)
        sampler = BatchSampler(ds, 2, np.random.default_rng(123))
        counts = np.zeros(len(ds.drone_view_ids), dtype=np.int64)
        epochs = 10_000
        for _ in range(epochs):
            counts[sampler.sample_batch().drone_rows] += 1
        crit = stats.chi2.ppf(0.99, df=cfg.views_per_building - 1)
        for b in range(2):
            picks = counts[ds.drone_building_idx == b].tolist()
            assert sum(picks) == epochs
            expected = epochs / cfg.views_per_building
            chi2 = sum((p - expected) ** 2 / expected for p in picks)
            assert chi2 < crit

    def test_masked_rows_carry_sentinel(self):
        ds = self._dataset(fail_prob=0.5, seed=33)
        sampler = BatchSampler(ds, 6, np.random.default_rng(2))
        batch = sampler.sample_batch()
        assert batch.mask.any() and not batch.mask.all()
        for i in range(batch.size):
            if batch.mask[i]:
                assert batch.orientation_bins[i] == -1
                assert math.isnan(batch.relative_angle_deg[i])
            else:
                assert 0 <= batch.orientation_bins[i] < 8


class _ForcedRng:
    """Stand-in generator: rotate every row with a fixed step count."""

    def __init__(self, k):
        self.k = k

    def random(self, n):
        return np.zeros(n)

    def integers(self, low, high=None, size=None):
        return np.full(size, self.k)


class TestAlignedRotation:
    def _batch(self, **over):
        cfg = small_cfg(**over)
        feats, _ = generate(cfg)
        ds = CrossViewDataset.from_features(feats, cfg.bins)
        sampler = BatchSampler(ds, cfg.n_buildings, np.random.default_rng(5))
        return sampler.sample_batch(), LabelConfig(cfg.bins), ds

    def test_p_zero_is_identity(self):
        batch, cfg, _ = self._batch()
        out = apply_aligned_rotation(batch, np.random.default_rng(0), 0.0, cfg)
        assert np.array_equal(out.sat_inputs, batch.sat_inputs)
        assert np.array_equal(out.orientation_bins, batch.orientation_bins)
        assert out is not batch

    def test_forced_single_step(self):
        batch, _, _ = self._batch(bins=4)
        cfg = LabelConfig(4)
        out = apply_aligned_rotation(batch, _ForcedRng(1), 1.0, cfg)
        for i in range(batch.size):
            # satellite orientation block advanced one bin width (90 deg)
            assert out.sat_angle_deg[i] == pytest.approx(90.0)
            assert out.sat_inputs[i, -2] == pytest.approx(math.cos(math.radians(90)), abs=1e-12)
            assert out.sat_inputs[i, -1] == pytest.approx(1.0, abs=1e-12)
            if not batch.mask[i]:
                assert out.orientation_bins[i] == (batch.orientation_bins[i] + 1) % 4

    def test_masked_label_stays_sentinel(self):
        batch, cfg, _ = self._batch(fail_prob=1.0)
        out = apply_aligned_rotation(batch, _ForcedRng(2), 1.0, cfg)
        assert (out.orientation_bins == -1).all()
        assert (out.sat_angle_deg > 0).all()  # features still rotated

    def test_input_batch_untouched(self):
        batch, cfg, _ = self._batch()
        before = batch.sat_inputs.copy()
        bins_before = batch.orientation_bins.copy()
        apply_aligned_rotation(batch, np.random.default_rng(9), 1.0, cfg)
        assert np.array_equal(batch.sat_inputs, before)
        assert np.array_equal(batch.orientation_bins, bins_before)

    @pytest.mark.parametrize("bins", [4, 8, 16])
    def test_rotation_soundness(self, bins):
        # after any number of augmentations, the label still bins the true
        # relative orientation (drone azimuth minus satellite rotation)
        batch, cfg, ds = self._batch(bins=bins, fail_prob=0.2, seed=17)
        rng = np.random.default_rng(99)
        for _ in range(3):  # stack several rotations
            batch = apply_aligned_rotation(batch, rng, 0.8, cfg)
        for i in range(batch.size):
            if batch.mask[i]:
                continue
            rotation = (-batch.sat_angle_deg[i]) % 360.0
            relative = (ds.drone_azimuth_deg[batch.drone_rows[i]] - rotation) % 360.0
            label = batch.orientation_bins[i]
            width = cfg.bin_width_deg
            assert label * width <= relative < (label + 1) * width
            assert relative == pytest.approx(batch.relative_angle_deg[i] % 360.0, abs=1e-9)


def _uneven_dataset(seed, max_views, fail_prob=0.3, bins=8):
    """Ten buildings keeping 1..max_views drone views each."""
    cfg = small_cfg(n_buildings=10, views_per_building=max_views, seed=seed,
                    fail_prob=fail_prob, bins=bins)
    feats, _ = generate(cfg)
    keep = np.random.default_rng(seed).integers(1, max_views + 1, size=cfg.n_buildings)
    kept, seen = [], {}
    for f in feats:
        if f.kind == "drone":
            seen[f.building_id] = seen.get(f.building_id, 0) + 1
            if seen[f.building_id] > keep[int(f.building_id[1:])]:
                continue
        kept.append(f)
    return CrossViewDataset.from_features(kept, bins)


def _assert_same(got, want):
    for field in dataclasses.fields(got):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a.dtype == b.dtype, field.name
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), field.name


class TestMatchesLoopForms:
    """Sampler and rotation equal their per-row loop forms exactly: same
    arrays and the same generator state afterwards."""

    @pytest.mark.parametrize("max_views", [1, 14])
    def test_sampler(self, max_views):
        for seed in range(40):
            ds = _uneven_dataset(seed, max_views)
            size = int(np.random.default_rng(seed).integers(2, ds.n_buildings + 1))
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            mine = BatchSampler(ds, size, rng_a)
            ref = LoopBatchSampler(ds, size, rng_b)
            for _ in range(2 * mine.batches_per_epoch + 1):
                _assert_same(mine.sample_batch(), ref.sample_batch())
                assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("bins", [2, 4, 8, 16, 32])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_rotation(self, bins, p):
        cfg = LabelConfig(bins)
        for seed in range(20):
            ds = _uneven_dataset(seed, 5, bins=bins)
            batch = BatchSampler(ds, ds.n_buildings, np.random.default_rng(seed)).sample_batch()
            single = np.zeros(batch.size, dtype=bool)
            single[seed % batch.size] = True
            for mask in (batch.mask, single, ~single):
                start = dataclasses.replace(
                    batch, mask=mask,
                    orientation_bins=np.where(mask, -1, ds.drone_bins[batch.drone_rows]),
                    relative_angle_deg=np.where(mask, np.nan,
                                                ds.drone_azimuth_deg[batch.drone_rows]))
                untouched = copy.deepcopy(start)
                rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
                mine = ref = start
                for _ in range(3):  # stacked rotations start from nonzero angles
                    mine = apply_aligned_rotation(mine, rng_a, p, cfg)
                    ref = loop_aligned_rotation(ref, rng_b, p, cfg)
                    _assert_same(mine, ref)
                    assert rng_a.bit_generator.state == rng_b.bit_generator.state
                _assert_same(start, untouched)
