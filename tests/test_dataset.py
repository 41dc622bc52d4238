"""Generator, batch sampler, and aligned-rotation augmentation."""

import copy
import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from skyalign import binio
from skyalign.binio import Views
from skyalign.dataset import (
    CrossViewDataset,
    BatchSampler,
    GenConfig,
    apply_aligned_rotation,
    generate,
    relevance_maps,
)
from skyalign.errors import BatchTooLarge, ConfigError, DataError
from oracles import (
    LoopBatchSampler,
    ObjectDataset,
    generate_objects,
    loop_aligned_rotation,
    records_of,
    save_features,
)
from skyalign.pose_geometry import MASKED_BIN, LabelConfig, bin_of, generate_labels


def small_cfg(**over):
    base = dict(n_buildings=6, views_per_building=4, latent_dim=5,
                noise_sigma=0.3, fail_prob=0.0, seed=11, bins=8)
    base.update(over)
    return GenConfig(**base)


def take(views, rows):
    """The rows of a view table, in the given order."""
    return Views([views.ids[r] for r in rows], *(col[rows] for col in views[1:]))


def drone_rows(views):
    return np.flatnonzero(views.kinds == binio.KIND_DRONE_CODE)


class TestGenerate:
    def test_counts_and_ids(self):
        views, manifest = generate(small_cfg(n_buildings=2, views_per_building=3))
        assert len(views.ids) == 2 * (1 + 3)
        assert len(manifest.view_ids) == len(views.ids) == len(manifest.xyz)
        kinds = views.kinds.tolist()
        assert kinds.count(binio.KIND_SAT_CODE) == 2 and kinds.count(binio.KIND_DRONE_CODE) == 6
        assert len(set(views.ids)) == len(views.ids)
        assert manifest.view_ids == views.ids

    def test_noise_free_structure(self):
        cfg = small_cfg(noise_sigma=0.0)
        views, manifest = generate(cfg)
        by_building = {}
        for row, bid in enumerate(manifest.building_ids):
            by_building.setdefault(bid, []).append(row)
        for rows in by_building.values():
            sat = next(r for r in rows if views.kinds[r] == binio.KIND_SAT_CODE)
            latent = views.vectors[sat, :cfg.latent_dim]
            assert np.linalg.norm(latent) == pytest.approx(1.0, abs=1e-12)
            assert views.vectors[sat, -2:] == pytest.approx([1.0, 0.0])
            assert views.azimuths[sat] == 0.0
            for r in rows:
                if views.kinds[r] == binio.KIND_DRONE_CODE:
                    # same latent, orientation block encodes the azimuth
                    assert np.array_equal(views.vectors[r, :cfg.latent_dim], latent)
                    rad = math.radians(views.azimuths[r])
                    assert views.vectors[r, -2] == pytest.approx(math.cos(rad), abs=1e-12)
                    assert views.vectors[r, -1] == pytest.approx(math.sin(rad), abs=1e-12)

    def test_fail_prob_one_masks_every_drone(self):
        views, manifest = generate(small_cfg(fail_prob=1.0))
        assert views.masked[drone_rows(views)].all()
        labels = generate_labels(manifest, LabelConfig(8))
        assert (labels.bin == MASKED_BIN).all() and np.isnan(labels.azimuth_deg).all()

    def test_mask_count_default_dataset(self):
        # binomial(2000, 0.1): 140-260 is a 4.5-sigma window; the seeded run
        # gives exactly 206
        views, _ = generate(GenConfig(200, 10, 32, 0.5, 0.1, 1, 8))
        masked = int(views.masked.sum())
        assert masked == 206
        assert 140 <= masked <= 260

    @pytest.mark.parametrize("seed", range(4))
    def test_manifest_reproduces_bins(self, seed):
        cfg = small_cfg(seed=seed, noise_sigma=0.7, fail_prob=0.2)
        views, manifest = generate(cfg)
        labels = generate_labels(manifest, LabelConfig(cfg.bins))
        at = {view_id: i for i, view_id in enumerate(labels.view_ids)}
        for row in drone_rows(views):
            i = at[views.ids[row]]
            assert (labels.bin[i] == MASKED_BIN) == views.masked[row]
            if not views.masked[row]:
                assert labels.azimuth_deg[i] == views.azimuths[row]  # exact, not approx
                assert labels.bin[i] == bin_of(views.azimuths[row], LabelConfig(cfg.bins))

    def test_determinism_and_seed_sensitivity(self):
        a1, m1 = generate(small_cfg())
        a2, m2 = generate(small_cfg())
        assert records_of(m1) == records_of(m2)
        assert a1.ids == a2.ids and np.array_equal(a1.vectors, a2.vectors)
        b, _ = generate(small_cfg(seed=12))
        assert not np.array_equal(a1.vectors[0], b.vectors[0])

    def test_per_building_substreams(self):
        # adding buildings must not disturb earlier buildings' draws
        small, _ = generate(small_cfg(n_buildings=3))
        large, _ = generate(small_cfg(n_buildings=6))
        n = len(small.ids)
        assert small.ids == large.ids[:n]
        assert np.array_equal(small.vectors, large.vectors[:n])
        assert np.array_equal(small.azimuths, large.azimuths[:n])
        assert np.array_equal(small.masked, large.masked[:n])

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
        ds = CrossViewDataset(*generate(cfg), cfg.bins)
        assert ds.n_buildings == cfg.n_buildings
        assert ds.drone_inputs.shape == (cfg.n_buildings * cfg.views_per_building,
                                         cfg.latent_dim + 2)
        for i, masked in enumerate(ds.drone_masked):
            if masked:
                assert ds.drone_bins[i] == -1
            else:
                assert ds.drone_bins[i] == bin_of(ds.drone_azimuth_deg[i], LabelConfig(cfg.bins))

    def test_load_matches_from_features(self, tmp_path):
        # the in-memory build from generate's views against the file build
        cfg = small_cfg(fail_prob=0.25, seed=9)
        views, manifest = generate(cfg)
        path = tmp_path / "f.bin"
        binio.write_features(path, *views)
        direct = CrossViewDataset(views, manifest, cfg.bins)
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
        views, manifest = generate(cfg)
        path = tmp_path / "f.bin"
        binio.write_features(path, *views)
        coarse = CrossViewDataset.load(path, manifest, 4)
        fine = CrossViewDataset.load(path, manifest, 8)
        assert np.array_equal(coarse.drone_bins, fine.drone_bins // 2)

    def test_missing_view_in_manifest(self, tmp_path):
        views, manifest = generate(small_cfg())
        path = tmp_path / "f.bin"
        binio.write_features(path, *views)
        no_rows = manifest._replace(view_ids=[], building_ids=[], is_sat=manifest.is_sat[:0],
                                    xyz=manifest.xyz[:0], ok=manifest.ok[:0])
        with pytest.raises(DataError, match="missing from manifest"):
            CrossViewDataset.load(path, no_rows, 8)

    @pytest.mark.parametrize("dim", [0, 1, 2])
    def test_no_latent_block_rejected(self, dim):
        views, manifest = generate(small_cfg())
        views = views._replace(vectors=views.vectors[:, :dim])
        with pytest.raises(DataError, match=f"have {dim} columns"):
            CrossViewDataset(views, manifest, 8)

    @pytest.mark.parametrize("unlisted,moved,message", [
        ("b0001_sat", "b0003_d01", "drone 'b0001_d00': no satellite for building 'b0001'"),
        ("b0004_sat", "b0002_d00", "drone 'b0002_d00' missing from manifest"),
    ])
    def test_first_faulty_drone_in_view_order_is_reported(self, unlisted, moved, message):
        # a view set without one satellite, and a manifest in which one drone
        # view is the satellite of a building of its own
        views, manifest = generate(small_cfg())
        row = manifest.view_ids.index(moved)
        is_sat = manifest.is_sat.copy()
        is_sat[row] = True
        manifest = manifest._replace(is_sat=is_sat, building_ids=[
            "b9999" if r == row else bid for r, bid in enumerate(manifest.building_ids)])
        views = take(views, [r for r, view_id in enumerate(views.ids) if view_id != unlisted])
        with pytest.raises(DataError) as err:
            CrossViewDataset(views, manifest, 8)
        assert str(err.value) == message

    def test_relevance_maps(self):
        _, manifest = generate(small_cfg(n_buildings=2, views_per_building=3))
        d2s, s2d = relevance_maps(manifest)
        assert len(d2s) == 6 and len(s2d) == 2
        assert d2s["b0000_d01"] == {"b0000_sat"}
        assert s2d["b0001_sat"] == {"b0001_d00", "b0001_d01", "b0001_d02"}


DATASET_FIELDS = ("building_ids", "sat_view_ids", "sat_inputs", "drone_inputs",
                  "drone_view_ids", "drone_building_idx", "drone_azimuth_deg",
                  "drone_masked", "drone_bins", "drone_order", "drone_counts")


def _assert_same_dataset(got, want):
    for name in DATASET_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, list):
            assert a == b, name
        else:
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name


class TestMatchesObjectForms:
    """The view table and the one dataset builder equal the object-form
    generator, from_features and load exactly, in memory and through a
    FEA1 file."""

    @pytest.mark.parametrize("bins", [2, 8, 16])
    @pytest.mark.parametrize("fail_prob", [0.0, 0.2, 1.0])
    def test_builder(self, tmp_path, fail_prob, bins):
        for seed in range(6):
            cfg = small_cfg(seed=seed, noise_sigma=0.7, fail_prob=fail_prob, bins=bins)
            views, manifest = generate(cfg)
            feats, ref_manifest = generate_objects(cfg)
            assert records_of(manifest) == ref_manifest
            assert views.ids == [f.view_id for f in feats]
            assert np.array_equal(views.vectors, np.stack([f.input_vector for f in feats]))
            assert np.array_equal(views.azimuths, [f.angle_deg for f in feats])
            assert np.array_equal(views.masked, [f.masked for f in feats])
            _assert_same_dataset(CrossViewDataset(views, manifest, bins),
                                 ObjectDataset.from_features(feats, bins))

            path, ref_path = tmp_path / f"{seed}.bin", tmp_path / f"{seed}_ref.bin"
            binio.write_features(path, *views)
            save_features(feats, ref_path)
            assert path.read_bytes() == ref_path.read_bytes()
            _assert_same_dataset(CrossViewDataset.load(path, manifest, bins),
                                 ObjectDataset.load(path, ref_manifest, bins))

    def test_manifest_is_the_only_labelling_authority(self, tmp_path):
        cfg = small_cfg(seed=3, fail_prob=0.3)
        views, manifest = generate(cfg)
        # the views' own mask and azimuth columns disagree with the manifest
        views = views._replace(masked=~views.masked, azimuths=np.full(len(views.ids), 123.0))
        flip = (np.arange(len(manifest.view_ids)) % 3 == 1) & ~manifest.is_sat
        manifest = manifest._replace(ok=manifest.ok & ~flip)
        path = tmp_path / "f.bin"
        binio.write_features(path, *views)
        loaded = CrossViewDataset.load(path, manifest, cfg.bins)
        _assert_same_dataset(loaded, ObjectDataset.load(path, records_of(manifest), cfg.bins))
        in_memory = CrossViewDataset(views, manifest, cfg.bins)
        labels = generate_labels(manifest, LabelConfig(cfg.bins))
        assert np.array_equal(in_memory.drone_masked, labels.bin == MASKED_BIN)
        assert np.array_equal(in_memory.drone_bins, loaded.drone_bins)
        assert np.array_equal(in_memory.drone_azimuth_deg, loaded.drone_azimuth_deg)


class TestBatchSampler:
    def _dataset(self, **over):
        cfg = small_cfg(**over)
        return CrossViewDataset(*generate(cfg), cfg.bins)

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
        ds = CrossViewDataset(*generate(cfg), cfg.bins)
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
        ds = CrossViewDataset(*generate(cfg), cfg.bins)
        sampler = BatchSampler(ds, cfg.n_buildings, np.random.default_rng(5))
        return sampler.sample_batch(), LabelConfig(cfg.bins), ds

    def test_p_zero_is_identity(self):
        batch, cfg, _ = self._batch()
        before = copy.deepcopy(batch)
        assert apply_aligned_rotation(batch, np.random.default_rng(0), 0.0, cfg) is None
        _assert_same(batch, before)

    def test_forced_single_step(self):
        batch, _, _ = self._batch(bins=4)
        cfg = LabelConfig(4)
        before = copy.deepcopy(batch)
        apply_aligned_rotation(batch, _ForcedRng(1), 1.0, cfg)
        for i in range(batch.size):
            # satellite orientation block advanced one bin width (90 deg)
            assert batch.sat_angle_deg[i] == pytest.approx(90.0)
            assert batch.sat_inputs[i, -2] == pytest.approx(math.cos(math.radians(90)), abs=1e-12)
            assert batch.sat_inputs[i, -1] == pytest.approx(1.0, abs=1e-12)
            if not batch.mask[i]:
                assert batch.orientation_bins[i] == (before.orientation_bins[i] + 1) % 4

    def test_masked_label_stays_sentinel(self):
        batch, cfg, _ = self._batch(fail_prob=1.0)
        apply_aligned_rotation(batch, _ForcedRng(2), 1.0, cfg)
        assert (batch.orientation_bins == -1).all()
        assert (batch.sat_angle_deg > 0).all()  # features still rotated

    def test_dataset_untouched(self):
        # rotation writes into the batch, so no batch array may be a view of the dataset
        batch, cfg, ds = self._batch(fail_prob=0.3)
        before = copy.deepcopy(vars(ds))
        apply_aligned_rotation(batch, np.random.default_rng(9), 1.0, cfg)
        assert batch.sat_angle_deg.all()
        for name, value in before.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(getattr(ds, name), value, equal_nan=True), name

    @pytest.mark.parametrize("bins", [4, 8, 16])
    def test_rotation_soundness(self, bins):
        # after any number of augmentations, the label still bins the true
        # relative orientation (drone azimuth minus satellite rotation)
        batch, cfg, ds = self._batch(bins=bins, fail_prob=0.2, seed=17)
        rng = np.random.default_rng(99)
        for _ in range(3):  # stack several rotations
            apply_aligned_rotation(batch, rng, 0.8, cfg)
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
    views, manifest = generate(cfg)
    keep = np.random.default_rng(seed).integers(1, max_views + 1, size=cfg.n_buildings)
    kept, seen = [], {}
    for row, (bid, is_sat) in enumerate(zip(manifest.building_ids, manifest.is_sat)):
        if not is_sat:
            seen[bid] = seen.get(bid, 0) + 1
            if seen[bid] > keep[int(bid[1:])]:
                continue
        kept.append(row)
    return CrossViewDataset(take(views, kept), manifest, bins)


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
                rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
                mine, ref = copy.deepcopy(start), start
                for _ in range(3):  # stacked rotations start from nonzero angles
                    apply_aligned_rotation(mine, rng_a, p, cfg)
                    ref = loop_aligned_rotation(ref, rng_b, p, cfg)
                    _assert_same(mine, ref)
                    assert rng_a.bit_generator.state == rng_b.bit_generator.state
