"""Encoder, orientation head, analytic gradients, checkpoints."""

import numpy as np
import pytest

import gradcheck
from oracles import FIELDS
from skyalign import binio, model
from skyalign.errors import NormDegenerate, NumericError
from skyalign.model import (
    ModelParams,
    encode,
    forward_backward,
    init,
    load_checkpoint,
    orientation_logits,
    save_checkpoint,
)
from skyalign.objectives import LossConfig


def make_params(seed=0, m=4, h=8, e=4, head_rows=8):
    return init(np.random.default_rng(seed), m, h, e, head_rows)


class TestInit:
    def test_bounds_and_biases(self):
        p = make_params()
        for w, fan in ((p.W1, 8 + 6), (p.W2, 4 + 8), (p.head_W, 8 + 8)):
            s = np.sqrt(6.0 / fan)
            assert np.abs(w).max() <= s
        assert np.all(p.b1 == 0.0) and np.all(p.b2 == 0.0) and np.all(p.head_b == 0.0)
        assert p.temperature == 0.07

    def test_seed_determinism(self):
        a, b = make_params(3), make_params(3)
        assert np.array_equal(a.W1, b.W1) and np.array_equal(a.head_W, b.head_W)
        c = make_params(4)
        assert not np.array_equal(a.W1, c.W1)

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            init(np.random.default_rng(0), 0, 4, 4, 4)


class TestEncode:
    def test_unit_norms(self):
        p = make_params()
        x = np.random.default_rng(1).standard_normal((10, 6))
        emb = encode(p, x)
        assert emb.shape == (10, 4)
        assert np.abs(np.linalg.norm(emb, axis=1) - 1.0).max() < 1e-6

    def test_scaled_input_still_unit(self):
        p = make_params()
        p.b1[:] = 0.0
        p.b2[:] = 0.0
        x = np.random.default_rng(2).standard_normal((5, 6))
        # relu is positively homogeneous, so with zero biases scaling the
        # input rescales pre-norm outputs and normalization removes it
        a = encode(p, x)
        b = encode(p, 3.0 * x)
        assert np.allclose(a, b, atol=1e-12)
        assert np.abs(np.linalg.norm(b, axis=1) - 1.0).max() < 1e-6

    def test_permutation_equivariance_and_duplicates(self):
        p = make_params()
        x = np.random.default_rng(3).standard_normal((6, 6))
        x[4] = x[1]
        emb = encode(p, x)
        assert np.array_equal(emb[4], emb[1])
        perm = np.array([3, 0, 5, 1, 2, 4])
        assert np.array_equal(encode(p, x[perm]), emb[perm])

    def test_shared_weights_between_branches(self):
        # both views run through the one parameter set: identical inputs
        # produce bit-identical embeddings regardless of which side they
        # arrive on
        p = make_params()
        x = np.random.default_rng(4).standard_normal((4, 6))
        assert np.array_equal(encode(p, x), encode(p, x))

    def test_degenerate_norm_raises(self):
        p = make_params()
        p.W1[:] = 0.0
        p.b1[:] = 0.0
        p.W2[:] = 0.0
        p.b2[:] = 0.0
        with pytest.raises(NormDegenerate):
            encode(p, np.ones((2, 6)))

    def test_equal_blocks_match_one_forward_call(self, monkeypatch):
        # 2 049 rows in 1 024-row blocks would leave a lone row, which goes
        # through gemv and can change bits; equal blocks of 683 give the bits
        # of one _forward call over every row
        p = init(np.random.default_rng(5), 64, 128, 64, 8)
        x = np.random.default_rng(6).standard_normal((2_049, 66), dtype=np.float32)
        whole, _ = model._forward(p, x.astype(float))
        rows = []
        forward = model._forward

        def spy(params, block, first_row=0):
            rows.append(len(block))
            return forward(params, block, first_row)

        monkeypatch.setattr(model, "_forward", spy)
        emb = encode(p, x)
        assert rows == [683, 683, 683]
        assert emb.dtype == np.float64 and emb.tobytes() == whole.tobytes()

    def test_degenerate_row_is_numbered_in_the_whole_input(self):
        # zero biases map a zero input row to a zero embedding before norming
        p = init(np.random.default_rng(5), 64, 128, 64, 8)
        x = np.random.default_rng(6).standard_normal((2_049, 66))
        x[1_500] = 0.0
        with pytest.raises(NormDegenerate, match="pre-normalization row 1500 has norm"):
            encode(p, x)


class TestOrientationLogits:
    def test_zero_head(self):
        p = make_params()
        p.head_W[:] = 0.0
        p.head_b[:] = 0.0
        out = orientation_logits(p, np.ones((3, 4)), np.ones((3, 4)))
        assert np.array_equal(out, np.zeros((3, 8)))

    def test_empty_batch(self):
        p = make_params()
        out = orientation_logits(p, np.empty((0, 4)), np.empty((0, 4)))
        assert out.shape == (0, 8)

    def test_rowwise_permutation(self):
        p = make_params()
        rng = np.random.default_rng(5)
        es, ed = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
        out = orientation_logits(p, es, ed)
        perm = np.array([2, 0, 3, 1])
        assert np.allclose(orientation_logits(p, es[perm], ed[perm]), out[perm])

    def test_satellite_half_comes_first(self):
        p = make_params()
        p.head_b[:] = 0.0
        p.head_W[:] = 0.0
        p.head_W[0, 0] = 1.0   # reads satellite coordinate 0
        p.head_W[1, 4] = 1.0   # reads drone coordinate 0
        es = np.array([[0.5, 0, 0, 0.0]])
        ed = np.array([[0.25, 0, 0, 0.0]])
        out = orientation_logits(p, es, ed)
        assert out[0, 0] == 0.5 and out[0, 1] == 0.25


class TestForwardBackward:
    def test_mode_none_leaves_head_untouched(self):
        rng = np.random.default_rng(6)
        params = make_params()
        batch = gradcheck.make_batch(rng, 3, 4, 8)
        cfg = LossConfig(orientation_mode="none", bins=8)
        total, grads, (l_con, l_orient) = forward_backward(params, batch, cfg)
        assert l_orient == 0.0 and total == l_con
        assert np.all(grads.head_W == 0.0) and np.all(grads.head_b == 0.0)

    def test_loss_invariant_to_row_order(self):
        rng = np.random.default_rng(7)
        params = make_params()
        batch = gradcheck.make_batch(rng, 4, 4, 8)
        cfg = LossConfig(bins=8)
        base, _, _ = forward_backward(params, batch, cfg)
        perm = np.array([2, 0, 3, 1])
        import dataclasses
        permuted = dataclasses.replace(
            batch,
            sat_inputs=batch.sat_inputs[perm],
            drone_inputs=batch.drone_inputs[perm],
            drone_rows=batch.drone_rows[perm],
            orientation_bins=batch.orientation_bins[perm],
            mask=batch.mask[perm],
            sat_angle_deg=batch.sat_angle_deg[perm],
            relative_angle_deg=batch.relative_angle_deg[perm],
        )
        again, _, _ = forward_backward(params, permuted, cfg)
        assert again == pytest.approx(base, abs=1e-12)

    def test_duplicated_rows_smoke(self):
        rng = np.random.default_rng(8)
        params = make_params()
        batch = gradcheck.make_batch(rng, 2, 4, 8, mask_frac=0.0)
        import dataclasses
        doubled = dataclasses.replace(
            batch,
            sat_inputs=np.vstack([batch.sat_inputs, batch.sat_inputs]),
            drone_inputs=np.vstack([batch.drone_inputs, batch.drone_inputs]),
            drone_rows=np.arange(4),
            orientation_bins=np.concatenate([batch.orientation_bins] * 2),
            mask=np.concatenate([batch.mask] * 2),
            sat_angle_deg=np.concatenate([batch.sat_angle_deg] * 2),
            relative_angle_deg=np.concatenate([batch.relative_angle_deg] * 2),
        )
        total, grads, _ = forward_backward(params, doubled, LossConfig(bins=8))
        assert np.isfinite(total)
        for name in ("W1", "b1", "W2", "b2", "head_W", "head_b"):
            assert np.isfinite(getattr(grads, name)).all()

    @pytest.mark.parametrize("mode", ["classification", "regression", "none"])
    def test_gradients_match_finite_differences(self, mode):
        rng = np.random.default_rng(100)
        for _ in range(8):
            count, failures = gradcheck.check_config(rng, mode)
            assert count > 0
            assert not failures, failures[:3]

    @pytest.mark.parametrize("mode", ["classification", "regression", "none"])
    def test_gradients_match_finite_differences_below_one_exp_range(self, mode):
        # tau = 0.001 < 0.003 takes InfoNCE's per-row and per-column shifts
        rng = np.random.default_rng(101)
        for _ in range(8):
            count, failures = gradcheck.check_config(rng, mode, temperature=0.001)
            assert count > 0
            assert not failures, failures[:3]


class TestCheckpoint:
    def test_round_trip_float32_exact(self, tmp_path):
        params = make_params(seed=9, m=3, h=5, e=4, head_rows=6)
        params.temperature = 0.1234
        path = tmp_path / "c.ckpt"
        save_checkpoint(params, path)
        back = load_checkpoint(path)
        for name in ("W1", "b1", "W2", "b2", "head_W", "head_b"):
            stored = getattr(params, name).astype(np.float32)
            assert np.array_equal(getattr(back, name), stored.astype(np.float64))
        assert back.temperature == np.float32(0.1234)
        assert back.head_rows == 6 and back.input_dim == 5 and back.embed_dim == 4

    def test_second_save_byte_identical(self, tmp_path):
        params = make_params(seed=10)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params, a)
        save_checkpoint(load_checkpoint(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_bytes_equal_six_array_write(self, tmp_path):
        params = make_params(seed=11, m=3, h=5, e=4, head_rows=2)
        params.temperature = 0.0911
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params, a)
        binio.write_checkpoint(b, (3, 5, 4, 2), [getattr(params, n) for n in FIELDS], 0.0911)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("which", [*FIELDS, "temperature"])
    @pytest.mark.parametrize("value", [1e39, -1e39, np.nan])
    def test_beyond_float32_not_saved(self, tmp_path, which, value):
        params = make_params(seed=12)
        if which == "temperature":
            params.temperature = value
        else:
            getattr(params, which).flat[-1] = value
        path = tmp_path / "c.ckpt"
        with pytest.raises(NumericError, match="not finite as float32"):
            save_checkpoint(params, path)
        assert not path.exists()

    def test_float32_max_saved(self, tmp_path):
        params = make_params(seed=13)
        top = float(np.finfo(np.float32).max)
        params.W2[0, 0] = -top
        params.temperature = top
        path = tmp_path / "c.ckpt"
        save_checkpoint(params, path)
        back = load_checkpoint(path)
        assert back.W2[0, 0] == -top and back.temperature == top
