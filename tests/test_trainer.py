"""Trainer tests: schedule shape, AdamW identities against a reference
implementation, determinism, and the monotone-improvement smoke on the
bundled default dataset."""

import math

import numpy as np
import pytest

import gradcheck
from oracles import (
    FIELDS,
    FieldOptimizerState,
    FieldParams,
    field_adamw_step,
    field_forward_backward,
)
from skyalign.dataset import CrossViewDataset, GenConfig, generate
from skyalign.errors import NonFiniteLoss
from skyalign.model import ModelParams, forward_backward, init, load_checkpoint, save_checkpoint
from skyalign.objectives import LossConfig
from skyalign.trainer import (
    OptimizerState,
    TrainConfig,
    TrainLogRow,
    adamw_step,
    lr_at,
    read_train_log,
    train,
    write_train_log,
)


def small_dataset(n_buildings=10, views=3, seed=5, fail_prob=0.0, bins=8):
    return CrossViewDataset(*generate(GenConfig(n_buildings, views, 6, 0.3, fail_prob, seed, bins)),
                            bins)


def tiny_params(value=1.0, head_rows=4):
    """1x1-ish parameter set so update arithmetic is checkable by hand."""
    return ModelParams(
        W1=np.full((1, 3), value),
        b1=np.full(1, value),
        W2=np.full((1, 1), value),
        b2=np.full(1, value),
        head_W=np.full((head_rows, 2), value),
        head_b=np.full(head_rows, value),
        temperature=0.07,
    )


def tiny_grads(value=0.0, head_rows=4, tau_grad=0.0):
    return ModelParams(
        W1=np.full((1, 3), value),
        b1=np.full(1, value),
        W2=np.full((1, 1), value),
        b2=np.full(1, value),
        head_W=np.full((head_rows, 2), value),
        head_b=np.full(head_rows, value),
        temperature=tau_grad,
    )


class TestLrSchedule:
    CFG = TrainConfig(peak_lr=0.2, warmup_frac=0.10)

    def test_zero_at_step_zero_with_warmup(self):
        assert lr_at(0, 80, self.CFG) == 0.0

    def test_peak_at_warmup_end(self):
        # round(0.1 * 80) = 8
        assert lr_at(8, 80, self.CFG) == pytest.approx(0.2, abs=1e-15)

    def test_zero_at_final_step(self):
        assert lr_at(80, 80, self.CFG) == pytest.approx(0.0, abs=1e-15)

    def test_half_peak_at_cosine_midpoint(self):
        # midpoint of the decay span 8..80 is step 44
        assert lr_at(44, 80, self.CFG) == pytest.approx(0.1, abs=1e-15)

    def test_linear_during_warmup(self):
        for step in range(8):
            assert lr_at(step, 80, self.CFG) == pytest.approx(0.2 * step / 8, abs=1e-15)

    def test_monotone_rise_then_fall(self):
        vals = [lr_at(s, 80, self.CFG) for s in range(81)]
        assert all(b >= a for a, b in zip(vals[:8], vals[1:9]))
        assert all(b <= a for a, b in zip(vals[8:-1], vals[9:]))

    def test_no_warmup_starts_at_peak(self):
        cfg = TrainConfig(peak_lr=0.5, warmup_frac=0.0)
        assert lr_at(0, 10, cfg) == pytest.approx(0.5)

    def test_out_of_range_step_rejected(self):
        with pytest.raises(ValueError):
            lr_at(-1, 80, self.CFG)
        with pytest.raises(ValueError):
            lr_at(81, 80, self.CFG)


class TestAdamWStep:
    def test_first_step_hand_value(self):
        # theta=1, g=1, lr=0.1, wd=0: bias-corrected m_hat=v_hat=1,
        # update = 1/(1+eps), theta' = 1 - 0.1/(1+1e-8)
        params = tiny_params(1.0)
        grads = tiny_grads(1.0)
        cfg = TrainConfig(weight_decay=0.0)
        adamw_step(params, grads, OptimizerState.fresh(params), 0.1, cfg)
        expected = 1.0 - 0.1 / (1.0 + 1e-8)
        assert params.W1[0, 0] == pytest.approx(expected, abs=1e-15)

    def test_pure_decay_when_gradient_zero(self):
        # g=0 keeps moments at zero, so only decoupled decay moves matrices:
        # theta' = theta * (1 - lr*wd) = 0.999
        params = tiny_params(1.0)
        cfg = TrainConfig(weight_decay=0.01)
        adamw_step(params, tiny_grads(0.0), OptimizerState.fresh(params), 0.1, cfg)
        assert params.W1[0, 0] == pytest.approx(0.999, abs=1e-15)
        assert params.W2[0, 0] == pytest.approx(0.999, abs=1e-15)
        assert params.head_W[0, 0] == pytest.approx(0.999, abs=1e-15)

    def test_biases_never_decayed(self):
        params = tiny_params(1.0)
        cfg = TrainConfig(weight_decay=0.01)
        adamw_step(params, tiny_grads(0.0), OptimizerState.fresh(params), 0.1, cfg)
        assert params.b1[0] == 1.0
        assert params.b2[0] == 1.0
        assert params.head_b[0] == 1.0

    def test_temperature_frozen_by_default(self):
        params = tiny_params(1.0)
        grads = tiny_grads(0.0, tau_grad=3.0)
        adamw_step(params, grads, OptimizerState.fresh(params), 0.1, TrainConfig())
        assert params.temperature == 0.07

    def test_temperature_trained_when_enabled(self):
        params = tiny_params(1.0)
        grads = tiny_grads(0.0, tau_grad=1.0)
        cfg = TrainConfig(train_temperature=True, weight_decay=0.01)
        adamw_step(params, grads, OptimizerState.fresh(params), 0.1, cfg)
        # same first-step algebra as any scalar: tau' = tau - lr/(1+eps)
        assert params.temperature == pytest.approx(0.07 - 0.1 / (1.0 + 1e-8), abs=1e-15)

    def test_temperature_never_decayed(self):
        params = tiny_params(1.0)
        cfg = TrainConfig(train_temperature=True, weight_decay=0.5)
        adamw_step(params, tiny_grads(0.0), OptimizerState.fresh(params), 0.1, cfg)
        assert params.temperature == 0.07

    def test_matches_reference_adam_when_decay_zero(self):
        """Five steps against a standalone Adam written directly from the
        update equations, on every parameter field."""
        rng = np.random.default_rng(7)
        params = tiny_params(0.5)
        cfg = TrainConfig(weight_decay=0.0)
        names = ("W1", "b1", "W2", "b2", "head_W", "head_b")
        ref = {n: getattr(params, n).astype(float).copy() for n in names}
        m = {n: np.zeros_like(ref[n]) for n in names}
        v = {n: np.zeros_like(ref[n]) for n in names}
        state = OptimizerState.fresh(params)
        for t in range(1, 6):
            grads = tiny_grads(0.0)
            for n in names:
                g = rng.normal(size=ref[n].shape)
                getattr(grads, n)[...] = g
                m[n] = 0.9 * m[n] + 0.1 * g
                v[n] = 0.999 * v[n] + 0.001 * g * g
                mh = m[n] / (1.0 - 0.9 ** t)
                vh = v[n] / (1.0 - 0.999 ** t)
                ref[n] = ref[n] - 0.05 * mh / (np.sqrt(vh) + 1e-8)
            adamw_step(params, grads, state, 0.05, cfg)
        for n in names:
            np.testing.assert_allclose(getattr(params, n), ref[n], rtol=0, atol=1e-12)

    def test_two_step_bias_correction(self):
        # constant g=1, lr=0.1, wd=0. Closed form after step 2:
        # m2 = 0.19, v2 = 0.001999, m_hat = 1, v_hat = 1 exactly.
        params = tiny_params(1.0)
        cfg = TrainConfig(weight_decay=0.0)
        state = OptimizerState.fresh(params)
        adamw_step(params, tiny_grads(1.0), state, 0.1, cfg)
        adamw_step(params, tiny_grads(1.0), state, 0.1, cfg)
        expected = 1.0 - 2 * (0.1 / (1.0 + 1e-8))
        assert params.W1[0, 0] == pytest.approx(expected, abs=1e-12)


class TestFlatParameterVector:
    """The flat-vector forward_backward and adamw_step against the per-field
    references in oracles, bit for bit, and the fields staying views of flat."""

    @pytest.mark.parametrize("mode", ["classification", "regression", "none"])
    @pytest.mark.parametrize("train_temperature", [False, True], ids=["tau-fixed", "tau-trained"])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_fifty_steps_bit_identical_to_per_field(self, mode, train_temperature,
                                                    weight_decay):
        rng = np.random.default_rng(41)
        m, h, e, bins = 6, 10, 8, 8
        loss = LossConfig(smoothing=0.1, orientation_mode=mode, bins=bins)
        cfg = TrainConfig(weight_decay=weight_decay, train_temperature=train_temperature,
                          loss=loss)
        params = init(rng, m, h, e, 2 if mode == "regression" else bins)
        ref = FieldParams.copy_of(params)
        state, ref_state = OptimizerState.fresh(params), FieldOptimizerState.fresh(ref)
        masked = 0
        for _ in range(50):
            batch = gradcheck.make_batch(rng, 12, m, bins, mask_frac=0.3)
            masked += int(batch.mask.sum())
            lr = float(rng.uniform(0.0, 0.05))
            total, grads, parts = forward_backward(params, batch, loss)
            ref_total, ref_grads, ref_parts = field_forward_backward(ref, batch, loss)
            assert (total, parts) == (ref_total, ref_parts)
            assert grads.flat.tobytes() == ref_grads.concatenated().tobytes()
            assert grads.temperature == ref_grads.temperature
            adamw_step(params, grads, state, lr, cfg)
            field_adamw_step(ref, ref_grads, ref_state, lr, cfg)
            assert params.flat.tobytes() == ref.concatenated().tobytes()
            assert params.temperature == ref.temperature
        assert masked > 0
        assert (params.temperature != 0.07) == train_temperature
        for moment, ref_moment in ((state.m, ref_state.m), (state.v, ref_state.v)):
            assert moment.tobytes() == np.concatenate([ref_moment[n].ravel()
                                                       for n in FIELDS]).tobytes()

    @staticmethod
    def assert_views_of_flat(params):
        sizes = 0
        for name in FIELDS:
            view = getattr(params, name)
            assert np.shares_memory(view, params.flat), name
            sizes += view.size
        assert sizes == params.flat.size
        assert np.array_equal(np.concatenate([getattr(params, n).ravel() for n in FIELDS]),
                              params.flat)

    def test_fields_stay_views_of_flat(self, tmp_path):
        params = init(np.random.default_rng(3), 4, 5, 3, 8)
        self.assert_views_of_flat(params)
        path = tmp_path / "c.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        self.assert_views_of_flat(loaded)
        grads = loaded.like(np.ones(loaded.flat.size), 0.0)
        self.assert_views_of_flat(grads)
        before = loaded.W1.copy()
        adamw_step(loaded, grads, OptimizerState.fresh(loaded), 0.1, TrainConfig())
        self.assert_views_of_flat(loaded)
        assert not np.array_equal(loaded.W1, before)  # the step moved W1 through flat

    def test_trained_fields_are_views_of_flat(self):
        params, _ = train(TrainConfig(peak_lr=1e-2, epochs=1, batch_size=4, seed=2),
                          small_dataset())
        self.assert_views_of_flat(params)


class TestTrainLoop:
    def test_step_count_and_lr_column(self):
        ds = small_dataset(10, 3)
        cfg = TrainConfig(peak_lr=1e-3, epochs=2, batch_size=4, seed=3)
        _, log = train(cfg, ds)
        assert len(log) == 2 * 3  # ceil(10/4) = 3 batches per epoch
        assert [r.step for r in log] == list(range(6))
        for r in log:
            assert r.lr == lr_at(r.step, 6, cfg)

    def test_bit_identical_reruns(self):
        ds = small_dataset()
        cfg = TrainConfig(peak_lr=1e-2, epochs=3, batch_size=4, seed=11)
        p1, log1 = train(cfg, ds)
        p2, log2 = train(cfg, ds)
        for name in ("W1", "b1", "W2", "b2", "head_W", "head_b"):
            assert np.array_equal(getattr(p1, name), getattr(p2, name))
        assert p1.temperature == p2.temperature
        assert [(r.loss_total, r.lr) for r in log1] == [(r.loss_total, r.lr) for r in log2]

    def test_seed_changes_run(self):
        ds = small_dataset()
        p1, _ = train(TrainConfig(peak_lr=1e-2, epochs=2, batch_size=4, seed=0), ds)
        p2, _ = train(TrainConfig(peak_lr=1e-2, epochs=2, batch_size=4, seed=1), ds)
        assert not np.array_equal(p1.W1, p2.W1)

    def test_zero_lr_leaves_init_untouched(self):
        ds = small_dataset()
        cfg = TrainConfig(peak_lr=0.0, epochs=2, batch_size=4, seed=9)
        params, _ = train(cfg, ds)
        expected = init(np.random.default_rng([9, 1]), ds.input_dim - 2,
                        cfg.hidden_dim, cfg.embed_dim, cfg.loss.bins)
        expected.temperature = cfg.loss.temperature
        for name in ("W1", "b1", "W2", "b2", "head_W", "head_b"):
            assert np.array_equal(getattr(params, name), getattr(expected, name))
        assert params.temperature == expected.temperature

    def test_mode_none_logs_zero_orientation(self):
        ds = small_dataset()
        loss = LossConfig(orientation_mode="none", bins=8)
        _, log = train(TrainConfig(peak_lr=1e-2, epochs=2, batch_size=4,
                                   seed=2, loss=loss), ds)
        assert all(r.loss_orientation == 0.0 for r in log)
        assert all(r.loss_total == r.loss_contrastive for r in log)

    def test_first_step_loss_independent_of_mode(self):
        # head rows match between classification and none, so the shared init
        # makes the first contrastive term identical before updates diverge
        ds = small_dataset()
        logs = {}
        for mode in ("classification", "none"):
            loss = LossConfig(orientation_mode=mode, bins=8)
            _, log = train(TrainConfig(peak_lr=1e-2, epochs=1, batch_size=4,
                                       seed=4, loss=loss), ds)
            logs[mode] = log
        assert logs["classification"][0].loss_contrastive == logs["none"][0].loss_contrastive

    def test_non_finite_input_aborts(self):
        ds = small_dataset()
        # satellite rows enter every batch containing the building, so the
        # poison is guaranteed to be seen in the first epoch
        ds.sat_inputs[0, 0] = np.nan
        with pytest.raises(NonFiniteLoss):
            train(TrainConfig(peak_lr=1e-2, epochs=1, batch_size=10, seed=0), ds)

    def test_trained_temperature_moves(self):
        ds = small_dataset()
        cfg = TrainConfig(peak_lr=1e-2, epochs=2, batch_size=4, seed=6,
                          train_temperature=True)
        params, _ = train(cfg, ds)
        assert params.temperature != 0.07
        assert params.temperature > 0


class TestDefaultRunSmoke:
    """Contrastive loss must improve over the bundled default run.

    Band constants recorded from the first calibrated run of this code
    (seed 0): first-epoch mean 5.1330, final-epoch mean 3.4856.
    """

    def test_final_epoch_beats_first(self):
        ds = CrossViewDataset(*generate(GenConfig(200, 10, 32, 0.5, 0.1, 1, 8)), 8)
        cfg = TrainConfig(peak_lr=0.01, epochs=20, batch_size=64, seed=0)
        _, log = train(cfg, ds)
        assert len(log) == 20 * 4
        per_epoch = [
            float(np.mean([r.loss_contrastive for r in log[i:i + 4]]))
            for i in range(0, len(log), 4)
        ]
        assert per_epoch[-1] < per_epoch[0]
        assert 5.0 < per_epoch[0] < 5.3
        assert 3.3 < per_epoch[-1] < 3.7


class TestTrainLogIO:
    def test_round_trip_exact(self, tmp_path):
        rows = [
            TrainLogRow(0, 0.0, 5.125, 5.0, 0.25),
            TrainLogRow(1, 1e-3, 4.9000000000000004, 4.7, 0.4000000000000001),
        ]
        path = tmp_path / "log.csv"
        write_train_log(rows, path)
        back = read_train_log(path)
        assert back == rows

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("step,lr\n0,0.1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_train_log(path)
