"""Loss functions against closed forms and term-by-term oracles."""

import math
import tracemalloc

import numpy as np
import pytest

import oracles
from skyalign import objectives
from skyalign.errors import AllMasked, ConfigError, DataError, NonFiniteLoss
from skyalign.objectives import (
    LossConfig,
    infonce_with_grad,
    joint,
    orientation_ce_with_grad,
    orientation_mse_with_grad,
    unit_circle_target,
)


def unit_rows(rng, n, e):
    m = rng.standard_normal((n, e))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


NO_MASK2 = np.zeros(2, dtype=bool)


class TestInfoNCE:
    def test_identity_similarity_closed_form(self):
        # S = I at tau=1, eps=0: every anchor's CE is ln(1 + e^-1... ) i.e.
        # -ln(e / (e + 1)) = ln(1 + 1/e), the same in both directions
        emb = np.eye(2)
        loss = infonce_with_grad(emb, emb, NO_MASK2, tau=1.0, eps=0.0)[0]
        expected = math.log(1.0 + math.exp(-1.0))
        assert loss == pytest.approx(expected, abs=1e-12)
        assert loss == pytest.approx(0.313262, abs=1e-6)

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            e = int(rng.integers(2, 6))
            emb_s = unit_rows(rng, n, e)
            emb_d = unit_rows(rng, n, e)
            mask = rng.random(n) < 0.3
            if mask.all():
                mask[int(rng.integers(n))] = False
            tau = float(rng.uniform(0.05, 2.0))
            eps = float(rng.choice([0.0, 0.1, 0.3]))
            got = infonce_with_grad(emb_s, emb_d, mask, tau, eps)[0]
            want = oracles.naive_infonce(emb_s.tolist(), emb_d.tolist(),
                                         mask.tolist(), tau, eps)
            assert got == pytest.approx(want, abs=1e-10)

    def test_all_mask_patterns_small_batch(self):
        rng = np.random.default_rng(1)
        emb_s = unit_rows(rng, 4, 3)
        emb_d = unit_rows(rng, 4, 3)
        for bits in range(15):  # every pattern except all-masked
            mask = np.array([(bits >> i) & 1 == 1 for i in range(4)])
            got = infonce_with_grad(emb_s, emb_d, mask, 0.2, 0.1)[0]
            want = oracles.naive_infonce(emb_s.tolist(), emb_d.tolist(),
                                         mask.tolist(), 0.2, 0.1)
            assert got == pytest.approx(want, abs=1e-10)

    def test_all_masked_raises(self):
        rng = np.random.default_rng(2)
        with pytest.raises(AllMasked):
            infonce_with_grad(unit_rows(rng, 3, 4), unit_rows(rng, 3, 4),
                              np.ones(3, dtype=bool), 0.1, 0.1)

    def test_masked_row_stays_in_denominators(self):
        # masking row j must equal dropping j's two anchor terms while the
        # softmax normalizations still span every row and column
        rng = np.random.default_rng(3)
        n = 5
        emb_s = unit_rows(rng, n, 4)
        emb_d = unit_rows(rng, n, 4)
        mask = np.zeros(n, dtype=bool)
        mask[2] = True
        got = infonce_with_grad(emb_s, emb_d, mask, 0.3, 0.1)[0]

        s = emb_d @ emb_s.T / 0.3
        terms = []
        for i in range(n):
            if i == 2:
                continue
            terms.append(oracles.smoothed_ce_row(list(s[i]), i, 0.1))
            terms.append(oracles.smoothed_ce_row(list(s[:, i]), i, 0.1))
        assert got == pytest.approx(sum(terms) / len(terms), abs=1e-12)

    def test_low_temperature_separable_limit(self):
        # diagonal margin 0.5 at tau=0.01 drives the loss to ~0
        emb = np.eye(3)
        off = 0.5 * np.roll(np.eye(3), 1, axis=1) + 0.5 * np.eye(3)
        off /= np.linalg.norm(off, axis=1, keepdims=True)
        loss = infonce_with_grad(emb, emb, np.zeros(3, dtype=bool), tau=0.01, eps=0.0)[0]
        assert loss < 1e-3

    def test_smoothing_zero_equals_plain_ce(self):
        rng = np.random.default_rng(4)
        emb_s = unit_rows(rng, 4, 5)
        emb_d = unit_rows(rng, 4, 5)
        mask = np.zeros(4, dtype=bool)
        got = infonce_with_grad(emb_s, emb_d, mask, 0.5, 0.0)[0]
        s = emb_d @ emb_s.T / 0.5
        plain = []
        for i in range(4):
            plain.append(-math.log(oracles.softmax_row(list(s[i]))[i]))
            plain.append(-math.log(oracles.softmax_row(list(s[:, i]))[i]))
        assert got == pytest.approx(sum(plain) / 8.0, abs=1e-12)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(5)
        n = 6
        emb_s = unit_rows(rng, n, 4)
        emb_d = unit_rows(rng, n, 4)
        mask = rng.random(n) < 0.3
        mask[0] = False
        perm = rng.permutation(n)
        base = infonce_with_grad(emb_s, emb_d, mask, 0.2, 0.1)[0]
        perm_loss = infonce_with_grad(emb_s[perm], emb_d[perm], mask[perm], 0.2, 0.1)[0]
        assert perm_loss == pytest.approx(base, abs=1e-12)

    def test_temperature_equivalence(self):
        # similarities scaled by c behave exactly like tau / c
        rng = np.random.default_rng(6)
        emb_s = unit_rows(rng, 4, 3)
        emb_d = unit_rows(rng, 4, 3)
        mask = np.zeros(4, dtype=bool)
        c = 3.0
        a = infonce_with_grad(emb_s * c, emb_d, mask, 1.0, 0.1)[0]
        b = infonce_with_grad(emb_s, emb_d, mask, 1.0 / c, 0.1)[0]
        assert a == pytest.approx(b, abs=1e-12)

    def test_too_small_batch(self):
        with pytest.raises(DataError):
            infonce_with_grad(np.ones((1, 3)), np.ones((1, 3)), np.zeros(1, dtype=bool),
                              0.1, 0.0)

    def test_gradient_masked_rows_only_via_denominators(self):
        # a masked row's embedding gradient must equal the denominator-only
        # contribution: recompute the loss with that embedding perturbed and
        # compare against the analytic directional derivative
        rng = np.random.default_rng(7)
        n = 4
        emb_s = unit_rows(rng, n, 3)
        emb_d = unit_rows(rng, n, 3)
        mask = np.array([False, False, True, False])
        _, d_sat, d_drone, _ = infonce_with_grad(emb_s, emb_d, mask, 0.4, 0.1)
        step = 1e-6
        for target, grad in ((emb_s, d_sat), (emb_d, d_drone)):
            direction = rng.standard_normal(3)
            plus = target.copy()
            plus[2] += step * direction
            minus = target.copy()
            minus[2] -= step * direction
            if target is emb_s:
                fp = oracles.naive_infonce(plus.tolist(), emb_d.tolist(), mask.tolist(), 0.4, 0.1)
                fm = oracles.naive_infonce(minus.tolist(), emb_d.tolist(), mask.tolist(), 0.4, 0.1)
            else:
                fp = oracles.naive_infonce(emb_s.tolist(), plus.tolist(), mask.tolist(), 0.4, 0.1)
                fm = oracles.naive_infonce(emb_s.tolist(), minus.tolist(), mask.tolist(), 0.4, 0.1)
            directional = (fp - fm) / (2 * step)
            assert directional == pytest.approx(float(grad[2] @ direction), rel=1e-5, abs=1e-9)


def _masks(rng, n):
    """No row, a random 30 %, a single row, and all but one row masked."""
    single = np.zeros(n, dtype=bool)
    single[rng.integers(n)] = True
    return [np.zeros(n, dtype=bool), rng.random(n) < 0.3, single, ~single]


class TestInfoNCEMatchesScatterForm:
    """The dense reference reproduces the index-scatter reference bit for bit,
    so the earlier arithmetic stays pinned as one reference."""

    @pytest.mark.parametrize("n", [2, 3, 64, 65, 488, 512])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_bit_identical(self, n, eps):
        rng = np.random.default_rng([n, int(eps * 10)])
        for _ in range(3):
            emb_s = unit_rows(rng, n, 16)
            emb_d = unit_rows(rng, n, 16)
            tau = float(rng.uniform(0.05, 1.0))
            for mask in _masks(rng, n):
                if mask.all():
                    continue
                got = oracles.dense_infonce_with_grad(emb_s, emb_d, mask, tau, eps)
                want = oracles.scatter_infonce_with_grad(emb_s, emb_d, mask, tau, eps)
                assert got[0] == want[0] and got[3] == want[3]
                assert np.array_equal(got[1], want[1])
                assert np.array_equal(got[2], want[2])


# Agreement of the one-exp InfoNCE with the dense reference: the loss within
# LOSS_TOL of max(1, |loss|), each gradient within GRAD_TOL of its largest
# reference entry, d_tau within GRAD_TOL of max(1, |d_tau|).
LOSS_TOL = 1e-12
GRAD_TOL = 1e-10


def assert_close_to(got, want):
    assert abs(got[0] - want[0]) <= LOSS_TOL * max(1.0, abs(want[0])), (got[0], want[0])
    for g, w in zip(got[1:3], want[1:3]):
        assert np.abs(g - w).max() <= GRAD_TOL * np.abs(w).max()
    assert abs(got[3] - want[3]) <= GRAD_TOL * max(1.0, abs(want[3])), (got[3], want[3])


class TestInfoNCEMatchesDenseForm:
    """The live function agrees with the dense reference within tolerance,
    and its workspace form reproduces its fresh form bit for bit, across
    batch sizes sharing one dict."""

    @staticmethod
    def assert_same_bits(got, want):
        assert got[0] == want[0] and got[3] == want[3]
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[2], want[2])

    @pytest.mark.parametrize("n", [2, 3, 64, 65, 488, 512])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_bit_identical(self, n, eps):
        rng = np.random.default_rng([n, int(eps * 10), 1])
        work = {}
        for _ in range(3):
            emb_s = unit_rows(rng, n, 16)
            emb_d = unit_rows(rng, n, 16)
            tau = float(rng.uniform(0.05, 1.0))
            for mask in _masks(rng, n):
                if mask.all():
                    continue
                got = infonce_with_grad(emb_s, emb_d, mask, tau, eps)
                assert_close_to(got, oracles.dense_infonce_with_grad(emb_s, emb_d, mask, tau, eps))
                self.assert_same_bits(infonce_with_grad(emb_s, emb_d, mask, tau, eps, work), got)

    @pytest.mark.parametrize("scale", [3.0, 1000.0])
    def test_rows_beyond_unit_norm(self, scale):
        # scores reach scale / tau: at 1000, shifting by 1 / tau alone would
        # overflow exp, so the shift comes from the row norms
        rng = np.random.default_rng(13)
        emb_s, emb_d = unit_rows(rng, 8, 4) * scale, unit_rows(rng, 8, 4)
        mask = np.arange(8) == 3
        assert_close_to(infonce_with_grad(emb_s, emb_d, mask, 1.0, 0.1),
                        oracles.dense_infonce_with_grad(emb_s, emb_d, mask, 1.0, 0.1))

    def test_shared_work_across_batch_sizes(self):
        rng = np.random.default_rng(8)
        work = {}
        kept = []
        for n in (512, 488, 512, 64):
            emb_s = unit_rows(rng, n, 32)
            emb_d = unit_rows(rng, n, 32)
            mask = rng.random(n) < 0.1
            got = infonce_with_grad(emb_s, emb_d, mask, 0.07, 0.1, work)
            self.assert_same_bits(got, infonce_with_grad(emb_s, emb_d, mask, 0.07, 0.1))
            buffers = list(work.values())
            for out in got[1:3]:
                assert not any(np.shares_memory(out, b) for b in buffers)
            kept.append((got, [a.copy() for a in got[1:3]]))
        buffers = list(work.values())
        assert len(buffers) == 1  # one buffer, sized by the largest n
        assert all(b.dtype == np.float64 and b.size == 512 * (512 + objectives._BLOCK)
                   for b in buffers)
        for got, copies in kept:  # later calls did not write into earlier results
            assert all(np.array_equal(a, c) for a, c in zip(got[1:3], copies))

    def test_cold_call_allocates_less_than_three_score_matrices(self):
        # the earlier form allocated four n x n float64 matrices (8 MiB)
        n = 512
        rng = np.random.default_rng(10)
        emb_s, emb_d = unit_rows(rng, n, 64), unit_rows(rng, n, 64)
        mask = rng.random(n) < 0.1
        tracemalloc.start()
        try:
            infonce_with_grad(emb_s, emb_d, mask, 0.07, 0.1, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * n * n * 8, f"cold InfoNCE call peaked at {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("n", [512, 488])  # 488: scale's last batch, after 512-row ones
    def test_warm_call_allocates_less_than_one_score_matrix(self, n):
        rng = np.random.default_rng(9)
        emb_s, emb_d = unit_rows(rng, 512, 64), unit_rows(rng, 512, 64)
        mask = rng.random(512) < 0.1
        work = {}
        infonce_with_grad(emb_s, emb_d, mask, 0.07, 0.1, work)
        tracemalloc.start()
        try:
            infonce_with_grad(emb_s[:n], emb_d[:n], mask[:n], 0.07, 0.1, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8, f"warm InfoNCE call peaked at {peak / 2**20:.2f} MiB"


# the loss against the term-by-term oracle, relative to |loss|
SMALL_TAU_REL = 1e-9


class TestInfoNCESmallTemperature:
    """Below tau = 0.003 exp(-2 / tau) leaves float64's normal range with 53
    bits to spare, and each row and column is shifted by its own max."""

    @pytest.mark.parametrize("tau", [0.0001, 0.001, 0.00299, 0.00301])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["aligned", "opposed"])
    def test_matches_naive_oracle(self, tau, sign):
        # rows within 0.15 of one direction keep a row's scores within about
        # 0.045 / tau of each other, so the oracle's exps stay positive;
        # opposed towers put every score near -1 / tau, the far end of the
        # one-exp range
        rng = np.random.default_rng(11)
        for n, eps in ((2, 0.0), (5, 0.1), (8, 0.1)):
            v = unit_rows(rng, 1, 6)[0]
            emb_s = unit_rows(rng, n, 6) * 0.15 + v
            emb_d = unit_rows(rng, n, 6) * 0.15 + sign * v
            emb_s /= np.linalg.norm(emb_s, axis=1, keepdims=True)
            emb_d /= np.linalg.norm(emb_d, axis=1, keepdims=True)
            mask = np.arange(n) == 4  # masks a row from n = 5 on
            got = infonce_with_grad(emb_s, emb_d, mask, tau, eps)[0]
            want = oracles.naive_infonce(emb_s.tolist(), emb_d.tolist(), mask.tolist(), tau, eps)
            assert got == pytest.approx(want, rel=SMALL_TAU_REL)

    @pytest.mark.parametrize("tau", [0.0001, 0.001, 0.00299, 0.00301])
    def test_random_rows_match_dense_form(self, tau):
        # at tau = 0.001 one shift by 1 / tau would underflow every exp of a
        # row whose best cosine is below 0.255
        rng = np.random.default_rng(12)
        emb_s, emb_d = unit_rows(rng, 64, 64), unit_rows(rng, 64, 64)
        mask = rng.random(64) < 0.1
        got = infonce_with_grad(emb_s, emb_d, mask, tau, 0.1)
        assert math.isfinite(got[0])
        assert_close_to(got, oracles.dense_infonce_with_grad(emb_s, emb_d, mask, tau, 0.1))


class TestOrientationCE:
    def test_uniform_logits_give_log_b(self):
        for b in (2, 4, 8):
            logits = np.zeros((3, b))
            labels = np.array([0, 1, b - 1])
            loss = orientation_ce_with_grad(logits, labels, np.zeros(3, dtype=bool), 0.0)[0]
            assert loss == pytest.approx(math.log(b), abs=1e-12)

    def test_all_masked_returns_zero(self):
        logits = np.random.default_rng(0).standard_normal((3, 4))
        loss, grad = orientation_ce_with_grad(logits, np.full(3, -1), np.ones(3, dtype=bool), 0.1)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros_like(logits))

    def test_confident_row_oracle_value(self):
        logits = np.array([[10.0, 0.0, 0.0, 0.0]])
        got = orientation_ce_with_grad(logits, np.array([0]), np.zeros(1, dtype=bool), 0.1)[0]
        want = oracles.smoothed_ce_row([10.0, 0.0, 0.0, 0.0], 0, 0.1)
        assert got == pytest.approx(want, abs=1e-10)
        assert got == pytest.approx(0.750136, abs=1e-5)

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            b = int(rng.choice([2, 4, 8]))
            logits = rng.standard_normal((n, b)) * 3
            labels = rng.integers(0, b, size=n)
            mask = rng.random(n) < 0.4
            eps = float(rng.choice([0.0, 0.1]))
            got = orientation_ce_with_grad(logits, labels, mask, eps)[0]
            want = oracles.naive_orientation_ce(logits, labels, mask, eps)
            assert got == pytest.approx(want, abs=1e-10)

    def test_masked_rows_zero_gradient_exactly(self):
        rng = np.random.default_rng(9)
        logits = rng.standard_normal((5, 4))
        labels = np.array([0, 1, -1, 3, -1])
        mask = np.array([False, False, True, False, True])
        _, grad = orientation_ce_with_grad(logits, labels, mask, 0.1)
        assert np.all(grad[2] == 0.0) and np.all(grad[4] == 0.0)
        assert np.any(grad[0] != 0.0)

    def test_out_of_range_label_rejected(self):
        with pytest.raises(DataError):
            orientation_ce_with_grad(np.zeros((1, 4)), np.array([4]), np.zeros(1, dtype=bool),
                                     0.0)


class TestOrientationMSE:
    def test_exact_prediction_zero_loss(self):
        angles = np.array([0.0, 90.0, 123.0])
        pred = unit_circle_target(angles)
        assert orientation_mse_with_grad(pred, angles, np.zeros(3, dtype=bool))[0] == 0.0

    def test_zero_prediction_unit_loss(self):
        angles = np.array([10.0, 200.0, 355.0])
        pred = np.zeros((3, 2))
        loss = orientation_mse_with_grad(pred, angles, np.zeros(3, dtype=bool))[0]
        assert loss == pytest.approx(1.0, abs=1e-12)

    def test_quarter_turn_example(self):
        # target (1, 0) for 0 degrees, prediction (0, 1): squared distance 2
        loss = orientation_mse_with_grad(np.array([[0.0, 1.0]]), np.array([0.0]),
                                         np.zeros(1, dtype=bool))[0]
        assert loss == pytest.approx(2.0, abs=1e-12)

    def test_matches_oracle_and_masks(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            pred = rng.standard_normal((n, 2))
            angles = rng.uniform(0, 360, size=n)
            mask = rng.random(n) < 0.4
            got = orientation_mse_with_grad(pred, angles, mask)[0]
            want = oracles.naive_orientation_mse(pred, angles, mask)
            assert got == pytest.approx(want, abs=1e-12)

    def test_all_masked_zero(self):
        loss, grad = orientation_mse_with_grad(np.ones((2, 2)), np.zeros(2),
                                               np.ones(2, dtype=bool))
        assert loss == 0.0 and np.all(grad == 0.0)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(11)
        pred = rng.standard_normal((3, 2))
        angles = rng.uniform(0, 360, size=3)
        mask = np.array([False, True, False])
        _, grad = orientation_mse_with_grad(pred, angles, mask)
        assert np.all(grad[1] == 0.0)
        step = 1e-6
        for i in (0, 2):
            for j in (0, 1):
                def f(v, i=i, j=j):
                    p = pred.copy()
                    p[i, j] = v
                    return oracles.naive_orientation_mse(p, angles, mask)
                fd = oracles.central_difference(f, pred[i, j], step)
                assert grad[i, j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestJoint:
    def test_examples(self):
        cfg = LossConfig()
        assert joint(1.0, 0.0, cfg) == 1.0
        assert joint(1.0, 2.0, cfg) == 2.0  # weight 0.5
        none_cfg = LossConfig(orientation_mode="none")
        assert joint(1.0, 123.0, none_cfg) == 1.0

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteLoss):
            joint(float("nan"), 0.0, LossConfig())
        with pytest.raises(NonFiniteLoss):
            joint(1.0, float("inf"), LossConfig())

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            LossConfig(smoothing=1.0)
        with pytest.raises(ConfigError):
            LossConfig(temperature=0.0)
        with pytest.raises(ConfigError):
            LossConfig(orientation_mode="sideways")
        with pytest.raises(ConfigError):
            LossConfig(orientation_weight=-0.1)
