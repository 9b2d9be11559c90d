import numpy as np
import pytest

from coreflow.config import parse_config_text
from coreflow.errors import DegenerateVariance, NumericalError, ShapeMismatch
from coreflow.experiments import run_experiment
from coreflow.objective import MaskedMse, NoisyTargetMse, r2_score
from coreflow.tensor import as_tensor

from oracles import unlowered_engine
from test_experiments import NOISE_SWEEP_CFG


def full_mask(shape):
    return as_tensor(np.ones(shape))


class TestMaskedMse:
    def test_zero_loss_at_target(self, rng):
        y = as_tensor(rng.standard_normal((3, 3)))
        loss, grad = MaskedMse(y, full_mask((3, 3))).loss_and_grad(y)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros((3, 3)))

    def test_hand_value_with_partial_mask(self):
        y = as_tensor([[1.0, 2.0], [3.0, 4.0]])
        mask = as_tensor([[1.0, 0.0], [0.0, 1.0]])
        obj = MaskedMse(y, mask)
        assert obj.normalizer == 2
        loss, grad = obj.loss_and_grad(as_tensor(np.zeros((2, 2))))
        assert loss == pytest.approx(8.5)
        np.testing.assert_allclose(grad, [[-1.0, 0.0], [0.0, -4.0]])

    def test_gradient_matches_finite_differences(self, rng):
        y = as_tensor(rng.standard_normal((3, 4)))
        mask = as_tensor((rng.random((3, 4)) < 0.6).astype(float))
        if mask.sum() == 0:
            mask = full_mask((3, 4))
        obj = MaskedMse(y, mask)
        t = as_tensor(rng.standard_normal((3, 4)))
        _, grad = obj.loss_and_grad(t)
        h = 1e-6
        for idx in np.ndindex(t.shape):
            e = np.zeros(t.shape)
            e[idx] = h
            fd = (
                obj.loss_and_grad(as_tensor(t + e))[0]
                - obj.loss_and_grad(as_tensor(t - e))[0]
            ) / (2 * h)
            assert fd == pytest.approx(grad[idx], rel=1e-6, abs=1e-9)

    def test_unobserved_entries_are_ignored(self, rng):
        y = as_tensor(rng.standard_normal((3, 3)))
        mask = as_tensor(np.diag([1.0, 1.0, 1.0]))
        obj = MaskedMse(y, mask)
        t = as_tensor(rng.standard_normal((3, 3)))
        bumped = t + 100.0 * (1.0 - mask)
        l1, g1 = obj.loss_and_grad(t)
        l2, g2 = obj.loss_and_grad(as_tensor(bumped))
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)

    def test_mask_values_validated(self, rng):
        y = as_tensor(rng.standard_normal((2, 2)))
        with pytest.raises(ValueError):
            MaskedMse(y, as_tensor([[0.5, 1.0], [1.0, 1.0]]))

    def test_empty_mask_rejected(self, rng):
        y = as_tensor(rng.standard_normal((2, 2)))
        with pytest.raises(ValueError):
            MaskedMse(y, as_tensor(np.zeros((2, 2))))

    def test_shape_mismatch(self, rng):
        obj = MaskedMse(as_tensor(np.ones((2, 2))), full_mask((2, 2)))
        with pytest.raises(ShapeMismatch):
            obj.loss_and_grad(as_tensor(np.ones((2, 3))))

    def test_gradient_is_c_order(self, rng):
        y = as_tensor(rng.standard_normal((3, 4)))
        t = np.asarray(rng.standard_normal((4, 3))).T  # not C-order
        _, grad = MaskedMse(y, full_mask((3, 4))).loss_and_grad(t)
        assert grad.flags.c_contiguous
        np.testing.assert_array_equal(grad, (2.0 / 12) * (t - y))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("observed", [0.0, 1.0])
    def test_non_finite_prediction_raises(self, bad, observed):
        # an unobserved Inf still reaches the loss: 0 * Inf = NaN
        obj = MaskedMse(as_tensor([[1.0, 2.0]]), as_tensor([[observed, 1.0]]))
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="non-finite loss"):
            obj.loss_and_grad(np.array([[bad, 2.0]]))


class TestNoisyTargetMse:
    def test_loss_and_grad_formula(self, rng):
        clean = as_tensor(rng.standard_normal((3, 3)))
        obj = NoisyTargetMse(clean, alpha=0.5, seed=7)
        t = as_tensor(rng.standard_normal((3, 3)))
        loss, grad = obj.loss_and_grad(t)
        resid = t - clean - 0.5 * obj.noise
        assert loss == pytest.approx(float(np.sum(resid**2)), rel=1e-12)
        np.testing.assert_allclose(grad, 2.0 * resid, rtol=1e-12)

    def test_frozen_mode_keeps_one_draw(self, rng):
        clean = as_tensor(rng.standard_normal((2, 2)))
        obj = NoisyTargetMse(clean, alpha=1.0, seed=3, resample_each_step=False)
        draw = obj.noise.copy()
        obj.begin_step(0)
        obj.begin_step(1)
        np.testing.assert_array_equal(obj.noise, draw)

    def test_resampling_is_seeded_and_reproducible(self, rng):
        clean = as_tensor(rng.standard_normal((2, 2)))
        seq = []
        for _ in range(2):
            obj = NoisyTargetMse(clean, alpha=1.0, seed=3, resample_each_step=True)
            draws = []
            for t in range(4):
                obj.begin_step(t)
                draws.append(obj.noise.copy())
            seq.append(draws)
        for a, b in zip(*seq):
            np.testing.assert_array_equal(a, b)
        assert not np.array_equal(seq[0][0], seq[0][1])

    def test_draws_are_the_generators_bit_for_bit(self, rng):
        # each draw is sealed as is; alpha*N, formed once a draw, gives the
        # loss and gradient that forming it on every call gave
        clean = as_tensor(rng.standard_normal((4, 3)))
        t_hat = as_tensor(rng.standard_normal((4, 3)))
        obj = NoisyTargetMse(clean, alpha=0.3, seed=11, resample_each_step=True)
        gen = np.random.Generator(np.random.PCG64(11))
        for t in range(51):
            if t:
                obj.begin_step(t)
            want = as_tensor(gen.standard_normal((4, 3)))
            assert obj.noise.tobytes() == want.tobytes()
            assert not obj.noise.flags.writeable
            resid = t_hat - clean
            resid -= 0.3 * want
            loss, grad = obj.loss_and_grad(t_hat)
            assert loss == float((resid * resid).sum())
            assert grad.tobytes() == (resid * 2.0).tobytes()

    def test_sweep_bytes_match_the_unlowered_engine(self, tmp_path):
        cfg = parse_config_text(NOISE_SWEEP_CFG)
        run_experiment(cfg, str(tmp_path / "lowered"))
        with unlowered_engine():
            run_experiment(cfg, str(tmp_path / "unlowered"))
        names = sorted(p.name for p in (tmp_path / "lowered").iterdir())
        assert "summary.txt" in names and len(names) == 4
        for name in names:
            got = (tmp_path / "lowered" / name).read_bytes()
            assert got == (tmp_path / "unlowered" / name).read_bytes(), name

    def test_non_finite_prediction_raises(self):
        obj = NoisyTargetMse(as_tensor([[1.0]]), alpha=0.5)
        with pytest.raises(NumericalError, match="noisy mse produced a non-finite loss inf"):
            obj.loss_and_grad(np.array([[np.inf]]))

    def test_alpha_zero_reduces_to_plain_mse(self, rng):
        clean = as_tensor(rng.standard_normal((2, 3)))
        obj = NoisyTargetMse(clean, alpha=0.0, seed=1)
        t = as_tensor(rng.standard_normal((2, 3)))
        loss, grad = obj.loss_and_grad(t)
        assert loss == pytest.approx(float(np.sum((t - clean) ** 2)), rel=1e-12)
        np.testing.assert_allclose(grad, 2.0 * (t - clean), rtol=1e-12)


class TestR2Score:
    def test_perfect_prediction(self, rng):
        y = as_tensor(rng.standard_normal((4, 4)))
        assert r2_score(y, y, full_mask((4, 4))) == 1.0

    def test_mean_prediction_scores_zero(self, rng):
        y = as_tensor(rng.standard_normal((4, 4)))
        pred = as_tensor(np.full((4, 4), float(y.mean())))
        assert r2_score(pred, y, full_mask((4, 4))) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        truth = as_tensor([1.0, 2.0, 3.0])
        pred = as_tensor([1.0, 2.0, 4.0])
        assert r2_score(pred, truth, full_mask((3,))) == pytest.approx(0.5)

    def test_shift_invariance(self, rng):
        y = as_tensor(rng.standard_normal((5,)))
        pred = as_tensor(rng.standard_normal((5,)))
        base = r2_score(pred, y, full_mask((5,)))
        shifted = r2_score(as_tensor(pred + 3.0), as_tensor(y + 3.0), full_mask((5,)))
        assert shifted == pytest.approx(base, rel=1e-10)

    def test_masked_entries_only(self, rng):
        y = as_tensor(rng.standard_normal((3, 3)))
        pred = as_tensor(y + rng.standard_normal((3, 3)) * 0.1)
        mask = as_tensor(np.triu(np.ones((3, 3))))
        selected = mask != 0
        sse = float(np.sum((y[selected] - pred[selected]) ** 2))
        sst = float(np.sum((y[selected] - y[selected].mean()) ** 2))
        assert r2_score(pred, y, mask) == pytest.approx(1 - sse / sst, rel=1e-12)

    def test_degenerate_variance(self):
        y = as_tensor([2.0, 2.0, 2.0])
        with pytest.raises(DegenerateVariance):
            r2_score(as_tensor([1.0, 2.0, 3.0]), y, full_mask((3,)))

    def test_needs_two_entries(self, rng):
        y = as_tensor(rng.standard_normal((3,)))
        with pytest.raises(DegenerateVariance):
            r2_score(y, y, as_tensor([1.0, 0.0, 0.0]))
