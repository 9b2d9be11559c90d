import math

import numpy as np
import pytest

from coreflow.errors import NumericalError, ZeroCoreNorm
from coreflow.model import (
    LayeredModel,
    custom_spec,
    random_cores,
    reconstruct,
    tucker2_spec,
    tucker_spec,
)
from coreflow.objective import MaskedMse
from coreflow.optim import (
    AdamConfig,
    DasConfig,
    SamConfig,
    SgdConfig,
    base_step,
    das_scaling_factors,
    das_step,
    gradient_fn,
    init_state,
    loss_and_core_grads,
    run,
    sam_step,
    scheduled_eta,
)
from coreflow.tensor import as_tensor, frobenius_inner, frobenius_norm_sq

from oracles import (
    scalar_adam,
    two_core_scalar_sam_step,
    two_layer_scalar_sam_step,
)


def scalar_pair_problem(x=2.0, y=0.5, target=1.0):
    """f(x, y) = (x*y - target)^2 realized as a two-core model."""
    spec = custom_spec("i,j->ij", [(1,), (1,)])
    cores = [as_tensor([x]), as_tensor([y])]
    obj = MaskedMse(as_tensor([[target]]), as_tensor([[1.0]]))
    return spec, cores, obj


def sign_flip_problem():
    """Cores (0.01, 1, 100) of a scalar triple product fit to zero."""
    spec = custom_spec("i,j,k->ijk", [(1,), (1,), (1,)])
    cores = [as_tensor([0.01]), as_tensor([1.0]), as_tensor([100.0])]
    obj = MaskedMse(as_tensor(np.zeros((1, 1, 1))), as_tensor(np.ones((1, 1, 1))))
    return spec, cores, obj


def single_core_problem(value, target):
    """f(x) = (x - target)^2 on one 1x1 core."""
    spec = custom_spec("ij->ij", [(1, 1)])
    cores = [as_tensor([[value]])]
    obj = MaskedMse(as_tensor([[target]]), as_tensor([[1.0]]))
    return spec, cores, obj


class LinearProbe:
    """f(T) = <w, T>: gradient independent of the point."""

    def __init__(self, w):
        self.w = w

    def begin_step(self, t):
        pass

    def loss_and_grad(self, t_hat):
        return frobenius_inner(self.w, t_hat), self.w


class TestSgd:
    def test_zero_gradient_leaves_cores(self, rng):
        cores = [as_tensor(rng.standard_normal((2, 2)))]
        grads = [as_tensor(np.zeros((2, 2)))]
        cfg = SgdConfig(eta=0.1)
        out = base_step(cores, grads, cfg, init_state(cfg, cores))
        np.testing.assert_array_equal(out[0], cores[0])

    def test_hand_step(self):
        cfg = SgdConfig(eta=0.1)
        out = base_step(
            [as_tensor([[1.0]])], [as_tensor([[2.0]])], cfg, init_state(cfg, [as_tensor([[1.0]])])
        )
        np.testing.assert_allclose(out[0], [[0.8]], rtol=1e-15)

    def test_two_half_steps_equal_one_step_when_gradient_constant(self, rng):
        spec = custom_spec("ij->ij", [(2, 2)])
        w = as_tensor(rng.standard_normal((2, 2)))
        probe = LinearProbe(w)
        start = [as_tensor(rng.standard_normal((2, 2)))]

        full, _ = run(spec, list(start), probe, SgdConfig(eta=0.2), 1)
        half, _ = run(spec, list(start), probe, SgdConfig(eta=0.1), 2)
        np.testing.assert_allclose(half[0], full[0], rtol=1e-15)

    def test_two_half_steps_differ_in_general(self, rng):
        spec = tucker2_spec(3, 3, 2, 2)
        cores = random_cores(spec, rng)
        obj = MaskedMse(
            as_tensor(rng.standard_normal((3, 3))), as_tensor(np.ones((3, 3)))
        )
        full, _ = run(spec, list(cores), obj, SgdConfig(eta=0.2), 1)
        half, _ = run(spec, list(cores), obj, SgdConfig(eta=0.1), 2)
        assert not np.allclose(half[0], full[0], rtol=1e-12)

    def test_momentum_accumulates(self):
        cfg = SgdConfig(eta=1.0, momentum=0.5)
        cores = [as_tensor([[0.0]])]
        state = init_state(cfg, cores)
        g = [as_tensor([[1.0]])]
        cores = base_step(cores, g, cfg, state)  # buffer = 1, step -1
        np.testing.assert_allclose(cores[0], [[-1.0]])
        cores = base_step(cores, g, cfg, state)  # buffer = 1.5, step -1.5
        np.testing.assert_allclose(cores[0], [[-2.5]])

    def test_decoupled_weight_decay(self):
        cfg = SgdConfig(eta=0.1, weight_decay=0.5)
        cores = [as_tensor([[2.0]])]
        out = base_step(cores, [as_tensor([[1.0]])], cfg, init_state(cfg, cores))
        # shrink by (1 - 0.1*0.5) then subtract 0.1*1
        np.testing.assert_allclose(out[0], [[2.0 * 0.95 - 0.1]], rtol=1e-15)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SgdConfig(eta=0.0)
        with pytest.raises(ValueError):
            SgdConfig(eta=0.1, momentum=1.0)


class TestAdam:
    def test_zero_gradient_leaves_cores(self, rng):
        cores = [as_tensor(rng.standard_normal((2, 3)))]
        cfg = AdamConfig()
        state = init_state(cfg, cores)
        out = list(cores)
        for _ in range(5):
            out = base_step(out, [as_tensor(np.zeros((2, 3)))], cfg, state)
        np.testing.assert_array_equal(out[0], cores[0])

    @pytest.mark.parametrize("g0", [1.0, 1e-3, -7.0])
    def test_first_step_magnitude_close_to_eta(self, g0):
        cfg = AdamConfig(eta=0.01)
        cores = [as_tensor([[5.0]])]
        out = base_step(cores, [as_tensor([[g0]])], cfg, init_state(cfg, cores))
        delta = abs((out[0] - cores[0]).item())
        assert 0.999 * cfg.eta <= delta <= cfg.eta

    def test_matches_scalar_reference_over_100_steps(self):
        spec, cores, obj = single_core_problem(5.0, 3.0)
        cfg = AdamConfig(eta=0.05)
        final, _ = run(spec, cores, obj, cfg, 100)
        ref = scalar_adam(
            5.0, lambda x: 2.0 * (x - 3.0), 0.05, cfg.beta1, cfg.beta2, cfg.epsilon, 100
        )
        assert abs(final[0].item() - ref) <= 1e-12

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdamConfig(beta1=1.0)
        with pytest.raises(ValueError):
            AdamConfig(epsilon=0.0)


class TestSam:
    def test_tiny_radius_matches_base_step(self, rng):
        spec = tucker2_spec(4, 3, 2, 2)
        cores = random_cores(spec, rng, 0.3)
        obj = MaskedMse(
            as_tensor(rng.standard_normal((4, 3))), as_tensor(np.ones((4, 3)))
        )
        base_cfg = SgdConfig(eta=0.01)
        plain, _ = run(spec, list(cores), obj, base_cfg, 1)
        cfg = SamConfig(rho=1e-12, base=base_cfg)
        wrapped, _, _ = sam_step(
            gradient_fn(spec, obj), list(cores), cfg, init_state(cfg, cores)
        )
        for a, b in zip(plain, wrapped):
            assert np.max(np.abs(a - b)) <= 1e-9 * max(1.0, np.max(np.abs(a)))

    def test_perturbation_norm_equals_rho(self, rng):
        spec = tucker_spec((3, 3, 2), (2, 2, 2))
        cores = random_cores(spec, rng, 0.4)
        obj = MaskedMse(
            as_tensor(rng.standard_normal(spec.output_shape)),
            as_tensor(np.ones(spec.output_shape)),
        )
        cfg = SamConfig(rho=0.05, base=SgdConfig(eta=1e-3))
        _, rec, _ = sam_step(gradient_fn(spec, obj), list(cores), cfg, init_state(cfg, cores))
        _, grads = loss_and_core_grads(spec, cores, obj)
        total = math.sqrt(
            sum(
                frobenius_norm_sq(as_tensor(cfg.rho * rec.u * g))
                for g in grads
            )
        )
        assert total == pytest.approx(cfg.rho, rel=1e-15)

    def test_scalar_two_core_oracle(self):
        spec, cores, obj = scalar_pair_problem(x=2.0, y=0.7)
        cfg = SamConfig(rho=0.05, base=SgdConfig(eta=0.1))
        new, _, _ = sam_step(gradient_fn(spec, obj), cores, cfg, init_state(cfg, cores))
        ref_x, ref_y = two_core_scalar_sam_step(2.0, 0.7, 0.05, 0.1)
        assert abs(new[0].item() - ref_x) <= 1e-12
        assert abs(new[1].item() - ref_y) <= 1e-12

    def test_zero_gradient_falls_back_to_base(self):
        spec, cores, obj = scalar_pair_problem(x=1.0, y=1.0)  # x*y == target
        cfg = SamConfig(rho=0.1, base=SgdConfig(eta=0.1))
        new, rec, _ = sam_step(gradient_fn(spec, obj), cores, cfg, init_state(cfg, cores))
        assert rec.zero_gradient
        np.testing.assert_array_equal(new[0], cores[0])
        np.testing.assert_array_equal(new[1], cores[1])

    def test_trace_records_gradients_and_norms(self, rng):
        spec = tucker2_spec(3, 3, 2, 2)
        cores = random_cores(spec, rng)
        obj = MaskedMse(
            as_tensor(rng.standard_normal((3, 3))), as_tensor(np.ones((3, 3)))
        )
        cfg = SamConfig(rho=0.01, base=SgdConfig(eta=1e-3))
        _, rec, g_tilde = sam_step(
            gradient_fn(spec, obj), list(cores), cfg, init_state(cfg, cores)
        )
        _, grads = loss_and_core_grads(spec, cores, obj)
        assert len(rec.grad_norms_sq) == len(g_tilde) == spec.num_cores
        for g, gsq in zip(grads, rec.grad_norms_sq):
            assert frobenius_norm_sq(g) == gsq
        assert rec.u == pytest.approx(sum(rec.grad_norms_sq) ** -0.5, rel=1e-15)
        perturbed = [as_tensor(c + cfg.rho * rec.u * g) for c, g in zip(cores, grads)]
        for got, want in zip(g_tilde, loss_and_core_grads(spec, perturbed, obj)[1]):
            np.testing.assert_array_equal(got, want)


class TestDas:
    def test_lambda_hand_value(self):
        # K=2, eta=0.1, alpha=1: gbar=3, u=6^{-1/2}, lambda_1 = 0.1/sqrt(6)
        lams, gbar, u = das_scaling_factors(0.1, 1.0, [1.0, 1.0], [4.0, 2.0])
        assert gbar == pytest.approx(3.0)
        assert u == pytest.approx(6.0 ** -0.5, rel=1e-15)
        assert lams[0] == pytest.approx(0.1 * 6.0 ** -0.5, rel=1e-12)
        assert lams[1] == pytest.approx(-0.1 * 6.0 ** -0.5, rel=1e-12)
        assert lams[0] == pytest.approx(0.040824829, rel=1e-6)

    def test_mean_centering_identity(self, rng):
        # sum_k lambda_k * ||G_k||^2 = 0 because the gradient norms are centered
        s = rng.uniform(0.5, 2.0, 5)
        g = rng.uniform(0.1, 3.0, 5)
        lams, _, _ = das_scaling_factors(1e-3, 0.5, s, g)
        assert abs(sum(l * sk for l, sk in zip(lams, s))) <= 1e-15 * float(np.sum(g))

    def test_equal_gradient_norms_match_base_bitwise(self):
        # symmetric two-core instance: gradient norms match exactly
        spec, cores, obj = scalar_pair_problem(x=2.0, y=2.0, target=1.0)
        das_cfg = DasConfig(alpha=0.5, base=SgdConfig(eta=0.01))
        got, rec, _ = das_step(
            gradient_fn(spec, obj), list(cores), das_cfg, init_state(das_cfg, cores)
        )
        assert rec.lambdas == (0.0, 0.0)
        base_cfg = SgdConfig(eta=0.01)
        _, grads = loss_and_core_grads(spec, cores, obj)
        want = base_step(list(cores), grads, base_cfg, init_state(base_cfg, cores))
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_zero_core_norm_raises(self):
        spec, cores, obj = scalar_pair_problem(x=0.0, y=2.0, target=3.0)
        cfg = DasConfig(alpha=0.1, base=SgdConfig(eta=0.1))
        with pytest.raises(ZeroCoreNorm):
            das_step(gradient_fn(spec, obj), cores, cfg, init_state(cfg, cores))

    def test_factor_not_above_zero_raises(self):
        # lambda = (66660, -3.33, -3.3e-4): core 1 would be multiplied by -2.33
        spec, cores, obj = sign_flip_problem()
        cfg = DasConfig(alpha=0.5, base=SgdConfig(eta=0.1))
        with pytest.raises(NumericalError, match=r"core 1 .*-2\.33"):
            das_step(gradient_fn(spec, obj), cores, cfg, init_state(cfg, cores))

    def test_zero_gradient_skips_scaling(self):
        spec, cores, obj = scalar_pair_problem(x=1.0, y=1.0)
        cfg = DasConfig(alpha=0.1, base=SgdConfig(eta=0.1))
        new, rec, _ = das_step(gradient_fn(spec, obj), cores, cfg, init_state(cfg, cores))
        assert rec.zero_gradient
        np.testing.assert_array_equal(new[0], cores[0])

    def test_scaling_applied_before_base_update(self):
        spec, cores, obj = scalar_pair_problem(x=2.0, y=0.7)
        eta, alpha = 0.1, 0.7
        cfg = DasConfig(alpha=alpha, base=SgdConfig(eta=eta))
        new, rec, _ = das_step(gradient_fn(spec, obj), list(cores), cfg, init_state(cfg, cores))
        _, grads = loss_and_core_grads(spec, cores, obj)
        for k in range(2):
            want = (1.0 + rec.lambdas[k]) * cores[k].item() - eta * grads[k].item()
            assert new[k].item() == pytest.approx(want, rel=1e-14)

    def test_adam_base_moments_not_rescaled(self):
        spec, cores, obj = scalar_pair_problem(x=2.0, y=0.7)
        cfg = DasConfig(alpha=0.5, base=AdamConfig(eta=0.01))
        state = init_state(cfg, cores)
        _, grads = loss_and_core_grads(spec, cores, obj)
        das_step(gradient_fn(spec, obj), list(cores), cfg, state)
        # moments reflect the raw gradient, not a (1+lambda)-scaled one
        np.testing.assert_allclose(
            state.adam_m[0], (1 - cfg.base.beta1) * np.asarray(grads[0]), rtol=1e-14
        )


class TestRunLoop:
    def problem(self, rng):
        spec = tucker2_spec(4, 4, 2, 2)
        cores = random_cores(spec, rng, 0.2)
        target = reconstruct(spec, random_cores(spec, rng))
        obj = MaskedMse(target, as_tensor(np.ones((4, 4))))
        return spec, cores, obj

    def test_single_iteration_equals_manual_step(self, rng):
        spec, cores, obj = self.problem(rng)
        cfg = SgdConfig(eta=0.01)
        via_run, _ = run(spec, list(cores), obj, cfg, 1)
        _, grads = loss_and_core_grads(spec, cores, obj)
        manual = base_step(list(cores), grads, cfg, init_state(cfg, cores))
        for a, b in zip(via_run, manual):
            np.testing.assert_array_equal(a, b)

    def test_loss_non_increasing_on_noiseless_problem(self, rng):
        spec, cores, obj = self.problem(rng)
        _, records = run(spec, cores, obj, SgdConfig(eta=5e-3), 200)
        losses = [r.loss for r in records]
        assert all(b <= a + 1e-12 for a, b in zip(losses[:-1], losses[1:]))

    def test_records_are_deterministic(self, rng):
        spec, cores, obj = self.problem(rng)
        _, rec1 = run(spec, list(cores), obj, SgdConfig(eta=1e-3), 50)
        _, rec2 = run(spec, list(cores), obj, SgdConfig(eta=1e-3), 50)
        assert rec1 == rec2

    def test_step_errors_carry_iteration_index(self):
        spec, cores, obj = scalar_pair_problem(x=0.0, y=2.0)
        cfg = DasConfig(alpha=0.1, base=SgdConfig(eta=0.1))
        with pytest.raises(ZeroCoreNorm, match="iteration 0"):
            run(spec, cores, obj, cfg, 3)

    def test_das_sign_flip_carries_iteration_index(self):
        spec, cores, obj = sign_flip_problem()
        cfg = DasConfig(alpha=0.5, base=SgdConfig(eta=0.1))
        with pytest.raises(NumericalError, match="^iteration 0: core 1 "):
            run(spec, cores, obj, cfg, 3)

    def test_iters_validated(self, rng):
        spec, cores, obj = self.problem(rng)
        with pytest.raises(ValueError):
            run(spec, cores, obj, SgdConfig(eta=1e-3), 0)

    def test_sink_sees_every_record(self, rng):
        spec, cores, obj = self.problem(rng)
        seen = []
        _, records = run(spec, cores, obj, SgdConfig(eta=1e-3), 7, sink=seen.append)
        assert seen == records
        assert [r.t for r in records] == list(range(7))

    def test_cosine_schedule_endpoints(self):
        assert scheduled_eta(0.1, "cosine", 0, 100) == pytest.approx(0.1)
        assert scheduled_eta(0.1, "cosine", 50, 100) == pytest.approx(0.05)
        assert scheduled_eta(0.1, "constant", 99, 100) == 0.1
        with pytest.raises(ValueError):
            scheduled_eta(0.1, "linear", 0, 10)

    def test_das_records_lambdas(self, rng):
        spec, cores, obj = self.problem(rng)
        cfg = DasConfig(alpha=0.1, base=SgdConfig(eta=1e-3))
        _, records = run(spec, cores, obj, cfg, 3)
        assert all(r.lambdas is not None and len(r.lambdas) == 3 for r in records)

    def test_base_step_norm_update_decomposition(self, rng):
        # ds_k = -2*eta*<G_k, g_k> + eta^2*||g_k||^2 exactly, and the
        # first-order inner products agree across cores
        spec, cores, obj = self.problem(rng)
        eta = 1e-3
        _, grads = loss_and_core_grads(spec, cores, obj)
        cfg = SgdConfig(eta=eta)
        new = base_step(list(cores), grads, cfg, init_state(cfg, cores))
        inners = [frobenius_inner(c, g) for c, g in zip(cores, grads)]
        for k in range(spec.num_cores):
            ds = frobenius_norm_sq(new[k]) - frobenius_norm_sq(cores[k])
            predicted = -2.0 * eta * inners[k] + eta * eta * frobenius_norm_sq(grads[k])
            assert ds == pytest.approx(predicted, rel=1e-9, abs=1e-15)
        mean_inner = sum(inners) / len(inners)
        spread = max(abs(v - mean_inner) for v in inners)
        assert spread <= 1e-12 * max(1.0, abs(mean_inner))


class TestLayeredSteps:
    """A multi-layer model is the step over its layers' cores end to end,
    with one group per layer."""

    def scalar_two_layer(self, a, b, c, d, x_val, target):
        s = custom_spec("a,b->ab", [(1,), (1,)])
        model = LayeredModel(
            specs=[s, s],
            cores=[[as_tensor([a]), as_tensor([b])], [as_tensor([c]), as_tensor([d])]],
        )
        x = as_tensor([[x_val]])
        obj = MaskedMse(as_tensor([[target]]), as_tensor([[1.0]]))
        return model, x, obj

    def layered_step(self, step, model, x, obj, cfg):
        """One step over every layer's cores end to end; returns the new
        flat cores and the record."""
        flat = [c for layer in model.cores for c in layer]
        new, rec, _ = step(
            model.gradient_fn(x, obj), flat, cfg, init_state(cfg, flat),
            groups=model.groups,
        )
        return new, rec

    def test_single_layer_reduces_to_flat_sam(self, rng):
        spec = tucker2_spec(4, 3, 2, 2)
        cores = random_cores(spec, rng, 0.3)
        target = as_tensor(rng.standard_normal((4, 3)))
        obj = MaskedMse(target, as_tensor(np.ones((4, 3))))
        cfg = SamConfig(rho=0.01, base=SgdConfig(eta=1e-3))

        flat_new, flat_rec, _ = sam_step(
            gradient_fn(spec, obj), list(cores), cfg, init_state(cfg, cores)
        )
        model = LayeredModel(specs=[spec], cores=[list(cores)])
        x = as_tensor(np.eye(3))
        lay_new, lay_rec = self.layered_step(sam_step, model, x, obj, cfg)
        for a, b in zip(flat_new, lay_new, strict=True):
            np.testing.assert_array_equal(a, b)
        assert lay_rec.u == flat_rec.u

    def test_perturbation_norm_spans_layers(self, rng):
        model, x, obj = self.scalar_two_layer(1.5, 0.5, 2.0, 0.25, 1.0, 3.0)
        cfg = SamConfig(rho=0.02, base=SgdConfig(eta=1e-3))
        _, rec = self.layered_step(sam_step, model, x, obj, cfg)
        total = math.sqrt((cfg.rho * rec.u) ** 2 * sum(rec.grad_norms_sq))
        assert total == pytest.approx(cfg.rho, rel=1e-15)

    def test_two_layer_scalar_oracle(self):
        a, b, c, d, x_val, target = 1.5, 0.5, 2.0, 0.25, 1.2, 3.0
        model, x, obj = self.scalar_two_layer(a, b, c, d, x_val, target)
        cfg = SamConfig(rho=0.05, base=SgdConfig(eta=0.1))
        new, _ = self.layered_step(sam_step, model, x, obj, cfg)
        ref = two_layer_scalar_sam_step(a, b, c, d, x_val, 0.05, 0.1, target)
        for g, r in zip([c.item() for c in new], ref, strict=True):
            assert abs(g - r) <= 1e-12

    def test_layered_das_single_layer_reduces_to_flat(self, rng):
        spec = tucker2_spec(4, 3, 2, 2)
        cores = random_cores(spec, rng, 0.3)
        obj = MaskedMse(
            as_tensor(rng.standard_normal((4, 3))), as_tensor(np.ones((4, 3)))
        )
        cfg = DasConfig(alpha=0.01, base=SgdConfig(eta=1e-3))
        flat_new, flat_rec, _ = das_step(
            gradient_fn(spec, obj), list(cores), cfg, init_state(cfg, cores)
        )
        model = LayeredModel(specs=[spec], cores=[list(cores)])
        lay_new, lay_rec = self.layered_step(das_step, model, as_tensor(np.eye(3)), obj, cfg)
        for a, b in zip(flat_new, lay_new, strict=True):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(lay_rec.lambdas, flat_rec.lambdas, rtol=1e-12)

    def test_layered_das_zero_core_raises(self):
        model, x, obj = self.scalar_two_layer(0.0, 0.5, 2.0, 0.25, 1.0, 3.0)
        cfg = DasConfig(alpha=0.1, base=SgdConfig(eta=0.1))
        with pytest.raises(ZeroCoreNorm):
            self.layered_step(das_step, model, x, obj, cfg)

    def test_layered_das_gbar_is_per_layer(self):
        model, x, obj = self.scalar_two_layer(1.5, 0.5, 2.0, 0.25, 1.2, 3.0)
        cfg = DasConfig(alpha=0.5, base=SgdConfig(eta=0.1))
        _, rec = self.layered_step(das_step, model, x, obj, cfg)
        u_global = sum(rec.grad_norms_sq) ** -0.5
        assert rec.u == pytest.approx(u_global, rel=1e-15)
        assert model.groups == (2, 2)
        for layer in (slice(0, 2), slice(2, 4)):
            layer_gamma = rec.grad_norms_sq[layer]
            gbar = sum(layer_gamma) / len(layer_gamma)
            for lam, g, s in zip(
                rec.lambdas[layer], layer_gamma, rec.core_norms_sq[layer]
            ):
                assert lam == pytest.approx(
                    0.1 * cfg.alpha * u_global * (g - gbar) / s, rel=1e-12
                )


class TestStateBuffers:
    def test_momentum_buffers_match_core_shapes(self, rng):
        spec = tucker_spec((3, 3, 2), (2, 2, 2))
        cores = random_cores(spec, rng)
        state = init_state(SgdConfig(eta=0.1, momentum=0.9), cores)
        assert [b.shape for b in state.momentum] == [c.shape for c in cores]

    def test_adam_buffers_match_core_shapes(self, rng):
        spec = tucker_spec((3, 3, 2), (2, 2, 2))
        cores = random_cores(spec, rng)
        state = init_state(AdamConfig(), cores)
        assert [b.shape for b in state.adam_m] == [c.shape for c in cores]
        assert [b.shape for b in state.adam_v] == [c.shape for c in cores]
