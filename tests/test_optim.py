import copy
import dataclasses
import math
import pickle
import sys
import threading
import warnings

import numpy as np
import pytest

from coreflow.errors import NumericalError, ShapeMismatch, ZeroCoreNorm
from coreflow.model import (
    LayeredModel,
    cp_spec,
    custom_spec,
    grad_cores,
    random_cores,
    reconstruct,
    tr_spec,
    tt_spec,
    tucker2_spec,
    tucker_spec,
)
from coreflow.objective import MaskedMse, NoisyTargetMse
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
    norms_sq,
    plain_step,
    run,
    sam_step,
    scheduled_eta,
)
from coreflow import tensor
from coreflow.tensor import (
    ContractionPlan,
    FlatViews,
    as_tensor,
    contract,
    contract_grads,
    frobenius_inner,
    frobenius_norm_sq,
)

from oracles import (
    reference_steps,
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

    # three cores; the groups must cover them, each group holding at least one
    @pytest.mark.parametrize(
        "groups",
        [(2, 2), (2,), (0, 3)],
        ids=["sum-too-large", "sum-too-small", "empty-group"],
    )
    def test_groups_must_partition_the_cores(self, groups):
        with pytest.raises(ShapeMismatch, match=r"groups .* sum to 3 cores"):
            das_scaling_factors(0.1, 1.0, [1.0, 2.0, 3.0], [4.0, 2.0, 1.0], groups)


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
            gradient_fn(model.spec(x), obj), flat, cfg, init_state(cfg, flat),
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

    def test_step_reads_back_only_the_views_it_handed_out(self, rng):
        spec = tucker2_spec(4, 4, 2, 2)  # cores (4,2), (2,2), (4,2)
        cfg = SgdConfig(eta=0.1)
        cores = random_cores(spec, rng)
        state = init_state(cfg, cores)
        grads = [as_tensor(np.ones(shape)) for shape in spec.core_shapes]
        new = base_step(cores, grads, cfg, state)
        # the views just handed out, the same views reordered, fresh arrays
        for order in ((0, 1, 2), (2, 1, 0), None):
            if order is None:
                given = [as_tensor(c + 1.0) for c in new]
            else:
                given = [new[k] for k in order]
            new = base_step(given, grads, cfg, state)
            for got, start in zip(new, given):
                np.testing.assert_array_equal(got, start - 0.1)


class TestFlatViewsCarrier:
    """The gradient pass and the update pass one FlatViews along, so a step
    copies only the plain lists it builds or is given."""

    STEPS = {
        "adam": (plain_step, AdamConfig(eta=0.01), 0),
        "sam": (sam_step, SamConfig(rho=0.05, base=AdamConfig(eta=0.01)), 0),
        "das": (das_step, DasConfig(alpha=0.05, base=AdamConfig(eta=0.01)), 0),
    }

    @pytest.mark.parametrize("name", sorted(STEPS))
    def test_concatenations_in_a_second_step(self, name, rng, monkeypatch):
        # gradients are written into their carrier; DAS scales the flat cores in one multiply
        step, cfg, want = self.STEPS[name]
        spec = tucker_spec((5, 4, 3), (2, 2, 2))
        cores = random_cores(spec, rng, norm_spread=0.5)
        obj = MaskedMse(
            reconstruct(spec, random_cores(spec, rng)), as_tensor(np.ones((5, 4, 3)))
        )
        grads_of, state = gradient_fn(spec, obj), init_state(cfg, cores)
        cores, _, _ = step(grads_of, cores, cfg, state)
        calls = []
        concatenate = np.concatenate

        def counted(*args, **kwargs):
            calls.append(args)
            return concatenate(*args, **kwargs)

        monkeypatch.setattr(np, "concatenate", counted)
        step(grads_of, cores, cfg, state)
        assert len(calls) == want

    def test_gradients_are_sealed_views_of_one_array(self, rng):
        spec = tucker2_spec(5, 4, 3, 2)  # the last core's gradient ends in a transpose
        cores = random_cores(spec, rng)
        grads = grad_cores(spec, cores, reconstruct(spec, random_cores(spec, rng)))
        assert not grads.flat.flags.writeable
        for view, core in zip(grads, cores, strict=True):
            assert view.shape == core.shape and np.shares_memory(view, grads.flat)
            with pytest.raises(ValueError):
                view[0, 0] = 1.0

    def test_carrier_cannot_be_changed(self, rng):
        spec = tucker2_spec(4, 4, 2, 2)
        cfg = SgdConfig(eta=0.1)
        cores = random_cores(spec, rng)
        new = base_step(cores, cores, cfg, init_state(cfg, cores))
        assert all(np.shares_memory(view, new.flat) for view in new)
        with pytest.raises(TypeError):
            new[0] = cores[0]
        with pytest.raises(AttributeError):
            new.flat = np.zeros_like(new.flat)
        with pytest.raises(ValueError):
            new[0][0, 0] = 1.0

    def test_carrier_survives_pickle_and_deepcopy(self, rng):
        cores = random_cores(tucker2_spec(4, 4, 2, 2), rng)
        cfg = SgdConfig(eta=0.1)
        new = base_step(cores, cores, cfg, init_state(cfg, cores))
        for back in (pickle.loads(pickle.dumps(new)), copy.deepcopy(new)):
            assert type(back) is type(new) and back.flat.tobytes() == new.flat.tobytes()
            assert all(np.shares_memory(view, back.flat) for view in back)
            for got, want in zip(back, new, strict=True):
                np.testing.assert_array_equal(got, want)

    @staticmethod
    def carrier(rng):
        cores = random_cores(tucker_spec((5, 4, 3), (2, 3, 2)), rng)
        cfg = SgdConfig(eta=0.1)
        return base_step(cores, cores, cfg, init_state(cfg, cores))

    def test_shapes_are_a_tuple_that_cannot_be_replaced(self, rng):
        new = self.carrier(rng)
        assert type(new.shapes) is tuple and new.shapes == tuple(v.shape for v in new)
        with pytest.raises(AttributeError):
            new.shapes = ()

    def test_views_sit_where_a_loop_would_put_them(self, rng):
        new = self.carrier(rng)
        start = 0
        for view, shape in zip(new, new.shapes, strict=True):
            size = math.prod(shape)
            want = new.flat[start:start + size].reshape(shape)
            start += size
            assert np.shares_memory(view, new.flat)
            assert view.__array_interface__ == want.__array_interface__
        assert start == new.flat.size

    def test_pickle_and_deepcopy_keep_the_shapes(self, rng):
        new = self.carrier(rng)
        for back in (pickle.loads(pickle.dumps(new)), copy.deepcopy(new)):
            assert back.shapes == new.shapes and type(back.shapes) is tuple

    @pytest.mark.parametrize("size", [5, 7, 0])
    def test_flat_array_of_the_wrong_length_raises(self, size):
        with pytest.raises(ShapeMismatch, match="for 6 entries"):
            FlatViews(np.zeros(size), [(2, 2), (2,)])

    def test_layout_cache_is_bounded(self):
        limit = tensor._layout.cache_info().maxsize
        for n in range(1, 2 * limit + 2):
            FlatViews(np.zeros(n), [(n,)])
        assert 0 < tensor._layout.cache_info().currsize <= limit


class TestFusedPass:
    """``loss_and_core_grads`` is one forward and one reverse pass, and gives
    the bytes of reconstruct -> loss_and_grad -> grad_cores."""

    SPECS = {
        "cp": lambda: cp_spec((4, 3, 2), 3),  # constant superdiagonal slot
        "tucker": lambda: tucker_spec((4, 3, 5), (2, 3, 2)),
        "tucker2": lambda: tucker2_spec(5, 4, 3, 2),
        "tt": lambda: tt_spec((2, 3, 2, 2), (2, 2, 2)),
        "tr": lambda: tr_spec((3, 2, 3), (2, 2, 2)),  # ring label on both ends
        "custom": lambda: custom_spec("ja,ab,bi->ij", [(3, 2), (2, 4), (4, 5)]),  # folds to ji
    }
    OBJECTIVES = {
        "masked": lambda target, rng: MaskedMse(
            target, as_tensor((rng.random(target.shape) < 0.5).astype(float))
        ),
        "noisy": lambda target, rng: NoisyTargetMse(target, alpha=0.3, seed=4),
    }

    @pytest.mark.parametrize("objective", sorted(OBJECTIVES))
    @pytest.mark.parametrize("family", sorted(SPECS))
    def test_matches_unfused_composition_bitwise(self, family, objective, rng):
        spec = self.SPECS[family]()
        target = reconstruct(spec, random_cores(spec, rng))
        obj = self.OBJECTIVES[objective](target, rng)
        cores = random_cores(spec, rng, norm_spread=0.5)
        loss, grads = loss_and_core_grads(spec, cores, obj)
        want_loss, dl = obj.loss_and_grad(reconstruct(spec, cores))
        # fresh arrays, so the reverse pass rebuilds its accumulators
        want = grad_cores(spec, [np.array(c) for c in cores], dl)
        assert repr(loss) == repr(want_loss)
        assert len(grads) == len(want) == spec.num_cores
        for got, ref in zip(grads, want):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        writable = loss_and_core_grads(spec, [np.array(c) for c in cores], obj)
        assert writable[1].flat.tobytes() == grads.flat.tobytes()

    @pytest.mark.parametrize(
        "family, fused, rebuilt", [("tucker", 9, 11), ("tucker2", 6, 7)]
    )
    def test_reverse_pass_takes_the_forward_accumulators(
        self, family, fused, rebuilt, rng, monkeypatch
    ):
        spec = self.SPECS[family]()
        cores = random_cores(spec, rng)
        target = reconstruct(spec, random_cores(spec, rng))
        obj = MaskedMse(target, as_tensor(np.ones(spec.output_shape)))
        dl = obj.loss_and_grad(reconstruct(spec, cores))[1]
        calls = []
        dot = np.dot

        def counted(*args, **kwargs):
            calls.append(1)
            return dot(*args, **kwargs)

        monkeypatch.setattr(np, "dot", counted)
        loss_and_core_grads(spec, cores, obj)
        assert len(calls) == fused
        calls.clear()
        reconstruct(spec, cores)
        grad_cores(spec, [np.array(c) for c in cores], dl)
        assert len(calls) == rebuilt


class TestNormsSq:
    def test_matches_frobenius_norm_sq(self, rng):
        arrays = [as_tensor(rng.standard_normal(s)) for s in ((3, 4), (5,), (2, 3, 2))]
        assert norms_sq(arrays) == tuple(frobenius_norm_sq(a) for a in arrays)

    def test_overflow_raises(self):
        with pytest.raises(NumericalError, match="squared norms"):
            norms_sq([as_tensor([1.0]), as_tensor([1e200])])


class TestLossVouchesForOutput:
    """Inside a gradient pass the forward output is not scanned for
    finiteness: a non-finite loss raises instead, with no RuntimeWarning."""

    def test_forward_overflow_at_unobserved_entry_raises(self):
        # entry (0, 0) = 1e400 overflows where the mask is 0; 0 * inf = NaN
        spec = custom_spec("i,j->ij", [(2,), (2,)])
        cores = [as_tensor([1e200, 1e-200]), as_tensor([1e200, 1e-200])]
        obj = MaskedMse(as_tensor(np.zeros((2, 2))), as_tensor([[0.0, 1.0], [1.0, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="^iteration 0: masked mse .* loss nan"):
                run(spec, cores, obj, AdamConfig(eta=0.01), 2)

    @pytest.mark.parametrize("noisy", [False, True])
    def test_loss_overflow_with_finite_residual_raises(self, noisy):
        # the residual 1e160 is finite, its square is not
        spec, cores, obj = scalar_pair_problem(x=1e80, y=1e80, target=0.0)
        if noisy:
            obj = NoisyTargetMse(as_tensor([[0.0]]), alpha=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="^iteration 0: .*non-finite loss inf"):
                run(spec, cores, obj, AdamConfig(eta=0.01), 2)

    def test_layered_overflow_raises(self, rng):
        spec = custom_spec("a,b->ab", [(1,), (1,)])
        model = LayeredModel(specs=[spec, spec], cores=[random_cores(spec, rng)] * 2)
        obj = MaskedMse(as_tensor([[0.0]]), as_tensor([[1.0]]))
        grads_of = gradient_fn(model.spec(as_tensor([[1e300]])), obj)
        flat = [as_tensor([1e10]), as_tensor([1.0]), as_tensor([1.0]), as_tensor([1.0])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="non-finite loss"):
                grads_of(flat)


class TestErrorStateScope:
    """numpy's error state is entered once per optimizer step, around the step
    alone; every public entry point called on its own still turns an overflow
    into NumericalError without a RuntimeWarning."""

    CONFIGS = {
        "sgd": SgdConfig(eta=0.01),
        "adam": AdamConfig(eta=0.01),
        "sam": SamConfig(rho=0.05, base=AdamConfig(eta=0.01)),
        "das": DasConfig(alpha=0.05, base=AdamConfig(eta=0.01)),
    }

    @staticmethod
    def problem(rng):
        spec = tucker_spec((5, 4, 3), (2, 2, 2))
        target = reconstruct(spec, random_cores(spec, rng))
        obj = MaskedMse(target, as_tensor((rng.random((5, 4, 3)) < 0.6).astype(float)))
        return spec, random_cores(spec, rng, norm_spread=0.5), obj

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_one_entry_per_step(self, name, rng, monkeypatch):
        spec, cores, obj = self.problem(rng)
        entries = []
        errstate = np.errstate

        def counted(**kwargs):
            entries.append(kwargs)
            return errstate(**kwargs)

        monkeypatch.setattr(np, "errstate", counted)
        run(spec, cores, obj, self.CONFIGS[name], 5)
        assert entries == [{"over": "ignore", "invalid": "ignore"}] * 5

    def test_caller_hooks_keep_the_callers_error_state(self, rng):
        spec, cores, obj = self.problem(rng)
        seen = {"begin_step": [], "loss_and_grad": [], "sink": []}

        class Watched(MaskedMse):
            def begin_step(self, t):
                seen["begin_step"].append(np.geterr()["over"])

            def loss_and_grad(self, t_hat):
                seen["loss_and_grad"].append(np.geterr()["over"])
                return super().loss_and_grad(t_hat)

        watched = Watched(obj.target, obj.mask)
        with np.errstate(over="raise"):
            run(spec, cores, watched, self.CONFIGS["sam"], 2,
                sink=lambda rec: seen["sink"].append(np.geterr()["over"]))
        assert seen == {
            "begin_step": ["raise"] * 2, "loss_and_grad": ["ignore"] * 4, "sink": ["raise"] * 2,
        }

    @staticmethod
    def overflow_through(entry):
        """Call ``entry`` on an input that overflows inside it."""
        big = as_tensor([[1e300]])
        matmul = ContractionPlan.parse("ij,jk->ik")
        if entry == "contract":
            return contract(matmul, [big, big])
        if entry == "contract_grads":
            return contract_grads(matmul, [big, big], big, (0, 1))
        if entry == "grad_cores":
            spec = custom_spec("ij,jk->ik", [(1, 1), (1, 1)])
            return grad_cores(spec, [big, big], big)
        if entry == "loss_and_core_grads":
            # x*y = 1 is finite, but dloss/dy = 2*(1 + 1e110)*1e200 overflows
            spec = custom_spec("i,j->ij", [(1,), (1,)])
            obj = MaskedMse(as_tensor([[-1e110]]), as_tensor([[1.0]]))
            return loss_and_core_grads(spec, [as_tensor([1e200]), as_tensor([1e-200])], obj)
        if entry == "sam_step":
            spec, cores, obj = scalar_pair_problem(x=1.0, y=1.0, target=1.0 - 1e-11)
            cfg = SamConfig(rho=1e300, base=SgdConfig(eta=0.1))
            return sam_step(gradient_fn(spec, obj), cores, cfg, init_state(cfg, cores))
        spec = custom_spec("a,b->ab", [(1,), (1,)])
        model = LayeredModel(specs=[spec, spec], cores=[[as_tensor([1.0])] * 2] * 2)
        obj = MaskedMse(as_tensor([[0.0]]), as_tensor([[1.0]]))
        flat = [as_tensor([1e10]), as_tensor([1.0]), as_tensor([1.0]), as_tensor([1.0])]
        return gradient_fn(model.spec(as_tensor([[1e300]])), obj)(flat)

    @pytest.mark.parametrize(
        "entry",
        ["contract", "contract_grads", "grad_cores", "loss_and_core_grads", "sam_step",
         "layered_gradient_fn"],
    )
    def test_each_entry_point_on_its_own(self, entry):
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                self.overflow_through(entry)
        assert np.geterr() == before and not tensor._scope.open

    def test_concurrent_runs_match_serial_runs(self, rng):
        # more threads than cores, all on one spec, so they share its compiled plan
        spec, _, obj = self.problem(rng)
        starts = [random_cores(spec, rng, norm_spread=0.5) for _ in self.CONFIGS]
        jobs = list(zip(starts, self.CONFIGS.values()))

        def once(cores, cfg):
            final, records = run(spec, cores, obj, cfg, 40)
            return final.flat.tobytes(), repr([dataclasses.astuple(r) for r in records])

        serial = [once(*job) for job in jobs]
        results = [None] * len(jobs)

        def worker(i):
            try:
                results[i] = once(*jobs[i])
            except Exception as exc:  # reported by the assertion below
                results[i] = exc

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert results == serial


class TestReferenceSteps:
    """20 flat-vector steps against the plain per-core reference, bitwise."""

    CONFIGS = {
        "sgd": SgdConfig(eta=0.05),
        "momentum_wd": SgdConfig(eta=0.05, momentum=0.9, weight_decay=0.01),
        "adam_wd": AdamConfig(eta=0.01, weight_decay=0.01),
        "sam_adam": SamConfig(rho=0.05, base=AdamConfig(eta=0.01)),
        "das_adam": DasConfig(alpha=0.05, base=AdamConfig(eta=0.01)),
    }

    @staticmethod
    def assert_bitwise(cores, records, ref_cores, ref_records):
        assert len(cores) == len(ref_cores)
        for got, want in zip(cores, ref_cores):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert repr([dataclasses.astuple(r) for r in records]) == repr(ref_records)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_run_matches_reference(self, name, rng):
        spec = tucker_spec((5, 4, 3), (2, 2, 2))
        cores = random_cores(spec, rng, norm_spread=0.5)
        target = reconstruct(spec, random_cores(spec, rng))
        obj = MaskedMse(target, as_tensor((rng.random((5, 4, 3)) < 0.6).astype(float)))
        cfg = self.CONFIGS[name]
        final, records = run(spec, list(cores), obj, cfg, 20)
        ref_cores, ref_records = reference_steps(gradient_fn(spec, obj), cores, cfg, 20)
        self.assert_bitwise(final, records, ref_cores, ref_records)

    def test_layered_das_matches_reference(self, rng):
        s1 = tucker2_spec(4, 3, 2, 2)
        s2 = custom_spec("ab,bc->ac", [(5, 2), (2, 4)])
        model = LayeredModel(
            specs=[s1, s2],
            cores=[random_cores(s1, rng, 0.5), random_cores(s2, rng, 0.5)],
        )
        x = as_tensor(rng.standard_normal((3, 2)))
        obj = MaskedMse(as_tensor(rng.standard_normal((5, 2))), as_tensor(np.ones((5, 2))))
        grads_of = gradient_fn(model.spec(x), obj)
        cfg = DasConfig(alpha=0.05, base=AdamConfig(eta=0.01))
        cores = [c for layer in model.cores for c in layer]
        state, records, flat = init_state(cfg, cores), [], cores
        for _ in range(20):
            flat, rec, _ = das_step(grads_of, flat, cfg, state, groups=model.groups)
            records.append(rec)
        ref = reference_steps(grads_of, cores, cfg, 20, groups=model.groups)
        assert model.groups == (3, 2)
        self.assert_bitwise(flat, records, *ref)

    def test_gradient_overflow_raises(self):
        """x*y = 1 is finite, but dloss/dy = 2*(1 + 1e110)*1e200 overflows."""
        spec = custom_spec("i,j->ij", [(1,), (1,)])
        cores = [as_tensor([1e200]), as_tensor([1e-200])]
        obj = MaskedMse(as_tensor([[-1e110]]), as_tensor([[1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="^iteration 0: .*gradient"):
                run(spec, cores, obj, AdamConfig(eta=0.01), 2)

    def test_sam_perturbation_overflow_raises(self):
        """A gradient of norm ~3e-11 makes rho*u overflow for rho = 1e300."""
        spec, cores, obj = scalar_pair_problem(x=1.0, y=1.0, target=1.0 - 1e-11)
        cfg = SamConfig(rho=1e300, base=SgdConfig(eta=0.1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="^iteration 0: SAM perturbation"):
                run(spec, cores, obj, cfg, 2)
