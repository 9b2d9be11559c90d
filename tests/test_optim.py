import copy
import linecache
import math
import os
import pickle
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coreflow.errors import NumericalError, ShapeMismatch, ZeroCoreNorm
from coreflow.model import (
    LayeredModel,
    ReconstructionSpec,
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
    step_of,
)
import coreflow
from coreflow import experiments, tensor
from coreflow.tensor import (
    ContractionPlan,
    FlatViews,
    as_tensor,
    contract,
    contract_grads,
    frobenius_inner,
    frobenius_norm_sq,
)

from test_benchmark_hooks import load
from test_model import random_models

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

    @pytest.mark.parametrize("kind, groups", [("tucker2", (3, 3)), ("scalar", (2, 2))])
    def test_run_takes_the_spec_groups_as_a_probe_step_does(self, kind, groups):
        # run and probe.step both hand every step the spec's layout, so DAS takes its
        # means per layer in a run as in a probe's one-step checks
        probe = experiments.layered_instance(kind, 0)
        cfg = DasConfig(0.05, SgdConfig(1e-3))
        final, records = run(probe.spec, probe.cores, probe.objective, cfg, 1)
        new, rec, _ = probe.step(cfg)
        assert records[0].lambdas == rec.lambdas and records == [rec]
        assert final.flat.tobytes() == new.flat.tobytes()
        assert probe.spec.groups == groups

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

    @staticmethod
    def count_carriers(monkeypatch):
        """The carriers built from here on: every one is made by rendered code's
        ``new(FlatViews, views)``, in a reverse pass or in a layout's ``like``."""
        built = []

        def counted(cls, views):
            built.append(cls)
            return tuple.__new__(cls, views)

        monkeypatch.setitem(tensor._RENDERED, "new", counted)
        return built

    def test_das_step_builds_two_carriers(self, rng, monkeypatch):
        # the gradients and the update: the scaled cores reach the update as one flat array
        spec = tucker_spec((5, 4, 3), (2, 2, 2))
        cfg = DasConfig(alpha=0.05, base=SgdConfig(eta=0.01, weight_decay=0.1))
        obj = MaskedMse(reconstruct(spec, random_cores(spec, rng)), as_tensor(np.ones((5, 4, 3))))
        grads_of = gradient_fn(spec, obj)
        start = random_cores(spec, rng, 0.5)
        cores, _, _ = das_step(grads_of, start, cfg, init_state(cfg, start))
        built = self.count_carriers(monkeypatch)
        got, rec, g = das_step(grads_of, cores, cfg, init_state(cfg, cores))
        assert built == [FlatViews] * 2
        monkeypatch.undo()
        factors = np.repeat(np.add(1.0, rec.lambdas), [c.size for c in cores])
        want = (1.0 - 0.01 * 0.1) * (cores.flat * factors) - 0.01 * g.flat
        assert got.flat.tobytes() == want.tobytes() and got.shapes == cores.shapes

    @pytest.mark.parametrize(
        "step, cfg, carriers",
        [
            (plain_step, SgdConfig(eta=0.01), 2),  # the gradients and the update
            (sam_step, SamConfig(rho=0.05, base=SgdConfig(eta=0.01)), 4),  # and x + rho*u*g, g~
        ],
        ids=["plain", "sam"],
    )
    def test_step_builds_its_carriers(self, rng, monkeypatch, step, cfg, carriers):
        spec = tucker_spec((5, 4, 3), (2, 2, 2))
        obj = MaskedMse(reconstruct(spec, random_cores(spec, rng)), as_tensor(np.ones((5, 4, 3))))
        grads_of = gradient_fn(spec, obj)
        start = random_cores(spec, rng, 0.5)
        cores, _, _ = step(grads_of, start, cfg, init_state(cfg, start))
        built = self.count_carriers(monkeypatch)
        step(grads_of, cores, cfg, init_state(cfg, cores))
        assert built == [FlatViews] * carriers

    @pytest.mark.parametrize(
        "cfg",
        [
            SgdConfig(eta=0.01),
            AdamConfig(eta=0.01),
            SamConfig(rho=0.05, base=SgdConfig(eta=0.01)),
            DasConfig(alpha=0.05, base=AdamConfig(eta=0.01)),
        ],
        ids=["sgd", "adam", "sam", "das"],
    )
    def test_every_carrier_is_read_only_and_tiles_its_array(self, cfg, rng):
        # the updates, SAM's perturbations and every pass's gradients, over a
        # step from a plain list and a step from a carrier
        spec = tucker_spec((5, 4, 3), (2, 3, 2))
        obj = MaskedMse(reconstruct(spec, random_cores(spec, rng)), as_tensor(np.ones((5, 4, 3))))
        passes = []

        def grads_of(cores):
            loss, g = loss_and_core_grads(spec, cores, obj)
            passes.append((cores, g))
            return loss, g

        cores = random_cores(spec, rng, 0.5)
        state, carriers = init_state(cfg, cores), []
        for _ in range(2):
            passes.clear()
            cores = tensor.quietly(step_of(cfg), grads_of, cores, cfg, state)[0]
            carriers += [cores] + [g for _, g in passes] + [given for given, _ in passes[1:]]
        assert len(carriers) == (8 if isinstance(cfg, SamConfig) else 4)
        for carrier in carriers:
            flat = carrier.flat
            assert type(carrier) is FlatViews and carrier.shapes == spec.core_shapes
            assert flat.ndim == 1 and not flat.flags.writeable
            offset = 0
            for view, shape in zip(carrier, carrier.shapes, strict=True):
                assert view.shape == shape and view.flags.c_contiguous and not view.flags.writeable
                assert np.shares_memory(view, flat)
                byte = view.__array_interface__["data"][0] - flat.__array_interface__["data"][0]
                assert byte == offset * flat.itemsize
                offset += view.size
            assert offset == flat.size

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
        # the rendered view code lives only in the cache: linecache keeps none of it
        limit = tensor._layout.cache_info().maxsize
        registered = set(linecache.cache)
        for n in range(1, 2 * limit + 2):
            FlatViews(np.zeros(n), [(n,)])
        assert 0 < tensor._layout.cache_info().currsize <= limit
        assert set(linecache.cache) <= registered


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
        want = grad_cores(spec, cores, dl)  # a standalone pass runs its own forward
        assert repr(loss) == repr(want_loss)
        assert len(grads) == len(want) == spec.num_cores
        for got, ref in zip(grads, want):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        writable = loss_and_core_grads(spec, [np.array(c) for c in cores], obj)
        assert writable[1].flat.tobytes() == grads.flat.tobytes()

    @pytest.mark.parametrize(
        "family, fused, standalone", [("tucker", 9, 12), ("tucker2", 6, 8)]
    )
    def test_reverse_pass_takes_the_forward_accumulators(self, family, fused, standalone, rng):
        spec = self.SPECS[family]()
        cores = random_cores(spec, rng)
        target = reconstruct(spec, random_cores(spec, rng))
        obj = MaskedMse(target, as_tensor(np.ones(spec.output_shape)))
        dl = obj.loss_and_grad(reconstruct(spec, cores))[1]
        calls = []

        def counted(frame, event, arg):  # the rendered steps call ndarray.dot
            if event == "c_call" and arg.__name__ == "dot":
                calls.append(1)

        sys.setprofile(counted)
        try:
            loss_and_core_grads(spec, cores, obj)
            fused_calls = len(calls)
            # reconstruct, then a standalone gradient pass: two forwards
            reconstruct(spec, cores)
            grad_cores(spec, cores, dl)
        finally:
            sys.setprofile(None)
        assert [fused_calls, len(calls) - fused_calls] == [fused, standalone]


def plan_model(ops, out, shapes, const=None, seed=0):
    """(spec, cores, output-sized tensor) as ``random_models`` draws them, for a given plan."""
    rng = np.random.default_rng(seed)
    values = [as_tensor(rng.standard_normal(shape)) for shape in shapes]
    spec = ReconstructionSpec(
        ContractionPlan(tuple(ops), out),
        tuple(s for i, s in enumerate(shapes) if i != const),
        tuple(v if i == const else None for i, v in enumerate(values)),
    )
    cores = [v for i, v in enumerate(values) if i != const]
    return spec, cores, as_tensor(rng.standard_normal(spec.output_shape))


class TestPassOnRandomPlans:
    """A gradient pass, on its own, inside a step's scope or through the
    callback, gives the bytes of the standalone path: ``contract``, then the
    objective, then ``contract_grads``."""

    OBJECTIVES = {
        "masked": lambda target: MaskedMse(target, as_tensor(np.ones(target.shape))),
        "noisy": lambda target: NoisyTargetMse(target, alpha=0.3, seed=4),
    }

    @settings(max_examples=150, deadline=None)
    @given(random_models(), st.booleans(), st.sampled_from(sorted(OBJECTIVES)))
    @example(plan_model(("aab", "bc"), "c", [(2, 2, 3), (3, 4)], const=0), True, "masked")  # repeated label
    @example(plan_model(("i", "j"), "ij", [(3,), (4,)]), False, "noisy")  # outer product
    @example(plan_model(("aib", "bjc", "cka"), "ijk", [(2, 3, 2), (2, 2, 2), (2, 3, 2)]), True, "noisy")  # ring
    def test_matches_the_standalone_path_bitwise(self, model, carrier, objective):
        spec, cores, target = model
        obj = self.OBJECTIVES[objective](target)
        if carrier:
            cores = FlatViews(np.concatenate([c.ravel() for c in cores]), [c.shape for c in cores])
        ops = spec.operands(cores)
        want_loss, dl = obj.loss_and_grad(contract(spec.plan, ops))
        want = contract_grads(spec.plan, ops, dl, spec.core_slots)
        passes = [
            loss_and_core_grads(spec, cores, obj),
            tensor.quietly(loss_and_core_grads, spec, cores, obj),  # as a step calls it
            gradient_fn(spec, obj)(cores),
        ]
        for loss, grads in passes:
            assert repr(loss) == repr(want_loss)
            assert grads.shapes == want.shapes and grads.flat.tobytes() == want.flat.tobytes()


class TestNormsSq:
    def test_matches_frobenius_norm_sq(self, rng):
        arrays = [as_tensor(rng.standard_normal(s)) for s in ((3, 4), (5,), (2, 3, 2))]
        assert norms_sq(arrays) == tuple(frobenius_norm_sq(a) for a in arrays)

    def test_overflow_raises(self):
        with pytest.raises(NumericalError, match="squared norms"):
            norms_sq([as_tensor([1.0]), as_tensor([1e200])])

    @given(
        st.lists(st.integers(1, 400), min_size=1, max_size=5),
        st.one_of(st.none(), st.integers(-150, 150)),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_each_norm_is_frobenius_norm_sq_bit_for_bit(self, sizes, decade, seed, overflow):
        # magnitudes 1e-150 to 1e150 (one decade, or each entry its own), in
        # 1-5 cores of 1-400 entries of 1-3 axes
        rng = np.random.default_rng(seed)
        decades = rng.integers(-150, 151, sum(sizes)) if decade is None else np.full(sum(sizes), decade)
        flat = rng.uniform(-10.0, 10.0, sum(sizes)) * 10.0 ** decades.astype(float)
        if overflow:  # one square past float64's range
            flat[rng.integers(sum(sizes))] = 1e160
        shapes = [(n,) if n % 3 else (3, n // 3) if n % 2 else (3, 2, n // 6) for n in sizes]
        carrier = FlatViews(as_tensor(flat), shapes)
        for arrays in (carrier, [as_tensor(a) for a in carrier]):
            if overflow:
                with pytest.raises(NumericalError, match="squared norms"):
                    norms_sq(arrays)
            else:
                assert [repr(v) for v in norms_sq(arrays)] == [repr(frobenius_norm_sq(a)) for a in arrays]


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

    ON_ITS_OWN = ("base_step", "loss_and_core_grads", "plain_step", "sam_step", "das_step")

    @pytest.mark.parametrize("entry", ON_ITS_OWN)
    def test_a_call_on_its_own_enters_one_scope(self, entry, rng, monkeypatch):
        spec, cores, obj = self.problem(rng)
        grads_of = gradient_fn(spec, obj)
        g, adam = grads_of(cores)[1], self.CONFIGS["adam"]
        calls = {
            "base_step": lambda: base_step(cores, g, adam, init_state(adam, cores)),
            "loss_and_core_grads": lambda: loss_and_core_grads(spec, cores, obj),
            "plain_step": lambda: plain_step(grads_of, cores, adam, init_state(adam, cores)),
            "sam_step": lambda: sam_step(grads_of, cores, self.CONFIGS["sam"], init_state(adam, cores)),
            "das_step": lambda: das_step(grads_of, cores, self.CONFIGS["das"], init_state(adam, cores)),
        }
        entries = []
        errstate = np.errstate

        def counted(**kwargs):
            entries.append(kwargs)
            return errstate(**kwargs)

        monkeypatch.setattr(np, "errstate", counted)
        calls[entry]()
        assert entries == [{"over": "ignore", "invalid": "ignore"}]

    @pytest.mark.parametrize("entry", ON_ITS_OWN)
    def test_a_call_on_its_own_reruns_its_own_code(self, entry):
        public = getattr(coreflow.optim, entry)
        alone = getattr(coreflow.optim, "_" + entry)
        assert alone is not public and alone.__code__ is public.__code__
        assert alone.__defaults__ == public.__defaults__

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
        if entry == "sam_step_update":  # the perturbation is finite, the update overflows
            spec = custom_spec("i,j->ij", [(1,), (1,)])
            cores = [as_tensor([1.0]), as_tensor([2.0])]
            obj = MaskedMse(as_tensor([[0.0]]), as_tensor([[1.0]]))
            cfg = SamConfig(rho=1e-3, base=SgdConfig(eta=1e308))
            return sam_step(gradient_fn(spec, obj), cores, cfg, init_state(cfg, cores))
        if entry in ("plain_step", "das_step", "base_step"):  # the gradients are finite, the update overflows
            spec = custom_spec("i,j->ij", [(1,), (1,)])
            cores = [as_tensor([1.0]), as_tensor([2.0])]
            obj = MaskedMse(as_tensor([[0.0]]), as_tensor([[1.0]]))
            sgd = SgdConfig(eta=1e308)
            if entry == "base_step":
                return base_step(cores, [as_tensor([2.0]), as_tensor([1.0])], sgd, init_state(sgd, cores))
            cfg = sgd if entry == "plain_step" else DasConfig(alpha=1e-310, base=sgd)
            return step_of(cfg)(gradient_fn(spec, obj), cores, cfg, init_state(cfg, cores))
        spec = custom_spec("a,b->ab", [(1,), (1,)])
        model = LayeredModel(specs=[spec, spec], cores=[[as_tensor([1.0])] * 2] * 2)
        obj = MaskedMse(as_tensor([[0.0]]), as_tensor([[1.0]]))
        flat = [as_tensor([1e10]), as_tensor([1.0]), as_tensor([1.0]), as_tensor([1.0])]
        return gradient_fn(model.spec(as_tensor([[1e300]])), obj)(flat)

    @pytest.mark.parametrize(
        "entry",
        ["contract", "contract_grads", "grad_cores", "loss_and_core_grads", "sam_step",
         "sam_step_update", "layered_gradient_fn", "plain_step", "das_step", "base_step"],
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
            return final.flat.tobytes(), repr([tuple(r) for r in records])

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


class TestCallsPerStep:
    """The calls into coreflow's own Python that one step makes, as ``run``
    makes it (inside ``quietly``): frames of its modules, of the code it
    renders per plan (``<plan ...>``) and per carrier layout (``<carrier ...>``),
    and of StepRecord's constructor, which namedtuple builds with ``eval``
    (``<string>``).  A count, so no drift of the host's speed moves it."""

    CASES = {
        "sam_noise_tucker2": ("noise", SamConfig(rho=1e-2, base=SgdConfig(eta=5e-4)), 26),
        "sam_tucker": ("tucker", SamConfig(rho=1e-2, base=AdamConfig(eta=1e-3)), 26),
        "adam_tucker": ("tucker", AdamConfig(eta=1e-3), 16),
        "sgd_tucker2": ("tucker2", SgdConfig(eta=1e-3), 16),
        "das_tucker": ("tucker", DasConfig(alpha=0.05, base=AdamConfig(eta=1e-3)), 21),
    }

    @staticmethod
    def problem(kind, rng):
        """The noise sweep's tucker2 24x20 rank 5, or the Tucker 20^3 rank 4 completion."""
        if kind == "tucker":
            spec = tucker_spec((20, 20, 20), (4, 4, 4))
            mask = as_tensor((rng.random((20, 20, 20)) < 0.3).astype(float))
            return spec, MaskedMse(reconstruct(spec, random_cores(spec, rng)), mask)
        spec = tucker2_spec(24, 20, 5, 5)
        clean = reconstruct(spec, random_cores(spec, rng))
        if kind == "noise":
            return spec, NoisyTargetMse(clean, alpha=0.1, seed=3, resample_each_step=True)
        return spec, MaskedMse(clean, as_tensor(np.ones(clean.shape)))

    @staticmethod
    def calls_in(fn, *args):
        ours = os.path.dirname(coreflow.__file__) + os.sep
        calls = []

        def profile(frame, event, arg):
            name = frame.f_code.co_filename
            if event == "call" and (name.startswith((ours, "<plan ", "<carrier ")) or name == "<string>"):
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            fn(*args)
        finally:
            sys.setprofile(None)
        return calls

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exact_count(self, case, rng):
        kind, cfg, want = self.CASES[case]
        spec, obj = self.problem(kind, rng)
        cores = random_cores(spec, rng, norm_spread=0.5)
        step, grads_of, state = step_of(cfg), gradient_fn(spec, obj), init_state(cfg, cores)
        for _ in range(2):  # renders the plan's code and leaves the cores a carrier
            cores = tensor.quietly(step, grads_of, cores, cfg, state)[0]
        calls = self.calls_in(tensor.quietly, step, grads_of, cores, cfg, state)
        assert len(calls) == want, sorted(calls)


class TestNumpyFramesPerStep:
    """A step calls numpy's C routines directly: the only calls into numpy's
    Python files are ``np.errstate``'s, entered once around the step."""

    CONFIGS = {
        "sgd": SgdConfig(eta=5e-4),
        "adam": AdamConfig(eta=1e-3),
        "sam": SamConfig(rho=1e-2, base=SgdConfig(eta=5e-4)),
        "das": DasConfig(alpha=0.05, base=AdamConfig(eta=1e-3)),
    }

    @pytest.mark.parametrize("kind", ["noise", "tucker"])
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_only_the_error_state_entry(self, name, kind, rng):
        cfg = self.CONFIGS[name]
        spec, obj = TestCallsPerStep.problem(kind, rng)
        cores = random_cores(spec, rng, norm_spread=0.5)
        step, grads_of, state = step_of(cfg), gradient_fn(spec, obj), init_state(cfg, cores)
        for _ in range(2):  # renders the plan's code and leaves the cores a carrier
            cores = tensor.quietly(step, grads_of, cores, cfg, state)[0]
        numpy_dir = os.path.dirname(np.__file__) + os.sep
        calls = []

        def profile(frame, event, arg):
            filename = frame.f_code.co_filename
            if event == "call" and filename.startswith(numpy_dir):
                calls.append((os.path.basename(filename), frame.f_code.co_name))

        sys.setprofile(profile)
        try:
            tensor.quietly(step, grads_of, cores, cfg, state)
        finally:
            sys.setprofile(None)
        assert calls == [("_ufunc_config.py", fn) for fn in ("__init__", "__enter__", "__exit__")]


class TestStandaloneSpans:
    """A public entry point called outside any scope opens the scope around a
    private body, never through its own traced name: perfbench's tracer
    records one span per call."""

    @staticmethod
    def spans(fn, *args):
        tracer = load("tracer").Tracer()
        tracer.install()
        try:
            assert not tensor._scope.open
            fn(*args)
            assert not tensor._scope.open
            names = ("optim.loss_and_core_grads", "model.grad_cores", "optim.sam_step", "optim.base_step")
            return [tracer.query(name)[0] for name in names]
        finally:
            tracer.uninstall()

    def test_one_span_per_call(self, rng):
        spec = tucker_spec((5, 4, 3), (2, 2, 2))
        obj = MaskedMse(reconstruct(spec, random_cores(spec, rng)), as_tensor(np.ones((5, 4, 3))))
        cores = random_cores(spec, rng, norm_spread=0.5)
        kept = spec.compiled.forward(spec.operands(cores))[1]
        dl = obj.loss_and_grad(reconstruct(spec, cores))[1]
        cfg = SamConfig(rho=0.05, base=SgdConfig(eta=0.01))
        # each call looks its function up where the tracer rebinds it
        optim, model = coreflow.optim, coreflow.model
        assert self.spans(lambda: optim.loss_and_core_grads(spec, cores, obj)) == [1, 1, 0, 0]
        assert self.spans(lambda: model.grad_cores(spec, cores, dl, kept)) == [0, 1, 0, 0]
        assert self.spans(lambda: model.grad_cores(spec, cores, dl)) == [0, 1, 0, 0]
        step = lambda: optim.sam_step(optim.gradient_fn(spec, obj), cores, cfg, init_state(cfg, cores))
        assert self.spans(step) == [2, 2, 1, 1]

    def test_one_span_per_update_call(self, rng):
        spec = tucker_spec((5, 4, 3), (2, 2, 2))
        obj = MaskedMse(reconstruct(spec, random_cores(spec, rng)), as_tensor(np.ones((5, 4, 3))))
        cores = random_cores(spec, rng, norm_spread=0.5)
        grads = grad_cores(spec, cores, obj.loss_and_grad(reconstruct(spec, cores))[1])
        sgd = SgdConfig(eta=0.01)
        das = DasConfig(alpha=0.05, base=sgd)
        optim = coreflow.optim  # each call looks its function up where the tracer rebinds it
        tracer = load("tracer").Tracer()
        calls = [
            lambda: optim.base_step(cores, grads, sgd, init_state(sgd, cores)),
            lambda: optim.plain_step(optim.gradient_fn(spec, obj), cores, sgd, init_state(sgd, cores)),
            lambda: optim.das_step(optim.gradient_fn(spec, obj), cores, das, init_state(das, cores)),
        ]
        names = ("optim.loss_and_core_grads", "model.grad_cores", "optim.das_step", "optim.base_step")
        counts = []
        tracer.install()
        try:
            for call in calls:
                before = [tracer.query(name)[0] for name in names]
                assert not tensor._scope.open
                call()
                assert not tensor._scope.open
                counts.append([tracer.query(name)[0] - b for name, b in zip(names, before)])
        finally:
            tracer.uninstall()
        assert counts == [[0, 0, 0, 1], [1, 1, 0, 1], [1, 1, 1, 1]]


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
        assert repr([tuple(r) for r in records]) == repr(ref_records)

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
