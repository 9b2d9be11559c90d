import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coreflow.diagnostics import (
    check_das_matches_sam,
    check_layerwise_q,
    check_pairwise_sam_dynamics,
    check_sam_q_dynamics,
    check_sgd_balanced_bound,
    check_sgd_conservation,
    _one_step_sgd_dq,
    norm_deviation,
    norm_deviation_pairwise,
    norm_grad_covariance,
    observe_shrinkage,
    trajectory_rows,
)
from coreflow.errors import LengthMismatch, ZeroGradient
from coreflow.experiments import check_instance, layered_instance
from coreflow.model import LayeredModel, custom_spec, random_cores, reconstruct
from coreflow.objective import MaskedMse
from coreflow.optim import (
    DasConfig,
    SgdConfig,
    StepRecord,
    das_step,
    gradient_fn,
    init_state,
    run,
)
from coreflow.tensor import as_tensor, frobenius_norm_sq


class TestNormDeviation:
    def test_worked_norms(self):
        assert norm_deviation([2.0, 10.0, 18.0]) == 128.0
        assert norm_deviation_pairwise([2.0, 10.0, 18.0]) == pytest.approx(128.0)

    def test_equal_norms_give_zero(self):
        assert norm_deviation([3.0, 3.0, 3.0]) == 0.0
        assert norm_deviation_pairwise([3.0, 3.0]) == 0.0

    def test_single_core(self):
        assert norm_deviation([5.0]) == 0.0
        assert norm_deviation_pairwise([5.0]) == 0.0

    def test_forms_agree_on_random_inputs(self, rng):
        for _ in range(1000):
            k = int(rng.integers(2, 9))
            s = rng.uniform(0.1, 10.0, k)
            a, b = norm_deviation(s), norm_deviation_pairwise(s)
            assert abs(a - b) <= 1e-10 * max(a, 1e-300)

    @given(st.lists(st.floats(0.01, 100.0), min_size=2, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_forms_agree_property(self, s):
        a, b = norm_deviation(s), norm_deviation_pairwise(s)
        assert abs(a - b) <= 1e-10 * max(a, 1e-12)

    def test_permutation_invariance(self, rng):
        s = rng.uniform(0.1, 5.0, 6)
        assert norm_deviation(s) == pytest.approx(
            norm_deviation(rng.permutation(s)), rel=1e-12
        )

    def test_quadratic_scaling(self, rng):
        s = rng.uniform(0.1, 5.0, 5)
        assert norm_deviation(3.0 * s) == pytest.approx(
            9.0 * norm_deviation(s), rel=1e-12
        )

    def test_nonnegative_and_zero_iff_equal(self, rng):
        s = rng.uniform(0.1, 5.0, 4)
        assert norm_deviation(s) >= 0.0
        assert norm_deviation(np.full(4, 1.7)) == 0.0


class TestCovariance:
    def test_single_pair_is_zero(self):
        assert norm_grad_covariance([3.0], [9.0]) == 0.0

    def test_hand_value(self):
        assert norm_grad_covariance([1, 2, 3], [2, 4, 6]) == pytest.approx(4.0 / 3.0)

    def test_sign_flip(self, rng):
        x = rng.uniform(0, 1, 5)
        y = rng.uniform(0, 1, 5)
        flipped = -(y - y.mean()) + y.mean()
        assert norm_grad_covariance(x, flipped) == pytest.approx(
            -norm_grad_covariance(x, y), rel=1e-10
        )

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            norm_grad_covariance([1.0, 2.0], [1.0])


class TestTrajectorySchema:
    def test_header_and_row_layout(self):
        rec = StepRecord(0, 1.5, (1.0, 2.0), (0.5, 0.25))
        rows = trajectory_rows([rec])
        assert rows[0] == "t,loss,q,cov,core_norm_sq_1,core_norm_sq_2,grad_norm_sq_1,grad_norm_sq_2"
        cells = rows[1].split(",")
        assert cells[0] == "0"
        assert float(cells[1]) == 1.5
        assert float(cells[2]) == norm_deviation([1.0, 2.0])

    def test_lambda_columns_present_for_scaled_runs(self):
        rec = StepRecord(3, 0.1, (1.0, 2.0), (0.5, 0.25), lambdas=(0.01, -0.01))
        rows = trajectory_rows([rec])
        assert rows[0].endswith("lambda_1,lambda_2")
        assert rows[1].split(",")[-2:] == ["0.01", "-0.01"]

    def test_q_and_cov_cells(self):
        rec = StepRecord(1, 0.0, (2.0, 10.0, 18.0), (1.0, 2.0, 3.0))
        cells = trajectory_rows([rec])[1].split(",")
        assert cells[2] == "128.0"
        assert float(cells[3]) == norm_grad_covariance((2, 10, 18), (1, 2, 3))


class TestSgdConservation:
    @pytest.mark.parametrize("family", ["cp", "tucker", "tucker2", "tt", "tr"])
    def test_step_halving_ratio_near_four(self, family):
        spec, cores, obj = check_instance(family, seed=0)
        rep = check_sgd_conservation(spec, cores, obj, eta=1e-3, steps=10)
        assert rep.passed
        assert 3.5 <= rep.details["eta_halving_ratio"] <= 4.5

    def test_stationary_point_conserves_exactly(self, rng):
        spec = custom_spec("ij,jk->ik", [(3, 2), (2, 3)])
        cores = random_cores(spec, rng, 0.4)
        target = reconstruct(spec, cores)  # zero residual, zero gradient
        obj = MaskedMse(target, as_tensor(np.ones(target.shape)))
        assert _one_step_sgd_dq(spec, cores, obj, 1e-3) == 0.0

    def test_balanced_drift_bound_holds(self):
        spec, cores, obj = check_instance("tucker2", seed=1)
        rep = check_sgd_balanced_bound(spec, cores, obj, eta=1e-3, steps=100)
        assert rep.passed
        assert rep.measured <= rep.predicted * (1 + 1e-9) + 1e-18


class TestSamQDynamics:
    def test_passes_on_conditioned_instances(self):
        for seed in range(3):
            spec, cores, obj = check_instance("tucker2", seed)
            rep = check_sam_q_dynamics(spec, cores, obj, rho=1e-3, eta=1e-5)
            assert rep.passed
            assert rep.rel_residual <= 0.05
            assert 1.5 <= rep.details["rho_halving_shrink"] <= 4.5

    def test_balanced_equal_gradient_instance_is_quiet(self):
        # symmetric two-core scalar product: equal norms and gradient norms
        spec = custom_spec("i,j->ij", [(1,), (1,)])
        cores = [as_tensor([2.0]), as_tensor([2.0])]
        obj = MaskedMse(as_tensor([[1.0]]), as_tensor([[1.0]]))
        rep = check_sam_q_dynamics(spec, cores, obj, rho=1e-3, eta=1e-5)
        scale = 4.0  # the mean squared core norm
        assert abs(rep.measured) <= 1e-10 * scale
        assert rep.details["cov"] == pytest.approx(0.0)

    def test_zero_gradient_raises(self):
        spec = custom_spec("i,j->ij", [(1,), (1,)])
        cores = [as_tensor([1.0]), as_tensor([1.0])]
        obj = MaskedMse(as_tensor([[1.0]]), as_tensor([[1.0]]))
        with pytest.raises(ZeroGradient):
            check_sam_q_dynamics(spec, cores, obj, rho=1e-3, eta=1e-5)


class TestPairwiseDynamics:
    def test_same_index_is_trivially_zero(self):
        spec, cores, obj = check_instance("tucker2", 0)
        rep = check_pairwise_sam_dynamics(spec, cores, obj, 1e-3, 1e-5, 1, 1)
        assert rep.measured == 0.0
        assert rep.predicted == 0.0
        assert rep.passed

    def test_passes_on_conditioned_instances(self):
        for seed in range(3):
            spec, cores, obj = check_instance("tucker2", seed)
            rep = check_pairwise_sam_dynamics(spec, cores, obj, 1e-3, 1e-5, 0, 2)
            assert rep.passed

    def test_antisymmetric_in_the_pair(self):
        spec, cores, obj = check_instance("tucker2", 4)
        fwd = check_pairwise_sam_dynamics(spec, cores, obj, 1e-3, 1e-5, 0, 2)
        rev = check_pairwise_sam_dynamics(spec, cores, obj, 1e-3, 1e-5, 2, 0)
        assert fwd.measured == pytest.approx(-rev.measured, rel=1e-12)
        assert fwd.predicted == pytest.approx(-rev.predicted, rel=1e-12)


class TestDasMatchesSam:
    def test_passes_on_conditioned_instances(self):
        for seed in range(3):
            spec, cores, obj = check_instance("tucker2", seed)
            rep = check_das_matches_sam(spec, cores, obj, rho=1e-3, eta=1e-4)
            assert rep.passed
            assert rep.rel_residual <= 0.10
            assert rep.details["scaling_rel_residual"] <= 0.01

    def test_equal_gradient_norms_give_quiet_steps(self):
        spec = custom_spec("i,j->ij", [(1,), (1,)])
        cores = [as_tensor([2.0]), as_tensor([2.0])]
        obj = MaskedMse(as_tensor([[1.0]]), as_tensor([[1.0]]))
        cfg = DasConfig(alpha=1e-3, base=SgdConfig(eta=1e-4))
        q0 = norm_deviation([frobenius_norm_sq(c) for c in cores])
        new, rec, _ = das_step(gradient_fn(spec, obj), cores, cfg, init_state(cfg, cores))
        q1 = norm_deviation([frobenius_norm_sq(c) for c in new])
        assert rec.lambdas == (0.0, 0.0)
        assert abs(q1 - q0) <= 1e-12


class TestLayerwiseQ:
    def test_single_layer_matches_flat_check(self):
        spec, cores, obj = check_instance("tucker2", 2)
        flat = check_sam_q_dynamics(spec, cores, obj, rho=1e-3, eta=1e-6)
        model = LayeredModel(specs=[spec], cores=[list(cores)])
        x = as_tensor(np.eye(spec.output_shape[1]))
        layered = check_layerwise_q(model, x, obj, rho=1e-3, eta=1e-6, layer=0)
        assert layered.measured == pytest.approx(flat.measured, rel=1e-9)
        assert layered.predicted == pytest.approx(flat.predicted, rel=1e-9)

    def test_passes_on_two_layer_composites(self):
        for kind in ("tucker2", "scalar"):
            model, x, obj = layered_instance(kind, seed=0)
            for layer in range(model.num_layers):
                rep = check_layerwise_q(model, x, obj, rho=1e-3, eta=1e-6, layer=layer)
                assert rep.passed, (kind, layer, rep)

    def test_zero_gradient_layer_predicts_zero(self):
        # second-layer core at zero silences the first layer's gradients
        s = custom_spec("a,b->ab", [(1,), (1,)])
        model = LayeredModel(
            specs=[s, s],
            cores=[
                [as_tensor([1.0]), as_tensor([1.0])],   # balanced, zero-grad layer
                [as_tensor([0.0]), as_tensor([1.0])],
            ],
        )
        x = as_tensor([[1.0]])
        obj = MaskedMse(as_tensor([[2.0]]), as_tensor([[1.0]]))
        rep = check_layerwise_q(model, x, obj, rho=1e-3, eta=1e-5, layer=0)
        assert rep.predicted == 0.0
        assert abs(rep.measured) <= 1e-12


class TestObserveShrinkage:
    def imbalanced_mf(self, seed):
        rng = np.random.default_rng(seed)
        spec = custom_spec("ij,jk->ik", [(6, 4), (4, 6)])
        cores = random_cores(spec, rng, 0.0)
        cores = [as_tensor(cores[0] * math.sqrt(10.0)), as_tensor(cores[1] / math.sqrt(10.0))]
        out = reconstruct(spec, cores)
        resid = rng.standard_normal(out.shape)
        resid /= math.sqrt(float(np.mean(resid * resid)))
        obj = MaskedMse(as_tensor(out - resid), as_tensor(np.ones(out.shape)))
        return spec, cores, obj

    def test_heavily_imbalanced_pair_shrinks_at_start(self):
        for seed in range(10):
            spec, cores, obj = self.imbalanced_mf(seed)
            s = [frobenius_norm_sq(c) for c in cores]
            assert max(s) / min(s) >= 10.0
            trace = observe_shrinkage(spec, cores, obj, rho=1e-2, eta=1e-4, steps=5, i=0, j=1)
            assert trace.initially_shrinking, seed

    def test_balanced_start_can_grow(self, rng):
        spec = custom_spec("ij,jk->ik", [(6, 4), (4, 6)])
        cores = random_cores(spec, rng, 0.0)  # equal norms
        out = reconstruct(spec, cores)
        obj = MaskedMse(
            as_tensor(out - rng.standard_normal(out.shape)),
            as_tensor(np.ones(out.shape)),
        )
        trace = observe_shrinkage(spec, cores, obj, rho=1e-2, eta=1e-4, steps=3, i=0, j=1)
        assert trace.gaps[0] == pytest.approx(0.0, abs=1e-12)
        assert trace.gaps[1] > 0.0

    def test_sgd_control_drift_is_second_order(self):
        spec, cores, obj = self.imbalanced_mf(3)

        def one_step_gap_drift(eta):
            cfg = SgdConfig(eta)
            _, recs = run(spec, list(cores), obj, cfg, 2)
            gaps = [abs(r.core_norms_sq[0] - r.core_norms_sq[1]) for r in recs]
            return abs(gaps[1] - gaps[0])

        ratio = one_step_gap_drift(1e-3) / one_step_gap_drift(5e-4)
        assert 3.5 <= ratio <= 4.5
