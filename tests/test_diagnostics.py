import functools
import math
import os
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coreflow.diagnostics import (
    Probe,
    check_das_matches_sam,
    check_layerwise_q,
    check_pairwise_sam_dynamics,
    check_sam_q_dynamics,
    check_sgd_balanced_bound,
    check_sgd_conservation,
    norm_deviation,
    norm_deviation_pairwise,
    norm_grad_covariance,
    _drift_bounds,
    _linearized_dq,
    _ratio,
    trajectory_rows,
    trajectory_stats,
    write_trajectory_csv,
)
from coreflow import experiments, optim
from coreflow.errors import LengthMismatch, NumericalError, ZeroCoreNorm, ZeroGradient
from coreflow.experiments import check_instance, layered_instance
from coreflow.model import (
    LayeredModel,
    custom_spec,
    layered_spec,
    random_cores,
    reconstruct,
    tucker2_spec,
)
from coreflow.objective import MaskedMse, r2_score
from coreflow.optim import (
    DasConfig,
    SamConfig,
    SgdConfig,
    StepRecord,
    das_step,
    gradient_fn,
    init_state,
    run,
)
from coreflow.tensor import (
    CompiledPlan,
    FlatViews,
    as_tensor,
    frobenius_inner,
    frobenius_norm_sq,
    quietly,
)

from oracles import (
    per_record_drift_bounds,
    per_record_trajectory_rows,
    wrapper_linearized_dq,
    wrapper_norm_deviation,
    wrapper_norm_deviation_pairwise,
    wrapper_norm_grad_covariance,
)


def layered_probe(model, x, obj):
    """The probe of a layered model, its layers' cores end to end, a group per layer."""
    cores = [c for layer_cores in model.cores for c in layer_cores]
    return Probe.at(model.spec(x), cores, obj)


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


@st.composite
def norm_stacks(draw):
    """A (rows, K) pair of stacks, K = 1-8 and 0-50 rows, of norms spread over
    17 decades."""
    k, n = draw(st.integers(1, 8)), draw(st.integers(0, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [rng.uniform(1.0, 10.0, (n, k)) * 10.0 ** rng.integers(-8, 9, (n, k)) for _ in "sg"]


class TestStackedStatistics:
    """A stack of norm vectors reduces its last axis: one value per row, bit
    for bit the 1-D call on that row."""

    @given(norm_stacks())
    @settings(max_examples=200, deadline=None)
    def test_each_row_equals_its_own_call(self, stacks):
        s, g = stacks
        for stacked, one_row in [
            (norm_deviation(s), [norm_deviation(row) for row in s]),
            (norm_deviation_pairwise(s), [norm_deviation_pairwise(row) for row in s]),
            (norm_grad_covariance(s, g), [norm_grad_covariance(a, b) for a, b in zip(s, g)]),
        ]:
            assert isinstance(stacked, np.ndarray) and stacked.shape == (len(s),)
            assert [repr(v) for v in stacked.tolist()] == [repr(v) for v in one_row]
            assert all(type(v) is float for v in one_row)

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 0), ()])
    def test_no_norms_along_the_last_axis(self, shape):
        s = np.ones(shape)
        for stat in (norm_deviation, norm_deviation_pairwise, lambda v: norm_grad_covariance(v, v)):
            with pytest.raises(LengthMismatch):
                stat(s)

    def test_stacks_of_different_shapes(self):
        with pytest.raises(LengthMismatch):
            norm_grad_covariance(np.ones((3, 2)), np.ones((2, 2)))


def bits(value) -> bytes:
    """The float64 bytes of a float or an array, with its shape."""
    arr = np.asarray(value)
    assert arr.dtype == np.float64
    return repr(arr.shape).encode() + arr.tobytes()


@st.composite
def wide_norms(draw):
    """Two 1-D vectors or (rows, K) stacks of K = 2-8 values over 121 decades."""
    k, rows = draw(st.integers(2, 8)), draw(st.one_of(st.none(), st.integers(1, 20)))
    shape = (k,) if rows is None else (rows, k)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [rng.uniform(1.0, 10.0, shape) * 10.0 ** rng.integers(-60, 61, shape) for _ in "sg"]


class TestStatisticsMatchNumpyWrappers:
    """The statistics, which call numpy's C routines, equal numpy's wrapper
    forms (np.mean, np.sum, .std()) bit for bit."""

    @given(wide_norms())
    @settings(max_examples=300, deadline=None)
    @example([np.array([2.0, 10.0, 18.0]), np.array([1.0, 1.0, 1.0])])
    def test_bitwise(self, norms):
        s, g = norms
        assert bits(norm_deviation(s)) == bits(wrapper_norm_deviation(s))
        assert bits(norm_deviation_pairwise(s)) == bits(wrapper_norm_deviation_pairwise(s))
        assert bits(norm_grad_covariance(s, g)) == bits(wrapper_norm_grad_covariance(s, g))
        for row_s, row_g in zip(np.atleast_2d(s), np.atleast_2d(g)):
            assert bits(experiments._std(row_s)) == bits(row_s.std())
            assert bits(_linearized_dq(row_s, row_g)) == bits(wrapper_linearized_dq(row_s, row_g))


@functools.cache
def statistic_calls():
    """name -> a call of a statistic, a draw's conditioning, a mask check, a
    score or a one-step law check, on inputs built here, outside any profile."""
    rng = np.random.default_rng(7)
    s, g = rng.uniform(0.1, 10.0, (2, 6, 4))
    probe = check_instance("tucker2", 0)
    layered = layered_instance("tucker2", 0)
    cores, grads, target = probe.cores, probe.grads, probe.objective.target
    _, records = run(probe.spec, cores, probe.objective, SgdConfig(1e-3), 5)
    mask = as_tensor(rng.random(target.shape) < 0.5)
    pred = as_tensor(target + rng.standard_normal(target.shape))
    return {
        "norm_deviation": lambda: norm_deviation(s[0]),
        "norm_deviation_rows": lambda: norm_deviation(s),
        "norm_deviation_pairwise": lambda: norm_deviation_pairwise(s),
        "norm_grad_covariance": lambda: norm_grad_covariance(s[0], g[0]),
        "norm_grad_covariance_rows": lambda: norm_grad_covariance(s, g),
        "trajectory_stats": lambda: trajectory_stats(records),
        "well_conditioned": lambda: experiments._well_conditioned(cores, grads),
        "masked_mse": lambda: MaskedMse(target, mask),
        "r2_score": lambda: r2_score(pred, target, mask),
        "frobenius_inner": lambda: frobenius_inner(cores[0], grads[0]),
        "check_sam_q_dynamics": lambda: check_sam_q_dynamics(probe, 1e-3, 1e-5),
        "check_pairwise_sam_dynamics": lambda: check_pairwise_sam_dynamics(probe, 1e-3, 1e-5, 0, 2),
        "check_layerwise_q": lambda: check_layerwise_q(layered, 1e-3, 1e-6, 1),
    }


class TestNumpyFramesPerStatistic:
    """The suite's statistics and the helpers around them call numpy's C
    routines directly: none of these calls enters numpy's Python files."""

    @pytest.mark.parametrize("name", [
        "norm_deviation", "norm_deviation_rows", "norm_deviation_pairwise",
        "norm_grad_covariance", "norm_grad_covariance_rows", "trajectory_stats",
        "well_conditioned", "masked_mse", "r2_score", "frobenius_inner",
        "check_sam_q_dynamics", "check_pairwise_sam_dynamics", "check_layerwise_q",
    ])
    def test_no_numpy_python_frames(self, name):
        call = statistic_calls()[name]
        call()  # anything numpy imports on a first call is imported now
        numpy_dir = os.path.dirname(np.__file__) + os.sep
        calls = []

        def profile(frame, event, arg):
            filename = frame.f_code.co_filename
            if event == "call" and filename.startswith(numpy_dir):
                calls.append((os.path.basename(filename), frame.f_code.co_name))

        sys.setprofile(profile)
        try:
            call()
        finally:
            sys.setprofile(None)
        assert calls == []


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

    @pytest.mark.parametrize("lambdas", [None, (0.01, -0.01)])
    def test_csv_holds_the_rows_written_one_by_one(self, lambdas, tmp_path):
        records = [StepRecord(t, 0.5 / (t + 1), (1.0, 2.0 + t), (0.5, 0.25 * t), lambdas) for t in range(30)]
        reference = tmp_path / "rows.csv"
        with open(reference, "w", encoding="utf-8", newline="\n") as fh:
            for row in trajectory_rows(records):
                fh.write(row + "\n")
        path = tmp_path / "run.csv"
        write_trajectory_csv(path, records)
        assert path.read_bytes() == reference.read_bytes()
        write_trajectory_csv(path, [])
        assert path.read_bytes() == b""


@st.composite
def record_runs(draw):
    """1-40 records of K = 1-9 norms spread over 17 decades; a drawn share of
    the rows hold K equal norms, where Q is zero and Cov a signed zero."""
    k, n = draw(st.integers(1, 9)), draw(st.integers(1, 40))
    equal_share = draw(st.sampled_from([0.0, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s, g = (rng.uniform(1.0, 10.0, (n, k)) * 10.0 ** rng.integers(-8, 9, (n, k)) for _ in "sg")
    for arr in (s, g):
        rows = rng.random(n) < equal_share
        arr[rows] = arr[rows, :1]
    return [
        StepRecord(t, 0.5, tuple(s[t].tolist()), tuple(g[t].tolist())) for t in range(n)
    ]


class TestTrajectoryStats:
    """The columnar pass gives the per-record functions' floats, bit for bit."""

    @given(record_runs())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_record_functions(self, records):
        qs, covs = trajectory_stats(records)
        assert [repr(v) for v in qs] == [
            repr(norm_deviation(r.core_norms_sq)) for r in records
        ]
        assert [repr(v) for v in covs] == [
            repr(norm_grad_covariance(r.core_norms_sq, r.grad_norms_sq))
            for r in records
        ]
        assert trajectory_rows(records) == per_record_trajectory_rows(records)

    @given(record_runs(), st.sampled_from([1e-5, 1e-3, 0.1, 0.7]))
    @settings(max_examples=200, deadline=None)
    def test_drift_bounds_match_per_record_loop(self, records, eta):
        before, final = _drift_bounds(records, eta)
        want_before, want_final = per_record_drift_bounds(records, eta)
        assert [repr(v) for v in before] == [repr(v) for v in want_before]
        assert repr(final) == repr(want_final)

    def test_empty_run(self):
        assert trajectory_stats([]) == ([], [])

    def test_precomputed_stats_are_used(self):
        rec = StepRecord(0, 1.0, (1.0, 2.0), (3.0, 4.0))
        assert trajectory_rows([rec], ([7.0], [8.0]))[1].split(",")[2:4] == ["7.0", "8.0"]


class TestSgdConservation:
    @pytest.mark.parametrize("family", ["cp", "tucker", "tucker2", "tt", "tr"])
    def test_step_halving_ratio_near_four(self, family):
        rep = check_sgd_conservation(check_instance(family, seed=0), eta=1e-3)
        assert rep.passed
        assert 3.5 <= rep.details["eta_halving_ratio"] <= 4.5

    def test_stationary_point_conserves_exactly(self, rng):
        spec = custom_spec("ij,jk->ik", [(3, 2), (2, 3)])
        cores = random_cores(spec, rng, 0.4)
        target = reconstruct(spec, cores)  # zero residual, zero gradient
        obj = MaskedMse(target, as_tensor(np.ones(target.shape)))
        assert check_sgd_conservation(Probe.at(spec, cores, obj), eta=1e-3).measured == 0.0

    def test_balanced_drift_bound_holds(self):
        rep = check_sgd_balanced_bound(check_instance("tucker2", seed=1), eta=1e-3)
        assert rep.passed
        assert rep.measured <= rep.predicted * (1 + 1e-9) + 1e-18

    @pytest.mark.parametrize("scale", [0.0, 1e-170], ids=["zero", "underflowing"])
    def test_balanced_bound_rejects_a_zero_core_as_das_does(self, scale):
        # a core whose squared norm is 0 in float64 cannot be normalized
        spec = tucker2_spec(4, 3, 2, 2)
        cores = random_cores(spec, np.random.default_rng(0))
        cores[1] = as_tensor(cores[1] * scale)
        ones = as_tensor(np.ones(spec.output_shape))
        probe = Probe.at(spec, cores, MaskedMse(ones, ones))
        with pytest.raises(ZeroCoreNorm) as das:
            check_das_matches_sam(probe, rho=1e-3, eta=1e-4)
        with pytest.raises(ZeroCoreNorm) as balanced:
            check_sgd_balanced_bound(probe, eta=1e-3)
        assert str(balanced.value) == str(das.value) == "core 1 has squared norm 0.0"


class TestSamQDynamics:
    def test_passes_on_conditioned_instances(self):
        for seed in range(3):
            rep = check_sam_q_dynamics(check_instance("tucker2", seed), rho=1e-3, eta=1e-5)
            assert rep.passed
            assert rep.rel_residual <= 0.05
            assert 1.5 <= rep.details["rho_halving_shrink"] <= 4.5

    def test_balanced_equal_gradient_instance_is_quiet(self):
        # symmetric two-core scalar product: equal norms and gradient norms
        spec = custom_spec("i,j->ij", [(1,), (1,)])
        cores = [as_tensor([2.0]), as_tensor([2.0])]
        obj = MaskedMse(as_tensor([[1.0]]), as_tensor([[1.0]]))
        rep = check_sam_q_dynamics(Probe.at(spec, cores, obj), rho=1e-3, eta=1e-5)
        scale = 4.0  # the mean squared core norm
        assert abs(rep.measured) <= 1e-10 * scale
        assert rep.details["cov"] == pytest.approx(0.0)

    def test_zero_gradient_raises(self):
        spec = custom_spec("i,j->ij", [(1,), (1,)])
        cores = [as_tensor([1.0]), as_tensor([1.0])]
        obj = MaskedMse(as_tensor([[1.0]]), as_tensor([[1.0]]))
        with pytest.raises(ZeroGradient):
            check_sam_q_dynamics(Probe.at(spec, cores, obj), rho=1e-3, eta=1e-5)


class TestExactAgreement:
    """A measurement that equals its law exactly (0 over 0) passes: a relative
    residual reads 0.0, and a halving ratio or shrink reads 4.0, the
    second-order ratio the bands sit around."""

    @staticmethod
    def symmetric(spec_of=lambda spec: spec):
        # symmetric two-core scalar product: every measured and predicted change is 0.0
        spec = custom_spec("i,j->ij", [(1,), (1,)])
        obj = MaskedMse(as_tensor([[1.0]]), as_tensor([[1.0]]))
        return Probe.at(spec_of(spec), [as_tensor([2.0]), as_tensor([2.0])], obj)

    @staticmethod
    def assert_agreed(rep):
        assert (rep.measured, rep.predicted, rep.rel_residual) == (0.0, 0.0, 0.0)
        assert rep.passed, rep.lines()

    def test_law_rows(self):
        probe = self.symmetric()
        layered = self.symmetric(lambda spec: layered_spec([spec], as_tensor([[1.0]])))
        rows = [
            check_sam_q_dynamics(probe, 1e-3, 1e-5),
            check_pairwise_sam_dynamics(probe, 1e-3, 1e-5, 0, 1),
            check_pairwise_sam_dynamics(probe, 1e-3, 1e-5, 1, 1),
            check_layerwise_q(layered, 1e-3, 1e-5, 0),
        ]
        for rep in rows:
            self.assert_agreed(rep)
            assert rep.details["rho_halving_shrink"] == 4.0

    def test_das_matches_sam(self):
        rep = check_das_matches_sam(self.symmetric(), rho=1e-3, eta=1e-4)
        self.assert_agreed(rep)
        assert rep.details["scaling_rel_residual"] == 0.0

    def test_zero_gradient_layer(self):
        s = custom_spec("a,b->ab", [(1,), (1,)])
        cores = [as_tensor([1.0]), as_tensor([1.0]), as_tensor([0.0]), as_tensor([1.0])]
        obj = MaskedMse(as_tensor([[2.0]]), as_tensor([[1.0]]))
        probe = Probe.at(layered_spec([s, s], as_tensor([[1.0]])), cores, obj)
        rep = check_layerwise_q(probe, rho=1e-3, eta=1e-5, layer=0)
        self.assert_agreed(rep)
        assert rep.details["rho_halving_shrink"] == 4.0

    def test_sgd_stationary_point(self, rng):
        spec = custom_spec("ij,jk->ik", [(3, 2), (2, 3)])
        cores = random_cores(spec, rng, 0.4)
        target = reconstruct(spec, cores)  # zero residual, zero gradient
        obj = MaskedMse(target, as_tensor(np.ones(target.shape)))
        rep = check_sgd_conservation(Probe.at(spec, cores, obj), eta=1e-3)
        assert rep.details == {"eta_halving_ratio": 4.0, "max_step_dq": 0.0}
        assert rep.passed

    def test_only_zero_over_zero_agrees(self):
        assert _ratio(0.0, 0.0, 4.0) == 4.0 and _ratio(0.0, 0.0, 0.0) == 0.0
        assert _ratio(1e-300, 0.0, 0.0) == math.inf and _ratio(1.0, 0.0, 4.0) == math.inf
        assert _ratio(3.0, 2.0, 0.0) == 1.5 and _ratio(0.0, 2.0, 4.0) == 0.0


class TestProbeAt:
    def test_one_error_state_scope(self, rng, monkeypatch):
        # the forward is finite, but the loss of cores scaled by 1e60 overflows
        spec = tucker2_spec(4, 3, 2, 2)
        cores = [as_tensor(c * 1e60) for c in random_cores(spec, rng)]
        obj = MaskedMse(as_tensor(np.zeros(spec.output_shape)), as_tensor(np.ones(spec.output_shape)))
        entries = []
        errstate = np.errstate
        monkeypatch.setattr(np, "errstate", lambda **kwargs: entries.append(kwargs) or errstate(**kwargs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="non-finite loss"):
                Probe.at(spec, cores, obj)
        assert entries == [{"over": "ignore", "invalid": "ignore"}]


class TestGradientPasses:
    """Every check reads the gradient at its instance's point from the draw's
    one pass, kept on the probe with every gradient the probe's steps take,
    and every step a check asks for is taken once per probe.  Each count
    below is of full passes; the draw's pass comes first."""

    def count_passes(self, monkeypatch):
        calls = []
        real = optim.loss_and_core_grads

        def counted(spec, cores, objective):
            calls.append(1)
            return real(spec, cores, objective)

        monkeypatch.setattr(optim, "loss_and_core_grads", counted)
        return calls

    def test_sam_law_probe_takes_three_passes(self, monkeypatch):
        probe = check_instance("tucker2", 0)
        calls = self.count_passes(monkeypatch)
        check_sam_q_dynamics(probe, 1e-3, 1e-5)
        assert 1 + len(calls) == 3  # the draw's, then the perturbed point at rho and rho/2
        check_pairwise_sam_dynamics(probe, 1e-3, 1e-5, 0, 2)
        check_sam_q_dynamics(probe, 1e-3, 1e-5)
        assert len(calls) == 2

    def test_sgd_conservation_takes_twenty_passes(self, monkeypatch):
        probe = check_instance("tucker2", 0)
        calls = self.count_passes(monkeypatch)
        check_sgd_conservation(probe, eta=1e-3)
        # the draw's, which the probe's steps at eta and eta/2 read, and the run's other 19 steps
        assert 1 + len(calls) == 20

    def test_sam_dynamics_suite_takes_three_passes_per_seed(self, monkeypatch):
        instances = {"tucker2": [(seed, check_instance("tucker2", seed)) for seed in (0, 1)]}
        calls = self.count_passes(monkeypatch)
        assert len(experiments.suite_sam_dynamics(instances)) == 4
        assert len(calls) == (3 - 1) * 2

    def test_layered_suite_takes_three_passes_per_instance(self, monkeypatch):
        draws = []
        real = experiments.layered_spec
        monkeypatch.setattr(experiments, "layered_spec", lambda *a: draws.append(1) or real(*a))
        calls = self.count_passes(monkeypatch)
        assert len(experiments.suite_layered([0, 1])) == 2 * 2 * 2  # kinds, seeds, layers
        assert len(draws) == 2 * 2  # no draw rejected at seeds 0 and 1
        assert len(draws) + len(calls) == 3 * 2 * 2

    def test_das_matches_sam_takes_two_passes(self, monkeypatch):
        probe = check_instance("tucker2", 0)
        calls = self.count_passes(monkeypatch)
        check_das_matches_sam(probe, rho=1e-3, eta=1e-4)
        assert 1 + len(calls) == 2  # the draw's, then SAM's perturbed point

    def test_das_after_the_sam_rows_takes_no_pass(self, monkeypatch):
        # SAM's perturbed point at rho does not depend on eta: the SAM rows'
        # gradient there (eta = 1e-5) is the one DAS's SAM step (eta = 1e-4) needs
        calls = self.count_passes(monkeypatch)
        for seed in range(10):
            probe = check_instance("tucker2", seed)
            check_pairwise_sam_dynamics(probe, 1e-3, 1e-5, 0, 2)
            check_sam_q_dynamics(probe, 1e-3, 1e-5)
            calls.clear()
            shared = check_das_matches_sam(probe, rho=1e-3, eta=1e-4)
            assert calls == [], seed
            fresh = check_das_matches_sam(check_instance("tucker2", seed), rho=1e-3, eta=1e-4)
            assert shared.lines() == fresh.lines()


def fresh_pass(probe):
    """(loss, dL/dT, core gradients) from a forward and reverse pass of their own."""
    spec, cores, obj = probe.spec, probe.cores, probe.objective
    loss, grads = gradient_fn(spec, obj)(cores)
    out, _ = quietly(spec.compiled.forward, spec.operands(cores))
    return loss, obj.loss_and_grad(out)[1], grads


class TestProbeReusesTheDrawsPass:
    """The premise of reading a draw's pass: a probe's loss, dL/dT and core
    gradients are bit for bit what a pass of their own gives."""

    @staticmethod
    def assert_bits(probe, want):
        loss, dl, grads = want
        assert repr(probe.loss) == repr(loss)
        assert probe.dl.tobytes() == dl.tobytes()
        assert type(probe.grads) is FlatViews and probe.grads.shapes == grads.shapes
        assert probe.grads.flat.tobytes() == grads.flat.tobytes()

    @pytest.mark.parametrize("family", experiments.FAMILIES)
    def test_check_instances(self, family):
        for seed in range(10):
            probe = check_instance(family, seed)
            assert probe.spec.groups == (probe.spec.num_cores,)
            self.assert_bits(probe, fresh_pass(probe))

    @pytest.mark.parametrize("kind", ["tucker2", "scalar"])
    def test_layered_instances(self, kind):
        for seed in range(10):
            probe = layered_instance(kind, seed)
            self.assert_bits(probe, fresh_pass(probe))

    def test_a_hand_built_probe_takes_one_pass(self, monkeypatch):
        drawn = check_instance("tucker2", 1)
        calls = []
        forward, gradients = CompiledPlan.forward, CompiledPlan.gradients
        monkeypatch.setattr(CompiledPlan, "forward", lambda *a: calls.append("forward") or forward(*a))
        monkeypatch.setattr(
            CompiledPlan, "gradients", lambda *a: calls.append("reverse") or gradients(*a)
        )
        probe = Probe.at(drawn.spec, drawn.cores, drawn.objective)
        assert calls == ["forward", "reverse"]
        self.assert_bits(probe, (drawn.loss, drawn.dl, drawn.grads))

    def test_each_step_is_taken_once_per_config(self):
        probe = check_instance("tucker2", 0)
        cfg = SamConfig(1e-3, SgdConfig(1e-5))
        assert probe.step(cfg) is probe.step(SamConfig(1e-3, SgdConfig(1e-5)))
        assert probe.step(cfg) is not probe.step(SamConfig(1e-3, SgdConfig(1e-4)))


class TestPairwiseDynamics:
    def test_same_index_is_trivially_zero(self):
        rep = check_pairwise_sam_dynamics(check_instance("tucker2", 0), 1e-3, 1e-5, 1, 1)
        assert rep.measured == 0.0
        assert rep.predicted == 0.0
        assert rep.passed

    def test_passes_on_conditioned_instances(self):
        for seed in range(3):
            rep = check_pairwise_sam_dynamics(check_instance("tucker2", seed), 1e-3, 1e-5, 0, 2)
            assert rep.passed

    def test_antisymmetric_in_the_pair(self):
        probe = check_instance("tucker2", 4)
        fwd = check_pairwise_sam_dynamics(probe, 1e-3, 1e-5, 0, 2)
        rev = check_pairwise_sam_dynamics(probe, 1e-3, 1e-5, 2, 0)
        assert fwd.measured == pytest.approx(-rev.measured, rel=1e-12)
        assert fwd.predicted == pytest.approx(-rev.predicted, rel=1e-12)

    def test_shared_probe_gives_the_reports_of_separate_probes(self):
        shared = check_instance("tucker2", 3)
        pair = check_pairwise_sam_dynamics(shared, 1e-3, 1e-5, 0, 2)
        q = check_sam_q_dynamics(shared, 1e-3, 1e-5)
        assert pair.lines() == check_pairwise_sam_dynamics(
            check_instance("tucker2", 3), 1e-3, 1e-5, 0, 2
        ).lines()
        assert q.lines() == check_sam_q_dynamics(check_instance("tucker2", 3), 1e-3, 1e-5).lines()


class TestDasMatchesSam:
    def test_passes_on_conditioned_instances(self):
        for seed in range(3):
            rep = check_das_matches_sam(check_instance("tucker2", seed), rho=1e-3, eta=1e-4)
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
        drawn = check_instance("tucker2", 2)
        flat = check_sam_q_dynamics(drawn, rho=1e-3, eta=1e-6)
        model = LayeredModel(specs=[drawn.spec], cores=[list(drawn.cores)])
        x = as_tensor(np.eye(drawn.spec.output_shape[1]))
        probe = layered_probe(model, x, drawn.objective)
        layered = check_layerwise_q(probe, rho=1e-3, eta=1e-6, layer=0)
        assert layered.measured == pytest.approx(flat.measured, rel=1e-9)
        assert layered.predicted == pytest.approx(flat.predicted, rel=1e-9)

    def test_passes_on_two_layer_composites(self):
        for kind in ("tucker2", "scalar"):
            probe = layered_instance(kind, seed=0)
            for layer in range(len(probe.spec.groups)):
                rep = check_layerwise_q(probe, rho=1e-3, eta=1e-6, layer=layer)
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
        rep = check_layerwise_q(layered_probe(model, x, obj), rho=1e-3, eta=1e-5, layer=0)
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

    @staticmethod
    def sam_gaps(spec, cores, obj, steps):
        """|s_0 - s_1| at the start of each step of a SAM run."""
        cfg = SamConfig(rho=1e-2, base=SgdConfig(eta=1e-4))
        _, records = run(spec, list(cores), obj, cfg, steps)
        return [abs(r.core_norms_sq[0] - r.core_norms_sq[1]) for r in records]

    def test_heavily_imbalanced_pair_shrinks_at_start(self):
        for seed in range(10):
            spec, cores, obj = self.imbalanced_mf(seed)
            s = [frobenius_norm_sq(c) for c in cores]
            assert max(s) / min(s) >= 10.0
            gaps = self.sam_gaps(spec, cores, obj, 5)
            assert gaps[1] - gaps[0] < 0.0, seed

    def test_balanced_start_can_grow(self, rng):
        spec = custom_spec("ij,jk->ik", [(6, 4), (4, 6)])
        cores = random_cores(spec, rng, 0.0)  # equal norms
        out = reconstruct(spec, cores)
        obj = MaskedMse(
            as_tensor(out - rng.standard_normal(out.shape)),
            as_tensor(np.ones(out.shape)),
        )
        gaps = self.sam_gaps(spec, cores, obj, 3)
        assert gaps[0] == pytest.approx(0.0, abs=1e-12)
        assert gaps[1] > 0.0

    def test_sgd_control_drift_is_second_order(self):
        spec, cores, obj = self.imbalanced_mf(3)

        def one_step_gap_drift(eta):
            cfg = SgdConfig(eta)
            _, recs = run(spec, list(cores), obj, cfg, 2)
            gaps = [abs(r.core_norms_sq[0] - r.core_norms_sq[1]) for r in recs]
            return abs(gaps[1] - gaps[0])

        ratio = one_step_gap_drift(1e-3) / one_step_gap_drift(5e-4)
        assert 3.5 <= ratio <= 4.5
