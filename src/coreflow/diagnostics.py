"""Norm-dynamics measurements and the theorem-verification harness.

The checks are one-step differential comparisons: take a single optimizer
step from a frozen instance, measure the change in the tracked quantity, and
compare it against the gradient-flow prediction evaluated at the step's
start.  Each perturbation-based check also verifies that its residual shrinks
when the perturbation radius is halved, so the percentage tolerance is not
load-bearing on its own.  Every one-step check reads a ``Probe`` of its
instance: the loss, dL/dT and core gradients at the point, taken once, and
each step a check asks for, taken once per config and shared by every report
made from the probe.

Two residuals are reported.  The raw residual compares the plain one-step
secant with the prediction.  The flow residual first removes the
discretization term of the secant (the +eta^2*||g~_k||^2 part of each
squared-norm update, which is exactly computable from the realized step and
independent of the radius); without that correction the radius-halving ratio
would be polluted by an eta^2 floor.

The statistics reduce vectors of a few norms, where numpy's Python wrappers
cost more than the arithmetic, so they call the C routines those wrappers run:
``np.add.reduce`` for ``np.sum``, and for ``mean`` that sum divided by the
count, as numpy's ``_mean`` does; every value is bit for bit the wrapper's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import LengthMismatch, ZeroGradient
from .model import ReconstructionSpec, grad_cores
from .optim import (
    DasConfig,
    SamConfig,
    SgdConfig,
    StepRecord,
    gradient_fn,
    init_state,
    norms_sq,
    run,
    step_of,
)
from .tensor import FlatViews, frobenius_inner, frobenius_norm_sq, quietly

# Pass bounds of the checks.  The residuals they bound are second order in
# the step (eta for SGD's dQ, rho for the SAM-law residuals), so halving the
# step should cut them by about 4; the bands sit around that ratio.
_SGD_HALVING_BAND = (3.5, 4.5)
_LAW_REL_TOL = 0.05
_LAW_SHRINK_BAND = (1.5, 4.5)
_DAS_MATCH_TOL = 0.10
_DAS_SUBSTEP_TOL = 0.01
_SGD_CONSERVATION_STEPS = 20  # run lengths of the two SGD checks
_SGD_BALANCED_STEPS = 100
_BALANCED_SLACK = (1e-9, 1e-18)  # relative, absolute


def _rows(core_norms_sq) -> np.ndarray:
    """Float64 norms, K >= 1 of them along the last axis: one row per set of cores."""
    s = np.asarray(core_norms_sq, dtype=np.float64)
    if s.ndim == 0 or s.shape[-1] < 1:
        raise LengthMismatch("need at least one core norm")
    return s


def _centered(s: np.ndarray) -> np.ndarray:
    """``s - s.mean(axis=-1, keepdims=True)``, bit for bit, without the wrapper."""
    return s - np.add.reduce(s, -1, keepdims=True) / s.shape[-1]


def norm_deviation(core_norms_sq) -> float | np.ndarray:
    """Sum of squared deviations of the squared core norms from their mean.
    Reduces the last axis: a 1-D input gives a float, a (rows, K) stack an
    array of one value per row, each bit for bit that row's own float."""
    dev = _centered(_rows(core_norms_sq))
    q = np.add.reduce(dev * dev, -1)
    return float(q) if dev.ndim == 1 else q


def norm_deviation_pairwise(core_norms_sq) -> float | np.ndarray:
    """Equivalent pairwise form: (1/2K) * sum_{i,j} (s_i - s_j)^2, per row as
    ``norm_deviation``."""
    s = _rows(core_norms_sq)
    diffs = s[..., :, None] - s[..., None, :]
    q = np.add.reduce(diffs * diffs, (-2, -1)) / (2.0 * s.shape[-1])
    return float(q) if s.ndim == 1 else q


def norm_grad_covariance(core_norms_sq, grad_norms_sq) -> float | np.ndarray:
    """Population covariance (1/K) * sum (x_k - xbar)(y_k - ybar) of two
    arrays of one shape, per row as ``norm_deviation``."""
    x, y = _rows(core_norms_sq), _rows(grad_norms_sq)
    if x.shape != y.shape:
        raise LengthMismatch(f"shapes {x.shape} and {y.shape} differ")
    cov = np.add.reduce(_centered(x) * _centered(y), -1) / x.shape[-1]
    return float(cov) if x.ndim == 1 else cov


def trajectory_stats(records: list[StepRecord]) -> tuple[list[float], list[float]]:
    """(Q, Cov) of every record: ``norm_deviation`` and ``norm_grad_covariance``
    of the records' norms stacked one row per record, bit for bit per record."""
    if not records:
        return [], []
    s = np.array([r.core_norms_sq for r in records])
    g = np.array([r.grad_norms_sq for r in records])
    return norm_deviation(s).tolist(), norm_grad_covariance(s, g).tolist()


def trajectory_rows(records: list[StepRecord], stats=None) -> list[str]:
    """CSV rows per the documented schema:
    t,loss,q,cov,core_norm_sq_1..K,grad_norm_sq_1..K[,lambda_1..K]
    ``stats`` is ``trajectory_stats(records)`` when the caller has it.
    """
    if not records:
        return []
    k = len(records[0].core_norms_sq)
    with_lambda = records[0].lambdas is not None
    header = ["t", "loss", "q", "cov"]
    header += [f"core_norm_sq_{i + 1}" for i in range(k)]
    header += [f"grad_norm_sq_{i + 1}" for i in range(k)]
    if with_lambda:
        header += [f"lambda_{i + 1}" for i in range(k)]
    rows = [",".join(header)]
    qs, covs = stats if stats is not None else trajectory_stats(records)
    for rec, q, cov in zip(records, qs, covs):
        cells = [str(rec.t), repr(rec.loss), repr(q), repr(cov)]
        cells += [repr(v) for v in rec.core_norms_sq]
        cells += [repr(v) for v in rec.grad_norms_sq]
        if with_lambda:
            cells += [repr(v) for v in rec.lambdas]
        rows.append(",".join(cells))
    return rows


def write_trajectory_csv(path, records: list[StepRecord], stats=None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join([row + "\n" for row in trajectory_rows(records, stats)]))


@dataclass(frozen=True)
class TheoremCheckReport:
    check: str
    measured: float
    predicted: float
    abs_residual: float
    rel_residual: float
    params: dict
    passed: bool
    details: dict = field(default_factory=dict)

    def lines(self) -> list[str]:
        verdict = "PASS" if self.passed else "FAIL"
        out = [
            f"check {self.check}",
            f"  measured {self.measured!r}",
            f"  predicted {self.predicted!r}",
            f"  abs_residual {self.abs_residual!r}",
            f"  rel_residual {self.rel_residual!r}",
            f"  params {self.params}",
        ]
        for key, val in self.details.items():
            out.append(f"  {key} {val}")
        out.append(f"  verdict {verdict}")
        return out


@dataclass(frozen=True)
class Probe:
    """A frozen instance and what is taken at it: the loss, dL/dT (``dl``) and
    the core gradients at ``cores``; its steps read the layout ``spec.groups``.
    Every gradient the probe's steps take is kept, keyed by the point's bytes,
    and every step by its config, so each is taken once however many checks
    read it."""

    spec: ReconstructionSpec
    cores: list
    objective: object
    loss: float
    dl: np.ndarray
    grads: FlatViews
    _taken: dict = field(default_factory=dict, repr=False, compare=False)
    _steps: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def at(cls, spec: ReconstructionSpec, cores, objective, forward=None) -> Probe:
        """The probe at ``cores``: one forward, unless the caller hands over what
        ``spec.compiled.forward`` returned for them, and one reverse pass."""
        out, kept = forward or quietly(spec.compiled.forward, spec.operands(cores))
        loss, dl = objective.loss_and_grad(out)
        grads = grad_cores(spec, cores, dl, kept)
        probe = cls(spec, cores, objective, loss, dl, grads)
        probe._taken[_point_key(cores)] = (loss, grads)
        return probe

    def grads_of(self, point):
        """The gradient callback of the probe's steps: ``gradient_fn``'s, once per point."""
        key = _point_key(point)
        if key not in self._taken:
            self._taken[key] = gradient_fn(self.spec, self.objective)(point)
        return self._taken[key]

    def step(self, cfg) -> tuple:
        """(new cores, StepRecord, the gradients the update used) of one step from
        a fresh state, in one error-state scope as ``run`` takes it, once per config."""
        if cfg not in self._steps:
            step, state = step_of(cfg), init_state(cfg, self.cores)
            self._steps[cfg] = quietly(step, self.grads_of, self.cores, cfg, state, None, self.spec.groups)
        return self._steps[cfg]


def _point_key(point) -> bytes:
    return b"".join([c.tobytes() for c in point])


def check_sgd_conservation(probe: Probe, eta: float) -> TheoremCheckReport:
    """Norm deviation is conserved under plain SGD flow: the discrete
    one-step |dQ| must scale as eta^2, i.e. drop ~4x when eta is halved.
    Passes when that eta-halving ratio lies in [3.5, 4.5].  The full-eta
    step is the probe's, which the run continues; only the eta/2 step is
    taken apart."""
    first, rec, _ = probe.step(SgdConfig(eta))
    _, records = run(probe.spec, first, probe.objective, SgdConfig(eta), _SGD_CONSERVATION_STEPS - 1)
    qs = trajectory_stats([rec, *records])[0]
    half = probe.step(SgdConfig(eta / 2.0))[0]
    dq_full = qs[1] - qs[0]
    dq_half = norm_deviation(norms_sq(half)) - qs[0]
    ratio = abs(dq_full) / abs(dq_half) if dq_half != 0.0 else math.inf
    max_step_dq = max(
        (abs(b - a) for a, b in zip(qs[:-1], qs[1:])), default=0.0
    )
    passed = _SGD_HALVING_BAND[0] <= ratio <= _SGD_HALVING_BAND[1]
    return TheoremCheckReport(
        check="sgd_q_conservation",
        measured=dq_full,
        predicted=0.0,
        abs_residual=abs(dq_full),
        rel_residual=abs(dq_full) / (1.0 + qs[0]),
        params={"eta": eta, "steps": _SGD_CONSERVATION_STEPS},
        passed=passed,
        details={"eta_halving_ratio": ratio, "max_step_dq": max_step_dq},
    )


def _drift_bounds(records: list[StepRecord], eta: float) -> tuple[list[float], float]:
    """sum_k drift_k^2 before each record and after the last, drift_k summing
    eta^2*|gamma_k - gbar| down the records: one add per record, in order."""
    gamma = np.array([r.grad_norms_sq for r in records])
    drift = np.add.accumulate(eta * eta * np.abs(_centered(gamma)), 0)
    *before, final = [0.0] + np.add.reduce(drift * drift, 1).tolist()
    return before, final


def check_sgd_balanced_bound(probe: Probe, eta: float) -> TheoremCheckReport:
    """From a balanced start, Q stays under the accumulated second-order
    drift bound sum_k (sum_t eta^2*|gamma_k - gbar|)^2.

    The bound follows from the exact per-step norm update: the first-order
    parts -2*eta*<G_k, g_k> are identical across cores, so only the
    eta^2*||g_k||^2 parts can separate the norms.  Passes when
    Q <= bound*(1 + 1e-9) + 1e-18 at every recorded step and at the end.
    """
    balanced = [c / math.sqrt(frobenius_norm_sq(c)) for c in probe.cores]
    final, records = run(probe.spec, balanced, probe.objective, SgdConfig(eta), _SGD_BALANCED_STEPS)
    before, bound = _drift_bounds(records, eta)
    checked = list(zip(trajectory_stats(records)[0], before))  # (Q, bound) per record
    q_final = norm_deviation(norms_sq(final))
    rel_slack, abs_slack = _BALANCED_SLACK
    ok = all(q <= b + (rel_slack * b + abs_slack) for q, b in checked + [(q_final, bound)])
    worst_q, worst_bound = max(checked, key=lambda qb: qb[0], default=(0.0, 0.0))
    return TheoremCheckReport(
        check="sgd_balanced_drift_bound",
        measured=q_final,
        predicted=bound,
        abs_residual=max(0.0, q_final - bound),
        rel_residual=q_final / bound if bound > 0 else 0.0,
        params={"eta": eta, "steps": _SGD_BALANCED_STEPS},
        passed=ok,
        details={"worst_q": worst_q, "bound_at_worst": worst_bound},
    )


def _linearized_dq(s0: np.ndarray, ds: np.ndarray) -> float:
    """First-order change of Q at s0 for per-core changes ds: the exact
    linearization 2*sum dev_k*(ds_k - mean(ds)) used by the flow theorems."""
    return float(2.0 * np.add.reduce(_centered(s0) * _centered(ds), None))


def _q_law(eta, rho, u, s0, gamma) -> float:
    """SAM's covariance law for the one-step dQ: eta*4*rho*u*K*Cov."""
    return eta * 4.0 * rho * u * len(s0) * norm_grad_covariance(s0, gamma)


def _sam_step(probe: Probe, rho: float, eta: float) -> tuple:
    """The probe's SAM step (plain SGD base) at ``rho``."""
    step = probe.step(SamConfig(rho, SgdConfig(eta)))
    if step[1].zero_gradient:
        raise ZeroGradient("all core gradients vanish at the probe point")
    return step


@dataclass(frozen=True)
class _LawMeasurement:
    measured: float  # raw one-step change of the quantity at rho
    predicted: float  # the law at rho
    raw_residual: float  # |measured - predicted|
    flow_residual: float  # |first-order change of the flow part - law| at rho
    shrink: float  # flow residual at rho over that at rho/2
    cov: float  # Cov of the group's squared norms and gradient norms


def _measure_law(probe: Probe, rho, eta, value, first_order, law, group=slice(None)) -> _LawMeasurement:
    """A quantity of the squared norms of the cores in ``group`` (a slice of the
    probe's cores) over its SAM steps at ``rho`` and rho/2: ``value(s)`` is the
    quantity, ``first_order(s0, ds)`` its first-order change and
    ``law(eta, rho, u, s0, gamma)`` the change the flow theorem predicts.
    The flow part of each squared-norm change is -2*eta*<G_k, g~_k>: the
    secant with its exactly-known eta^2 term removed.
    """
    steps = []
    for radius in (rho, rho / 2.0):
        new, rec, g_tilde = _sam_step(probe, radius, eta)
        s0 = np.asarray(rec.core_norms_sq[group])
        gamma = np.asarray(rec.grad_norms_sq[group])
        ds_flow = np.asarray(
            [
                -2.0 * eta * frobenius_inner(c, gt)
                for c, gt in zip(probe.cores[group], g_tilde[group])
            ]
        )
        predicted = law(eta, radius, rec.u, s0, gamma)
        flow_res = abs(first_order(s0, ds_flow) - predicted)
        steps.append((new, s0, gamma, predicted, flow_res))
    (new, s0, gamma, predicted, flow_res), (*_, flow_res_h) = steps
    measured = value(np.asarray(norms_sq(new[group]))) - value(s0)
    return _LawMeasurement(
        measured=measured,
        predicted=predicted,
        raw_residual=abs(measured - predicted),
        flow_residual=flow_res,
        shrink=flow_res / flow_res_h if flow_res_h != 0.0 else math.inf,
        cov=norm_grad_covariance(s0, gamma),
    )


def _law_report(check, law, params, rel, shrink, **details):
    return TheoremCheckReport(
        check=check,
        measured=law.measured,
        predicted=law.predicted,
        abs_residual=law.raw_residual,
        rel_residual=rel,
        params=params,
        passed=rel <= _LAW_REL_TOL and _LAW_SHRINK_BAND[0] <= shrink <= _LAW_SHRINK_BAND[1],
        details={
            "flow_residual": law.flow_residual,
            "rho_halving_shrink": shrink,
            **details,
        },
    )


def _q_report(check, probe: Probe, rho, eta, group, **params) -> TheoremCheckReport:
    """The SAM covariance law for the one-step dQ of the cores in ``group``."""
    law = _measure_law(probe, rho, eta, norm_deviation, _linearized_dq, _q_law, group)
    p = law.predicted
    rel = law.raw_residual / abs(p) if p != 0.0 else math.inf
    params = {"rho": rho, "eta": eta, **params}
    return _law_report(check, law, params, rel, law.shrink, cov=law.cov)


def check_sam_q_dynamics(probe: Probe, rho: float, eta: float) -> TheoremCheckReport:
    """One-step dQ under SAM vs the covariance law eta*4*rho*u*K*Cov.
    Passes at rel_residual <= 0.05 with a rho-halving shrink in [1.5, 4.5]."""
    return _q_report("sam_q_dynamics", probe, rho, eta, slice(None))


def check_pairwise_sam_dynamics(
    probe: Probe, rho: float, eta: float, i: int, j: int
) -> TheoremCheckReport:
    """One-step change of s_i - s_j vs eta*2*rho*u*(gamma_i - gamma_j).
    Passes at rel_residual <= 0.05 with a rho-halving shrink in [1.5, 4.5]."""

    def gap(values):
        return float(values[i] - values[j])

    law = _measure_law(
        probe, rho, eta, gap, lambda s0, ds: gap(ds),
        lambda eta, rho, u, s0, gamma: eta * 2.0 * rho * u * gap(gamma),
    )
    if law.predicted == 0.0:
        rel = 0.0 if law.measured == 0.0 else math.inf
    else:
        rel = law.raw_residual / abs(law.predicted)
    shrink = 4.0 if i == j else law.shrink  # i == j: both residuals are zero
    return _law_report(
        "sam_pairwise_dynamics", law,
        {"rho": rho, "eta": eta, "i": i, "j": j}, rel, shrink,
    )


def check_das_matches_sam(probe: Probe, rho: float, eta: float) -> TheoremCheckReport:
    """DAS with alpha=rho reproduces SAM's one-step dQ, and the analytic
    first-order dQ of the scaling substep matches its measured value.
    Passes at rel_residual <= 0.10 with scaling_rel_residual <= 0.01."""
    new_sam = _sam_step(probe, rho, eta)[0]
    new_das, rec_das, _ = probe.step(DasConfig(rho, SgdConfig(eta)))
    s0 = np.asarray(rec_das.core_norms_sq)
    q0 = norm_deviation(s0)
    dq_sam = norm_deviation(norms_sq(new_sam)) - q0
    dq_das = norm_deviation(norms_sq(new_das)) - q0

    rel = abs(dq_das - dq_sam) / abs(dq_sam) if dq_sam != 0.0 else math.inf

    lams = np.asarray(rec_das.lambdas)
    scaled = (1.0 + lams) ** 2 * s0
    dq_scale_measured = norm_deviation(scaled) - q0
    dq_scale_analytic = float(4.0 * np.add.reduce(_centered(s0) * lams * s0, None))
    if dq_scale_measured == 0.0:
        sub_rel = 0.0 if dq_scale_analytic == 0.0 else math.inf
    else:
        sub_rel = abs(dq_scale_analytic - dq_scale_measured) / abs(dq_scale_measured)

    passed = rel <= _DAS_MATCH_TOL and sub_rel <= _DAS_SUBSTEP_TOL
    return TheoremCheckReport(
        check="das_matches_sam",
        measured=dq_das,
        predicted=dq_sam,
        abs_residual=abs(dq_das - dq_sam),
        rel_residual=rel,
        params={"rho": rho, "alpha": rho, "eta": eta},
        passed=passed,
        details={
            "scaling_dq_measured": dq_scale_measured,
            "scaling_dq_analytic": dq_scale_analytic,
            "scaling_rel_residual": sub_rel,
        },
    )


def check_layerwise_q(probe: Probe, rho: float, eta: float, layer: int) -> TheoremCheckReport:
    """Layer-wise dQ_l under multi-layer SAM vs eta*4*rho*u_D*K_l*Cov_l on the
    spec's group ``layer``.  Passes at rel_residual <= 0.05 with a rho-halving shrink in [1.5, 4.5]."""
    start, size = sum(probe.spec.groups[:layer]), probe.spec.groups[layer]
    return _q_report("layerwise_q_dynamics", probe, rho, eta, slice(start, start + size), layer=layer)
