"""Norm-dynamics measurements and the theorem-verification harness.

The checks are one-step differential comparisons: take a single optimizer
step from a frozen instance, measure the change in the tracked quantity, and
compare it against the gradient-flow prediction evaluated at the step's
start.  Each perturbation-based check also verifies that its residual shrinks
when the perturbation radius is halved, so the percentage tolerance is not
load-bearing on its own.  Every one-step check reads a ``Probe`` of its
instance: the loss, dL/dT and core gradients at the point, taken once in one
error-state scope, and each step a check asks for, taken once per config and
shared by every report made from the probe.  Every ratio a check reads treats
0/0 as an exact agreement: a relative residual reads 0.0, and a halving ratio
or shrink reads 4.0; any other ratio over 0 reads inf.

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

from .errors import LengthMismatch, ZeroCoreNorm, ZeroGradient
from .model import ReconstructionSpec, grad_cores
from .optim import (
    _TINY_NORM_SQ,
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
from .tensor import FlatViews, frobenius_inner, quietly

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
        ``spec.compiled.forward`` returned for them, and one reverse pass, all in
        one error-state scope."""

        def taken():
            out, kept = forward or spec.compiled.forward(spec.operands(cores))
            loss, dl = objective.loss_and_grad(out)
            return loss, dl, grad_cores(spec, cores, dl, kept)

        loss, dl, grads = quietly(taken)
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
    ratio = _ratio(abs(dq_full), abs(dq_half), 4.0)
    max_step_dq = max((abs(b - a) for a, b in zip(qs[:-1], qs[1:])), default=0.0)
    return TheoremCheckReport(
        check="sgd_q_conservation",
        measured=dq_full,
        predicted=0.0,
        abs_residual=abs(dq_full),
        rel_residual=abs(dq_full) / (1.0 + qs[0]),
        params={"eta": eta, "steps": _SGD_CONSERVATION_STEPS},
        passed=_SGD_HALVING_BAND[0] <= ratio <= _SGD_HALVING_BAND[1],
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
    norms = norms_sq(probe.cores)
    for k, sk in enumerate(norms):
        if sk < _TINY_NORM_SQ:
            raise ZeroCoreNorm(f"core {k} has squared norm {sk}")
    balanced = [c / math.sqrt(sk) for c, sk in zip(probe.cores, norms)]
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
    if step[1].u == 0.0:
        raise ZeroGradient("all core gradients vanish at the probe point")
    return step


def _ratio(num, den, agreed) -> float:
    """``num / den``; 0/0 is an exact agreement and reads ``agreed``, anything
    else over 0 reads inf."""
    if den != 0.0:
        return num / den
    return agreed if num == 0.0 else math.inf


def _law_report(
    check, probe: Probe, rho, eta, value, first_order, law, params, group=slice(None), **details
) -> TheoremCheckReport:
    """The row of a SAM law for a quantity of the squared norms of the cores in
    ``group`` (a slice of the probe's cores), from the probe's SAM steps at
    ``rho`` and rho/2: ``value(s)`` is the quantity, ``first_order(s0, ds)``
    its first-order change and ``law(eta, rho, u, s0, gamma)`` the change the
    flow theorem predicts.  ``params`` join rho and eta, and each of
    ``details`` maps (s0, gamma) at ``rho`` to a detail of the row.
    The flow part of each squared-norm change is -2*eta*<G_k, g~_k>: the
    secant with its exactly-known eta^2 term removed.
    """
    steps = []
    for radius in (rho, rho / 2.0):
        new, rec, g_tilde = _sam_step(probe, radius, eta)
        s0, gamma = np.asarray(rec.core_norms_sq[group]), np.asarray(rec.grad_norms_sq[group])
        inner = [frobenius_inner(c, gt) for c, gt in zip(probe.cores[group], g_tilde[group])]
        ds_flow = -2.0 * eta * np.asarray(inner)
        predicted = law(eta, radius, rec.u, s0, gamma)
        steps.append((new, s0, gamma, predicted, abs(first_order(s0, ds_flow) - predicted)))
    (new, s0, gamma, predicted, flow_res), (*_, flow_res_h) = steps
    measured = value(np.asarray(norms_sq(new[group]))) - value(s0)
    raw = abs(measured - predicted)
    rel, shrink = _ratio(raw, abs(predicted), 0.0), _ratio(flow_res, flow_res_h, 4.0)
    return TheoremCheckReport(
        check=check,
        measured=measured,
        predicted=predicted,
        abs_residual=raw,
        rel_residual=rel,
        params={"rho": rho, "eta": eta, **params},
        passed=rel <= _LAW_REL_TOL and _LAW_SHRINK_BAND[0] <= shrink <= _LAW_SHRINK_BAND[1],
        details={
            "flow_residual": flow_res,
            "rho_halving_shrink": shrink,
            **{name: stat(s0, gamma) for name, stat in details.items()},
        },
    )


def check_sam_q_dynamics(probe: Probe, rho: float, eta: float) -> TheoremCheckReport:
    """One-step dQ under SAM vs the covariance law eta*4*rho*u*K*Cov.
    Passes at rel_residual <= 0.05 with a rho-halving shrink in [1.5, 4.5]."""
    return _law_report(
        "sam_q_dynamics", probe, rho, eta, norm_deviation, _linearized_dq, _q_law, {},
        cov=norm_grad_covariance,
    )


def check_pairwise_sam_dynamics(
    probe: Probe, rho: float, eta: float, i: int, j: int
) -> TheoremCheckReport:
    """One-step change of s_i - s_j vs eta*2*rho*u*(gamma_i - gamma_j).
    Passes at rel_residual <= 0.05 with a rho-halving shrink in [1.5, 4.5]."""

    def gap(values):
        return float(values[i] - values[j])

    return _law_report(
        "sam_pairwise_dynamics", probe, rho, eta, gap, lambda s0, ds: gap(ds),
        lambda eta, rho, u, s0, gamma: eta * 2.0 * rho * u * gap(gamma), {"i": i, "j": j},
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
    rel = _ratio(abs(dq_das - dq_sam), abs(dq_sam), 0.0)
    lams = np.asarray(rec_das.lambdas)
    scaled = (1.0 + lams) ** 2 * s0
    dq_scale_measured = norm_deviation(scaled) - q0
    dq_scale_analytic = float(4.0 * np.add.reduce(_centered(s0) * lams * s0, None))
    sub_rel = _ratio(abs(dq_scale_analytic - dq_scale_measured), abs(dq_scale_measured), 0.0)
    return TheoremCheckReport(
        check="das_matches_sam",
        measured=dq_das,
        predicted=dq_sam,
        abs_residual=abs(dq_das - dq_sam),
        rel_residual=rel,
        params={"rho": rho, "alpha": rho, "eta": eta},
        passed=rel <= _DAS_MATCH_TOL and sub_rel <= _DAS_SUBSTEP_TOL,
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
    return _law_report(
        "layerwise_q_dynamics", probe, rho, eta, norm_deviation, _linearized_dq, _q_law,
        {"layer": layer}, slice(start, start + size), cov=norm_grad_covariance,
    )
