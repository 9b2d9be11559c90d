"""Norm-dynamics measurements and the theorem-verification harness.

The checks are one-step differential comparisons: take a single optimizer
step from a frozen instance, measure the change in the tracked quantity, and
compare it against the gradient-flow prediction evaluated at the step's
start.  Each perturbation-based check also verifies that its residual shrinks
when the perturbation radius is halved, so the percentage tolerance is not
load-bearing on its own.

Two residuals are reported.  The raw residual compares the plain one-step
secant with the prediction.  The flow residual first removes the
discretization term of the secant (the +eta^2*||g~_k||^2 part of each
squared-norm update, which is exactly computable from the realized step and
independent of the radius); without that correction the radius-halving ratio
would be polluted by an eta^2 floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import LengthMismatch, ZeroGradient
from .model import LayeredModel, ReconstructionSpec
from .optim import (
    DasConfig,
    SamConfig,
    SgdConfig,
    StepRecord,
    das_step,
    gradient_fn,
    init_state,
    norms_sq,
    plain_step,
    run,
    sam_step,
)
from .tensor import frobenius_inner, frobenius_norm_sq


def norm_deviation(core_norms_sq) -> float:
    """Sum of squared deviations of the squared core norms from their mean."""
    s = np.asarray(core_norms_sq, dtype=np.float64)
    if s.size < 1:
        raise LengthMismatch("need at least one core norm")
    dev = s - s.mean()
    return float(np.sum(dev * dev))


def norm_deviation_pairwise(core_norms_sq) -> float:
    """Equivalent pairwise form: (1/2K) * sum_{i,j} (s_i - s_j)^2."""
    s = np.asarray(core_norms_sq, dtype=np.float64)
    if s.size < 1:
        raise LengthMismatch("need at least one core norm")
    diffs = s[:, None] - s[None, :]
    return float(np.sum(diffs * diffs)) / (2.0 * s.size)


def norm_grad_covariance(core_norms_sq, grad_norms_sq) -> float:
    """Population covariance (1/K) * sum (x_k - xbar)(y_k - ybar)."""
    x = np.asarray(core_norms_sq, dtype=np.float64)
    y = np.asarray(grad_norms_sq, dtype=np.float64)
    if x.size != y.size:
        raise LengthMismatch(f"lengths {x.size} and {y.size} differ")
    if x.size < 1:
        raise LengthMismatch("need at least one pair")
    return float(np.mean((x - x.mean()) * (y - y.mean())))


def trajectory_rows(records: list[StepRecord]) -> list[str]:
    """CSV rows per the documented schema:
    t,loss,q,cov,core_norm_sq_1..K,grad_norm_sq_1..K[,lambda_1..K]
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
    for rec in records:
        q = norm_deviation(rec.core_norms_sq)
        cov = norm_grad_covariance(rec.core_norms_sq, rec.grad_norms_sq)
        cells = [str(rec.t), repr(rec.loss), repr(q), repr(cov)]
        cells += [repr(v) for v in rec.core_norms_sq]
        cells += [repr(v) for v in rec.grad_norms_sq]
        if with_lambda:
            cells += [repr(v) for v in rec.lambdas]
        rows.append(",".join(cells))
    return rows


def write_trajectory_csv(path, records: list[StepRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in trajectory_rows(records):
            fh.write(row + "\n")


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


def _one_step_sgd_dq(spec, cores, objective, eta: float) -> float:
    cfg = SgdConfig(eta)
    q0 = norm_deviation(norms_sq(cores))
    new, _, _ = plain_step(
        gradient_fn(spec, objective), cores, cfg, init_state(cfg, cores)
    )
    return norm_deviation(norms_sq(new)) - q0


def check_sgd_conservation(
    spec: ReconstructionSpec,
    cores,
    objective,
    eta: float,
    steps: int = 50,
    ratio_band: tuple[float, float] = (3.5, 4.5),
) -> TheoremCheckReport:
    """Norm deviation is conserved under plain SGD flow: the discrete
    one-step |dQ| must scale as eta^2, i.e. drop ~4x when eta is halved."""
    dq_full = _one_step_sgd_dq(spec, cores, objective, eta)
    dq_half = _one_step_sgd_dq(spec, cores, objective, eta / 2.0)
    ratio = abs(dq_full) / abs(dq_half) if dq_half != 0.0 else math.inf

    _, records = run(spec, list(cores), objective, SgdConfig(eta), steps)
    qs = [norm_deviation(r.core_norms_sq) for r in records]
    max_step_dq = max(
        (abs(b - a) for a, b in zip(qs[:-1], qs[1:])), default=0.0
    )
    passed = ratio_band[0] <= ratio <= ratio_band[1]
    return TheoremCheckReport(
        check="sgd_q_conservation",
        measured=dq_full,
        predicted=0.0,
        abs_residual=abs(dq_full),
        rel_residual=abs(dq_full) / (1.0 + norm_deviation(norms_sq(cores))),
        params={"eta": eta, "steps": steps},
        passed=passed,
        details={"eta_halving_ratio": ratio, "max_step_dq": max_step_dq},
    )


def check_sgd_balanced_bound(
    spec: ReconstructionSpec,
    cores,
    objective,
    eta: float,
    steps: int = 100,
) -> TheoremCheckReport:
    """From a balanced start, Q stays under the accumulated second-order
    drift bound sum_k (sum_t eta^2*|gamma_k - gbar|)^2.

    The bound follows from the exact per-step norm update: the first-order
    parts -2*eta*<G_k, g_k> are identical across cores, so only the
    eta^2*||g_k||^2 parts can separate the norms.
    """
    balanced = [c / math.sqrt(frobenius_norm_sq(c)) for c in cores]
    final, records = run(spec, balanced, objective, SgdConfig(eta), steps)
    k = spec.num_cores
    drift = np.zeros(k)
    worst_q, worst_bound, ok = 0.0, 0.0, True
    for idx, rec in enumerate(records):
        q_now = norm_deviation(rec.core_norms_sq)
        bound = float(np.sum(drift * drift))
        slack = 1e-9 * bound + 1e-18
        if q_now > bound + slack:
            ok = False
        if q_now > worst_q:
            worst_q, worst_bound = q_now, bound
        gamma = np.asarray(rec.grad_norms_sq)
        drift += eta * eta * np.abs(gamma - gamma.mean())
    q_final = norm_deviation(norms_sq(final))
    bound = float(np.sum(drift * drift))
    if q_final > bound + 1e-9 * bound + 1e-18:
        ok = False
    return TheoremCheckReport(
        check="sgd_balanced_drift_bound",
        measured=q_final,
        predicted=bound,
        abs_residual=max(0.0, q_final - bound),
        rel_residual=q_final / bound if bound > 0 else 0.0,
        params={"eta": eta, "steps": steps},
        passed=ok,
        details={"worst_q": worst_q, "bound_at_worst": worst_bound},
    )


def _linearized_dq(s0: np.ndarray, ds: np.ndarray) -> float:
    """First-order change of Q at s0 for per-core changes ds: the exact
    linearization 2*sum dev_k*(ds_k - mean(ds)) used by the flow theorems."""
    dev = s0 - s0.mean()
    centered = ds - ds.mean()
    return float(2.0 * np.sum(dev * centered))


def _q_law(eta, rho, u, s0, gamma) -> float:
    """SAM's covariance law for the one-step dQ: eta*4*rho*u*K*Cov."""
    return eta * 4.0 * rho * u * len(s0) * norm_grad_covariance(s0, gamma)


@dataclass(frozen=True)
class _LawProbe:
    measured: float  # raw one-step change of the quantity at rho
    predicted: float  # the law at rho
    raw_residual: float  # |measured - predicted|
    flow_residual: float  # |first-order change of the flow part - law| at rho
    shrink: float  # flow residual at rho over that at rho/2
    cov: float  # Cov of the group's squared norms and gradient norms


def _sam_law_probe(
    grads_of, cores, rho, eta, value, first_order, law, group=slice(None)
) -> _LawProbe:
    """One SAM step (plain SGD base) at rho and one at rho/2, measuring a
    quantity of the squared norms of the cores in ``group`` (a slice of
    ``cores``): ``value(s)`` is the quantity, ``first_order(s0, ds)`` its
    first-order change and ``law(eta, rho, u, s0, gamma)`` the change the
    flow theorem predicts.  The flow part of each squared-norm change is
    -2*eta*<G_k, g~_k>: the secant with its exactly-known eta^2 term removed.
    """
    steps = []
    for radius in (rho, rho / 2.0):
        cfg = SamConfig(radius, SgdConfig(eta))
        new, rec, g_tilde = sam_step(grads_of, cores, cfg, init_state(cfg, cores))
        if rec.zero_gradient:
            raise ZeroGradient("all core gradients vanish at the probe point")
        s0 = np.asarray(rec.core_norms_sq[group])
        gamma = np.asarray(rec.grad_norms_sq[group])
        ds_flow = np.asarray(
            [
                -2.0 * eta * frobenius_inner(c, gt)
                for c, gt in zip(cores[group], g_tilde[group])
            ]
        )
        predicted = law(eta, radius, rec.u, s0, gamma)
        flow_res = abs(first_order(s0, ds_flow) - predicted)
        steps.append((new, s0, gamma, predicted, flow_res))
    (new, s0, gamma, predicted, flow_res), (*_, flow_res_h) = steps
    measured = value(np.asarray(norms_sq(new[group]))) - value(s0)
    return _LawProbe(
        measured=measured,
        predicted=predicted,
        raw_residual=abs(measured - predicted),
        flow_residual=flow_res,
        shrink=flow_res / flow_res_h if flow_res_h != 0.0 else math.inf,
        cov=norm_grad_covariance(s0, gamma),
    )


def _law_report(check, probe, params, rel, shrink, rel_tol, shrink_band, **details):
    return TheoremCheckReport(
        check=check,
        measured=probe.measured,
        predicted=probe.predicted,
        abs_residual=probe.raw_residual,
        rel_residual=rel,
        params=params,
        passed=rel <= rel_tol and shrink_band[0] <= shrink <= shrink_band[1],
        details={
            "flow_residual": probe.flow_residual,
            "rho_halving_shrink": shrink,
            **details,
        },
    )


def check_sam_q_dynamics(
    spec: ReconstructionSpec,
    cores,
    objective,
    rho: float,
    eta: float,
    rel_tol: float = 0.05,
    shrink_band: tuple[float, float] = (1.5, 4.5),
) -> TheoremCheckReport:
    """One-step dQ under SAM vs the covariance law eta*4*rho*u*K*Cov."""
    probe = _sam_law_probe(
        gradient_fn(spec, objective), cores, rho, eta,
        norm_deviation, _linearized_dq, _q_law,
    )
    p = probe.predicted
    rel = probe.raw_residual / abs(p) if p != 0.0 else math.inf
    return _law_report(
        "sam_q_dynamics", probe, {"rho": rho, "eta": eta},
        rel, probe.shrink, rel_tol, shrink_band, cov=probe.cov,
    )


def check_pairwise_sam_dynamics(
    spec: ReconstructionSpec,
    cores,
    objective,
    rho: float,
    eta: float,
    i: int,
    j: int,
    rel_tol: float = 0.05,
    shrink_band: tuple[float, float] = (1.5, 4.5),
) -> TheoremCheckReport:
    """One-step change of s_i - s_j vs eta*2*rho*u*(gamma_i - gamma_j)."""

    def gap(values):
        return float(values[i] - values[j])

    probe = _sam_law_probe(
        gradient_fn(spec, objective), cores, rho, eta,
        gap,
        lambda s0, ds: gap(ds),
        lambda eta, rho, u, s0, gamma: eta * 2.0 * rho * u * gap(gamma),
    )
    if probe.predicted == 0.0:
        rel = 0.0 if probe.measured == 0.0 else math.inf
    else:
        rel = probe.raw_residual / abs(probe.predicted)
    shrink = 4.0 if i == j else probe.shrink  # i == j: both residuals are zero
    return _law_report(
        "sam_pairwise_dynamics", probe, {"rho": rho, "eta": eta, "i": i, "j": j},
        rel, shrink, rel_tol, shrink_band,
    )


def check_das_matches_sam(
    spec: ReconstructionSpec,
    cores,
    objective,
    rho: float,
    eta: float,
    match_tol: float = 0.10,
    substep_tol: float = 0.01,
) -> TheoremCheckReport:
    """DAS with alpha=rho reproduces SAM's one-step dQ, and the analytic
    first-order dQ of the scaling substep matches its measured value."""
    s0 = np.asarray(norms_sq(cores))
    q0 = norm_deviation(s0)

    grads_of = gradient_fn(spec, objective)
    sam_cfg = SamConfig(rho, SgdConfig(eta))
    new_sam, rec_sam, _ = sam_step(grads_of, cores, sam_cfg, init_state(sam_cfg, cores))
    if rec_sam.zero_gradient:
        raise ZeroGradient("all core gradients vanish at the probe point")
    dq_sam = norm_deviation(norms_sq(new_sam)) - q0

    das_cfg = DasConfig(rho, SgdConfig(eta))
    new_das, rec_das, _ = das_step(grads_of, cores, das_cfg, init_state(das_cfg, cores))
    dq_das = norm_deviation(norms_sq(new_das)) - q0

    rel = abs(dq_das - dq_sam) / abs(dq_sam) if dq_sam != 0.0 else math.inf

    lams = np.asarray(rec_das.lambdas)
    scaled = (1.0 + lams) ** 2 * s0
    dq_scale_measured = norm_deviation(scaled) - q0
    dq_scale_analytic = float(4.0 * np.sum((s0 - s0.mean()) * lams * s0))
    if dq_scale_measured == 0.0:
        sub_rel = 0.0 if dq_scale_analytic == 0.0 else math.inf
    else:
        sub_rel = abs(dq_scale_analytic - dq_scale_measured) / abs(dq_scale_measured)

    passed = rel <= match_tol and sub_rel <= substep_tol
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


def check_layerwise_q(
    model: LayeredModel,
    x: np.ndarray,
    objective,
    rho: float,
    eta: float,
    layer: int,
    rel_tol: float = 0.05,
    shrink_band: tuple[float, float] = (1.5, 4.5),
) -> TheoremCheckReport:
    """Layer-wise dQ_l under multi-layer SAM vs eta*4*rho*u_D*K_l*Cov_l."""
    start = sum(model.groups[:layer])
    probe = _sam_law_probe(
        model.gradient_fn(x, objective),
        [c for layer_cores in model.cores for c in layer_cores],
        rho, eta, norm_deviation, _linearized_dq, _q_law,
        slice(start, start + model.groups[layer]),
    )
    p = probe.predicted
    rel = probe.raw_residual / abs(p) if p != 0.0 else math.inf
    return _law_report(
        "layerwise_q_dynamics", probe, {"rho": rho, "eta": eta, "layer": layer},
        rel, probe.shrink, rel_tol, shrink_band, cov=probe.cov,
    )


@dataclass(frozen=True)
class ShrinkageTrace:
    """Observational record of one pairwise gap under SAM; no verdict."""

    gaps: tuple[float, ...]
    first_step_change: float
    initially_shrinking: bool
    params: dict


def observe_shrinkage(
    spec: ReconstructionSpec,
    cores,
    objective,
    rho: float,
    eta: float,
    steps: int,
    i: int,
    j: int,
) -> ShrinkageTrace:
    """Track B_ij = |s_i - s_j| along a SAM trajectory and report the sign of
    its first-step change.  Observational only: the shrinkage threshold
    depends on constants the library cannot estimate."""
    cfg = SamConfig(rho, SgdConfig(eta))
    final, records = run(spec, list(cores), objective, cfg, steps)
    norms = [rec.core_norms_sq for rec in records] + [norms_sq(final)]
    gaps = [abs(s[i] - s[j]) for s in norms]
    first_change = gaps[1] - gaps[0]
    return ShrinkageTrace(
        gaps=tuple(gaps),
        first_step_change=first_change,
        initially_shrinking=first_change < 0.0,
        params={"rho": rho, "eta": eta, "i": i, "j": j, "steps": steps},
    )
