"""Per-layer metrics of a traced run, named by the coreflow module they measure.

"Per step" divides by the optimizer steps taken inside ``run`` during the
traced rounds, and counts only the spans inside those runs; post-processing
after a run (CSV writes, Q and Cov per record, the final reconstruction) is
reported per call or per record instead.  A metric whose layer the workload
never calls reads 0.
"""

from __future__ import annotations

import numpy as np

import plancost
import stats

# (name, unit) in report order.
METRICS = (
    ("tensor.contract.calls_per_step", "count"),
    ("tensor.contract.us_per_step", "us"),
    ("tensor.contract.us_per_call", "us"),
    ("tensor.contract.flops_per_step", "flop"),
    ("tensor.contract.bytes_per_step", "B"),
    ("tensor.contract.gflops", "GFLOP/s"),
    ("tensor.norm_sq.calls_per_step", "count"),
    ("tensor.norm_sq.us_per_step", "us"),
    ("tensor.io.dtf1_write_ms", "ms"),
    ("tensor.io.dtf1_read_ms", "ms"),
    ("tensor.io.bytes", "B"),
    ("model.reconstruct.us_per_step", "us"),
    ("model.grad_cores.us_per_step", "us"),
    ("model.grad_cores.self_us_per_step", "us"),
    ("model.grad_passes_per_step", "count"),
    ("model.layered.core_grads.us_per_call", "us"),
    ("objective.loss_and_grad.us_per_step", "us"),
    ("objective.loss_and_grad.calls_per_step", "count"),
    ("objective.begin_step.us_per_step", "us"),
    ("optim.base_step.us_per_step", "us"),
    ("optim.sam.second_pass_us_per_step", "us"),
    ("optim.das.scaling_us_per_step", "us"),
    ("optim.step.self_us_per_step", "us"),
    ("optim.step.us_p99", "us"),
    ("optim.cost_ratio.sam_over_adam", "ratio"),
    ("optim.cost_ratio.das_over_adam", "ratio"),
    ("diagnostics.write_trajectory_csv.ms", "ms"),
    ("diagnostics.write_trajectory_csv.bytes", "B"),
    ("diagnostics.q_cov.us_per_record", "us"),
    ("diagnostics.check_ms.sgd_conservation", "ms"),
    ("diagnostics.check_ms.sgd_balanced_bound", "ms"),
    ("diagnostics.check_ms.sam_q", "ms"),
    ("diagnostics.check_ms.sam_pairwise", "ms"),
    ("diagnostics.check_ms.layerwise_q", "ms"),
    ("diagnostics.check_ms.das_matches_sam", "ms"),
    ("experiments.check_instance.ms_per_call", "ms"),
    ("experiments.instance.accept_ratio", "ratio"),
    ("config.parse_ms", "ms"),
    ("trace.overhead", "ratio"),
)

_CHECKS = {
    "sgd_conservation": "diagnostics.check_sgd_conservation",
    "sgd_balanced_bound": "diagnostics.check_sgd_balanced_bound",
    "sam_q": "diagnostics.check_sam_q_dynamics",
    "sam_pairwise": "diagnostics.check_pairwise_sam_dynamics",
    "layerwise_q": "diagnostics.check_layerwise_q",
    "das_matches_sam": "diagnostics.check_das_matches_sam",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p50_us(pairs) -> float:
    return float(np.median(stats.quiet_round(pairs)[1])) if pairs else 0.0


def layer_metrics(tracer, setup, untraced, traced, wl) -> dict[str, float]:
    """``setup`` holds the set-up figures taken under the tracer; ``untraced``
    and ``traced`` are the two phases' (Round, [RunTiming]) pairs."""
    q = tracer.query
    own_runs = [rt for rnd, runs in traced for rt in runs]
    steps = sum(len(rt.step_ns) for rt in own_runs)
    costs = [(plancost.step_cost(rt.spec, rt.cfg), len(rt.step_ns)) for rt in own_runs]
    flops = sum(f * n for (f, _), n in costs) / steps
    nbytes = sum(b * n for (_, b), n in costs) / steps

    def per_step(name, **kw) -> tuple[float, float]:
        calls, total, _ = q(name, in_run=True, **kw)
        return calls / steps, total / steps / 1e3

    def mean(name, scale=1e6, **kw) -> float:
        calls, total, _ = q(name, **kw)
        return _ratio(total, calls) / scale

    contract_calls, contract_us = per_step("tensor.contract")
    norm_calls, norm_us = per_step("tensor.norm_sq")
    grad_calls, grad_us = per_step("model.grad_cores")
    loss_calls, loss_us = per_step("objective.loss_and_grad")
    second_pass = q("optim.loss_and_core_grads", parent="optim.sam_step", repeat=True, in_run=True)[1]
    sam_own = q("optim.sam_step", in_run=True)[2]
    scaling = q("optim.das_scaling_factors", in_run=True)[1] + q("optim.das_step", in_run=True)[2]
    q_cov = q("diagnostics.norm_deviation", in_run=False)[1] + q(
        "diagnostics.norm_grad_covariance", in_run=False
    )[1]
    csv_calls = q("diagnostics.write_trajectory_csv")[0]
    csv_bytes = sum(sum(rnd.csv_bytes) for rnd, _ in traced) if csv_calls else 0
    draws = q("model.random_cores", parent="experiments.check_instance")[0]

    by_kind = {}
    for rnd, runs in untraced:
        by_kind.setdefault(rnd.kind, []).append((rnd, runs))
    p50 = {kind: _p50_us(pairs) for kind, pairs in by_kind.items()}
    own_untraced = np.concatenate([rt.step_ns for _, runs in by_kind[wl.kind] for rt in runs])
    walls_traced = stats.quiet_round(traced)[0]
    walls_untraced = stats.quiet_round(by_kind[wl.kind])[0]

    values = {
        "tensor.contract.calls_per_step": contract_calls,
        "tensor.contract.us_per_step": contract_us,
        "tensor.contract.us_per_call": mean("tensor.contract", scale=1e3, in_run=True),
        "tensor.contract.flops_per_step": flops,
        "tensor.contract.bytes_per_step": nbytes,
        "tensor.contract.gflops": _ratio(flops, contract_us * 1e3),
        "tensor.norm_sq.calls_per_step": norm_calls,
        "tensor.norm_sq.us_per_step": norm_us,
        "tensor.io.dtf1_write_ms": setup["dtf1_write_ms"],
        "tensor.io.dtf1_read_ms": mean("tensor.read_dtf1"),
        "tensor.io.bytes": setup["dtf1_bytes"],
        "model.reconstruct.us_per_step": per_step("model.reconstruct")[1],
        "model.grad_cores.us_per_step": grad_us,
        "model.grad_cores.self_us_per_step": q("model.grad_cores", in_run=True)[2] / steps / 1e3,
        "model.grad_passes_per_step": grad_calls,
        "model.layered.core_grads.us_per_call": mean("model.layered.core_grads", scale=1e3),
        "objective.loss_and_grad.us_per_step": loss_us,
        "objective.loss_and_grad.calls_per_step": loss_calls,
        "objective.begin_step.us_per_step": per_step("objective.begin_step")[1],
        "optim.base_step.us_per_step": per_step("optim.base_step")[1],
        "optim.sam.second_pass_us_per_step": (second_pass + sam_own) / steps / 1e3,
        "optim.das.scaling_us_per_step": scaling / steps / 1e3,
        "optim.step.self_us_per_step": q("optim.run", in_run=False)[2] / steps / 1e3,
        "optim.step.us_p99": float(np.percentile(own_untraced, 99)) / 1e3,
        "optim.cost_ratio.sam_over_adam": _ratio(p50.get("sam", 0.0), p50.get("adam", 0.0)),
        "optim.cost_ratio.das_over_adam": _ratio(p50.get("das", 0.0), p50.get("adam", 0.0)),
        "diagnostics.write_trajectory_csv.ms": mean("diagnostics.write_trajectory_csv"),
        "diagnostics.write_trajectory_csv.bytes": _ratio(csv_bytes, csv_calls),
        "diagnostics.q_cov.us_per_record": q_cov / steps / 1e3,
        "experiments.check_instance.ms_per_call": mean("experiments.check_instance"),
        "experiments.instance.accept_ratio": _ratio(q("experiments.check_instance")[0], draws),
        "config.parse_ms": setup["parse_ms"],
        "trace.overhead": walls_traced / walls_untraced,
    }
    for short, name in _CHECKS.items():
        values[f"diagnostics.check_ms.{short}"] = mean(name)
    return {name: values[name] for name, _ in METRICS}
