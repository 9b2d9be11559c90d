"""Acceptance suite: one test per shipping criterion, tolerances pinned here.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion.  The heavyweight completion runs are shared between the accuracy
and runtime criteria via a module-scoped fixture.
"""

import time

import numpy as np
import pytest

from coreflow.config import build_model_spec, build_optimizer, parse_config_text
from coreflow.diagnostics import norm_deviation, norm_deviation_pairwise
from coreflow.experiments import (
    FAMILIES,
    check_instance,
    generate_synthetic,
    run_experiment,
    sample_mask,
    suite_das,
    suite_deviation_forms,
    suite_instances,
    suite_layered,
    suite_lemma_and_invariance,
    suite_sam_dynamics,
    suite_sgd_conservation,
)
from coreflow.model import grad_cores, reconstruct, reconstruct_with
from coreflow.objective import MaskedMse
from coreflow.optim import run
from coreflow.tensor import as_tensor

SEEDS = list(range(10))
INSTANCES = suite_instances(SEEDS)


def _passline(num, name):
    print(f"\nACCEPTANCE {num:02d} {name}: PASS")


# ---------------------------------------------------------------------------
# Shared heavyweight runs: 20^3 Tucker completion with 70% of entries held out.
# ---------------------------------------------------------------------------

COMPLETION_CFG = """
experiment completion
seed 11
model {{
  family tucker
  modes 20,20,20
  ranks 4,4,4
}}
objective {{
  mask_density 0.3
}}
optimizer {{
  kind {kind}
  base adam
  eta 0.001
  rho 0.01
  alpha 0.001
  iters 20000
}}
"""

FIG1_CFG = """
experiment tucker2-noise
seed 7
model {
  family tucker2
  modes 24,20
  ranks 5,5
}
objective {
  noise_alpha 0.0,0.1,0.3
  resample true
}
optimizer {
  kind sam
  base sgd
  eta 0.0005
  rho 0.01
  iters 2500
}
"""


@pytest.fixture(scope="module")
def completion_runs(tmp_path_factory):
    runs = {}
    start = time.perf_counter()
    for kind in ("adam", "sam", "das"):
        out = tmp_path_factory.mktemp(f"completion_{kind}")
        cfg = parse_config_text(COMPLETION_CFG.format(kind=kind))
        runs[kind] = run_experiment(cfg, str(out)).summary
    runs["elapsed"] = time.perf_counter() - start
    return runs


def test_01_gradient_correctness_all_families():
    """Analytic core gradients match central differences (h=1e-5) within
    1e-6 relative on 20 random instances per family, in under 10 s."""
    start = time.perf_counter()
    h = 1e-5
    for family in FAMILIES:
        for seed in range(20):
            probe = check_instance(family, seed)
            spec, cores, obj = probe.spec, probe.cores, probe.objective
            _, dl = obj.loss_and_grad(reconstruct(spec, cores))
            analytic = grad_cores(spec, cores, dl)
            for k, core in enumerate(cores):
                fd = np.zeros(core.shape)
                for idx in np.ndindex(core.shape):
                    e = np.zeros(core.shape)
                    e[idx] = h
                    up = obj.loss_and_grad(
                        reconstruct_with(spec, cores, k, as_tensor(core + e))
                    )[0]
                    dn = obj.loss_and_grad(
                        reconstruct_with(spec, cores, k, as_tensor(core - e))
                    )[0]
                    fd[idx] = (up - dn) / (2 * h)
                scale = max(float(np.max(np.abs(analytic[k]))), 1e-12)
                rel = float(np.max(np.abs(analytic[k] - fd))) / scale
                assert rel <= 1e-6, (family, seed, k, rel)
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0, f"gradient check took {elapsed:.1f}s"
    _passline(1, "gradient correctness (5 families x 20 instances)")


def test_02_directional_derivative_identity():
    """<reconstruct(..., V, ...), dL> == <V, grad> within 1e-10, all
    families, random directions, 10 seeds."""
    reports = [
        r for r in suite_lemma_and_invariance(INSTANCES) if r.check.startswith("directional")
    ]
    assert len(reports) == len(FAMILIES)
    for rep in reports:
        assert rep.passed and rep.measured <= 1e-10, rep
    _passline(2, "directional-derivative identity <= 1e-10")


def test_03_scale_invariance():
    """Rescaling cores with product-1 scalars moves the reconstruction by
    at most 1e-10 relative, all families, 10 seeds."""
    reports = [
        r for r in suite_lemma_and_invariance(INSTANCES) if r.check.startswith("scale")
    ]
    assert len(reports) == len(FAMILIES)
    for rep in reports:
        assert rep.passed and rep.measured <= 1e-10, rep
    _passline(3, "scale invariance <= 1e-10")


def test_04_deviation_forms_agree():
    """Direct and pairwise norm-deviation forms agree within 1e-10 relative
    on 1000 random inputs, and give exactly 128 on the worked norms."""
    rep = suite_deviation_forms()
    assert rep.passed, rep
    assert norm_deviation([2, 10, 18]) == 128.0
    assert norm_deviation_pairwise([2, 10, 18]) == pytest.approx(128.0, abs=1e-12)
    _passline(4, "deviation direct == pairwise form")


def test_05_sgd_conserves_deviation_to_second_order():
    """One-step |dQ| under plain SGD scales as eta^2 (halving ratio in
    [3.5, 4.5]) on 10 seeds per family, and from a balanced start Q stays
    under the accumulated eta^2 drift bound for 100 steps.  Under 30 s."""
    start = time.perf_counter()
    reports = suite_sgd_conservation(INSTANCES)
    ratio_reports = [r for r in reports if "conservation" in r.check]
    bound_reports = [r for r in reports if "balanced" in r.check]
    assert len(ratio_reports) == len(FAMILIES) * len(SEEDS)
    for rep in ratio_reports:
        assert rep.passed, rep
        assert 3.5 <= rep.details["eta_halving_ratio"] <= 4.5, rep
    assert len(bound_reports) == len(FAMILIES)
    for rep in bound_reports:
        assert rep.passed, rep
    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0, f"conservation checks took {elapsed:.1f}s"
    _passline(5, "SGD conservation (eta^2 scaling + balanced bound)")


def test_06_pairwise_gap_dynamics_under_perturbation():
    """One-step pairwise gap change matches 2*rho*u*(gap of squared gradient
    norms)*eta within 5% at rho=1e-3, eta=1e-5, with the corrected residual
    shrinking by [1.5, 4.5] under rho-halving.  10 seeds."""
    reports = [r for r in suite_sam_dynamics(INSTANCES) if "pairwise" in r.check]
    assert len(reports) == len(SEEDS)
    for rep in reports:
        assert rep.passed, rep
        assert rep.rel_residual <= 0.05, rep
        assert 1.5 <= rep.details["rho_halving_shrink"] <= 4.5, rep
    _passline(6, "pairwise norm-gap dynamics within 5%")


def test_07_global_deviation_dynamics_under_perturbation():
    """One-step dQ matches 4*rho*u*K*Cov*eta within 5% in the same regime,
    with rho-shrinking residual.  10 seeds."""
    reports = [r for r in suite_sam_dynamics(INSTANCES) if "q_dynamics" in r.check]
    assert len(reports) == len(SEEDS)
    for rep in reports:
        assert rep.passed, rep
        assert rep.rel_residual <= 0.05, rep
        assert 1.5 <= rep.details["rho_halving_shrink"] <= 4.5, rep
    _passline(7, "global deviation dynamics within 5%")


def test_08_layerwise_deviation_dynamics():
    """Layer-wise dQ_l matches 4*rho*u_D*K_l*Cov_l*eta within 5% on the
    two-layer scalar and matrix composites, 10 seeds each."""
    reports = suite_layered(SEEDS)
    assert len(reports) == 2 * len(SEEDS) * 2  # two composites, two layers
    for rep in reports:
        assert rep.passed, rep
        assert rep.rel_residual <= 0.05, rep
    _passline(8, "layer-wise deviation dynamics within 5%")


def test_09_scaling_matches_perturbation_step():
    """With alpha=rho=1e-3 and eta=1e-4 the scaling step reproduces the
    perturbation step's dQ within 10%, and the analytic first-order dQ of
    the scaling substep matches its measured value within 1%.  10 seeds."""
    reports = suite_das(INSTANCES)
    assert len(reports) == len(SEEDS)
    for rep in reports:
        assert rep.passed, rep
        assert rep.rel_residual <= 0.10, rep
        assert rep.details["scaling_rel_residual"] <= 0.01, rep
    _passline(9, "deviation-aware scaling matches within 10% / 1%")


def test_10_noise_strength_orders_balancing(tmp_path):
    """The noisy-target matrix experiment produces balancing rates and
    covariance magnitudes strictly ordered by the noise strength, with Q
    decreasing.  Under 2 minutes."""
    start = time.perf_counter()
    cfg = parse_config_text(FIG1_CFG)
    result = run_experiment(cfg, str(tmp_path / "fig1"))
    assert result.passed
    assert result.summary["q_rate_ordered"] is True
    assert result.summary["cov_ordered"] is True
    rates = [float(v) for v in result.summary["q_decrease_rates"].split(",")]
    assert all(r > 0 for r in rates), rates  # Q decreases at every strength
    assert rates[0] < rates[1] < rates[2]
    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0, f"noise-ordering run took {elapsed:.1f}s"
    _passline(10, "noise strength orders balancing rate and covariance")


def test_11_completion_near_tie(completion_runs):
    """All three optimizers recover the masked synthetic tensor with
    R^2 >= 0.99, agreeing within +/-0.005.  Under 2 minutes for the trio."""
    r2 = {k: completion_runs[k]["r2"] for k in ("adam", "sam", "das")}
    for kind, value in r2.items():
        assert value >= 0.99, (kind, value)
    assert abs(r2["sam"] - r2["adam"]) <= 0.005
    assert abs(r2["das"] - r2["adam"]) <= 0.005
    assert completion_runs["elapsed"] <= 120.0
    _passline(11, f"completion near-tie (r2: {r2})")


def test_12_runtime_ordering():
    """Per-step wall time on the completion workload: the scaling optimizer
    costs at most 1.3x the base, the perturbation optimizer at least 1.6x.

    The three optimizers take turns on one instance in one process: 30
    rounds of one block of 200 steps each.  A block reads its fastest step,
    and each ratio is the median over rounds of that round's ratio, so a
    stretch in which a shared host runs slow moves a round, not the reading."""
    cfgs = {k: parse_config_text(COMPLETION_CFG.format(kind=k)) for k in ("adam", "sam", "das")}
    cfg = cfgs["adam"]
    spec = build_model_spec(cfg.model)
    target, _ = generate_synthetic(spec, cfg.seed)
    rng = np.random.Generator(np.random.PCG64(cfg.seed + 1))
    objective = MaskedMse(target, sample_mask(target.shape, cfg.objective.mask_density, rng))
    cores = [as_tensor(rng.standard_normal(s)) for s in spec.core_shapes]

    def fastest_step(kind):
        ticks = []
        run(spec, cores, objective, build_optimizer(cfgs[kind].optimizer), 201,
            sink=lambda record: ticks.append(time.perf_counter()))
        return float(np.min(np.diff(ticks)))

    ratios = {"sam": [], "das": []}
    for _ in range(30):
        fastest = {kind: fastest_step(kind) for kind in cfgs}
        for kind, seen in ratios.items():
            seen.append(fastest[kind] / fastest["adam"])
    sam_ratio, das_ratio = (float(np.median(ratios[k])) for k in ("sam", "das"))
    assert das_ratio <= 1.3, f"scaling overhead ratio {das_ratio:.2f}"
    assert sam_ratio >= 1.6, f"perturbation ratio {sam_ratio:.2f}"
    _passline(12, f"runtime ordering (sam {sam_ratio:.2f}x, das {das_ratio:.2f}x)")


def test_13_byte_identical_reruns(tmp_path):
    """Identical (config, seed) produces byte-identical trajectory CSVs on
    two consecutive runs, for both a scaling run and the noise sweep."""
    cfg_text = COMPLETION_CFG.format(kind="das").replace("iters 20000", "iters 2000")
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        run_experiment(parse_config_text(cfg_text), str(out))
        outs.append((out / "trajectory.csv").read_bytes())
    assert outs[0] == outs[1]

    noise_cfg = FIG1_CFG.replace("iters 2500", "iters 300")
    blobs = []
    for tag in ("c", "d"):
        out = tmp_path / tag
        run_experiment(parse_config_text(noise_cfg), str(out))
        blobs.append(
            b"".join(sorted(p.read_bytes() for p in out.glob("trajectory_alpha_*.csv")))
        )
    assert blobs[0] == blobs[1]
    _passline(13, "byte-identical trajectories across reruns")
