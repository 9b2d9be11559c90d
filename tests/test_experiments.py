import hashlib
from dataclasses import replace

import numpy as np
import pytest

from coreflow import diagnostics, experiments, optim
from coreflow.config import parse_config_text
from coreflow.experiments import (
    FAMILIES,
    check_instance,
    generate_synthetic,
    layered_instance,
    run_experiment,
    run_theorem_suite,
    sample_mask,
    suite_das,
    suite_deviation_forms,
    suite_instances,
    suite_layered,
    suite_lemma_and_invariance,
    suite_sam_dynamics,
    suite_sgd_conservation,
)
from coreflow.diagnostics import norm_deviation, norm_grad_covariance
from coreflow.errors import DegenerateVariance, NumericalError
from coreflow.model import ReconstructionSpec, reconstruct, tucker_spec
from coreflow.optim import SgdConfig, norms_sq
from coreflow.tensor import CompiledPlan, as_tensor, frobenius_norm_sq, write_dtf1

from oracles import (
    layered_model_draw,
    per_record_drift_bounds,
    per_record_trajectory_rows,
    per_vector_deviation_forms,
)


def completion_text(**overrides):
    params = dict(
        seed=3, family="tucker", modes="8,8,8", ranks="2,2,2",
        density=1.0, kind="adam", eta=0.01, iters=3000,
    )
    params.update(overrides)
    return """
experiment completion
seed {seed}
model {{
  family {family}
  modes {modes}
  ranks {ranks}
}}
objective {{
  mask_density {density}
}}
optimizer {{
  kind {kind}
  base adam
  eta {eta}
  iters {iters}
}}
""".format(**params)


class TestGenerateSynthetic:
    def test_same_seed_same_bytes(self):
        spec = tucker_spec((6, 5, 4), (2, 2, 2))
        t1, cores1 = generate_synthetic(spec, seed=9)
        t2, cores2 = generate_synthetic(spec, seed=9)
        np.testing.assert_array_equal(t1, t2)
        for a, b in zip(cores1, cores2):
            np.testing.assert_array_equal(a, b)

    def test_noiseless_target_is_exactly_low_rank(self):
        spec = tucker_spec((6, 5, 4), (2, 2, 2))
        target, cores = generate_synthetic(spec, seed=4, noise_alpha=0.0)
        np.testing.assert_array_equal(target, reconstruct(spec, cores))

    def test_noise_strength_perturbs_target(self):
        spec = tucker_spec((6, 5, 4), (2, 2, 2))
        clean, _ = generate_synthetic(spec, seed=4, noise_alpha=0.0)
        noisy, _ = generate_synthetic(spec, seed=4, noise_alpha=0.5)
        diff_sq = float(np.sum((noisy - clean) ** 2))
        # 0.25 * chi^2(120) concentrates near 30
        assert 15.0 < diff_sq < 60.0


class TestSampleMask:
    def test_density_roughly_respected(self, rng):
        mask = sample_mask((40, 40), 0.3, rng)
        assert 0.2 < mask.mean() < 0.4
        assert set(np.unique(mask)) <= {0.0, 1.0}

    def test_never_empty(self, rng):
        mask = sample_mask((3, 3), 1e-9, rng)
        assert mask.sum() >= 1


class TestCompletionExperiment:
    def test_full_observation_reaches_factorization_floor(self, tmp_path):
        cfg = parse_config_text(completion_text(density=1.0))
        res = run_experiment(cfg, str(tmp_path))
        assert res.summary["final_loss"] <= 1e-8
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "summary.txt").exists()

    def test_masked_recovery_scores_heldout_entries(self, tmp_path):
        cfg = parse_config_text(completion_text(density=0.4, iters=4000))
        res = run_experiment(cfg, str(tmp_path))
        assert res.summary["r2"] >= 0.99

    def test_summary_has_documented_keys(self, tmp_path):
        cfg = parse_config_text(completion_text(iters=50))
        res = run_experiment(cfg, str(tmp_path))
        for key in ("final_loss", "final_q", "r2", "seconds_per_step"):
            assert key in res.summary
        text = (tmp_path / "summary.txt").read_text()
        assert "r2 " in text

    @pytest.mark.parametrize("modes, message", [
        ("1,1", "mask must select at least 2 entries"),
        ("2,2", "masked target variance is zero"),
    ])
    def test_a_run_that_cannot_be_scored_fails_before_its_first_step(
        self, tmp_path, monkeypatch, modes, message
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("trained a run that cannot be scored")

        monkeypatch.setattr(experiments, "run", no_run)
        text = completion_text(family="tucker2", modes=modes, ranks="1,1")
        if modes == "2,2":  # a constant target, every entry observed
            source = tmp_path / "flat.dtf1"
            write_dtf1(str(source), as_tensor(np.ones((2, 2))))
            text = text.replace("objective {", f"objective {{\n  source {source}")
        with pytest.raises(DegenerateVariance, match=message):
            run_experiment(parse_config_text(text), str(tmp_path))
        assert not (tmp_path / "trajectory.csv").exists()


class TestNoiseSweepExperiment:
    def test_emits_one_trajectory_per_strength(self, tmp_path):
        cfg = parse_config_text(
            """
experiment tucker2-noise
seed 7
model {
  family tucker2
  modes 10,8
  ranks 3,3
}
objective {
  noise_alpha 0.0,0.2
}
optimizer {
  kind sam
  base sgd
  eta 0.0005
  rho 0.01
  iters 60
}
"""
        )
        res = run_experiment(cfg, str(tmp_path))
        files = sorted(p.name for p in tmp_path.glob("trajectory_alpha_*.csv"))
        assert len(files) == 2
        assert "q_rate_ordered" in res.summary
        assert "cov_ordered" in res.summary

    def test_shared_seed_shares_initial_norms(self, tmp_path):
        cfg = parse_config_text(
            """
experiment tucker2-noise
seed 5
model {
  family tucker2
  modes 10,8
  ranks 3,3
}
objective {
  noise_alpha 0.0,0.3
}
optimizer {
  kind sam
  base sgd
  eta 0.0005
  rho 0.01
  iters 5
}
"""
        )
        run_experiment(cfg, str(tmp_path))
        first_rows = []
        for path in sorted(tmp_path.glob("trajectory_alpha_*.csv")):
            header, row0 = path.read_text().splitlines()[:2]
            k = sum(1 for col in header.split(",") if col.startswith("core_norm"))
            cells = row0.split(",")
            first_rows.append(cells[4:4 + k])
        assert first_rows[0] == first_rows[1]

    def test_a_failing_strength_keeps_its_error_type_and_is_named(self, tmp_path):
        text = NOISE_SWEEP_CFG.replace("noise_alpha 0.0,0.1,0.3", "noise_alpha 0.0,1e308")
        assert "1e308" in text
        with pytest.raises(NumericalError, match=r"^noise_alpha 1e\+308: iteration 0: ") as err:
            run_experiment(parse_config_text(text), str(tmp_path))
        assert isinstance(err.value.__cause__, NumericalError)


class TestInstanceFactories:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_check_instances_are_deterministic(self, family):
        p1, p2 = check_instance(family, seed=5), check_instance(family, seed=5)
        assert p1.spec.family == p2.spec.family
        for a, b in zip(p1.cores, p2.cores):
            np.testing.assert_array_equal(a, b)

    def test_imbalance_present(self):
        norms = [frobenius_norm_sq(c) for c in check_instance("tucker2", seed=0).cores]
        assert max(norms) / min(norms) > 1.5

    @pytest.mark.parametrize("kind", ["tucker2", "scalar"])
    def test_layered_instances_are_deterministic(self, kind):
        p1, p2 = layered_instance(kind, seed=2), layered_instance(kind, seed=2)
        np.testing.assert_array_equal(p1.spec.constants[-1], p2.spec.constants[-1])  # x
        assert p1.spec.groups == p2.spec.groups and len(p1.cores) == len(p2.cores) == sum(p1.spec.groups)
        for a, b in zip(p1.cores, p2.cores):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 7, 10])
    @pytest.mark.parametrize("kind", ["tucker2", "scalar"])
    def test_layered_draw_matches_a_layered_model_loop(self, kind, seed):
        # the same draws in the same order, kept by the same per-layer conditioning;
        # tucker2 rejects 1 draw at seed 7 and 2 at seed 10
        x, cores, obj = layered_model_draw(kind, seed)
        probe = layered_instance(kind, seed)
        assert probe.spec.constants[-1].tobytes() == x.tobytes()
        assert probe.spec.groups == ((3, 3) if kind == "tucker2" else (2, 2))
        assert [c.tobytes() for c in probe.cores] == [c.tobytes() for c in cores]
        assert probe.objective.target.tobytes() == obj.target.tobytes()


class TestTheoremSuite:
    def test_two_seed_suite_green(self, tmp_path):
        res = run_theorem_suite(2, str(tmp_path))
        assert res.passed
        assert res.summary["failures"] == 0
        assert (tmp_path / "theorem_reports.txt").exists()
        report_text = (tmp_path / "theorem_reports.txt").read_text()
        assert "verdict PASS" in report_text
        assert "verdict FAIL" not in report_text

    def test_suite_draws_each_instance_once(self, monkeypatch):
        calls = []
        real = experiments.check_instance

        def counted(family, seed):
            calls.append((family, seed))
            return real(family, seed)

        monkeypatch.setattr(experiments, "check_instance", counted)
        run_theorem_suite(2)
        assert len(calls) == 10  # 5 families x 2 seeds
        assert set(calls) == {(f, s) for f in FAMILIES for s in (0, 1)}

    @staticmethod
    def count_passes(monkeypatch):
        """Every forward ("forward") and reverse pass ("reverse"), in order; a
        standalone pass shows up as an extra "forward" before its reverse."""
        calls = []
        forward, gradients = CompiledPlan.forward, CompiledPlan.gradients

        def counted_forward(compiled, inputs):
            calls.append("forward")
            return forward(compiled, inputs)

        def counted_gradients(compiled, kept, grad_out, slots):
            calls.append("reverse")
            return gradients(compiled, kept, grad_out, slots)

        monkeypatch.setattr(CompiledPlan, "forward", counted_forward)
        monkeypatch.setattr(CompiledPlan, "gradients", counted_gradients)
        return calls

    def test_a_draw_hands_its_forward_to_its_reverse_pass(self, monkeypatch):
        calls = self.count_passes(monkeypatch)
        check_instance("tucker2", 0)
        assert calls == ["forward", "reverse"] * 2  # seed 0 rejects its first draw

    @pytest.mark.parametrize("kind", ["tucker2", "scalar"])
    def test_a_layered_draw_hands_its_forward_to_its_reverse_pass(self, kind, monkeypatch):
        draws = []
        real = experiments.layered_spec
        monkeypatch.setattr(experiments, "layered_spec", lambda *a: draws.append(1) or real(*a))
        calls = self.count_passes(monkeypatch)
        layered_instance(kind, 0)
        assert calls == ["forward", "reverse"] * len(draws)

    def test_a_layered_draw_builds_one_composite_spec(self, monkeypatch):
        built, draws = [], []
        post_init, random_cores = ReconstructionSpec.__post_init__, experiments.random_cores
        monkeypatch.setattr(
            ReconstructionSpec, "__post_init__", lambda spec: built.append(spec.family) or post_init(spec)
        )
        monkeypatch.setattr(
            experiments, "random_cores", lambda *a, **k: draws.append(1) or random_cores(*a, **k)
        )
        suite_layered(range(4))
        assert len(draws) >= 2 * 2 * 4  # two layers a draw, a draw per kind and seed at least
        assert built.count("layered") == len(draws) // 2  # rejected draws too

    def test_each_family_builds_one_check_spec(self):
        for family in FAMILIES:
            assert check_instance(family, 0).spec is check_instance(family, 1).spec

    def test_deviation_forms_match_the_per_vector_loop(self):
        assert suite_deviation_forms().lines() == per_vector_deviation_forms().lines()

    def test_lemma_and_invariance_take_one_pass_per_instance(self, monkeypatch):
        instances = suite_instances([0, 1])
        calls = self.count_passes(monkeypatch)
        assert len(suite_lemma_and_invariance(instances)) == 2 * len(FAMILIES)
        # every core's gradient of an instance is the draw's one pass, which the probe keeps
        assert [c for c in calls if c != "forward"] == []

    def test_each_section_takes_its_pinned_passes(self, monkeypatch):
        seeds, full = [0, 1], []
        real = optim.loss_and_core_grads
        monkeypatch.setattr(
            optim, "loss_and_core_grads", lambda *a, **k: full.append(1) or real(*a, **k)
        )
        calls = self.count_passes(monkeypatch)

        def passes(section, *args):
            """What ``section`` returns, and its full passes and reverse passes outside one."""
            full.clear(), calls.clear()
            out = section(*args)
            return out, (len(full), calls.count("reverse") - len(full))

        instances, draws = passes(suite_instances, seeds)
        assert draws == (0, 12)  # 10 instances, 2 draws rejected
        assert passes(suite_lemma_and_invariance, instances)[1] == (0, 0)
        assert passes(suite_sgd_conservation, instances)[1] == (10 * 19 + 5 * 100, 0)
        assert passes(suite_sam_dynamics, instances)[1] == (2 * 2, 0)  # rho and rho/2 per seed
        assert passes(suite_layered, seeds)[1] == (2 * 2 * 2, 2 * 2)  # and 4 draws
        assert passes(suite_das, instances)[1] == (0, 0)

    def test_the_suite_steps_inside_one_scope(self, monkeypatch):
        # a pass or step called on its own reruns as its private copy inside the
        # scope it opens; the suite takes every step inside a scope, so reaches none
        entered = []
        for name in ("_loss_and_core_grads", "_base_step", "_plain_step", "_sam_step", "_das_step"):
            real = getattr(optim, name)
            monkeypatch.setattr(
                optim, name, lambda *a, _n=name, _f=real, **k: entered.append(_n) or _f(*a, **k)
            )
        assert run_theorem_suite(2).passed
        assert entered == []

    def test_reports_keep_their_digest(self, tmp_path):
        run_theorem_suite(10, str(tmp_path))
        digest = hashlib.sha256((tmp_path / "theorem_reports.txt").read_bytes()).hexdigest()
        assert digest == "4d14fc9abf067956f6968cc410f167f9db82b0996a358c473a1eeaa6023b8829"

    def test_shared_instances_give_the_same_reports(self):
        # each section handed its own freshly drawn instances, as if alone
        seeds = [0, 1]
        fresh = [suite_deviation_forms()]
        fresh += suite_lemma_and_invariance(suite_instances(seeds))
        fresh += suite_sgd_conservation(suite_instances(seeds))
        fresh += suite_sam_dynamics(suite_instances(seeds))
        fresh += suite_layered(seeds)
        fresh += suite_das(suite_instances(seeds))
        shared = run_theorem_suite(2).reports
        assert [r.lines() for r in shared] == [r.lines() for r in fresh]


NOISE_SWEEP_CFG = """
experiment tucker2-noise
seed 7
model {
  family tucker2
  modes 12,10
  ranks 4,4
}
objective {
  noise_alpha 0.0,0.1,0.3
}
optimizer {
  kind sam
  base sgd
  eta 0.0005
  rho 0.01
  iters 50
}
"""

DAS_COMPLETION_CFG = """
experiment completion
seed 4
model {
  family tucker
  modes 6,5,4
  ranks 2,2,2
}
objective {
  mask_density 0.6
}
optimizer {
  kind das
  base adam
  eta 0.01
  alpha 0.05
  iters 40
}
"""


def recording(monkeypatch, module):
    """Every (final cores, records) that ``module.run`` returns, in order."""
    runs, real = [], module.run

    def recorded(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(module, "run", recorded)
    return runs


def csv_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


class TestOutputsMatchPerRecordOracle:
    """Every output that reads Q or Cov equals one computed record by record."""

    def test_noise_sweep_csvs_and_summary(self, tmp_path, monkeypatch):
        runs = recording(monkeypatch, experiments)
        cfg = parse_config_text(NOISE_SWEEP_CFG)
        run_experiment(cfg, str(tmp_path))
        records = [recs for _, recs in runs]
        assert len(records) == 3
        for alpha, recs in zip(cfg.objective.noise_alphas, records):
            tag = repr(alpha).replace(".", "p")
            path = tmp_path / f"trajectory_alpha_{tag}.csv"
            assert csv_lines(path) == per_record_trajectory_rows(recs)
        rates = [
            (norm_deviation(r[0].core_norms_sq) - norm_deviation(r[-1].core_norms_sq)) / len(r)
            for r in records
        ]
        covs = [
            float(np.mean(np.abs(
                [norm_grad_covariance(x.core_norms_sq, x.grad_norms_sq) for x in r]
            )))
            for r in records
        ]
        assert csv_lines(tmp_path / "summary.txt") == [
            "experiment tucker2-noise",
            "optimizer sam",
            "iters 50",
            "seed 7",
            "alphas 0.0,0.1,0.3",
            "q_decrease_rates " + ",".join(map(repr, rates)),
            "cov_magnitudes " + ",".join(map(repr, covs)),
            "final_losses " + ",".join(repr(r[-1].loss) for r in records),
            f"q_rate_ordered {rates[0] < rates[1] < rates[2]}",
            f"cov_ordered {covs[0] < covs[1] < covs[2]}",
        ]

    def test_das_completion_csv_with_lambdas(self, tmp_path, monkeypatch):
        runs = recording(monkeypatch, experiments)
        run_experiment(parse_config_text(DAS_COMPLETION_CFG), str(tmp_path))
        (_, records), = runs
        lines = csv_lines(tmp_path / "trajectory.csv")
        assert lines[0].endswith("lambda_4")  # 3 factors and the core
        assert lines == per_record_trajectory_rows(records)

    def test_sgd_check_reports(self, monkeypatch):
        runs = recording(monkeypatch, diagnostics)
        probe = check_instance("tucker2", 0)
        eta = 1e-3

        rep = diagnostics.check_sgd_conservation(probe, eta)
        # the probe's step at eta is the first, and the run takes the rest
        records = [probe.step(SgdConfig(eta))[1], *runs[-1][1]]
        qs = [norm_deviation(r.core_norms_sq) for r in records]
        max_dq = max(abs(b - a) for a, b in zip(qs[:-1], qs[1:]))
        want = replace(rep, details={**rep.details, "max_step_dq": max_dq})
        assert rep.lines() == want.lines()

        rep = diagnostics.check_sgd_balanced_bound(probe, eta)
        final, records = runs[-1]
        before, bound = per_record_drift_bounds(records, eta)
        checked = [(norm_deviation(r.core_norms_sq), b) for r, b in zip(records, before)]
        q_final = norm_deviation(norms_sq(final))
        rel, abs_ = diagnostics._BALANCED_SLACK
        worst_q, worst_bound = max(checked, key=lambda qb: qb[0])
        want = replace(
            rep,
            predicted=bound,
            abs_residual=max(0.0, q_final - bound),
            rel_residual=q_final / bound,
            passed=all(q <= b + (rel * b + abs_) for q, b in checked + [(q_final, bound)]),
            details={"worst_q": worst_q, "bound_at_worst": worst_bound},
        )
        assert rep.measured == q_final
        assert rep.lines() == want.lines()
