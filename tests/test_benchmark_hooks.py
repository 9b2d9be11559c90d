"""The benchmark's hooks still fit the package.

``perfbench/tracer.py`` wraps coreflow functions by name and
``perfbench/plancost.py`` imports some, so renaming or deleting one of them
breaks the benchmark.  These tests load both modules from their files,
without putting ``perfbench/`` on ``sys.path``, and fail when that happens.
"""

import hashlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from coreflow import experiments, model, optim
from coreflow.config import parse_config, parse_config_text
from coreflow.model import random_cores, reconstruct, tucker2_spec, tucker_spec
from coreflow.objective import MaskedMse, NoisyTargetMse
from coreflow.optim import AdamConfig, DasConfig, SamConfig, SgdConfig
from coreflow.tensor import CompiledPlan, as_tensor

from test_experiments import DAS_COMPLETION_CFG, NOISE_SWEEP_CFG

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CONFIGS = PERFBENCH.parent / "configs"


def load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_installs_and_uninstalls():
    tracer_mod = load("tracer")
    originals = (experiments.check_instance, optim.run, vars(model.LayeredModel)["core_grads"])
    clock = tracer_mod.StepClock()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        experiments.check_instance("tucker2", 0)
        assert tracer.query("experiments.check_instance")[0] == 1
    finally:
        tracer.uninstall()
        clock.close()
    after = (experiments.check_instance, optim.run, vars(model.LayeredModel)["core_grads"])
    assert all(a is b for a, b in zip(after, originals))


def test_step_clock_wraps_run_with_its_parameters():
    # a caller passing a parameter the wrapper lacks would end every round in a TypeError
    def parameters(fn):
        return [(p.name, p.default) for p in inspect.signature(fn, follow_wrapped=False).parameters.values()]

    real = optim.run
    clock = load("tracer").StepClock()
    try:
        assert optim.run is not real
        assert parameters(optim.run) == parameters(real)
    finally:
        clock.close()


def test_plancost_prices_a_step():
    plancost = load("plancost")
    spec = tucker_spec((4, 3, 2), (2, 2, 2))
    adam = plancost.step_cost(spec, AdamConfig(1e-3))
    sam = plancost.step_cost(spec, SamConfig(1e-2, AdamConfig(1e-3)))
    assert adam[0] > 0 and sam == (2 * adam[0], 2 * adam[1])


@pytest.mark.parametrize(
    "cfg, passes",
    [
        (AdamConfig(1e-3), 1),
        (SamConfig(1e-2, AdamConfig(1e-3)), 2),
        (DasConfig(0.05, AdamConfig(1e-3)), 1),
    ],
)
def test_traced_step_makes_one_call_per_gradient_pass(cfg, passes, rng):
    """The benchmark's per-pass spans: each gradient pass of a completion step
    goes once through model.grad_cores and once through the objective."""
    spec = tucker_spec((5, 4, 3), (2, 2, 2))
    mask = as_tensor((rng.random((5, 4, 3)) < 0.5).astype(float))
    obj = MaskedMse(reconstruct(spec, random_cores(spec, rng)), mask)
    steps = 3
    calls = traced_run_calls(spec, obj, cfg, steps, rng)
    assert calls == [passes * steps, passes * steps, steps]


def test_traced_noise_step_makes_one_call_per_gradient_pass(rng):
    """The noise sweep's step (tucker2, SAM over SGD, a fresh draw a step)
    makes two gradient passes and one draw."""
    spec = tucker2_spec(6, 5, 2, 2)
    clean = reconstruct(spec, random_cores(spec, rng))
    obj = NoisyTargetMse(clean, alpha=0.1, seed=3, resample_each_step=True)
    steps = 3
    calls = traced_run_calls(spec, obj, SamConfig(1e-2, SgdConfig(1e-3)), steps, rng)
    assert calls == [2 * steps, 2 * steps, steps]


def traced_run_calls(spec, obj, cfg, steps, rng):
    """Calls inside one traced run of model.grad_cores, objective.loss_and_grad
    and objective.begin_step."""
    tracer_mod = load("tracer")
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        optim.run(spec, random_cores(spec, rng, 0.5), obj, cfg, steps)
        return [
            tracer.query(name, in_run=True)[0]
            for name in ("model.grad_cores", "objective.loss_and_grad", "objective.begin_step")
        ]
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("cfg_text, csvs", [(DAS_COMPLETION_CFG, 1), (NOISE_SWEEP_CFG, 3)])
def test_one_traced_csv_span_per_csv_written(cfg_text, csvs, tmp_path):
    """``diagnostics.write_trajectory_csv.ms`` is a mean over these spans:
    every trajectory CSV goes through the traced writer exactly once."""
    tracer_mod = load("tracer")
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        experiments.run_experiment(parse_config_text(cfg_text), str(tmp_path))
        calls = tracer.query("diagnostics.write_trajectory_csv")[0]
    finally:
        tracer.uninstall()
    assert calls == csvs == len(list(tmp_path.glob("trajectory*.csv")))


@pytest.mark.parametrize("kind", ["tucker2", "scalar"])
def test_layered_draw_builds_each_layer_matrix_once(kind, monkeypatch):
    """A layered draw runs its one composite plan's forward once and takes
    every layer's gradients from one ``grad_cores`` pass."""
    forwards = []
    real_forward = CompiledPlan.forward

    def counted_forward(compiled, inputs):
        forwards.append(compiled.plan)
        return real_forward(compiled, inputs)

    monkeypatch.setattr(CompiledPlan, "forward", counted_forward)
    tracer_mod = load("tracer")
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        spec = experiments.layered_instance(kind, 0).spec
        draws = tracer.query("model.random_cores")[0] // 2  # one call per layer
        grads = tracer.query("model.grad_cores")[0]
    finally:
        tracer.uninstall()
    assert [forwards.count(spec.plan), grads] == [draws, draws]


# The benchmark's five workloads at seed 5, replayed in-process with the
# settings of perfbench/workloads.py (COMPLETION_ITERS 150, NOISE_ITERS 500,
# SUITE_SEEDS 4): each digest is the trajectory_sha256 that
# `perfbench/run.py --seed 5` prints for the workload on this platform.
@pytest.mark.parametrize(
    "cfg_name, kind, outputs, digest",
    [
        ("completion.cfg", "adam", "trajectory.csv",
         "31124bfc1b1a0f1196c793b028593bf8a77c1fe4b6cb379f37a5b90af9c9d575"),
        ("completion.cfg", "sam", "trajectory.csv",
         "35807b0ba611a3e29d174afb39bafe346e4b14b41992c4f56edae4fb413e6ee7"),
        ("completion.cfg", "das", "trajectory.csv",
         "c40f9b27947f957f6fd481958061c1a06145114ba6a428354a36e489dbd9071b"),
        ("noise_balance.cfg", None, "trajectory_alpha_*.csv",
         "cd71ac89c4970b103649df9293944a228b37c2a17f638a05a04f615dc3b63f9a"),
        ("suite.cfg", None, "theorem_reports.txt",
         "6fac8fb781871d2566000cd0d300565dd4da15fe1e9c597e3ac3c3b7d0543821"),
    ],
    ids=["completion-adam", "completion-sam", "completion-das", "noise-tucker2", "theorem-suite"],
)
def test_benchmark_workloads_keep_their_digests(cfg_name, kind, outputs, digest, tmp_path):
    cfg = parse_config(CONFIGS / cfg_name)
    cfg.seed = 5
    if cfg_name == "suite.cfg":
        cfg.suite_seeds = 4
    elif kind is None:
        cfg.optimizer.iters = 500
    else:  # a completion reads its target from the DTF1 file `gen` writes
        cfg.optimizer.kind, cfg.optimizer.iters = kind, 150
        cfg.objective.source = experiments.generate_to_files(cfg, str(tmp_path / "data"))["target"]
    experiments.run_experiment(cfg, str(tmp_path / "out"))
    blobs = [path.read_bytes() for path in sorted((tmp_path / "out").glob(outputs))]
    assert blobs and hashlib.sha256(b"".join(blobs)).hexdigest() == digest
