"""Self-tests of the benchmark: short runs of every workload.

    python -m pytest perfbench -q

Each workload runs once untraced and once traced for a fraction of a second
(one round at least); the tests read the printed report and the JSON line.
"""

import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from checkout import ROOT, use_checkout_source

use_checkout_source()

import plancost  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from coreflow import tucker_spec  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
_RUNS: dict = {}


def bench(workload: str, trace: int, seed: int = 5):
    """(report lines, JSON result) of a short run, cached per argument set."""
    key = (workload, trace, seed)
    if key not in _RUNS:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)],
            capture_output=True, text=True, timeout=300, cwd=ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        _RUNS[key] = lines[:-1], json.loads(lines[-1])
    return _RUNS[key]


def _digest(lines) -> str:
    return next(ln.split()[1] for ln in lines if ln.startswith("trajectory_sha256 "))


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_metric_printed_with_unit(workload, trace, section):
    lines, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert f"ops {result['attempted']}" in lines and "failed_ops 0" in lines
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(ln.startswith(f"{name} ") and f" {unit}" in ln for ln in lines), name


@pytest.mark.parametrize(
    "workload, contractions, passes",
    [("completion-adam", 5, 1), ("completion-sam", 10, 2), ("completion-das", 5, 1),
     ("noise-tucker2", 8, 2)],
)
def test_exact_counts(workload, contractions, passes):
    metrics = bench(workload, 1)[1]["metrics"]
    assert metrics["tensor.contract.calls_per_step"]["value"] == contractions
    assert metrics["model.grad_passes_per_step"]["value"] == passes
    assert metrics["objective.loss_and_grad.calls_per_step"]["value"] == passes


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tracer_keeps_output_bytes(workload):
    assert _digest(bench(workload, 0)[0]) == _digest(bench(workload, 1)[0])


def test_quiet_round_takes_each_segments_fastest_pass():
    def round_of(start, *runs, tail=0, kind="adam"):
        """A round from ``start`` ns: per run, (gap before, step ns..., tail after)."""
        t, timings = start, []
        for gap, *steps, after in runs:
            t += gap
            stamps = np.cumsum([t, *steps, after])
            t = int(stamps[-1])
            timings.append(SimpleNamespace(stamps=stamps))
        return SimpleNamespace(kind=kind, start_ns=start, end_ns=t + tail, failed=0), timings

    # Each round is slow in a different segment; the fastest passes sum to 1+2+3+4+5+6 ns.
    pairs = [
        round_of(0, (1, 2000, 3, 4), (5000, 6, 0), tail=0),
        round_of(100, (1000, 2, 3, 4), (5, 6000, 0), tail=7),
        round_of(300, (1, 2, 3000, 4000), (5, 6, 0), tail=0),
        round_of(900, (1, 2, 3), tail=0),  # another shape: a failed round, left out
    ]
    wall_s, steps_us = stats.quiet_round(pairs)
    assert wall_s == pytest.approx(21e-9)
    assert list(steps_us * 1e3) == [2, 3, 6]


def test_plan_cost_of_matrix_product():
    flops, nbytes = plancost.plan_cost(("ij", "jk"), "ik", {"i": 2, "j": 3, "k": 5})
    assert flops == 2 * 2 * 3 * 5
    assert nbytes == 8 * (6 + 15 + 10)


def test_tucker_forward_flops():
    spec = tucker_spec((20, 20, 20), (4, 4, 4))
    extents = {"a": 4, "b": 4, "c": 4, "i": 20, "j": 20, "k": 20}
    flops, _ = plancost.plan_cost(spec.plan.operand_labels, spec.plan.output_labels, extents)
    assert flops == 2 * 4 * (4 * 4 * 20 + 4 * 20 * 20 + 20 * 20 * 20)


def test_fails_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "theorem-suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
