"""``tools/pairs.py``'s summary of interleaved benchmark pairs, read from
canned perfbench output: no benchmark runs."""

import argparse
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"

END_TO_END = [
    {"name": "step_us_p50", "unit": "us", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def load_tool():
    spec = importlib.util.spec_from_file_location("_tools_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def perfbench_output(step_us, ops_per_s, digest, failed=0):
    """What ``perfbench/run.py --trace 0`` prints: the report, then one JSON line."""
    metrics = {"step_us_p50": {"value": step_us, "unit": "us"}, "ops_per_s": {"value": ops_per_s, "unit": "1/s"}}
    result = {"correct": failed == 0, "attempted": 30, "failed": failed, "metrics": metrics}
    return "\n".join([
        "manifest seed 0",
        "steps per round 1500, rounds 11, set-ups 12",
        f"trajectory_sha256 {digest}",
        f"step_us_p50 {step_us} us  (sam.step_us_p50)",
        f"failed_ops {failed}",
        json.dumps(result),
    ]) + "\n"


def test_parse_run_reads_the_last_line_and_the_digest():
    run = load_tool().parse_run(perfbench_output(50.0, 20.0, "31124bfc", failed=2))
    assert run == {"metrics": {"step_us_p50": 50.0, "ops_per_s": 20.0}, "failed": 2, "digest": "31124bfc"}


def test_summary_gives_ratios_medians_wins_and_digests():
    tool = load_tool()
    canned = [
        (perfbench_output(50.0, 20.0, "aa"), perfbench_output(45.0, 22.0, "aa")),
        (perfbench_output(50.0, 20.0, "aa"), perfbench_output(55.0, 20.0, "aa")),  # ops tie
        (perfbench_output(40.0, 25.0, "aa"), perfbench_output(36.0, 30.0, "ab", failed=1)),
    ]
    pairs = [(tool.parse_run(parent), tool.parse_run(change)) for parent, change in canned]
    assert tool.summarize(pairs, END_TO_END) == [
        "step_us_p50: ratios 0.900 1.100 0.900  median 0.900  change won 2 of 3 (lower is better)",
        "  parent median 50 quartiles 45-50, change median 45 quartiles 40.5-50",
        "  gain not met: won 2 of 3 (3 needed), median gap 5 <= parent IQR 5",
        "ops_per_s: ratios 1.100 1.000 1.200  median 1.100  change won 2 of 3 (higher is better)",
        "  parent median 20 quartiles 20-22.5, change median 22 quartiles 21-26",
        "  gain not met: won 2 of 3 (3 needed), median gap 2 <= parent IQR 2.5",
        "trajectory_sha256 matched in 2 of 3 pairs",
        "failed ops (parent, change): 0,0 0,0 0,1",
    ]


def test_gain_met_needs_nine_tenths_of_the_pairs_and_a_gap_wider_than_the_parent_spread():
    # step_us_p50: the change wins 9 of 10, and its median is 10 us below the
    # parent's, whose quartiles are 4.5 us apart.  ops_per_s: the change wins
    # 10 of 10, but by 1/s, inside the parent's spread of 4.5/s.
    tool = load_tool()
    canned = []
    for i in range(10):
        parent_us, parent_ops = 100.0 + i, 20.0 + i
        change_us = parent_us + 1.0 if i == 9 else parent_us - 10.0
        canned.append((perfbench_output(parent_us, parent_ops, "aa"), perfbench_output(change_us, parent_ops + 1.0, "aa")))
    pairs = [(tool.parse_run(parent), tool.parse_run(change)) for parent, change in canned]
    verdicts = [line for line in tool.summarize(pairs, END_TO_END) if line.startswith("  gain")]
    assert verdicts == [
        "  gain met: won 9 of 10 (9 needed), median gap 10 > parent IQR 4.5",
        "  gain not met: won 10 of 10 (9 needed), median gap 1 <= parent IQR 4.5",
    ]
    assert tool.verdict(8, 10, [1.0] * 10, [0.5] * 10, lower=True).startswith("gain not met: won 8 of 10")
    assert tool.verdict(9, 10, [1.0] * 10, [1.0] * 10, lower=True).startswith("gain not met")  # a tie


def test_each_run_compiles_its_sources_afresh(monkeypatch, tmp_path):
    # each checkout's own bytecode is deleted before its run and none is written;
    # installed packages keep their bytecode (no cache prefix reaches the run)
    tool = load_tool()
    own = ["src/__pycache__", "src/coreflow/__pycache__", "perfbench/__pycache__"]
    for side in ("parent", "change"):
        for cache in own + ["tests/__pycache__"]:
            (tmp_path / side / cache).mkdir(parents=True)
            (tmp_path / side / cache / "stale.cpython-311.pyc").write_bytes(b"")
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "prefix"))
    seen = []

    def fake_run(cmd, **kwargs):
        cwd, env = kwargs["cwd"], kwargs["env"]
        left = [cache for cache in own if (cwd / cache).exists()]
        seen.append((cwd, env["PYTHONDONTWRITEBYTECODE"], "PYTHONPYCACHEPREFIX" in env, left))
        return subprocess.CompletedProcess(cmd, 0, stdout=perfbench_output(50.0, 20.0, "aa"))

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    args = argparse.Namespace(workload="noise-tucker2", seed=321, seconds=20.0)
    for side in ("parent", "change"):
        assert tool.run_once(tmp_path / side, args)["digest"] == "aa"
    assert seen == [(tmp_path / "parent", "1", False, []), (tmp_path / "change", "1", False, [])]
    assert all((tmp_path / side / "tests/__pycache__").exists() for side in ("parent", "change"))
