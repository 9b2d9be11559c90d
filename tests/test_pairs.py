"""``tools/pairs.py``'s summary of interleaved benchmark pairs, read from
canned perfbench output: no benchmark runs."""

import argparse
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

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
        "  within bound 0.25: change median worse by -0.1, parent IQR/median 0.1",
        "ops_per_s: ratios 1.100 1.000 1.200  median 1.100  change won 2 of 3 (higher is better)",
        "  parent median 20 quartiles 20-22.5, change median 22 quartiles 21-26",
        "  gain not met: won 2 of 3 (3 needed), median gap 2 <= parent IQR 2.5",
        "  within bound 0.25: change median worse by -0.1, parent IQR/median 0.125",
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


@pytest.mark.parametrize(
    "parent, change, lower, line",
    [
        ([100.0, 101.0, 99.0, 100.0, 102.0], [130.0] * 5, True,
         "worse beyond bound 0.25: change median worse by 0.3, parent IQR/median 0.01"),
        ([20.0, 20.0, 20.0], [14.0, 15.0, 14.0], False,
         "worse beyond bound 0.25: change median worse by 0.3, parent IQR/median 0"),
        ([60.0, 100.0, 140.0, 80.0, 120.0], [90.0, 110.0, 70.0, 130.0, 100.0], True,
         "unresolved 0.25: change median worse by 0, parent IQR/median 0.4"),
        ([60.0, 100.0, 140.0, 80.0, 120.0], [50.0, 55.0, 45.0, 58.0, 52.0], True,
         "within bound 0.25: change median worse by -0.48, parent IQR/median 0.4"),
        ([100.0] * 5, [110.0, 124.0, 90.0, 120.0, 100.0], True,
         "within bound 0.25: change median worse by 0.1, parent IQR/median 0"),
    ],
    ids=["slower", "fewer-ops", "spread-wider-than-bound", "every-run-beats-a-wide-parent", "inside-bound"],
)
def test_no_regression_verdict_reads_the_metric_bound(parent, change, lower, line):
    assert load_tool().no_regression(parent, change, lower, 0.25) == line


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


def test_both_sides_run_from_copies_at_paths_of_equal_length(monkeypatch, tmp_path, capsys):
    # checkouts at paths of different lengths; each copy holds its own perfbench/run.py,
    # none of the skipped directories, and is gone once main returns
    tool = load_tool()
    checkouts = {"parent": tmp_path / "p", "change": tmp_path / "a-much-longer-checkout-path"}
    for side, root in checkouts.items():
        for skipped in (".git", "__pycache__", ".bench_out", ".hypothesis", ".pytest_cache"):
            (root / skipped).mkdir(parents=True)
        (root / "perfbench").mkdir()
        (root / "perfbench" / "run.py").write_text(f"# {side}\n")
        (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    seen = []

    def fake_run(cmd, **kwargs):
        cwd = kwargs["cwd"]
        skipped = [p.name for p in cwd.iterdir() if p.name.startswith((".", "_"))]
        seen.append((cwd, (cwd / "perfbench" / "run.py").read_text(), skipped))
        return subprocess.CompletedProcess(cmd, 0, stdout=perfbench_output(50.0, 20.0, "aa"))

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    argv = [str(checkouts["parent"]), str(checkouts["change"]), "--workload", "theorem-suite",
            "--pairs", "2", "--seconds", "1"]
    assert tool.main(argv) == 0
    assert [text for _, text, _ in seen] == ["# parent\n", "# change\n", "# change\n", "# parent\n"]
    assert all(skipped == [] for _, _, skipped in seen)
    parent, change = seen[0][0], seen[1][0]
    assert parent.parent == change.parent and len(str(parent)) == len(str(change))
    assert {cwd for cwd, _, _ in seen} == {parent, change}
    assert not parent.parent.exists()
    assert "trajectory_sha256 matched in 2 of 2 pairs" in capsys.readouterr().out
