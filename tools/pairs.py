"""Interleaved benchmark pairs: the parent checkout against the change.

    python3 tools/pairs.py PARENT CHANGE --workload W --pairs N --seconds S [--seed K]

PARENT and CHANGE are checkouts of the repository.  Both are first copied
into one temporary directory, as ``parent/`` and ``change/`` (names of equal
length), without ``.git``, ``__pycache__``, ``.bench_out``, ``.hypothesis``
or ``.pytest_cache``, so both sides run from paths of equal length wherever
the checkouts sit; the copies are removed at the end.  Each pair runs
``perfbench/run.py --workload W --seed K --seconds S --trace 0`` once in
each copy, one after the other; the order alternates from pair to pair,
so a stretch of host load falls on both sides alike.  Every run compiles
its copy's own code afresh: the copy's ``src/**/__pycache__`` and
``perfbench/__pycache__`` are deleted first, and the run writes no bytecode
(``PYTHONDONTWRITEBYTECODE=1``), so bytecode left in either copy, maybe
from the other tree's sources, moves neither side's set-up time.  numpy and
the standard library load their installed bytecode (``PYTHONPYCACHEPREFIX``
is unset), so neither side pays to compile a module it imports late.  For
every end-to-end metric that CHANGE's BENCHMARK.json declares, it prints the
change/parent ratio of each pair, the median ratio, and the number of pairs
the change won (a tie counts for neither side), then each side's median and
quartiles, then a verdict: "gain met" when the change won at least nine
tenths of the pairs and its median is better than the parent's by more than
the parent's interquartile range, "gain not met" otherwise.  Then the
no-regression verdict under the metric's ``bound`` (a relative amount):
"worse beyond bound" when the change's median is worse than the parent's by
more than the bound, "unresolved" when the parent's interquartile range over
its median is wider than the bound and not every change run beats every
parent run, "within bound" otherwise.  Last, in how many pairs
``trajectory_sha256`` matched, and each pair's failed ops.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

_NOT_COPIED = (".git", "__pycache__", ".bench_out", ".hypothesis", ".pytest_cache")


def parse_run(stdout: str) -> dict:
    """One perfbench run's metric values, failed ops and trajectory digest."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next((ln.split()[1] for ln in lines if ln.startswith("trajectory_sha256 ")), "")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"metrics": metrics, "failed": result["failed"], "digest": digest}


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> list[str]:
    """Report lines for (parent run, change run) pairs from ``parse_run``;
    ``end_to_end`` holds BENCHMARK.json's metric entries (name, better, bound)."""
    lines = []
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        ratios = [
            change["metrics"][name] / parent["metrics"][name] if parent["metrics"][name] else float("nan")
            for parent, change in pairs
        ]
        wins = sum(r < 1.0 if lower else r > 1.0 for r in ratios)
        shown = " ".join(f"{r:.3f}" for r in ratios)
        lines.append(
            f"{name}: ratios {shown}  median {statistics.median(ratios):.3f}"
            f"  change won {wins} of {len(pairs)} ({metric['better']} is better)"
        )
        sides = [(side, [run[i]["metrics"][name] for run in pairs]) for i, side in enumerate(("parent", "change"))]
        lines.append("  " + ", ".join(
            f"{side} median {statistics.median(values):.6g} quartiles " + "{:.6g}-{:.6g}".format(*_quartiles(values))
            for side, values in sides
        ))
        lines.append("  " + verdict(wins, len(pairs), sides[0][1], sides[1][1], lower))
        lines.append("  " + no_regression(sides[0][1], sides[1][1], lower, metric["bound"]))
    same = [parent["digest"] == change["digest"] != "" for parent, change in pairs]
    lines.append(f"trajectory_sha256 matched in {sum(same)} of {len(pairs)} pairs")
    failed = [(parent["failed"], change["failed"]) for parent, change in pairs]
    lines.append("failed ops (parent, change): " + " ".join(f"{p},{c}" for p, c in failed))
    return lines


def verdict(wins: int, n: int, parent: list[float], change: list[float], lower: bool) -> str:
    """Whether the change's gain on one metric counts: it won at least nine
    tenths of the ``n`` pairs (ties count for neither side), and the medians
    differ in its favour by more than the parent's interquartile range."""
    needed = -(-9 * n // 10)
    gap = statistics.median(parent) - statistics.median(change)
    gap = gap if lower else -gap
    q1, q3 = _quartiles(parent)
    met = wins >= needed and gap > q3 - q1
    return (
        f"gain {'met' if met else 'not met'}: won {wins} of {n} ({needed} needed),"
        f" median gap {gap:.6g} {'>' if gap > q3 - q1 else '<='} parent IQR {q3 - q1:.6g}"
    )


def no_regression(parent: list[float], change: list[float], lower: bool, bound: float) -> str:
    """Whether the change keeps one metric within its relative ``bound``:
    worse beyond it when the change's median is worse than the parent's by
    more than ``bound`` of the parent's median; unresolved when the parent's
    own spread (interquartile range over median) is wider than ``bound``,
    unless every change run beats every parent run; within it otherwise.  A
    parent median of 0 gives no relative amount, and a spread wider than any
    bound."""
    median = statistics.median(parent)
    q1, q3 = _quartiles(parent)
    worse = (statistics.median(change) - median) / median if median else math.nan
    worse = worse if lower else -worse
    spread = (q3 - q1) / median if median else math.nan
    beats = max(change) < min(parent) if lower else min(change) > max(parent)
    if worse > bound:
        state = "worse beyond bound"
    elif not spread <= bound and not beats:  # a nan spread is not within the bound
        state = "unresolved"
    else:
        state = "within bound"
    return f"{state} {bound:g}: change median worse by {worse:.3g}, parent IQR/median {spread:.3g}"


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def run_once(checkout: Path, args) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    for cache in [*(checkout / "src").rglob("__pycache__"), checkout / "perfbench" / "__pycache__"]:
        shutil.rmtree(cache, ignore_errors=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return parse_run(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    end_to_end = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        parent, change = Path(tmp, "parent"), Path(tmp, "change")
        for checkout, copy in ((args.parent, parent), (args.change, change)):
            shutil.copytree(checkout, copy, ignore=shutil.ignore_patterns(*_NOT_COPIED))
        for i in range(args.pairs):
            if i % 2 == 0:
                pairs.append((run_once(parent, args), run_once(change, args)))
            else:
                change_run = run_once(change, args)
                pairs.append((run_once(parent, args), change_run))
            print(f"pair {i + 1} of {args.pairs} done ({'parent' if i % 2 == 0 else 'change'} first)", flush=True)
    for line in summarize(pairs, end_to_end):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
