"""coreflow benchmark: per-step optimizer cost on whole experiment runs.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs rounds of whole
experiments (see workloads.py) back to back for S seconds and checks every
round's outputs.  With ``--trace 0`` it prints the end-to-end metrics, with
the tracer off; with ``--trace 1`` it spends half of S untraced and half
traced and prints the per-layer metrics (see layers.py).  An untraced run
also times SETUP_PROBES set-ups in fresh processes, spread over the run
between rounds.  Every timing is taken from the run's quiet stretches, since
a shared host's cores change speed for seconds at a time (see stats.py).
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ops, "failed": failed_ops, "metrics": {...}}

Lines before it give the machine manifest and a readable report, where the
per-optimizer names (``adam.step_us_p50`` and so on) label the generic ones.
``--workload all`` runs every workload in its own process, one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checkout import ROOT, SRC, WORK, cap_threads, use_checkout_source

cap_threads()
use_checkout_source()

import numpy as np  # noqa: E402

import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracer import StepClock, Tracer  # noqa: E402

SETUP_PROBES = 12
PROBE = Path(__file__).resolve().parent / "setup_probe.py"

# (name, unit) of the end-to-end metrics, reported by every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("step_us_p50", "us"),
    ("step_us_p90", "us"),
    ("ops_per_s", "1/s"),
)

# The per-optimizer names each workload's generic metrics stand for.
ALIASES = {
    "completion-adam": {"step_us_p50": "adam.step_us_p50", "step_us_p90": "adam.step_us_p90"},
    "completion-sam": {"step_us_p50": "sam.step_us_p50", "step_us_p90": "sam.step_us_p90"},
    "completion-das": {"step_us_p50": "das.step_us_p50", "step_us_p90": "das.step_us_p90"},
    "noise-tucker2": {"step_us_p50": "sam.step_us_p50", "step_us_p90": "sam.step_us_p90"},
    "theorem-suite": {"ops_per_s": "checks_per_s"},
}


def _blas_threads() -> str:
    """Thread count the bundled OpenBLAS reports, or "unknown"."""
    import ctypes

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return str(fn())
    return "unknown"


def _commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return f"unknown ({ref} not found)"


def manifest(args) -> dict[str, str]:
    import hashlib

    source = hashlib.sha256()
    for path in sorted((SRC / "coreflow").glob("*.py")):
        source.update(path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": _commit(),
        "source_sha256": source.hexdigest(),
        "seed": str(args.seed),
        "nproc": f"{os.cpu_count()} (usable {len(os.sched_getaffinity(0))})",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "platform": platform.platform(),
    }


def setup_once(args) -> float:
    """Set-up time of one fresh process (see setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(PROBE), "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def measure(wl, clock, seconds: float, kinds, probe=None) -> tuple[list, list[float]]:
    """Rounds back to back until ``seconds`` pass and every kind has run.

    Returns the (Round, [RunTiming]) pairs, with ``kinds`` cycling round by
    round, and the samples of ``probe``: it is called SETUP_PROBES times
    between rounds, spread evenly over the run, so that its samples see as
    many stretches of the host's load as the rounds do.
    """
    phase, samples = [], []
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < seconds or len(phase) < len(kinds):
        due = len(samples) * seconds / SETUP_PROBES
        if probe is not None and len(samples) < SETUP_PROBES and elapsed >= due:
            samples.append(probe())
            continue
        clock.take()
        rnd = wl.round(clock, kinds[len(phase) % len(kinds)])
        phase.append((rnd, clock.take()))
    while probe is not None and len(samples) < SETUP_PROBES:
        samples.append(probe())
    return phase, samples


def end_to_end(phase, wl, setup_samples) -> tuple[dict[str, float], str]:
    """The metrics of the workload's own rounds, and the sample counts behind them.

    Every timing comes from the run's quiet stretches (see stats.py).
    """
    own = [(rnd, runs) for rnd, runs in phase if rnd.kind == wl.kind]
    wall, steps_us = stats.quiet_round(own)
    p50, p90 = np.percentile(steps_us, [50, 90])
    counts = f"steps per round {len(steps_us)}, rounds {len(own)}, set-ups {len(setup_samples)}"
    return {
        "setup_s": min(setup_samples),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "step_us_p50": float(p50),
        "step_us_p90": float(p90),
        "ops_per_s": statistics.median(rnd.ops for rnd, _ in own) / wall,
    }, counts


def run_workload(args) -> int:
    wl = workloads.make(args.workload)
    for key, value in manifest(args).items():
        print(f"manifest {key} {value}")
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    clock = StepClock()
    try:
        if not args.trace:
            wl.setup(args.seed, workdir)
            phase, setup_samples = measure(
                wl, clock, args.seconds, (wl.kind,), probe=lambda: setup_once(args)
            )
            metrics, counts = end_to_end(phase, wl, setup_samples)
            units = dict(END_TO_END)
            print(counts)
        else:
            tracer = Tracer()
            tracer.install()
            wl.setup(args.seed, workdir)
            setup = {
                "parse_ms": tracer.query("config.parse_config")[1] / 1e6,
                "dtf1_write_ms": tracer.query("tensor.write_dtf1")[1] / 1e6,
                "dtf1_bytes": wl.dtf1_bytes,
            }
            tracer.uninstall()
            tracer.reset()
            untraced, _ = measure(wl, clock, args.seconds / 2, wl.ratio_kinds or (wl.kind,))
            tracer.install()
            traced, _ = measure(wl, clock, args.seconds / 2, (wl.kind,))
            tracer.uninstall()
            phase = untraced + traced
            metrics = layers.layer_metrics(tracer, setup, untraced, traced, wl)
            units = dict(layers.METRICS)
            print(f"rounds untraced {len(untraced)}, traced {len(traced)}")
    finally:
        clock.close()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"trajectory_sha256 {wl.digest()}")
    aliases = ALIASES[args.workload]
    for name, value in metrics.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"{name} {value:.6g} {units[name]}{alias}")
    attempted = sum(rnd.ops for rnd, _ in phase)
    failed = sum(rnd.failed for rnd, _ in phase)
    print(f"ops {attempted}")
    print(f"failed_ops {failed}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; metrics keyed ``<workload>/<metric>``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600, cwd=ROOT)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
