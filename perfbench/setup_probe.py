"""Time one set-up of a workload in a fresh process; print the seconds last.

Set-up runs from the first import of coreflow to the first timed step: the
imports, config parse, data generation, DTF1 write and read, and instance
construction.  numpy is imported before the clock starts: its import is the
same on every commit of coreflow and would add only its own noise.  For the
workloads whose experiment builds its instance itself, the round is entered
and stopped as ``run`` is called.
"""

import argparse
import os
import shutil
import time

from checkout import WORK, cap_threads, use_checkout_source

cap_threads()

import numpy  # noqa: E402, F401

START = time.perf_counter()

use_checkout_source()

import workloads  # noqa: E402
from coreflow import optim  # noqa: E402
from tracer import rebind, restore  # noqa: E402


class FirstStep(Exception):
    """Raised where the first optimizer step would start."""


def _stop(*args, **kwargs):
    raise FirstStep


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    workdir = WORK / f"probe-{os.getpid()}"
    try:
        wl = workloads.make(args.workload)
        wl.setup(args.seed, workdir)
        if wl.setup_runs_into_round:
            undo = rebind(optim.run, _stop)
            try:
                wl.round(clock=None)
            except FirstStep:
                pass
            finally:
                restore(undo)
        elapsed = time.perf_counter() - START
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(elapsed))


if __name__ == "__main__":
    main()
