"""Timing hooks installed on coreflow's public functions from outside the package.

Modules import with ``from ... import``, so a function is patched at every
name that binds it: ``coreflow.optim.grad_cores``, ``coreflow.model.grad_cores``
and ``coreflow.experiments.grad_cores`` are three bindings of one function.
``rebind`` finds them by identity and swaps them together.

``StepClock`` is always on: it wraps ``run`` and passes a ``sink=`` that
stamps the clock after every step, which is where all step timings come from.
``Tracer`` is on only in traced runs: it records a span around each traced
function and aggregates calls, inclusive time and self time (inclusive minus
the direct child spans) per (name, parent, repeat, inside-a-run) key.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

import coreflow
from coreflow import config, diagnostics, experiments, model, objective, optim, tensor

MODULES = (coreflow, tensor, model, objective, optim, diagnostics, experiments, config)


def rebind(original, replacement, owners=MODULES) -> list[tuple[object, str, object]]:
    """Point every name bound to ``original`` in ``owners`` at ``replacement``.

    Returns the (owner, name, original) triples that ``restore`` undoes.
    """
    undo = []
    for owner in owners:
        for name, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, name, replacement)
                undo.append((owner, name, original))
    if not undo:
        raise LookupError(f"no binding of {original!r} found")
    return undo


def restore(undo) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


@dataclass
class RunTiming:
    """One call of ``run``: its spec, optimizer config and timestamps.

    ``stamps`` holds the call's start, the end of every step and the call's
    end, in ``perf_counter_ns`` time.
    """

    spec: object
    cfg: object
    stamps: np.ndarray
    first_loss: float

    @property
    def step_ns(self) -> np.ndarray:
        return np.diff(self.stamps[:-1])


class StepClock:
    """Per-step timestamps from the ``sink=`` callback of ``coreflow.optim.run``."""

    def __init__(self):
        self.runs: list[RunTiming] = []
        self._undo = rebind(optim.run, self._wrap(optim.run))

    def _wrap(self, real_run):
        clock = time.perf_counter_ns

        @functools.wraps(real_run)
        def run(spec, cores, objective, cfg, iters, sink=None, schedule="constant"):
            stamps = [clock()]

            def stamp(record):
                stamps.append(clock())
                if sink is not None:
                    sink(record)

            out = real_run(spec, cores, objective, cfg, iters, sink=stamp, schedule=schedule)
            stamps.append(clock())
            self.runs.append(RunTiming(spec, cfg, np.asarray(stamps, dtype=np.int64), out[1][0].loss))
            return out

        return run

    def take(self) -> list[RunTiming]:
        """The runs recorded since the last call."""
        runs, self.runs = self.runs, []
        return runs

    def close(self) -> None:
        restore(self._undo)


def _targets():
    """(span name, owner, attribute) of every traced function.

    Module-level functions are looked up at install time, so a function the
    StepClock has already wrapped is traced through its wrapper.
    """
    fns = [
        ("tensor.contract", tensor, "contract"),
        ("tensor.norm_sq", tensor, "frobenius_norm_sq"),
        ("tensor.write_dtf1", tensor, "write_dtf1"),
        ("tensor.read_dtf1", tensor, "read_dtf1"),
        ("model.reconstruct", model, "reconstruct"),
        ("model.grad_cores", model, "grad_cores"),
        ("model.random_cores", model, "random_cores"),
        ("optim.run", optim, "run"),
        ("optim.loss_and_core_grads", optim, "loss_and_core_grads"),
        ("optim.base_step", optim, "base_step"),
        ("optim.sam_step", optim, "sam_step"),
        ("optim.das_step", optim, "das_step"),
        ("optim.das_scaling_factors", optim, "das_scaling_factors"),
        ("diagnostics.write_trajectory_csv", diagnostics, "write_trajectory_csv"),
        ("diagnostics.norm_deviation", diagnostics, "norm_deviation"),
        ("diagnostics.norm_grad_covariance", diagnostics, "norm_grad_covariance"),
        ("diagnostics.check_sgd_conservation", diagnostics, "check_sgd_conservation"),
        ("diagnostics.check_sgd_balanced_bound", diagnostics, "check_sgd_balanced_bound"),
        ("diagnostics.check_sam_q_dynamics", diagnostics, "check_sam_q_dynamics"),
        ("diagnostics.check_pairwise_sam_dynamics", diagnostics, "check_pairwise_sam_dynamics"),
        ("diagnostics.check_layerwise_q", diagnostics, "check_layerwise_q"),
        ("diagnostics.check_das_matches_sam", diagnostics, "check_das_matches_sam"),
        ("experiments.check_instance", experiments, "check_instance"),
        ("config.parse_config", config, "parse_config"),
    ]
    methods = [
        ("model.layered.core_grads", model.LayeredModel, "core_grads"),
        ("objective.loss_and_grad", objective.MaskedMse, "loss_and_grad"),
        ("objective.loss_and_grad", objective.NoisyTargetMse, "loss_and_grad"),
        ("objective.begin_step", objective.MaskedMse, "begin_step"),
        ("objective.begin_step", objective.NoisyTargetMse, "begin_step"),
    ]
    return fns, methods


class Tracer:
    """Span aggregates keyed by (name, parent name, is a repeat call, inside run).

    A call is a repeat when its parent span already made a call of the same
    name: the second ``loss_and_core_grads`` inside ``sam_step`` is SAM's
    second gradient pass.
    """

    def __init__(self):
        self.stats: dict[tuple[str, str, bool, bool], list[int]] = {}
        # Frame: [name, child ns, calls made per child name, inside run].
        self._stack: list[list] = [["", 0, {}, False]]
        self._undo: list = []

    def install(self) -> None:
        fns, methods = _targets()
        for name, owner, attr in fns:
            original = getattr(owner, attr)
            self._undo += rebind(original, self._wrap(name, original))
        for name, cls, attr in methods:
            original = vars(cls)[attr]
            setattr(cls, attr, self._wrap(name, original))
            self._undo.append((cls, attr, original))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def _wrap(self, name: str, fn):
        stack, stats, clock = self._stack, self.stats, time.perf_counter_ns
        starts_run = name == "optim.run"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            seen = parent[2]
            repeat = name in seen
            seen[name] = True
            frame = [name, 0, {}, parent[3] or starts_run]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                parent[1] += dur
                key = (name, parent[0], repeat, parent[3])
                entry = stats.get(key)
                if entry is None:
                    entry = stats[key] = [0, 0, 0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[1]

        return traced

    def query(self, name, parent=None, repeat=None, in_run=None) -> tuple[int, int, int]:
        """Summed (calls, inclusive ns, self ns) over the matching keys."""
        calls = total = own = 0
        for (n, p, r, i), (c, t, s) in self.stats.items():
            if n != name:
                continue
            if parent is not None and p != parent:
                continue
            if repeat is not None and r != repeat:
                continue
            if in_run is not None and i != in_run:
                continue
            calls, total, own = calls + c, total + t, own + s
        return calls, total, own

    def reset(self) -> None:
        self.stats.clear()
