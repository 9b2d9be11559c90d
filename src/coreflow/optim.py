"""Optimizer steps for core models: SGD, Adam, the SAM wrapper, and DAS.

Steps are pure with respect to the cores (new cores are returned); mutable
per-run state (momentum and Adam moments, step counter) lives in
OptimizerState.  A step sees the cores as one flat list and gets its
gradients from a callback, so a multi-layer model is the same step over its
layers' cores laid end to end, with one normalizer u shared by all of them.
SAM perturbs all cores simultaneously with the normalized gradient
direction, takes a second gradient pass, restores the original cores, and
applies the base update with the perturbed-point gradients.  DAS multiplies
each core by (1 + lambda_k) before the base update, with lambda_k
proportional to how far the core's squared gradient norm sits from the mean
of its group (layer); ``run`` hands every step its spec's ``groups``.

Every vector a step touches (cores, gradients, the SAM perturbation, the
optimizer's buffers) is one flat float64 array over all cores end to end,
checked for finiteness once; cores and gradients travel as ``FlatViews``
(that array with its per-core views), so a step copies only plain lists: a
plain step builds two carriers (gradients, update), a SAM step four.  Each
gradient pass builds and seals its carrier in its rendered reverse code; the
update and SAM's perturbation come from the gradient carrier's ``like``, the
rendered constructor of the cores' layout, which seals the fresh array and
builds the carrier in one frame.
``run`` enters numpy's error-state scope (``tensor.quietly``) once per step,
around the step alone, and that entry is the only numpy Python wrapper a step
runs (``norms_sq`` calls ``np.vdot``'s C routine).  A step called on its own
runs whole in one scope: each entry point on a step's path first tests
whether the scope is open, and if not, reruns itself inside ``quietly`` as
``_<name>``, a copy of its own code that a tracer rebinding the public name
never wraps.  A step hands ``base_step`` the flat arrays it reads off the
carriers (a plain list of cores is copied) and the gradient carrier's
``like``.
"""

from __future__ import annotations

import functools
import math
import types
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CoreflowError, NumericalError, ShapeMismatch, ZeroCoreNorm
from .model import ReconstructionSpec, grad_cores
from .tensor import FlatViews, _scope, carried, quietly, sizes_of

_TINY_NORM_SQ = 1e-300


def _alone(fn):
    """``fn``'s own code under the private name ``_<name>``: what ``fn`` runs
    inside the scope it opens when called on its own."""
    return types.FunctionType(fn.__code__, fn.__globals__, "_" + fn.__name__, fn.__defaults__)


@dataclass(frozen=True)
class SgdConfig:
    eta: float
    momentum: float = 0.0
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0,1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")


@dataclass(frozen=True)
class AdamConfig:
    eta: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must be in [0,1)")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")


@dataclass(frozen=True)
class SamConfig:
    rho: float
    base: SgdConfig | AdamConfig

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError(f"rho must be > 0, got {self.rho}")


@dataclass(frozen=True)
class DasConfig:
    alpha: float
    base: SgdConfig | AdamConfig

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")


OptimizerConfig = SgdConfig | AdamConfig | SamConfig | DasConfig


def base_config(cfg: OptimizerConfig) -> SgdConfig | AdamConfig:
    return cfg.base if isinstance(cfg, (SamConfig, DasConfig)) else cfg


@dataclass
class OptimizerState:
    """The step counter and the base optimizer's buffers, each one flat array
    over all cores end to end (None if unused; ``momentum``, ``adam_m`` and
    ``adam_v`` give per-core views)."""

    shapes: tuple = ()
    t: int = 0
    flat_momentum: np.ndarray | None = None
    flat_m: np.ndarray | None = None
    flat_v: np.ndarray | None = None

    def _views(self, flat):
        return None if flat is None else FlatViews(flat, self.shapes)

    momentum = property(lambda self: self._views(self.flat_momentum))
    adam_m = property(lambda self: self._views(self.flat_m))
    adam_v = property(lambda self: self._views(self.flat_v))


def init_state(cfg: OptimizerConfig, cores: list[np.ndarray]) -> OptimizerState:
    base = base_config(cfg)
    state = OptimizerState(tuple(c.shape for c in cores))
    size = sum(c.size for c in cores)
    if isinstance(base, AdamConfig):
        state.flat_m, state.flat_v = np.zeros(size), np.zeros(size)
    elif base.momentum > 0.0:
        state.flat_momentum = np.zeros(size)
    return state


def base_step(
    cores: FlatViews | list[np.ndarray],
    grads: FlatViews | list[np.ndarray],
    cfg: SgdConfig | AdamConfig,
    state: OptimizerState,
    eta: float | None = None,
    like=None,
) -> FlatViews:
    """One SGD/momentum/Adam update.  Weight decay is decoupled: cores are
    shrunk by (1 - eta*wd) separately from the gradient term.

    The update is elementwise, so it runs once over all cores laid end to
    end (one numpy call per operation instead of one per core); the new
    cores are FlatViews of one sealed flat array.  Given ``like``, the
    constructor of a carrier of the cores' layout (``FlatViews.like``),
    ``cores`` and ``grads`` are flat arrays of that layout, as the steps hand
    them over, and ``like`` seals and wraps the update.
    """
    if not _scope.open:  # called on its own
        return quietly(_base_step, cores, grads, cfg, state, eta, like)
    eta = cfg.eta if eta is None else eta
    state.t += 1
    shrink = 1.0 - eta * cfg.weight_decay
    if like is None:
        (cores, like), grads = carried(cores), carried(grads)[0]
    if isinstance(cfg, AdamConfig):
        c1 = 1.0 - cfg.beta1 ** state.t
        c2 = 1.0 - cfg.beta2 ** state.t
        state.flat_m = m = cfg.beta1 * state.flat_m + (1.0 - cfg.beta1) * grads
        state.flat_v = v = cfg.beta2 * state.flat_v + (1.0 - cfg.beta2) * (grads * grads)
        step = (m / c1) / (np.sqrt(v / c2) + cfg.epsilon)
    elif cfg.momentum > 0.0:
        state.flat_momentum = step = cfg.momentum * state.flat_momentum + grads
    else:
        step = grads
    if shrink != 1.0:  # 1.0 * x is x bit for bit
        cores = shrink * cores
    return like(cores - eta * step, "optimizer update")


def loss_and_core_grads(spec, cores, objective):
    """Loss and core gradients: one forward pass, vouched for by the loss, and one reverse."""
    if not _scope.open:  # called on its own
        return quietly(_loss_and_core_grads, spec, cores, objective)
    out, kept = spec.compiled.forward(spec.operands(cores))
    loss, dl = objective.loss_and_grad(out)
    return loss, grad_cores(spec, cores, dl, kept)


def gradient_fn(spec: ReconstructionSpec, objective):
    """The gradient callback the steps take: cores -> (loss, core gradients as FlatViews)."""
    return functools.partial(loss_and_core_grads, spec, objective=objective)


class StepRecord(NamedTuple):
    """Per-iteration measurements of one step, taken at the step's start.

    Scalars only: a run keeps the record of every step, and builds one per
    step (a named tuple builds faster than a frozen dataclass).  ``u`` is the
    normalizer SAM and DAS share, 0.0 for a plain step or a zero gradient.
    """

    t: int
    loss: float
    core_norms_sq: tuple[float, ...]
    grad_norms_sq: tuple[float, ...]
    lambdas: tuple[float, ...] | None = None
    zero_gradient: bool = False
    u: float = 0.0


def norms_sq(arrays) -> tuple[float, ...]:
    """Squared norms as ``frobenius_norm_sq`` sums them; one finiteness check, on their total."""
    out = tuple(map(float, map(np.vdot._implementation, arrays, arrays)))  # np.vdot's C routine
    if not math.isfinite(sum(out)):
        raise NumericalError(f"squared norms {out!r} are not finite in sum")
    return out


# Every step takes (grads_of, cores, cfg, state, eta=None, groups=None), hands
# ``cores`` itself to ``grads_of`` first, and returns (new cores as FlatViews,
# StepRecord, the gradients the base update used).  ``grads_of`` returns the
# gradients as FlatViews of the cores' shapes, as ``gradient_fn``'s callback
# does, and their ``like`` builds the step's carriers; ``cores`` is FlatViews
# or a list of arrays.
# ``groups`` gives the number of cores in each group (layer), laid end to end
# in ``cores``, as ``ReconstructionSpec.groups`` does; only DAS reads it.

def plain_step(grads_of, cores, cfg: SgdConfig | AdamConfig, state, eta=None, groups=None):
    """The base SGD/momentum/Adam update with the gradients at ``cores``."""
    if not _scope.open:  # called on its own
        return quietly(_plain_step, grads_of, cores, cfg, state, eta, groups)
    loss, g = grads_of(cores)
    rec = StepRecord(state.t, loss, norms_sq(cores), norms_sq(g))
    flat = cores.flat if type(cores) is FlatViews else carried(cores)[0]
    return base_step(flat, g.flat, cfg, state, eta, g.like), rec, g


def sam_step(grads_of, cores, cfg: SamConfig, state, eta=None, groups=None):
    """Perturb every core along the gradient normalized over all cores, so
    the whole perturbation has norm rho, and update with the gradients taken
    there; a zero gradient falls back to the base update."""
    if not _scope.open:  # called on its own
        return quietly(_sam_step, grads_of, cores, cfg, state, eta, groups)
    loss, g = grads_of(cores)
    gamma = norms_sq(g)
    s = norms_sq(cores)
    total = sum(gamma)
    flat = cores.flat if type(cores) is FlatViews else carried(cores)[0]
    if total == 0.0:
        rec = StepRecord(state.t, loss, s, gamma, zero_gradient=True)
        return base_step(flat, g.flat, cfg.base, state, eta, g.like), rec, g
    u = total ** -0.5
    rec = StepRecord(state.t, loss, s, gamma, u=u)
    _, g_tilde = grads_of(g.like(flat + cfg.rho * u * g.flat, "SAM perturbation"))
    return base_step(flat, g_tilde.flat, cfg.base, state, eta, g.like), rec, g_tilde


def das_scaling_factors(
    eta: float,
    alpha: float,
    core_norms_sq,
    grad_norms_sq,
    groups=None,
) -> tuple[list[float], float, float]:
    """Per-core factors lambda_k = eta*alpha*u*(||g_k||^2 - gbar_l)/||G_k||^2
    with gbar_l the mean squared gradient norm of core k's group and
    u = (K*gbar)^(-1/2) over all K cores (gbar their mean).  Returns the
    factors, gbar and u; all are 0.0 when every gradient vanishes.  The
    ``groups`` (cores per group, end to end) must cover the K cores.
    """
    s = [float(v) for v in core_norms_sq]
    gamma = [float(v) for v in grad_norms_sq]
    for k, sk in enumerate(s):
        if sk < _TINY_NORM_SQ:
            raise ZeroCoreNorm(f"core {k} has squared norm {sk}")
    groups = groups or (len(s),)
    if min(groups) < 1 or sum(groups) != len(s):
        raise ShapeMismatch(f"groups {tuple(groups)} must be >= 1 and sum to {len(s)} cores")
    gbar = math.fsum(gamma) / len(gamma)
    if gbar == 0.0:
        return [0.0] * len(s), 0.0, 0.0
    u = (len(gamma) * gbar) ** -0.5
    lams: list[float] = []
    for size in groups:
        group = slice(len(lams), len(lams) + size)
        gbar_l = math.fsum(gamma[group]) / size
        lams += [
            eta * alpha * u * (gk - gbar_l) / sk
            for gk, sk in zip(gamma[group], s[group])
        ]
    for k, lam in enumerate(lams):
        if 1.0 + lam <= 0.0:
            raise NumericalError(
                f"core {k} has DAS factor 1+lambda = {1.0 + lam!r} <= 0"
            )
    return lams, gbar, u


def das_step(grads_of, cores, cfg: DasConfig, state, eta=None, groups=None):
    """Multiply core k by (1 + lambda_k), then take the base update with the
    gradients of the unscaled cores; the scaled cores go to it as one flat array."""
    if not _scope.open:  # called on its own
        return quietly(_das_step, grads_of, cores, cfg, state, eta, groups)
    eta_t = cfg.base.eta if eta is None else eta
    loss, g = grads_of(cores)
    gamma = norms_sq(g)
    s = norms_sq(cores)
    lams, gbar, u = das_scaling_factors(eta_t, cfg.alpha, s, gamma, groups)
    rec = StepRecord(
        state.t, loss, s, gamma,
        lambdas=tuple(lams), zero_gradient=gbar == 0.0, u=u,
    )
    flat = cores.flat if type(cores) is FlatViews else carried(cores)[0]
    factors = np.add(1.0, lams).repeat(sizes_of(g.shapes))
    return base_step(flat * factors, g.flat, cfg.base, state, eta_t, g.like), rec, g


def step_of(cfg: OptimizerConfig):
    """The step function that takes ``cfg``."""
    if isinstance(cfg, SamConfig):
        return sam_step
    if isinstance(cfg, DasConfig):
        return das_step
    return plain_step


_base_step, _loss_and_core_grads, _plain_step, _sam_step, _das_step = map(
    _alone, (base_step, loss_and_core_grads, plain_step, sam_step, das_step)
)


# ----------------------------------------------------------------------------
# Trajectory loop.
# ----------------------------------------------------------------------------

def scheduled_eta(eta: float, schedule: str, t: int, iters: int) -> float:
    if schedule == "constant":
        return eta
    if schedule == "cosine":
        return eta * 0.5 * (1.0 + math.cos(math.pi * t / iters))
    raise ValueError(f"unknown schedule {schedule!r}")


def run(
    spec: ReconstructionSpec,
    cores: list[np.ndarray],
    objective,
    cfg: OptimizerConfig,
    iters: int,
    sink=None,
    schedule: str = "constant",
) -> tuple[FlatViews, list[StepRecord]]:
    """Execute ``iters`` optimizer steps, each given ``spec.groups``, reporting each one to ``sink``."""
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    step, groups = step_of(cfg), spec.groups
    grads_of = gradient_fn(spec, objective)
    state = init_state(cfg, cores)
    records: list[StepRecord] = []
    base_eta = base_config(cfg).eta
    for t in range(iters):
        eta_t = scheduled_eta(base_eta, schedule, t, iters)
        objective.begin_step(t)
        try:
            cores, rec, _ = quietly(step, grads_of, cores, cfg, state, eta_t, groups)
        except CoreflowError as exc:
            raise type(exc)(f"iteration {t}: {exc}") from exc
        records.append(rec)
        if sink is not None:
            sink(rec)
    return cores, records
