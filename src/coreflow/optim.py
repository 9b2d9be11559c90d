"""Optimizer steps for core models: SGD, Adam, the SAM wrapper, and DAS.

Steps are pure with respect to the cores (new lists are returned); mutable
per-run state (momentum and Adam moments, step counter) lives in
OptimizerState.  SAM perturbs all cores simultaneously with the normalized
gradient direction, takes a second gradient pass, restores the original
cores, and applies the base update with the perturbed-point gradients.  DAS
multiplies each core by (1 + lambda_k) before the base update, with lambda_k
proportional to how far the core's squared gradient norm sits from the mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CoreflowError, ZeroCoreNorm
from .model import LayeredModel, ReconstructionSpec, grad_cores, reconstruct
from .tensor import as_tensor, frobenius_norm_sq, seal

_TINY_NORM_SQ = 1e-300


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
    """Per-core buffers for the base optimizer plus the step counter."""

    t: int = 0
    momentum: list[np.ndarray] | None = None
    adam_m: list[np.ndarray] | None = None
    adam_v: list[np.ndarray] | None = None


def init_state(cfg: OptimizerConfig, cores: list[np.ndarray]) -> OptimizerState:
    base = base_config(cfg)
    if isinstance(base, AdamConfig):
        return OptimizerState(
            adam_m=[np.zeros(c.shape) for c in cores],
            adam_v=[np.zeros(c.shape) for c in cores],
        )
    if base.momentum > 0.0:
        return OptimizerState(momentum=[np.zeros(c.shape) for c in cores])
    return OptimizerState()


def _concat(arrays: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([a.ravel() for a in arrays])


def _split(flat: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    """Views of ``flat`` shaped like each array of ``like``, end to end."""
    out, start = [], 0
    for a in like:
        out.append(flat[start : start + a.size].reshape(a.shape))
        start += a.size
    return out


def base_step(
    cores: list[np.ndarray],
    grads: list[np.ndarray],
    cfg: SgdConfig | AdamConfig,
    state: OptimizerState,
    eta: float | None = None,
) -> list[np.ndarray]:
    """One SGD/momentum/Adam update.  Weight decay is decoupled: cores are
    shrunk by (1 - eta*wd) separately from the gradient term.

    The update is elementwise, so it runs once over all cores laid end to
    end (one numpy call per operation instead of one per core); the new
    cores and state buffers are views of those flat arrays.
    """
    eta = cfg.eta if eta is None else eta
    state.t += 1
    shrink = 1.0 - eta * cfg.weight_decay
    g = _concat(grads)
    if isinstance(cfg, AdamConfig):
        c1 = 1.0 - cfg.beta1 ** state.t
        c2 = 1.0 - cfg.beta2 ** state.t
        m = cfg.beta1 * _concat(state.adam_m) + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * _concat(state.adam_v) + (1.0 - cfg.beta2) * (g * g)
        state.adam_m, state.adam_v = _split(m, cores), _split(v, cores)
        step = (m / c1) / (np.sqrt(v / c2) + cfg.epsilon)
    elif cfg.momentum > 0.0:
        step = cfg.momentum * _concat(state.momentum) + g
        state.momentum = _split(step, cores)
    else:
        step = g
    new = seal(shrink * _concat(cores) - eta * step, "optimizer update")
    return _split(new, cores)


def loss_and_core_grads(spec, cores, objective):
    loss, dl = objective.loss_and_grad(reconstruct(spec, cores))
    return loss, grad_cores(spec, cores, dl)


@dataclass(frozen=True)
class SamStepTrace:
    loss: float
    grads: tuple[np.ndarray, ...]
    perturbed_grads: tuple[np.ndarray, ...]
    grad_norms_sq: tuple[float, ...]
    perturbed_grad_norms_sq: tuple[float, ...]
    core_norms_sq: tuple[float, ...]
    u: float
    rho: float
    zero_gradient: bool = False


@dataclass(frozen=True)
class DasStepTrace:
    loss: float
    grad_norms_sq: tuple[float, ...]
    core_norms_sq: tuple[float, ...]
    lambdas: tuple[float, ...]
    grad_mean_sq: float
    u: float
    zero_gradient: bool = False


def sam_step(
    spec: ReconstructionSpec,
    cores: list[np.ndarray],
    objective,
    cfg: SamConfig,
    state: OptimizerState,
    eta: float | None = None,
) -> tuple[list[np.ndarray], SamStepTrace]:
    loss, g = loss_and_core_grads(spec, cores, objective)
    g = tuple(g)
    gamma = tuple(frobenius_norm_sq(gk) for gk in g)
    s = tuple(frobenius_norm_sq(c) for c in cores)
    total = sum(gamma)
    if total == 0.0:
        new = base_step(cores, list(g), cfg.base, state, eta)
        return new, SamStepTrace(loss, g, g, gamma, gamma, s, 0.0, cfg.rho, True)
    u = total ** -0.5
    perturbed = [as_tensor(c + cfg.rho * u * gk) for c, gk in zip(cores, g)]
    _, g_tilde = loss_and_core_grads(spec, perturbed, objective)
    g_tilde = tuple(g_tilde)
    gamma_tilde = tuple(frobenius_norm_sq(gk) for gk in g_tilde)
    new = base_step(cores, list(g_tilde), cfg.base, state, eta)
    return new, SamStepTrace(loss, g, g_tilde, gamma, gamma_tilde, s, u, cfg.rho)


def das_scaling_factors(
    eta: float,
    alpha: float,
    core_norms_sq,
    grad_norms_sq,
) -> tuple[list[float], float, float]:
    """Per-core factors lambda_k = eta*alpha*u*(||g_k||^2 - gbar)/||G_k||^2
    with gbar the mean squared gradient norm and u = (K*gbar)^(-1/2)."""
    s = [float(v) for v in core_norms_sq]
    gamma = [float(v) for v in grad_norms_sq]
    for k, sk in enumerate(s):
        if sk < _TINY_NORM_SQ:
            raise ZeroCoreNorm(f"core {k} has squared norm {sk}")
    gbar = math.fsum(gamma) / len(gamma)
    if gbar == 0.0:
        return [0.0] * len(s), 0.0, 0.0
    u = (len(gamma) * gbar) ** -0.5
    lams = [eta * alpha * u * (gk - gbar) / sk for gk, sk in zip(gamma, s)]
    return lams, gbar, u


def das_step(
    spec: ReconstructionSpec,
    cores: list[np.ndarray],
    objective,
    cfg: DasConfig,
    state: OptimizerState,
    eta: float | None = None,
) -> tuple[list[np.ndarray], DasStepTrace]:
    eta_t = base_config(cfg).eta if eta is None else eta
    loss, g = loss_and_core_grads(spec, cores, objective)
    gamma = tuple(frobenius_norm_sq(gk) for gk in g)
    s = tuple(frobenius_norm_sq(c) for c in cores)
    lams, gbar, u = das_scaling_factors(eta_t, cfg.alpha, s, gamma)
    if gbar == 0.0:
        new = base_step(cores, g, cfg.base, state, eta_t)
        return new, DasStepTrace(loss, gamma, s, tuple(lams), gbar, u, True)
    scaled = [(1.0 + lam) * c for lam, c in zip(lams, cores)]
    new = base_step(scaled, g, cfg.base, state, eta_t)
    return new, DasStepTrace(loss, gamma, s, tuple(lams), gbar, u)


# ----------------------------------------------------------------------------
# Trajectory loop.
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class StepRecord:
    """Raw per-iteration measurements handed to the diagnostics sink."""

    t: int
    loss: float
    core_norms_sq: tuple[float, ...]
    grad_norms_sq: tuple[float, ...]
    lambdas: tuple[float, ...] | None = None
    zero_gradient: bool = False


def scheduled_eta(eta: float, schedule: str, t: int, iters: int) -> float:
    if schedule == "constant":
        return eta
    if schedule == "cosine":
        return eta * 0.5 * (1.0 + math.cos(math.pi * t / iters))
    raise ValueError(f"unknown schedule {schedule!r}")


def _plain_step(spec, cores, objective, cfg, state, eta):
    loss, g = loss_and_core_grads(spec, cores, objective)
    gamma = tuple(frobenius_norm_sq(gk) for gk in g)
    s = tuple(frobenius_norm_sq(c) for c in cores)
    new = base_step(cores, g, cfg, state, eta)
    return new, loss, s, gamma, None, False


def run(
    spec: ReconstructionSpec,
    cores: list[np.ndarray],
    objective,
    cfg: OptimizerConfig,
    iters: int,
    sink=None,
    schedule: str = "constant",
) -> tuple[list[np.ndarray], list[StepRecord]]:
    """Execute ``iters`` optimizer steps, reporting each one to ``sink``."""
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    state = init_state(cfg, cores)
    records: list[StepRecord] = []
    base_eta = base_config(cfg).eta
    for t in range(iters):
        eta_t = scheduled_eta(base_eta, schedule, t, iters)
        objective.begin_step(t)
        try:
            if isinstance(cfg, SamConfig):
                cores, tr = sam_step(spec, cores, objective, cfg, state, eta_t)
                rec = StepRecord(
                    t, tr.loss, tr.core_norms_sq, tr.grad_norms_sq,
                    zero_gradient=tr.zero_gradient,
                )
            elif isinstance(cfg, DasConfig):
                cores, tr = das_step(spec, cores, objective, cfg, state, eta_t)
                rec = StepRecord(
                    t, tr.loss, tr.core_norms_sq, tr.grad_norms_sq,
                    lambdas=tr.lambdas, zero_gradient=tr.zero_gradient,
                )
            else:
                cores, loss, s, gamma, lams, flag = _plain_step(
                    spec, cores, objective, cfg, state, eta_t
                )
                rec = StepRecord(t, loss, s, gamma)
        except CoreflowError as exc:
            raise type(exc)(f"iteration {t}: {exc}") from exc
        records.append(rec)
        if sink is not None:
            sink(rec)
    return cores, records


# ----------------------------------------------------------------------------
# Multi-layer variants: one normalizer across all layers, per-layer scaling.
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class LayeredStepTrace:
    loss: float
    grad_norms_sq: tuple[tuple[float, ...], ...]
    core_norms_sq: tuple[tuple[float, ...], ...]
    u: float
    lambdas: tuple[tuple[float, ...], ...] | None = None
    perturbed_grads: tuple[tuple[np.ndarray, ...], ...] | None = None
    zero_gradient: bool = False


def _layered_measurements(model: LayeredModel, grads):
    gamma = tuple(
        tuple(frobenius_norm_sq(g) for g in layer) for layer in grads
    )
    s = tuple(
        tuple(frobenius_norm_sq(c) for c in layer) for layer in model.cores
    )
    return gamma, s


def _flatten(nested):
    return [item for group in nested for item in group]


def _regroup(flat, template):
    out, i = [], 0
    for group in template:
        out.append(list(flat[i:i + len(group)]))
        i += len(group)
    return out


def layered_sam_step(
    model: LayeredModel,
    x: np.ndarray,
    objective,
    cfg: SamConfig,
    state: OptimizerState,
    eta: float | None = None,
) -> tuple[LayeredModel, LayeredStepTrace]:
    loss, dl = objective.loss_and_grad(model.forward(x))
    grads = model.core_grads(x, dl)
    gamma, s = _layered_measurements(model, grads)
    total = sum(_flatten(gamma))
    if total == 0.0:
        flat = base_step(_flatten(model.cores), _flatten(grads), cfg.base, state, eta)
        new = replace(model, cores=_regroup(flat, model.cores))
        return new, LayeredStepTrace(loss, gamma, s, 0.0, zero_gradient=True)
    u = total ** -0.5
    perturbed = replace(
        model,
        cores=[
            [as_tensor(c + cfg.rho * u * g) for c, g in zip(layer_c, layer_g)]
            for layer_c, layer_g in zip(model.cores, grads)
        ],
    )
    _, dl2 = objective.loss_and_grad(perturbed.forward(x))
    grads_tilde = perturbed.core_grads(x, dl2)
    flat = base_step(_flatten(model.cores), _flatten(grads_tilde), cfg.base, state, eta)
    new = replace(model, cores=_regroup(flat, model.cores))
    return new, LayeredStepTrace(
        loss, gamma, s, u,
        perturbed_grads=tuple(tuple(layer) for layer in grads_tilde),
    )


def layered_das_step(
    model: LayeredModel,
    x: np.ndarray,
    objective,
    cfg: DasConfig,
    state: OptimizerState,
    eta: float | None = None,
) -> tuple[LayeredModel, LayeredStepTrace]:
    eta_t = base_config(cfg).eta if eta is None else eta
    loss, dl = objective.loss_and_grad(model.forward(x))
    grads = model.core_grads(x, dl)
    gamma, s = _layered_measurements(model, grads)
    for l, layer_s in enumerate(s):
        for k, sk in enumerate(layer_s):
            if sk < _TINY_NORM_SQ:
                raise ZeroCoreNorm(f"layer {l} core {k} has squared norm {sk}")
    total = sum(_flatten(gamma))
    if total == 0.0:
        flat = base_step(_flatten(model.cores), _flatten(grads), cfg.base, state, eta)
        new = replace(model, cores=_regroup(flat, model.cores))
        return new, LayeredStepTrace(loss, gamma, s, 0.0, zero_gradient=True)
    u = total ** -0.5
    lambdas = tuple(
        tuple(
            eta_t * cfg.alpha * u * (gk - math.fsum(layer_gamma) / len(layer_gamma)) / sk
            for gk, sk in zip(layer_gamma, layer_s)
        )
        for layer_gamma, layer_s in zip(gamma, s)
    )
    scaled = [
        [(1.0 + lam) * c for lam, c in zip(layer_lams, layer_c)]
        for layer_lams, layer_c in zip(lambdas, model.cores)
    ]
    flat = base_step(_flatten(scaled), _flatten(grads), cfg.base, state, eta)
    new = replace(model, cores=_regroup(flat, model.cores))
    return new, LayeredStepTrace(loss, gamma, s, u, lambdas=lambdas)
