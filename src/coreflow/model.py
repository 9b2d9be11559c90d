"""Multilinear reconstruction models and their per-core analytic gradients.

A model is a labelled contraction over K trainable cores (plus optional
constant operands, e.g. the superdiagonal tensor that turns a Tucker plan
into CP, or the input x of a layered model).  The plan is compiled once into pairwise steps (see
``tensor.CompiledPlan``); the forward pass reconstructs, and one reverse pass
through the same steps gives every core's gradient, which is exact because
the map is linear in each core.  A shipped family is its expression plus its
labels' extents: each core's shape is read off its labels.
"""

from __future__ import annotations

import itertools
import math
import string
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateModelWarning, LabelError, ShapeMismatch
from .tensor import (
    ContractionPlan,
    FlatViews,
    Shape,
    _scope,
    as_tensor,
    compile_plan,
    contract,
    contract_grads,
    frobenius_inner,
    frobenius_norm_sq,
    label_extents,
    quietly,
    shapes_of,
)


_MAX_ENTRIES = np.iinfo(np.intp).max // 8  # float64 entries numpy can address


@dataclass(frozen=True, eq=False)
class ReconstructionSpec:
    """A contraction plan with K operand slots bound to trainable cores.

    ``constants[i]`` is None for core slots and a fixed tensor otherwise.
    The plan and the operand shapes fix everything else, worked out once
    here: ``output_shape`` comes from the extents of every operand (the core
    shapes in slot order, each constant's own shape), so a constant that
    disagrees with a core fails when the spec is built.  ``core_slots`` are
    the slots the cores fill, and ``compiled`` is the plan's
    ``CompiledPlan``, bound once so that a fused gradient pass does not look
    it up.  ``groups`` is the cores per layer, end to end: one group unless layered.
    """

    plan: ContractionPlan
    core_shapes: tuple[Shape, ...]
    constants: tuple = ()
    family: str = "custom"
    groups: tuple[int, ...] = ()

    def __post_init__(self):
        n_ops = len(self.plan.operand_labels)
        constants = self.constants or tuple([None] * n_ops)
        object.__setattr__(self, "constants", constants)
        if len(constants) != n_ops:
            raise ShapeMismatch("one constants entry per operand slot required")
        core_slots = tuple(i for i, c in enumerate(constants) if c is None)
        object.__setattr__(self, "core_slots", core_slots)
        object.__setattr__(self, "compiled", compile_plan(self.plan))
        if len(core_slots) != len(self.core_shapes):
            raise ShapeMismatch(
                f"{len(core_slots)} core slots but {len(self.core_shapes)} shapes"
            )
        groups, k = tuple(self.groups) or (self.num_cores,), self.num_cores
        if min(groups) < 1 or sum(groups) != k:  # das_scaling_factors' check, made once here
            raise ShapeMismatch(f"groups {groups} must be >= 1 and sum to {k} cores")
        object.__setattr__(self, "groups", groups)
        for slot, shape in zip(core_slots, self.core_shapes):
            labels = self.plan.operand_labels[slot]
            if len(set(labels)) != len(labels):
                raise LabelError(f"core slot {labels!r} repeats a label")
            if any(d < 1 for d in shape):
                raise ShapeMismatch(f"core slot {labels!r}: extents must be >= 1, got {shape}")
        shapes = iter(self.core_shapes)
        extents = label_extents(
            self.plan, [next(shapes) if c is None else c.shape for c in constants]
        )
        output_shape = tuple(extents[ch] for ch in self.plan.output_labels)
        object.__setattr__(self, "output_shape", output_shape)
        for shape in self.core_shapes + (output_shape,):
            if math.prod(shape) > _MAX_ENTRIES:
                raise ShapeMismatch(f"shape {shape} has more entries than a float64 array can hold")

    @property
    def num_cores(self) -> int:
        return len(self.core_shapes)

    def operands(self, cores: list[np.ndarray]) -> list[np.ndarray]:
        """The plan's operands: ``cores`` itself if every slot is a core."""
        if (cores.shapes if type(cores) is FlatViews else shapes_of(cores)) != self.core_shapes:
            if len(cores) != self.num_cores:
                raise ShapeMismatch(f"expected {self.num_cores} cores, got {len(cores)}")
            for core, shape in zip(cores, self.core_shapes):
                if core.shape != shape:
                    raise ShapeMismatch(f"core shape {core.shape}, spec wants {shape}")
        if len(self.core_slots) == len(self.constants):
            return cores
        ops = list(self.constants)
        for slot, core in zip(self.core_slots, cores):
            ops[slot] = core
        return ops


def reconstruct(spec: ReconstructionSpec, cores: list[np.ndarray]) -> np.ndarray:
    return contract(spec.plan, spec.operands(cores))


def reconstruct_with(
    spec: ReconstructionSpec, cores: list[np.ndarray], m: int, v: np.ndarray
) -> np.ndarray:
    """Reconstruct with core m replaced by v (same shape)."""
    if v.shape != spec.core_shapes[m]:
        raise ShapeMismatch(f"replacement shape {v.shape} vs {spec.core_shapes[m]}")
    swapped = list(cores)
    swapped[m] = v
    return reconstruct(spec, swapped)


def hole_plan(spec: ReconstructionSpec, m: int) -> ContractionPlan:
    """Core m's gradient written as a single contraction: the output gradient
    with every operand except core m, chained greedily so each pairwise step
    shares a label with the accumulator.  ``grad_cores`` does not evaluate
    it; it describes what one core's gradient costs on its own.
    """
    slot = spec.core_slots[m]
    op_labels = spec.plan.operand_labels
    remaining = [i for i in range(len(op_labels)) if i != slot]
    seen = set(spec.plan.output_labels)
    order: list[int] = []
    while remaining:
        pick = next((i for i in remaining if set(op_labels[i]) & seen), remaining[0])
        remaining.remove(pick)
        order.append(pick)
        seen.update(op_labels[pick])
    return ContractionPlan(
        (spec.plan.output_labels,) + tuple(op_labels[i] for i in order),
        op_labels[slot],
    )


def grad_cores(
    spec: ReconstructionSpec, cores: list[np.ndarray], dl_dt: np.ndarray, kept=None
) -> list[np.ndarray]:
    """Per-core gradients of f(reconstruct(cores)) given dl_dt = df/d(output),
    from one reverse pass through the plan's pairwise steps; constant slots
    get no gradient.  ``kept`` is what ``spec.compiled.forward`` returned for
    these cores' operands, handed to the reverse pass as it is; without it
    the pass is a standalone ``contract_grads``, its own forward first."""
    if kept is None:
        return contract_grads(spec.plan, spec.operands(cores), dl_dt, spec.core_slots)
    if _scope.open:
        return spec.compiled.gradients(kept, dl_dt, spec.core_slots)
    return quietly(spec.compiled.gradients, kept, dl_dt, spec.core_slots)


def check_scale_invariance(
    spec: ReconstructionSpec, cores: list[np.ndarray], scalars
) -> float:
    """Relative residual of rescaling cores by {c_k} with product 1.

    Returns the absolute residual (with a DegenerateModelWarning) when the
    base reconstruction is zero.
    """
    scalars = [float(c) for c in scalars]
    if len(scalars) != spec.num_cores:
        raise ShapeMismatch(f"expected {spec.num_cores} scalars")
    if abs(math.prod(scalars) - 1.0) > 1e-12:
        raise ValueError(f"scalar product {math.prod(scalars)} != 1")
    base = reconstruct(spec, cores)
    scaled = reconstruct(spec, [as_tensor(c * g) for c, g in zip(scalars, cores)])
    residual = math.sqrt(frobenius_norm_sq(scaled - base))
    base_norm = math.sqrt(frobenius_norm_sq(base))
    if base_norm == 0.0:
        warnings.warn(
            "zero reconstruction; returning absolute residual",
            DegenerateModelWarning,
        )
        return residual
    return residual / base_norm


def check_directional_identity(
    spec: ReconstructionSpec,
    cores: list[np.ndarray],
    m: int,
    v: np.ndarray,
    dl_dt: np.ndarray,
) -> float:
    """Residual of <reconstruct(..., v, ...), dl_dt> == <v, grad_m>."""
    return _directional_residual(spec, cores, m, v, dl_dt, grad_cores(spec, cores, dl_dt)[m])


def _directional_residual(spec, cores, m, v, dl_dt, grad_m) -> float:
    """``check_directional_identity`` given core m's gradient ``grad_m``."""
    lhs = frobenius_inner(reconstruct_with(spec, cores, m, v), dl_dt)
    rhs = frobenius_inner(v, grad_m)
    return abs(lhs - rhs) / (1.0 + abs(rhs))


# ----------------------------------------------------------------------------
# Shipped model families.
# ----------------------------------------------------------------------------

def _superdiagonal(rank: int, order: int) -> np.ndarray:
    diag = np.zeros((rank,) * order)
    diag[tuple(np.arange(rank) for _ in range(order))] = 1.0
    return as_tensor(diag)


def _shipped(family: str, expression: str, extents: dict[str, int], constants=()):
    """The spec of ``expression`` whose core slots take their shapes from their
    labels' ``extents``; ``constants`` as in ``ReconstructionSpec``."""
    plan = ContractionPlan.parse(expression)
    slots = constants or (None,) * len(plan.operand_labels)
    shapes = [tuple(extents[ch] for ch in lb) for lb, c in zip(plan.operand_labels, slots) if c is None]
    return ReconstructionSpec(plan, tuple(shapes), constants, family)


def _extents(*pairs) -> dict[str, int]:
    """Label -> extent from (labels, extents) pairs; a pair of unequal lengths raises ValueError."""
    return {ch: n for labels, values in pairs for ch, n in zip(labels, values, strict=True)}


def cp_spec(modes: Shape, rank: int) -> ReconstructionSpec:
    """Order-3 CP with shared rank: sum_r a_ir b_jr c_kr.

    Realized as a Tucker plan over a constant superdiagonal, since the plan
    grammar allows a label on at most two operand slots.
    """
    extents = _extents(("ijk", modes), ("abc", (rank,) * 3))
    return _shipped("cp", "abc,ia,jb,kc->ijk", extents, (_superdiagonal(rank, 3), None, None, None))


def tucker_spec(modes: Shape, ranks: Shape) -> ReconstructionSpec:
    """Order-3 Tucker: core (r1,r2,r3) with three factor matrices."""
    return _shipped("tucker", "abc,ia,jb,kc->ijk", _extents(("ijk", modes), ("abc", ranks)))


def tucker2_spec(n_out: int, n_in: int, r1: int, r2: int) -> ReconstructionSpec:
    """Matrix model A @ G @ B^T with A (n_out,r1), G (r1,r2), B (n_in,r2)."""
    return _shipped("tucker2", "oa,ab,ib->oi", {"o": n_out, "i": n_in, "a": r1, "b": r2})


# A chain family's expression by order: its modes label the output i, j, ...
# and its ranks the bonds a, b, ... in order.
_CHAINS = {
    ("tt", 3): "ia,ajb,bk->ijk",
    ("tt", 4): "ia,ajb,bkc,cl->ijkl",
    ("tr", 3): "aib,bjc,cka->ijk",
    ("tr", 4): "aib,bjc,ckd,dla->ijkl",
}


def _chain(family: str, modes: Shape, ranks: Shape) -> ReconstructionSpec:
    expression = _CHAINS.get((family, len(modes)))
    if expression is None:
        raise ShapeMismatch(f"{family} family ships for orders 3 and 4")
    bonds = [ch for ch in "abcd" if ch in expression]
    return _shipped(family, expression, _extents(("ijkl"[: len(modes)], modes), (bonds, ranks)))


def tt_spec(modes: Shape, ranks: Shape) -> ReconstructionSpec:
    """Tensor-train, order 3 or 4; ranks are the internal bond sizes."""
    return _chain("tt", modes, ranks)


def tr_spec(modes: Shape, ranks: Shape) -> ReconstructionSpec:
    """Tensor-ring, order 3 or 4; closed as a left-to-right chain."""
    return _chain("tr", modes, ranks)


def custom_spec(expression: str, core_shapes: list[Shape]) -> ReconstructionSpec:
    """User-supplied plan; every operand slot is a trainable core."""
    return ReconstructionSpec(
        ContractionPlan.parse(expression), tuple(tuple(s) for s in core_shapes)
    )


def random_cores(
    spec: ReconstructionSpec,
    rng: np.random.Generator,
    norm_spread: float = 0.0,
) -> list[np.ndarray]:
    """Unit-Frobenius-norm Gaussian cores, optionally with imbalanced norms.

    With norm_spread > 0 the cores get log-spaced scales spanning
    [exp(-spread), exp(+spread)], randomly assigned, with product exactly 1:
    the reconstruction keeps its magnitude while the norm split is guaranteed
    to be uneven (a uniform draw can land arbitrarily close to balanced,
    which degenerates the norm-dynamics checks).
    """
    cores = []
    for shape in spec.core_shapes:
        g = rng.standard_normal(shape)
        g /= math.sqrt(float(np.add.reduce(g * g, None)))
        cores.append(g)
    if norm_spread > 0.0 and spec.num_cores > 1:
        logs = rng.permutation(np.linspace(-norm_spread, norm_spread, spec.num_cores))
        cores = [math.exp(l) * g for l, g in zip(logs, cores)]
    return [as_tensor(g) for g in cores]


# ----------------------------------------------------------------------------
# Matrix layers of any depth composed as one plan: output = W_D ... W_1 x.
# ----------------------------------------------------------------------------

def layered_spec(specs: list[ReconstructionSpec], x: np.ndarray) -> ReconstructionSpec:
    """W_D ... W_1 x as one contraction, where layer l's spec reconstructs the matrix W_l.

    Each layer's plan is relabelled with fresh letters, its column label bound
    to the row label of the layer below (x's row label for the first layer),
    and x is appended as a constant slot.  The cores are every layer's cores
    end to end, a group per layer; two tucker2 layers give
    ``cd,de,ae,fg,gh,ch,ab->fb`` with groups (3, 3).
    """
    needed = 2 + sum(len(set("".join(s.plan.operand_labels))) - 1 for s in specs)
    if needed > len(string.ascii_letters):
        raise LabelError(f"the layer chain needs {needed} labels, more than 52")
    if x.ndim != 2:
        raise ShapeMismatch(f"layer input x must be a matrix, got shape {x.shape}")
    fresh = iter(string.ascii_letters).__next__
    x_labels = fresh() + fresh()
    row, rows = x_labels[0], x.shape[0]
    labels, core_shapes, constants = [], [], []
    for depth, spec in enumerate(specs, 1):
        ops, out = spec.plan.operand_labels, spec.plan.output_labels
        if len(out) != 2 or spec.output_shape[1] != rows:
            raise ShapeMismatch(
                f"layer {depth} outputs shape {spec.output_shape}, not a matrix of {rows} columns"
            )
        names = {out[0]: fresh(), out[1]: row}
        names.update({ch: fresh() for ch in dict.fromkeys("".join(ops)) if ch not in names})
        labels += [lb.translate(str.maketrans(names)) for lb in ops]
        core_shapes += spec.core_shapes
        constants += spec.constants
        row, rows = names[out[0]], spec.output_shape[0]
    return ReconstructionSpec(
        ContractionPlan((*labels, x_labels), row + x_labels[1]),
        tuple(core_shapes), (*constants, x), "layered", tuple(s.num_cores for s in specs),
    )


@dataclass
class LayeredModel:
    """Layers of independent core models whose matrix outputs compose linearly:
    the output for input ``x`` is W_D ... W_1 x, one plan (``spec(x)``)."""

    specs: list[ReconstructionSpec]
    cores: list[list[np.ndarray]] = field(default_factory=list)

    @property
    def groups(self) -> tuple[int, ...]:
        """Cores per layer: the layout of ``spec(x)``'s cores, every layer's end to end."""
        return tuple(spec.num_cores for spec in self.specs)

    def spec(self, x: np.ndarray) -> ReconstructionSpec:
        return layered_spec(self.specs, x)

    def core_grads(self, x: np.ndarray, dl_dout: np.ndarray) -> list[list[np.ndarray]]:
        """Each layer's core gradients given dl_dout = df/d(output), from one
        standalone gradient pass of ``spec(x)``."""
        grads = iter(grad_cores(self.spec(x), [c for cs in self.cores for c in cs], dl_dout))
        return [list(itertools.islice(grads, n)) for n in self.groups]
