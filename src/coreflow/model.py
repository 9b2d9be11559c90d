"""Multilinear reconstruction models and their per-core analytic gradients.

A model is a labelled contraction over K trainable cores (plus optional
constant operands, e.g. the superdiagonal tensor that turns a Tucker plan
into CP, or the input x of a layered model).  The plan is compiled once into pairwise steps (see
``tensor.CompiledPlan``); the forward pass reconstructs, and one reverse pass
through the same steps gives every core's gradient, which is exact because
the map is linear in each core.
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
    Shape,
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
    ``compiled`` is the plan's ``CompiledPlan``, bound once so that a fused
    gradient pass does not look it up.
    """

    plan: ContractionPlan
    core_shapes: tuple[Shape, ...]
    output_shape: Shape
    constants: tuple = ()
    family: str = "custom"

    def __post_init__(self):
        n_ops = len(self.plan.operand_labels)
        constants = self.constants or tuple([None] * n_ops)
        object.__setattr__(self, "constants", constants)
        if len(constants) != n_ops:
            raise ShapeMismatch("one constants entry per operand slot required")
        core_slots = tuple(i for i, c in enumerate(constants) if c is None)
        object.__setattr__(self, "_core_slots", core_slots)
        object.__setattr__(self, "compiled", compile_plan(self.plan))
        if len(core_slots) != len(self.core_shapes):
            raise ShapeMismatch(
                f"{len(core_slots)} core slots but {len(self.core_shapes)} shapes"
            )
        for slot, shape in zip(core_slots, self.core_shapes):
            labels = self.plan.operand_labels[slot]
            if len(set(labels)) != len(labels):
                raise LabelError(f"core slot {labels!r} repeats a label")
            if len(labels) != len(shape):
                raise ShapeMismatch(f"core slot {labels!r} vs shape {shape}")
            if any(d < 1 for d in shape):
                raise ShapeMismatch(f"core slot {labels!r}: extents must be >= 1, got {shape}")
        for shape in self.core_shapes + (self.output_shape,):
            if math.prod(shape) > _MAX_ENTRIES:
                raise ShapeMismatch(f"shape {shape} has more entries than a float64 array can hold")

    @property
    def num_cores(self) -> int:
        return len(self.core_shapes)

    @property
    def core_slots(self) -> tuple[int, ...]:
        return self._core_slots

    def operands(self, cores: list[np.ndarray]) -> list[np.ndarray]:
        """The plan's operands: ``cores`` itself if every slot is a core."""
        if shapes_of(cores) != self.core_shapes:
            if len(cores) != self.num_cores:
                raise ShapeMismatch(f"expected {self.num_cores} cores, got {len(cores)}")
            for core, shape in zip(cores, self.core_shapes):
                if core.shape != shape:
                    raise ShapeMismatch(f"core shape {core.shape}, spec wants {shape}")
        if len(self._core_slots) == len(self.constants):
            return cores
        ops = list(self.constants)
        for slot, core in zip(self._core_slots, cores):
            ops[slot] = core
        return ops


def reconstruct(spec: ReconstructionSpec, cores: list[np.ndarray]) -> np.ndarray:
    out = contract(spec.plan, spec.operands(cores))
    if out.shape != spec.output_shape:
        raise ShapeMismatch(f"output {out.shape}, spec wants {spec.output_shape}")
    return out


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


def cp_spec(modes: Shape, rank: int) -> ReconstructionSpec:
    """Order-3 CP with shared rank: sum_r a_ir b_jr c_kr.

    Realized as a Tucker plan over a constant superdiagonal, since the plan
    grammar allows a label on at most two operand slots.
    """
    n1, n2, n3 = modes
    plan = ContractionPlan.parse("abc,ia,jb,kc->ijk")
    return ReconstructionSpec(
        plan=plan,
        core_shapes=((n1, rank), (n2, rank), (n3, rank)),
        output_shape=(n1, n2, n3),
        constants=(_superdiagonal(rank, 3), None, None, None),
        family="cp",
    )


def tucker_spec(modes: Shape, ranks: Shape) -> ReconstructionSpec:
    """Order-3 Tucker: core (r1,r2,r3) with three factor matrices."""
    n1, n2, n3 = modes
    r1, r2, r3 = ranks
    plan = ContractionPlan.parse("abc,ia,jb,kc->ijk")
    return ReconstructionSpec(
        plan=plan,
        core_shapes=((r1, r2, r3), (n1, r1), (n2, r2), (n3, r3)),
        output_shape=(n1, n2, n3),
        family="tucker",
    )


def tucker2_spec(n_out: int, n_in: int, r1: int, r2: int) -> ReconstructionSpec:
    """Matrix model A @ G @ B^T with A (n_out,r1), G (r1,r2), B (n_in,r2)."""
    plan = ContractionPlan.parse("oa,ab,ib->oi")
    return ReconstructionSpec(
        plan=plan,
        core_shapes=((n_out, r1), (r1, r2), (n_in, r2)),
        output_shape=(n_out, n_in),
        family="tucker2",
    )


def tt_spec(modes: Shape, ranks: Shape) -> ReconstructionSpec:
    """Tensor-train, order 3 or 4; ranks are the internal bond sizes."""
    if len(modes) == 3:
        r1, r2 = ranks
        n1, n2, n3 = modes
        plan = ContractionPlan.parse("ia,ajb,bk->ijk")
        shapes = ((n1, r1), (r1, n2, r2), (r2, n3))
    elif len(modes) == 4:
        r1, r2, r3 = ranks
        n1, n2, n3, n4 = modes
        plan = ContractionPlan.parse("ia,ajb,bkc,cl->ijkl")
        shapes = ((n1, r1), (r1, n2, r2), (r2, n3, r3), (r3, n4))
    else:
        raise ShapeMismatch("tt family ships for orders 3 and 4")
    return ReconstructionSpec(
        plan=plan, core_shapes=shapes, output_shape=tuple(modes), family="tt"
    )


def tr_spec(modes: Shape, ranks: Shape) -> ReconstructionSpec:
    """Tensor-ring, order 3 or 4; closed as a left-to-right chain."""
    if len(modes) == 3:
        r0, r1, r2 = ranks
        n1, n2, n3 = modes
        plan = ContractionPlan.parse("aib,bjc,cka->ijk")
        shapes = ((r0, n1, r1), (r1, n2, r2), (r2, n3, r0))
    elif len(modes) == 4:
        r0, r1, r2, r3 = ranks
        n1, n2, n3, n4 = modes
        plan = ContractionPlan.parse("aib,bjc,ckd,dla->ijkl")
        shapes = ((r0, n1, r1), (r1, n2, r2), (r2, n3, r3), (r3, n4, r0))
    else:
        raise ShapeMismatch("tr family ships for orders 3 and 4")
    return ReconstructionSpec(
        plan=plan, core_shapes=shapes, output_shape=tuple(modes), family="tr"
    )


def custom_spec(expression: str, core_shapes: list[Shape]) -> ReconstructionSpec:
    """User-supplied plan; every operand slot is a trainable core."""
    plan = ContractionPlan.parse(expression)
    shapes = tuple(tuple(s) for s in core_shapes)
    if len(shapes) != len(plan.operand_labels):
        raise ShapeMismatch(f"{len(shapes)} shapes for {len(plan.operand_labels)} operands")
    extents = label_extents(plan, shapes)
    output_shape = tuple(extents[ch] for ch in plan.output_labels)
    return ReconstructionSpec(
        plan=plan, core_shapes=shapes, output_shape=output_shape, family="custom"
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
        g /= math.sqrt(float(np.sum(g * g)))
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
    end to end; two tucker2 layers give ``cd,de,ae,fg,gh,ch,ab->fb``.
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
        tuple(core_shapes), (rows, x.shape[1]), (*constants, x), family="layered",
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
