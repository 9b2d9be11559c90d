"""Multilinear reconstruction models and their per-core analytic gradients.

A model is a labelled contraction over K trainable cores (plus optional
constant operands, e.g. the superdiagonal tensor that turns a Tucker plan
into CP).  The plan is compiled once into pairwise steps (see
``tensor.CompiledPlan``); the forward pass reconstructs, and one reverse pass
through the same steps gives every core's gradient, which is exact because
the map is linear in each core.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateModelWarning, LabelError, ShapeMismatch
from .tensor import (
    ContractionPlan,
    Shape,
    as_tensor,
    contract,
    contract_grads,
    frobenius_inner,
    frobenius_norm_sq,
)


@dataclass(frozen=True, eq=False)
class ReconstructionSpec:
    """A contraction plan with K operand slots bound to trainable cores.

    ``constants[i]`` is None for core slots and a fixed tensor otherwise.
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

    @property
    def num_cores(self) -> int:
        return len(self.core_shapes)

    @property
    def core_slots(self) -> tuple[int, ...]:
        return self._core_slots

    def operands(self, cores: list[np.ndarray]) -> list[np.ndarray]:
        if len(cores) != self.num_cores:
            raise ShapeMismatch(f"expected {self.num_cores} cores, got {len(cores)}")
        for core, shape in zip(cores, self.core_shapes):
            if core.shape != shape:
                raise ShapeMismatch(f"core shape {core.shape}, spec wants {shape}")
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
    spec: ReconstructionSpec, cores: list[np.ndarray], dl_dt: np.ndarray
) -> list[np.ndarray]:
    """Per-core gradients of f(reconstruct(cores)) given dl_dt = df/d(output),
    from one reverse pass through the plan's pairwise steps; constant slots
    get no gradient."""
    if dl_dt.shape != spec.output_shape:
        raise ShapeMismatch(f"output grad {dl_dt.shape} vs {spec.output_shape}")
    return contract_grads(spec.plan, spec.operands(cores), dl_dt, spec.core_slots)


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
    lhs = frobenius_inner(reconstruct_with(spec, cores, m, v), dl_dt)
    rhs = frobenius_inner(v, grad_cores(spec, cores, dl_dt)[m])
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
    extents: dict[str, int] = {}
    for labels, shape in zip(plan.operand_labels, shapes):
        if len(labels) != len(shape):
            raise ShapeMismatch(f"slot {labels!r} vs shape {shape}")
        for ch, d in zip(labels, shape):
            if extents.setdefault(ch, d) != d:
                raise ShapeMismatch(f"label {ch!r} has extents {extents[ch]} and {d}")
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
# Fixed two-layer linear composition: output = W2 @ (W1 @ x).
# ----------------------------------------------------------------------------

@dataclass
class LayeredModel:
    """Layers of independent core models whose matrix outputs compose linearly.

    Layer l reconstructs to a tensor that is reshaped to ``matrix_shapes[l]``;
    the model output for input ``x`` is W_D @ ... @ W_1 @ x.
    """

    specs: list[ReconstructionSpec]
    cores: list[list[np.ndarray]] = field(default_factory=list)
    matrix_shapes: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        if not self.matrix_shapes:
            self.matrix_shapes = [
                (s.output_shape[0], int(np.prod(s.output_shape[1:], dtype=np.int64)))
                for s in self.specs
            ]
        for spec, (rows, cols) in zip(self.specs, self.matrix_shapes):
            count = int(np.prod(spec.output_shape, dtype=np.int64))
            if rows * cols != count:
                raise ShapeMismatch(
                    f"layer output {spec.output_shape} cannot reshape to {(rows, cols)}"
                )
        for lower, upper in zip(self.matrix_shapes[:-1], self.matrix_shapes[1:]):
            if upper[1] != lower[0]:
                raise ShapeMismatch(
                    f"layer matrices {lower} -> {upper} do not chain"
                )

    @property
    def num_layers(self) -> int:
        return len(self.specs)

    def matrices(self) -> list[np.ndarray]:
        return [
            reconstruct(spec, cores).reshape(shape)
            for spec, cores, shape in zip(self.specs, self.cores, self.matrix_shapes)
        ]

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = x
        for w in self.matrices():
            out = w @ out
        return out

    def layer_output_grads(self, x: np.ndarray, dl_dout: np.ndarray) -> list[np.ndarray]:
        """d(loss)/d(W_l) for each layer, shaped like the layer's output tensor."""
        ws = self.matrices()
        pre = [x]  # pre[l] is the input seen by layer l
        for w in ws[:-1]:
            pre.append(w @ pre[-1])
        grads = []
        upstream = dl_dout
        for l in range(self.num_layers - 1, -1, -1):
            grads.append((upstream @ pre[l].T).reshape(self.specs[l].output_shape))
            upstream = ws[l].T @ upstream
        grads.reverse()
        return [as_tensor(g) for g in grads]

    def core_grads(self, x: np.ndarray, dl_dout: np.ndarray) -> list[list[np.ndarray]]:
        return [
            grad_cores(spec, cores, dw)
            for spec, cores, dw in zip(
                self.specs, self.cores, self.layer_output_grads(x, dl_dout)
            )
        ]

    @property
    def groups(self) -> tuple[int, ...]:
        """Cores per layer: the layout of the flat core list that
        ``gradient_fn`` takes, every layer's cores end to end."""
        return tuple(spec.num_cores for spec in self.specs)

    def gradient_fn(self, x: np.ndarray, objective):
        """The optimizer steps' gradient callback over the flat core list:
        flat cores -> (objective's loss at the output for x, flat gradients)."""

        def grads_of(flat):
            layers, start = [], 0
            for size in self.groups:
                layers.append(list(flat[start:start + size]))
                start += size
            model = replace(self, cores=layers)
            loss, dl = objective.loss_and_grad(model.forward(x))
            return loss, [g for layer in model.core_grads(x, dl) for g in layer]

        return grads_of
