"""Dense float64 tensors, labelled pairwise contraction, and tensor file I/O.

Tensors are plain ``numpy.ndarray`` values: C-order, float64, all entries
finite, and marked read-only once they leave this module.  Every operation is
a pure function returning a fresh array, and every array it returns is checked:
a NaN/Inf raises NumericalError instead of propagating.  Contractions check
only their results, since a non-finite intermediate always reaches them.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, LabelError, NumericalError, ShapeMismatch

Shape = tuple[int, ...]

_DTF1_MAGIC = b"DTF1"


def ensure_finite(arr: np.ndarray, context: str = "operation") -> None:
    if not np.isfinite(arr).all():
        raise NumericalError(f"{context} produced a non-finite value")


def as_tensor(values, shape: Shape | None = None) -> np.ndarray:
    """Validated tensor constructor: float64, C-order, finite, read-only."""
    arr = np.array(values, dtype=np.float64, order="C")
    if shape is not None:
        shape = tuple(int(d) for d in shape)
        if any(d < 1 for d in shape):
            raise ShapeMismatch(f"extents must be >= 1, got {shape}")
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if arr.size != count:
            raise ShapeMismatch(
                f"{arr.size} values cannot fill shape {shape} ({count} entries)"
            )
        arr = arr.reshape(shape)
    ensure_finite(arr, "tensor construction")
    arr.flags.writeable = False
    return arr


def seal(arr: np.ndarray, context: str) -> np.ndarray:
    """A computed array as a tensor: checked finite, C-order (copied only if
    it is not), and read-only."""
    ensure_finite(arr, context)
    if getattr(arr, "ndim", 0) > 0:
        arr = np.ascontiguousarray(arr)
    else:
        arr = np.asarray(arr, dtype=np.float64)  # keep rank-0 rank-0
    arr.flags.writeable = False
    return arr


def require_same_shape(a: np.ndarray, b: np.ndarray, context: str = "operands") -> None:
    if a.shape != b.shape:
        raise ShapeMismatch(f"{context} have shapes {a.shape} and {b.shape}")


@dataclass(frozen=True)
class ContractionPlan:
    """A labelled contraction, e.g. operands ("ij", "jk") with output "ik".

    Grammar: a label bound to exactly two operand slots is summed; a label
    appearing once is free and must appear in the output.  More than two
    occurrences are rejected, as is an output label that is bound or unknown.
    """

    operand_labels: tuple[str, ...]
    output_labels: str

    def __post_init__(self):
        if not self.operand_labels:
            raise LabelError("plan needs at least one operand")
        counts: dict[str, int] = {}
        for labels in self.operand_labels:
            for ch in labels:
                if not ch.isalpha():
                    raise LabelError(f"label {ch!r} is not a letter")
                counts[ch] = counts.get(ch, 0) + 1
        for ch, n in counts.items():
            if n > 2:
                raise LabelError(f"label {ch!r} appears {n} times (max 2)")
        out = self.output_labels
        if len(set(out)) != len(out):
            raise LabelError(f"output {out!r} repeats a label")
        for ch in out:
            if counts.get(ch, 0) == 0:
                raise LabelError(f"output label {ch!r} missing from operands")
            if counts[ch] == 2:
                raise LabelError(f"output label {ch!r} is bound (appears twice)")
        for ch, n in counts.items():
            if n == 1 and ch not in out:
                raise LabelError(f"free label {ch!r} missing from output")

    @classmethod
    @functools.cache
    def parse(cls, expression: str) -> "ContractionPlan":
        """Parse an ``"ij,jk->ik"`` style expression.

        Plans are immutable, so one expression parses to one shared plan: the
        many specs built from a family's expression share it.
        """
        if "->" not in expression:
            raise LabelError(f"plan {expression!r} lacks '->'")
        lhs, out = expression.split("->", 1)
        return cls(tuple(lhs.split(",")), out)

    def expression(self) -> str:
        return ",".join(self.operand_labels) + "->" + self.output_labels


def _label_extents(plan: ContractionPlan, shapes) -> dict[str, int]:
    extents: dict[str, int] = {}
    for labels, shape in zip(plan.operand_labels, shapes):
        if len(shape) != len(labels):
            raise ShapeMismatch(
                f"operand {labels!r} needs rank {len(labels)}, got shape {shape}"
            )
        for ch, d in zip(labels, shape):
            if extents.setdefault(ch, d) != d:
                raise ShapeMismatch(
                    f"label {ch!r} has extents {extents[ch]} and {d}"
                )
    return extents


def _pair(x: str, y: str, summed: str):
    """Axes of one pairwise product: operands labelled x and y, summed over
    the labels ``summed``; the result carries x's other labels, then y's.

    The axes are those ``numpy.tensordot`` derives (summed axes last in x and
    first in y, in the order given), so a step evaluates bit for bit as
    tensordot would.
    """
    keep_x = "".join(ch for ch in x if ch not in summed)
    keep_y = "".join(ch for ch in y if ch not in summed)
    perm_x = tuple(x.index(ch) for ch in keep_x + summed)
    perm_y = tuple(y.index(ch) for ch in summed + keep_y)
    return (perm_x, perm_y, keep_x, summed, keep_y), keep_x + keep_y


def _size_pair(step, extents: dict[str, int]):
    perm_x, perm_y, keep_x, summed, keep_y = step
    m, k, n = (math.prod(extents[ch] for ch in part) for part in (keep_x, summed, keep_y))
    return perm_x, perm_y, (m, k), (k, n), tuple(extents[ch] for ch in keep_x + keep_y)


def _apply_pair(step, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    perm_x, perm_y, shape_x, shape_y, shape_out = step
    return np.dot(
        x.transpose(perm_x).reshape(shape_x), y.transpose(perm_y).reshape(shape_y)
    ).reshape(shape_out)


def _perm(labels: str, target: str) -> tuple[int, ...] | None:
    """The transpose taking ``labels`` to ``target`` order; None if it is the identity."""
    return None if labels == target else tuple(labels.index(ch) for ch in target)


class CompiledPlan:
    """A plan lowered once to a fixed list of pairwise steps.

    Forward, operands fold left to right: each step is a tensordot over the
    labels the accumulator shares with the next operand (a shared label is
    always bound, by the plan grammar, so it is summed the moment its partner
    arrives).  A label repeated within one operand, which by the grammar
    appears nowhere else, is first collapsed to its diagonal and summed after
    the last step.  The rest is a permutation of the free labels.  The fixed
    order keeps results bit-deterministic across runs on one platform.

    Reverse, one pass back through the same steps turns the gradient of the
    output into the gradient of every requested operand slot: at step i the
    incoming gradient, contracted with the accumulator before the step, gives
    operand i's gradient, and contracted with operand i, the gradient passed
    on to that accumulator.  The pass recomputes the accumulators it needs.

    Axes and permutations are fixed per plan; the sizes of each step are
    worked out once per distinct set of operand shapes, which also checks the
    shapes against the labels.
    """

    _MAX_SHAPE_SETS = 64

    def __init__(self, plan: ContractionPlan):
        self.plan = plan
        self.context = f"contract {plan.expression()!r}"
        ops = plan.operand_labels
        self._diag = tuple(
            f"{lb}->{''.join(dict.fromkeys(lb))}" if len(set(lb)) != len(lb) else None
            for lb in ops
        )
        self._has_diag = any(self._diag)
        labels = ["".join(dict.fromkeys(lb)) for lb in ops]
        out = plan.output_labels

        accs = [labels[0]]
        self._forward = []
        for nxt in labels[1:]:
            step, acc = _pair(accs[-1], nxt, "".join(ch for ch in accs[-1] if ch in nxt))
            self._forward.append(step)
            accs.append(acc)
        self._extra = "".join(ch for ch in accs[-1] if ch not in out)
        self._sum_axes = tuple(accs[-1].index(ch) for ch in self._extra)
        self._out_perm = _perm("".join(ch for ch in accs[-1] if ch in out), out)

        # Reverse steps, last operand first; `grad` labels the incoming gradient.
        grad = out + self._extra
        self._reverse = []
        for i in range(len(ops) - 1, 0, -1):
            acc, op = accs[i - 1], labels[i]
            summed = "".join(ch for ch in grad if ch in acc and ch not in op)
            op_grad, got = _pair(acc, grad, summed)
            perm = _perm(got, op)
            summed = "".join(ch for ch in grad if ch in op and ch not in acc)
            acc_grad, grad = _pair(grad, op, summed)
            self._reverse.append((op_grad, perm, acc_grad))
        self._first_perm = _perm(grad, labels[0])
        self._sizes: dict[tuple[Shape, ...], tuple] = {}

    def _sized(self, inputs: list[np.ndarray]) -> tuple:
        """(forward steps, reverse steps, output shape, and the reshape and
        broadcast shapes that give the output gradient the extra labels),
        sized for the shapes of ``inputs``."""
        if len(inputs) != len(self._diag):
            raise ShapeMismatch(
                f"plan has {len(self._diag)} operands, got {len(inputs)}"
            )
        shapes = tuple([x.shape for x in inputs])
        sizes = self._sizes.get(shapes)
        if sizes is None:
            extents = _label_extents(self.plan, shapes)
            out_shape = tuple(extents[ch] for ch in self.plan.output_labels)
            sizes = (
                [_size_pair(step, extents) for step in self._forward],
                [
                    (_size_pair(op_grad, extents), perm, _size_pair(acc_grad, extents))
                    for op_grad, perm, acc_grad in self._reverse
                ],
                out_shape,
                out_shape + (1,) * len(self._extra),
                out_shape + tuple(extents[ch] for ch in self._extra),
            )
            if len(self._sizes) >= self._MAX_SHAPE_SETS:
                self._sizes.clear()
            self._sizes[shapes] = sizes
        return sizes

    def _operands(self, inputs: list[np.ndarray]) -> list[np.ndarray]:
        if not self._has_diag:
            return inputs
        return [x if d is None else np.einsum(d, x) for d, x in zip(self._diag, inputs)]

    def forward(self, inputs: list[np.ndarray]) -> np.ndarray:
        """The contraction, unchecked for finiteness and possibly a view."""
        forward = self._sized(inputs)[0]
        ops = self._operands(inputs)
        with np.errstate(over="ignore", invalid="ignore"):
            acc = ops[0]
            for step, nxt in zip(forward, ops[1:]):
                acc = _apply_pair(step, acc, nxt)
            if self._sum_axes:
                acc = acc.sum(axis=self._sum_axes)
        if self._out_perm is not None:
            acc = acc.transpose(self._out_perm)
        return acc

    def gradients(
        self, inputs: list[np.ndarray], grad_out: np.ndarray, slots: tuple[int, ...]
    ) -> list[np.ndarray]:
        """Gradients of <contraction, grad_out> with respect to ``inputs[s]``
        for each s in ``slots`` (ascending), in one reverse pass."""
        forward, reverse, out_shape, grad_expand, grad_shape = self._sized(inputs)
        if grad_out.shape != out_shape:
            raise ShapeMismatch(
                f"output gradient {grad_out.shape}, plan gives {out_shape}"
            )
        for s in slots:
            if self._diag[s] is not None:
                raise LabelError(
                    f"operand {self.plan.operand_labels[s]!r} repeats a label; "
                    "it has no gradient"
                )
        if not slots:
            return []
        ops = self._operands(inputs)
        lowest = slots[0]
        grads: dict[int, np.ndarray] = {}
        with np.errstate(over="ignore", invalid="ignore"):
            accs = [ops[0]]
            for step, nxt in zip(forward[:-1], ops[1:]):
                accs.append(_apply_pair(step, accs[-1], nxt))
            grad = grad_out
            if self._extra:
                grad = np.broadcast_to(grad.reshape(grad_expand), grad_shape)
            for i, (op_grad, perm, acc_grad) in zip(range(len(ops) - 1, 0, -1), reverse):
                if i in slots:
                    g = _apply_pair(op_grad, accs[i - 1], grad)
                    grads[i] = g if perm is None else g.transpose(perm)
                if i == lowest:
                    break
                grad = _apply_pair(acc_grad, grad, ops[i])
            if lowest == 0:
                grads[0] = grad if self._first_perm is None else grad.transpose(self._first_perm)
        return [grads[s] for s in slots]


@functools.cache
def compile_plan(plan: ContractionPlan) -> CompiledPlan:
    """The compiled form of ``plan``, built once per distinct plan."""
    return CompiledPlan(plan)


def _sealed_result(arr: np.ndarray, inputs, context: str) -> np.ndarray:
    """Seal a result; one that is an input itself (a plan that only passes an
    operand through) is copied first, so the caller's array stays writable."""
    if any(arr is x for x in inputs):
        arr = arr.copy()
    return seal(arr, context)


def contract(plan: ContractionPlan, inputs: list[np.ndarray]) -> np.ndarray:
    """Evaluate the plan by pairwise reductions in left-to-right order.

    See CompiledPlan for the evaluation order.  The result is checked for
    finiteness once; an overflow inside raises NumericalError here.
    """
    compiled = compile_plan(plan)
    return _sealed_result(compiled.forward(inputs), inputs, compiled.context)


def contract_grads(
    plan: ContractionPlan,
    inputs: list[np.ndarray],
    grad_out: np.ndarray,
    slots: tuple[int, ...],
) -> list[np.ndarray]:
    """Gradients of <contract(plan, inputs), grad_out> with respect to the
    operands at ``slots`` (ascending), from one reverse pass; each is checked
    for finiteness once."""
    compiled = compile_plan(plan)
    grads = compiled.gradients(inputs, grad_out, slots)
    context = compiled.context + " gradient"
    return [_sealed_result(g, (grad_out,), context) for g in grads]


def frobenius_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Entrywise inner product over all indices."""
    require_same_shape(a, b, "inner-product operands")
    value = float(np.dot(a.ravel(), b.ravel()))
    if not math.isfinite(value):
        raise NumericalError("inner product produced a non-finite value")
    return value


def frobenius_norm_sq(a: np.ndarray) -> float:
    """Sum of squares of all entries; same summation order as frobenius_inner."""
    return frobenius_inner(a, a)


def axpy_scale(a: np.ndarray, alpha: float, b: np.ndarray, beta: float) -> np.ndarray:
    """alpha*a + beta*b entrywise."""
    require_same_shape(a, b, "axpy operands")
    return seal(alpha * a + beta * b, "axpy_scale")


# ----------------------------------------------------------------------------
# File formats: binary "DTF1" and CSV with a "# shape:" header line.
# ----------------------------------------------------------------------------

def write_dtf1(path, arr: np.ndarray) -> None:
    """Binary layout: magic "DTF1", u32 rank, rank x u64 extents, f64 values."""
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(_DTF1_MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        for d in arr.shape:
            fh.write(struct.pack("<Q", d))
        fh.write(arr.tobytes(order="C"))


def read_dtf1(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _DTF1_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 8:
        raise FormatError(f"{path}: truncated header")
    (rank,) = struct.unpack_from("<I", raw, 4)
    offset = 8
    if len(raw) < offset + 8 * rank:
        raise FormatError(f"{path}: truncated extent list")
    dims = struct.unpack_from(f"<{rank}Q", raw, offset) if rank else ()
    offset += 8 * rank
    count = 1
    for d in dims:
        if d < 1:
            raise FormatError(f"{path}: extent {d} < 1")
        count *= d
    expected = offset + 8 * count
    if len(raw) < expected:
        raise FormatError(f"{path}: expected {expected} bytes, got {len(raw)}")
    if len(raw) > expected:
        raise FormatError(f"{path}: {len(raw) - expected} trailing bytes after the payload")
    values = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
    return as_tensor(values, tuple(int(d) for d in dims))


def write_csv_tensor(path, arr: np.ndarray) -> None:
    arr = np.asarray(arr, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# shape: " + ",".join(str(d) for d in arr.shape) + "\n")
        fh.write(",".join(repr(float(v)) for v in arr.ravel()) + "\n")


def read_csv_tensor(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = next((ln for ln in lines if ln.strip()), "")
    if not header.strip().startswith("# shape:"):
        raise FormatError(f"{path}: missing '# shape:' header line")
    spec = header.split(":", 1)[1].strip()
    try:
        dims = tuple(int(tok) for tok in spec.split(",") if tok.strip()) if spec else ()
    except ValueError as exc:
        raise FormatError(f"{path}: bad shape header {spec!r}") from exc
    values: list[float] = []
    for ln in lines:
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        for tok in ln.split(","):
            tok = tok.strip()
            if not tok:
                continue
            try:
                values.append(float(tok))
            except ValueError as exc:
                raise FormatError(f"{path}: bad value {tok!r}") from exc
    try:
        return as_tensor(values, dims)
    except ShapeMismatch as exc:
        raise FormatError(f"{path}: {exc}") from exc


def read_tensor(path) -> np.ndarray:
    """Load either format, sniffing the DTF1 magic bytes."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == _DTF1_MAGIC:
        return read_dtf1(path)
    return read_csv_tensor(path)
