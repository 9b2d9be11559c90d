"""Dense float64 tensors, labelled pairwise contraction, and tensor file I/O.

Tensors are plain ``numpy.ndarray`` values: C-order, float64, all entries
finite, and marked read-only once they leave this module.  Every operation is
a pure function returning a fresh array (or views of one), and every array it
returns is checked: a NaN/Inf raises NumericalError instead of propagating.
Contractions check only their results, since a non-finite intermediate always
reaches them.  One exception: in a gradient pass the loss vouches for the output.
Inside coreflow numpy's overflow warnings are off: ``quietly`` enters that
error state in the outermost coreflow call on a thread (an optimizer step, or
a public function called on its own) and nested calls reuse it.  A reverse
pass writes each gradient straight into its slice of one flat array, sealed once.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import operator
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, LabelError, NumericalError, ShapeMismatch

Shape = tuple[int, ...]

_DTF1_MAGIC = b"DTF1"


def as_tensor(values, shape: Shape | None = None) -> np.ndarray:
    """Validated tensor constructor: float64, C-order, finite, read-only."""
    arr = np.array(values, dtype=np.float64, order="C")
    if shape is not None:
        shape = tuple(int(d) for d in shape)
        if any(d < 1 for d in shape):
            raise ShapeMismatch(f"extents must be >= 1, got {shape}")
        count = math.prod(shape)
        if arr.size != count:
            raise ShapeMismatch(
                f"{arr.size} values cannot fill shape {shape} ({count} entries)"
            )
        arr = arr.reshape(shape)
    return seal(arr, "tensor construction")


def seal(arr: np.ndarray, context: str) -> np.ndarray:
    """A computed array as a tensor: checked finite, C-order (copied only if
    it is not), and read-only."""
    if np.count_nonzero(np.isfinite(arr)) != arr.size:  # cheaper than .all() on small arrays
        raise NumericalError(f"{context} produced a non-finite value")
    if arr.ndim:
        arr = np.ascontiguousarray(arr)
    else:
        arr = np.asarray(arr, dtype=np.float64)  # keep rank-0 rank-0
    arr.setflags(write=False)
    return arr


class _Scope(threading.local):
    open = False  # is this thread inside quietly's np.errstate?


_scope = _Scope()


def quietly(fn, *args):
    """``fn(*args)`` with numpy's overflow and invalid-value warnings off.

    Only the outermost call on a thread enters ``np.errstate``, which costs
    more than a small contraction step; a nested call runs inside the scope
    already open.
    """
    if _scope.open:
        return fn(*args)
    _scope.open = True
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(*args)
    finally:
        _scope.open = False


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


def label_extents(plan: ContractionPlan, shapes) -> dict[str, int]:
    """Each label's extent in ``shapes``, checked against the plan's ranks."""
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
    """The step sized for ``extents`` and lowered: None stands for a transpose
    that is the identity and for a reshape to the shape its array has already."""
    perm_x, perm_y, keep_x, summed, keep_y = step
    x, s, y = (tuple(extents[ch] for ch in part) for part in (keep_x, summed, keep_y))
    m, k, n = math.prod(x), math.prod(s), math.prod(y)
    # (what each of the step's five calls would make, what its array has already)
    calls = ((perm_x, tuple(sorted(perm_x))), (perm_y, tuple(sorted(perm_y))),
             ((m, k), x + s), ((k, n), s + y), (x + y, (m, n)))
    return tuple(None if want == have else want for want, have in calls)


def _apply_pair(step, x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One sized step; skipping a None hands np.dot the same views.  Given
    ``out``, a C-contiguous float64 array of the result's shape, the product
    is written into it."""
    perm_x, perm_y, shape_x, shape_y, shape_out = step
    x = x if perm_x is None else x.transpose(perm_x)
    x = x if shape_x is None else x.reshape(shape_x)
    y = y if perm_y is None else y.transpose(perm_y)
    y = y if shape_y is None else y.reshape(shape_y)
    if out is not None:
        target = out if shape_out is None else out.reshape(len(x), -1)
        try:
            np.dot(x, y, out=target)
        except ValueError:  # np.dot writes only a product of out's dtype; other dtypes are cast
            np.copyto(target, np.dot(x, y))
        return out
    out = np.dot(x, y)
    return out if shape_out is None else out.reshape(shape_out)


def _product_into(out: np.ndarray, perm, step, x: np.ndarray, y: np.ndarray) -> None:
    """The step's product, transposed by ``perm``, into ``out``; a transpose costs one copy."""
    if perm is None:
        _apply_pair(step, x, y, out)
    else:
        np.copyto(out, _apply_pair(step, x, y).transpose(perm))


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
    on to that accumulator, taking the accumulators ``forward`` kept if it can.
    Each gradient's last product lands in its slice of one flat array.

    Axes and permutations are fixed per plan; the sizes of each step are
    worked out once per distinct set of operand shapes, which also checks the
    shapes against the labels, and lowered (a transpose or reshape that would
    not change its array is dropped); ``forward`` keeps them for the reverse pass.
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
        self._every_slot = tuple(range(len(ops)))
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
        self._kept = None  # (inputs, operands, accumulators, sizes) of the last forward

    def _sized(self, inputs: list[np.ndarray]) -> tuple:
        """(forward steps, reverse steps, output shape, and the reshape and
        broadcast shapes that give the output gradient the extra labels),
        sized for the shapes of ``inputs``."""
        shapes = shapes_of(inputs)
        sizes = self._sizes.get(shapes)
        if sizes is None:
            if len(inputs) != len(self._diag):
                raise ShapeMismatch(f"plan has {len(self._diag)} operands, got {len(inputs)}")
            extents = label_extents(self.plan, shapes)
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
        """Unchecked contraction (maybe a view); keeps accumulators and sizes unless an
        input is writable."""
        sizes = self._sized(inputs)
        if isinstance(inputs, FlatViews):  # its views are writable only if its flat is
            writable = inputs.flat.flags.writeable
        else:
            inputs = tuple(inputs)
            writable = any(x.flags.writeable for x in inputs)
        ops = self._operands(inputs)
        accs = [ops[0]]
        for step, nxt in zip(sizes[0], ops[1:]):
            accs.append(_apply_pair(step, accs[-1], nxt))
        acc = accs.pop()
        if self._sum_axes:
            acc = acc.sum(axis=self._sum_axes)
        if self._out_perm is not None:
            acc = acc.transpose(self._out_perm)
        self._kept = None if writable else (inputs, ops, accs, sizes)
        return acc

    def gradients(
        self, inputs: list[np.ndarray], grad_out: np.ndarray, slots: tuple[int, ...]
    ) -> "FlatViews":
        """Gradients of <contraction, grad_out> with respect to ``inputs[s]``
        for each s in ``slots`` (ascending), in one reverse pass, as writable
        FlatViews of one fresh array: each gradient's last product is written
        straight into its slice."""
        kept = self._kept  # read once: another thread may replace it
        if kept and (
            kept[0] is inputs
            or len(kept[0]) == len(inputs) and all(map(operator.is_, kept[0], inputs))
        ):
            _, ops, accs, sizes = kept
        else:
            sizes, ops = self._sized(inputs), None
        forward, reverse, out_shape, grad_expand, grad_shape = sizes
        if grad_out.shape != out_shape:
            raise ShapeMismatch(
                f"output gradient {grad_out.shape}, plan gives {out_shape}"
            )
        for s in slots if self._has_diag else ():
            if self._diag[s] is not None:
                raise LabelError(
                    f"operand {self.plan.operand_labels[s]!r} repeats a label; "
                    "it has no gradient"
                )
        shapes = shapes_of(inputs)
        if slots != self._every_slot:
            try:
                shapes = tuple([shapes[s] for s in slots])
            except IndexError:
                raise ShapeMismatch(f"slots {slots} are not ascending operand indices") from None
        grads = FlatViews(np.empty(_layout(shapes)[1]), shapes)
        pending = list(zip(slots, grads))  # the reverse pass meets the last slot first
        if not pending:
            return grads
        if ops is None:
            ops = self._operands(inputs)
            accs = [ops[0]]
            for step, nxt in zip(forward[:-1], ops[1:]):
                accs.append(_apply_pair(step, accs[-1], nxt))
        grad = grad_out
        if self._extra:
            grad = np.broadcast_to(grad.reshape(grad_expand), grad_shape)
        for i, (op_grad, perm, acc_grad) in zip(range(len(ops) - 1, 0, -1), reverse):
            if pending[-1][0] == i:
                _product_into(pending.pop()[1], perm, op_grad, accs[i - 1], grad)
                if not pending:
                    return grads
            if i == 1 and pending[-1][0] == 0:  # this product is operand 0's gradient
                _product_into(pending.pop()[1], self._first_perm, acc_grad, grad, ops[1])
            else:
                grad = _apply_pair(acc_grad, grad, ops[i])
        if len(ops) == 1 and pending[-1][0] == 0:
            first = grad if self._first_perm is None else grad.transpose(self._first_perm)
            np.copyto(pending.pop()[1], first)
        if pending:
            raise ShapeMismatch(f"slots {slots} are not ascending operand indices")
        return grads


@functools.cache
def compile_plan(plan: ContractionPlan) -> CompiledPlan:
    """The compiled form of ``plan``, built once per distinct plan."""
    return CompiledPlan(plan)


def contract(plan: ContractionPlan, inputs: list[np.ndarray]) -> np.ndarray:
    """Evaluate the plan by pairwise reductions in left-to-right order.

    See CompiledPlan for the evaluation order.  The result is checked for
    finiteness once; an overflow inside raises NumericalError here.  A result
    that is an input itself (a plan that only passes an operand through) is
    copied first, so the caller's array stays writable.
    """
    compiled = compile_plan(plan)
    out = quietly(compiled.forward, inputs)
    if any(out is x for x in inputs):
        out = out.copy()
    return seal(out, compiled.context)


@functools.lru_cache(maxsize=CompiledPlan._MAX_SHAPE_SETS)
def _layout(shapes: tuple[Shape, ...]):
    """The (start, stop, shape) of each array of ``shapes`` laid end to end,
    and the shape of the flat array they fill; worked out once per shapes."""
    ends = tuple(itertools.accumulate(map(math.prod, shapes), initial=0))
    return tuple(zip(ends, ends[1:], shapes)), ends[-1:]


class FlatViews(tuple):
    """Arrays of ``shapes`` end to end in the 1-D array ``flat``, as an immutable tuple of views.

    The views are read-only exactly when ``flat`` is: coreflow seals ``flat``
    before it makes the views, or freezes the views when it seals ``flat``.
    """

    def __new__(cls, flat: np.ndarray, shapes):
        shapes = tuple(shapes)
        spans, flat_shape = _layout(shapes)
        if flat.shape != flat_shape:
            raise ShapeMismatch(f"flat array of shape {flat.shape} for {flat_shape[0]} entries")
        self = super().__new__(cls, [flat[a:b].reshape(shape) for a, b, shape in spans])
        self.__dict__.update(flat=flat, shapes=shapes)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return FlatViews, (self.flat, self.shapes)


def shapes_of(arrays) -> tuple[Shape, ...]:
    """The shapes of ``arrays``: a FlatViews' own, else read from each array."""
    return arrays.shapes if isinstance(arrays, FlatViews) else tuple([a.shape for a in arrays])


def carried(arrays) -> tuple[np.ndarray, tuple[Shape, ...]]:
    """``arrays`` end to end, and their shapes: a FlatViews' own, else a copy."""
    if isinstance(arrays, FlatViews):
        return arrays.flat, arrays.shapes
    return np.concatenate([a.ravel() for a in arrays]), tuple([a.shape for a in arrays])


def contract_grads(
    plan: ContractionPlan,
    inputs: list[np.ndarray],
    grad_out: np.ndarray,
    slots: tuple[int, ...],
) -> FlatViews:
    """Gradients of <contract(plan, inputs), grad_out> with respect to the
    operands at ``slots`` (ascending), from one reverse pass, as FlatViews of
    one sealed array holding them end to end, checked for finiteness once."""
    compiled = compile_plan(plan)
    grads = quietly(compiled.gradients, inputs, grad_out, slots)
    seal(grads.flat, compiled.context + " gradient")
    for view in grads:
        view.setflags(write=False)
    return grads


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


@contextlib.contextmanager
def _reading(path):
    """Opening or decoding failures inside the block as a FormatError naming
    the file: a directory, a missing or unreadable file, text not in UTF-8."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: cannot read tensor file: {exc}") from exc


def read_dtf1(path) -> np.ndarray:
    with _reading(path), open(path, "rb") as fh:
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
    try:
        return as_tensor(values, tuple(int(d) for d in dims))
    except NumericalError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_csv_tensor(path, arr: np.ndarray) -> None:
    arr = np.asarray(arr, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# shape: " + ",".join(str(d) for d in arr.shape) + "\n")
        fh.write(",".join(repr(float(v)) for v in arr.ravel()) + "\n")


def read_csv_tensor(path) -> np.ndarray:
    with _reading(path), open(path, "r", encoding="utf-8") as fh:
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
    except (ShapeMismatch, NumericalError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def read_tensor(path) -> np.ndarray:
    """Load either format, sniffing the DTF1 magic bytes."""
    with _reading(path), open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == _DTF1_MAGIC:
        return read_dtf1(path)
    return read_csv_tensor(path)
