"""Dense float64 tensors, labelled pairwise contraction, and tensor file I/O.

Tensors are plain ``numpy.ndarray`` values: C-order, float64, all entries
finite, and marked read-only once they leave this module.  Every operation is
a pure function returning a fresh array (or views of one), and every array it
returns is checked: a NaN/Inf raises NumericalError instead of propagating.
Contractions check only their results, since a non-finite intermediate always
reaches them.  One exception: in a gradient pass the loss vouches for the output.
Inside coreflow numpy's overflow warnings are off: ``quietly`` enters that
error state in the outermost coreflow call on a thread (an optimizer step, or
a public function called on its own) and nested calls reuse it.  A step
called on its own runs whole in one scope: a function on a step's path tests
``_scope.open`` itself and calls ``quietly`` only when the scope is closed,
so a step pays for no nested scope.  A contraction runs as generated code: each plan's pairwise steps,
sized for one set of operand shapes, are rendered once as straight-line numpy
calls (see ``CompiledPlan``), shown by tracebacks and profilers under the
compiled plan's name; a reverse step lowers its incoming gradient once for
both of its products.  Carriers (``FlatViews``) are built and sealed in
rendered code too.  A rendered reverse pass allocates one flat array, writes
each gradient's last product straight into its slice, checks the array
finite, freezes it and its views, and returns them as its carrier.  Every
other carrier comes from the one constructor rendered per layout,
``FlatViews.like``, which seals a fresh 1-D result and builds its views in
the same frame.  On a step's path numpy runs no Python wrapper but the
error-state entry: a product is the ndarray ``dot`` method (as in
``frobenius_inner``), a copy is ``d[...] = x``, and a finiteness check calls
the C ``count_nonzero``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import linecache
import math
import operator
import struct
import threading
import types
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import FormatError, LabelError, NumericalError, ShapeMismatch

Shape = tuple[int, ...]

_shape = operator.attrgetter("shape")
_FLOAT64 = np.dtype(np.float64)
_count_nonzero = np._core.multiarray.count_nonzero  # np.count_nonzero's C routine
_plan_serials = itertools.count(1)

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
    if _count_nonzero(np.isfinite(arr)) != arr.size:  # cheaper than .all() on small arrays
        raise NumericalError(f"{context} produced a non-finite value")
    arr = np.ascontiguousarray(arr) if arr.ndim else np.asarray(arr, dtype=np.float64)  # keeps rank 0
    arr.setflags(False)  # write=False; numpy parses a positional flag faster than a keyword
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


def _alone(fn):
    """``fn``'s own code under the private name ``_<name>``: what ``fn`` runs
    inside the scope it opens when called on its own."""
    return types.FunctionType(fn.__code__, fn.__globals__, "_" + fn.__name__, fn.__defaults__)


def require_same_shape(a: np.ndarray, b: np.ndarray, context: str = "operands") -> None:
    if a.shape != b.shape:
        raise ShapeMismatch(f"{context} have shapes {a.shape} and {b.shape}")


@dataclass(frozen=True)
class ContractionPlan:
    """A labelled contraction, e.g. operands ("ij", "jk") with output "ik".

    Grammar: a label appears at most once in each operand and in the output.
    On two operand slots it is bound and summed; on one it is free and must be
    an output label.  More slots, or an output label bound or unknown, are rejected.
    """

    operand_labels: tuple[str, ...]
    output_labels: str

    def __post_init__(self):
        if not self.operand_labels:
            raise LabelError("plan needs at least one operand")
        counts: dict[str, int] = {}
        for labels in self.operand_labels:
            if len(set(labels)) != len(labels):
                raise LabelError(f"operand {labels!r} repeats a label")
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


def _lowered(name: str, perm, shape) -> str:
    """Source of the array ``name`` transposed by ``perm`` and reshaped to
    ``shape``, skipping either that is None."""
    name = name if perm is None else f"{name}.transpose({perm})"
    return name if shape is None else f"{name}.reshape({shape})"


def _lowered_once(lines: list[str], grad: str) -> list[str]:
    """One reverse step's statements with the incoming gradient lowered once
    as ``h`` when both of its products read it lowered as ``grad``."""
    if grad == "g" or sum(ln.count(grad) for ln in lines) < 2:
        return lines
    return [f"h = {grad}"] + [ln.replace(grad, "h") for ln in lines]


def _render_product(step, x: str, y: str) -> str:
    """Source of one sized step's product of the arrays named x and y."""
    perm_x, perm_y, shape_x, shape_y, shape_out = step
    dot = f"{_lowered(x, perm_x, shape_x)}.dot({_lowered(y, perm_y, shape_y)})"
    return dot if shape_out is None else f"{dot}.reshape({shape_out})"


def _render_into(step, x: str, y: str, out: str) -> list[str]:
    """Statements writing one sized step's product into ``out``, the name of a
    C-contiguous float64 array of the result's shape."""
    perm_x, perm_y, shape_x, shape_y, shape_out = step
    x, y = _lowered(x, perm_x, shape_x), _lowered(y, perm_y, shape_y)
    if shape_out is None:
        return [f"{x}.dot({y}, out={out})"]
    # dot writes only into out viewed as its 2-D product
    return [f"lhs = {x}", f"lhs.dot({y}, out={out}.reshape(len(lhs), -1))"]


def _render_transposed_into(step, perm, x: str, y: str, out: str) -> list[str]:
    """The step's product, transposed by ``perm``, into ``out``; a transpose costs one copy."""
    if perm is None:
        return _render_into(step, x, y, out)
    return [f"{out}[...] = {_render_product(step, x, y)}.transpose({perm})"]


def _acc(k: int) -> str:
    """The name of the accumulator before forward step k+1; the first is operand 0."""
    return f"a{k}" if k else "x0"


def _unpack(names, source: str) -> list[str]:
    return [f"{', '.join(names)}, = {source}"] if names else []


def _compiled(lines: list[str], filename: str, name: str, bound: dict | None = None, cached=True):
    """The function ``name`` defined by ``lines``, compiled under ``filename``.
    Its globals are ``_RENDERED``; given ``bound``, it reads those names, and
    its own name, from a closure.  When ``cached``, linecache serves its source
    to tracebacks and profilers while the function lives."""
    if bound is not None:
        lines = [f"def make({', '.join(bound)}):"] + [f"    {ln}" for ln in lines] + [f"    return {name}"]
    source = "\n".join(lines) + "\n"
    namespace: dict = {}
    exec(compile(source, filename, "exec"), _RENDERED, namespace)
    fn = namespace[name] if bound is None else namespace["make"](**bound)
    if cached:
        entry = linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
        weakref.finalize(fn, _forget, filename, entry)
    return fn


def _forget(filename: str, entry) -> None:
    """Drop ``entry`` from linecache, unless code rendered since has replaced it."""
    if linecache.cache.get(filename) is entry:
        del linecache.cache[filename]


def _perm(labels: str, target: str) -> tuple[int, ...] | None:
    """The transpose taking ``labels`` to ``target`` order; None if it is the identity."""
    return None if labels == target else tuple(labels.index(ch) for ch in target)


class _Sized(NamedTuple):
    """A plan's steps sized for one set of operand shapes, and its code."""

    reverse: list  # sized (operand gradient, its transpose, accumulator gradient) steps
    out_shape: Shape
    shapes: tuple[Shape, ...]  # the operand shapes
    run_forward: object  # ops -> (output, the accumulators the reverse pass reads)
    run_reverse: dict  # slots -> reverse(ops, accumulators, grad_out) -> sealed FlatViews


class CompiledPlan:
    """A plan lowered once to a fixed list of pairwise steps.

    Forward, operands fold left to right: each step is a tensordot over the
    labels the accumulator shares with the next operand (a shared label is
    always bound, by the plan grammar, so it is summed the moment its partner
    arrives).  So the last accumulator holds exactly the free labels, and
    the output is a permutation of it.  The fixed order keeps results
    bit-deterministic across runs on one platform.

    Reverse, one pass back through the same steps turns the gradient of the
    output into the gradient of every requested operand slot: at step i the
    incoming gradient, contracted with the accumulator before the step, gives
    operand i's gradient, and contracted with operand i, the gradient passed
    on to that accumulator.  The reverse pass reads only what ``forward``
    returned with its output (operands, accumulators, sized steps), handed
    over by the caller.  Every reverse product involves the float64 output
    gradient, so each gradient's last product is one ``dot(..., out=)``
    into its slice of one flat float64 array (or one copy of a transpose),
    which the same code then checks, freezes and returns as a ``FlatViews``.
    When both products of a reverse step read the incoming gradient
    transposed and reshaped alike, it is lowered once, as ``h``.

    Axes and permutations are fixed per plan; the sizes of each step are
    worked out once per distinct set of operand shapes, which also checks the
    shapes against the labels, and lowered (a transpose or reshape that would
    not change its array is dropped).  The lowered steps are then rendered as
    straight-line Python, one forward function per shape set and one reverse
    function per shape set and ``slots``, compiled once under a filename that
    names the plan and the shapes, whose source linecache holds while the
    function lives.  A compiled plan keeps no state of any
    call, so one plan serves every caller and thread; it pickles as its plan.
    """

    _MAX_SHAPE_SETS = 64

    def __init__(self, plan: ContractionPlan):
        self.plan = plan
        self._name = f"#{next(_plan_serials)} {plan.expression()}"  # no two share a filename
        self.context = f"contract {plan.expression()!r}"
        self._grad_context = self.context + " gradient"
        ops, out = plan.operand_labels, plan.output_labels

        accs = [ops[0]]
        self._forward = []
        for nxt in ops[1:]:
            step, acc = _pair(accs[-1], nxt, "".join(ch for ch in accs[-1] if ch in nxt))
            self._forward.append(step)
            accs.append(acc)
        self._out_perm = _perm(accs[-1], out)

        # Reverse steps, last operand first; `grad` labels the incoming gradient.
        grad = out
        self._reverse = []
        for i in range(len(ops) - 1, 0, -1):
            acc, op = accs[i - 1], ops[i]
            summed = "".join(ch for ch in grad if ch in acc and ch not in op)
            op_grad, got = _pair(acc, grad, summed)
            perm = _perm(got, op)
            summed = "".join(ch for ch in grad if ch in op and ch not in acc)
            acc_grad, grad = _pair(grad, op, summed)
            self._reverse.append((op_grad, perm, acc_grad))
        self._first_perm = _perm(grad, ops[0])
        self._sizes: dict[tuple[Shape, ...], _Sized] = {}

    def __reduce__(self):
        return compile_plan, (self.plan,)

    def _sized(self, inputs: list[np.ndarray]) -> _Sized:
        """The steps sized for the shapes of ``inputs``, with their forward code."""
        shapes = shapes_of(inputs)
        sized = self._sizes.get(shapes)
        if sized is None:
            if len(inputs) != len(self.plan.operand_labels):
                raise ShapeMismatch(f"plan has {len(self.plan.operand_labels)} operands, got {len(inputs)}")
            extents = label_extents(self.plan, shapes)
            out_shape = tuple(extents[ch] for ch in self.plan.output_labels)
            forward = [_size_pair(step, extents) for step in self._forward]
            sized = _Sized(
                [
                    (_size_pair(op_grad, extents), perm, _size_pair(acc_grad, extents))
                    for op_grad, perm, acc_grad in self._reverse
                ],
                out_shape,
                shapes,
                _compiled(self._forward_source(forward), self._filename(shapes), "forward"),
                {},
            )
            if len(self._sizes) >= self._MAX_SHAPE_SETS:
                self._sizes.clear()
            self._sizes[shapes] = sized
        return sized

    def _filename(self, shapes, slots=None) -> str:
        """The filename of the code rendered for ``shapes`` (and ``slots``):
        ``<plan #3 oa,ab,ib->oi 5x3,3x2,4x2 slots 0,1,2>``, #3 the third compiled plan made."""
        name = self._name + " " + _shape_names(shapes)
        return f"<plan {name}>" if slots is None else f"<plan {name} slots {','.join(map(str, slots))}>"

    def _forward_source(self, forward) -> list[str]:
        """forward(ops): the output and the accumulators before each step but the first."""
        n = len(forward) + 1
        lines = _unpack([f"x{i}" for i in range(n)], "ops")
        for i, step in enumerate(forward, 1):
            lines.append(f"a{i} = {_render_product(step, _acc(i - 1), f'x{i}')}")
        out = _acc(n - 1)
        if self._out_perm is not None:
            out = f"{out}.transpose({self._out_perm})"
        kept = "".join(f"a{i}, " for i in range(1, n - 1))
        return ["def forward(ops):"] + [f"    {ln}" for ln in lines + [f"return {out}, ({kept})"]]

    def _render_reverse(self, sized: _Sized, slots: tuple[int, ...]):
        """reverse(ops, accs, g), checked against the plan: the gradients of
        ``slots`` as a sealed FlatViews, reading the accumulators ``accs`` that
        the forward pass on ``ops`` returned.  Kept in ``sized.run_reverse``."""
        try:
            shapes = tuple([sized.shapes[s] for s in slots])
        except IndexError:
            raise ShapeMismatch(f"slots {slots} are not ascending operand indices") from None
        n = len(sized.shapes)
        body = []
        pending = list(slots)  # the reverse pass meets the last slot first
        for i, (op_grad, perm, acc_grad) in zip(range(n - 1, 0, -1), sized.reverse):
            step = []
            if pending and pending[-1] == i:
                step += _render_transposed_into(op_grad, perm, _acc(i - 1), "g", f"d{pending.pop()}")
            if pending and i == 1 and pending[-1] == 0:  # this product is operand 0's gradient
                step += _render_transposed_into(acc_grad, self._first_perm, "g", "x1", f"d{pending.pop()}")
            elif pending:
                step.append(f"g = {_render_product(acc_grad, 'g', f'x{i}')}")
            body += _lowered_once(step, _lowered("g", acc_grad[0], acc_grad[2]))
            if not pending:
                break
        if n == 1 and pending and pending[-1] == 0:
            body.append(f"d{pending.pop()}[...] = {_lowered('g', self._first_perm, None)}")
        if pending:
            raise ShapeMismatch(f"slots {slots} are not ascending operand indices")
        like, (size,), _ = _layout(shapes)
        grads = [f"d{s}" for s in slots]
        lines = _unpack([f"x{i}" for i in range(n)], "ops")
        lines += _unpack([f"a{i}" for i in range(1, n - 1)], "accs")
        lines += [f"flat = empty({size})"] + _unpack(grads, _view_source(shapes)) + body
        lines += _sealing(size, repr(self._grad_context + " produced a non-finite value"))
        lines += [f"{d}.setflags(False)" for d in grads] + _carrier(" ".join(f"{d}," for d in grads), shapes)
        source = ["def reverse(ops, accs, g):"] + [f"    {ln}" for ln in lines]
        run = _compiled(source, self._filename(sized.shapes, slots), "reverse", {"like": like})
        sized.run_reverse[slots] = run
        return run

    def forward(self, inputs: list[np.ndarray]):
        """Unchecked contraction (maybe a view), and ``kept``, what its reverse
        pass reads: (operands, accumulators, sized steps), to hand to ``gradients``."""
        shapes = inputs.shapes if type(inputs) is FlatViews else tuple(map(_shape, inputs))
        sized = self._sizes.get(shapes) or self._sized(inputs)
        out, accs = sized.run_forward(inputs)
        return out, (inputs, accs, sized)

    def gradients(self, kept, grad_out: np.ndarray, slots: tuple[int, ...]) -> "FlatViews":
        """Gradients of <contraction, grad_out> with respect to operand s for
        each s in ``slots`` (ascending), in one reverse pass, as FlatViews of
        one fresh float64 array, sealed: the rendered pass writes each
        gradient's last product straight into its slice, then checks, freezes
        and wraps the array itself.  ``kept`` is what ``forward`` returned
        with its output; it is all the pass reads of the operands.  ``grad_out``
        is taken as float64."""
        ops, accs, sized = kept
        if type(grad_out) is not np.ndarray or grad_out.dtype is not _FLOAT64:
            grad_out = np.asarray(grad_out, dtype=np.float64)
        if grad_out.shape != sized.out_shape:
            raise ShapeMismatch(
                f"output gradient {grad_out.shape}, plan gives {sized.out_shape}"
            )
        run = sized.run_reverse.get(slots) or self._render_reverse(sized, slots)
        return run(ops, accs, grad_out)


@functools.cache
def compile_plan(plan: ContractionPlan) -> CompiledPlan:
    """The compiled form of ``plan``, built once per distinct plan."""
    return CompiledPlan(plan)


def contract(plan: ContractionPlan, inputs: list[np.ndarray]) -> np.ndarray:
    """Evaluate the plan by pairwise reductions in left-to-right order.

    See CompiledPlan for the evaluation order.  Operands enter as float64 (a
    float64 array is not copied), so the result is float64.  It is checked
    for finiteness once; an overflow inside raises NumericalError here.  A
    result that is an input itself (a plan that only passes an operand
    through) is copied first, so the caller's array stays writable.
    """
    compiled = compile_plan(plan)
    inputs = [np.asarray(x, dtype=np.float64) for x in inputs]
    out = quietly(compiled.forward, inputs)[0]
    if any(out is x for x in inputs):
        out = out.copy()
    return seal(out, compiled.context)


def _shape_names(shapes) -> str:
    """``5x3,3x2,()``: the shapes as a filename shows them."""
    return ",".join("x".join(map(str, s)) or "()" for s in shapes)


def _view_source(shapes) -> str:
    """Source of the arrays of ``shapes`` end to end in the 1-D array
    ``flat``, as views: ``flat[a:b].reshape(shape),`` per array."""
    ends = tuple(itertools.accumulate(map(math.prod, shapes), initial=0))
    return " ".join(f"flat[{a}:{b}].reshape({s})," for a, b, s in zip(ends, ends[1:], shapes))


def _sealing(size: int, message: str) -> list[str]:
    """Statements that raise NumericalError(``message``, the source of a string)
    unless the ``size`` entries of ``flat`` are finite, then freeze ``flat``."""
    # the check seal makes, for a fresh 1-D array, which needs no contiguous copy
    return [f"if count_nonzero(isfinite(flat)) != {size}:", f"    raise NumericalError({message})",
            "flat.setflags(False)"]


def _carrier(views: str, shapes) -> list[str]:
    """Statements returning the FlatViews of ``views`` (the source of a tuple's
    items) over ``flat``, whose layout's constructor is ``like``."""
    return [f"views = new(FlatViews, ({views}))", "attrs = views.__dict__", "attrs['flat'] = flat",
            f"attrs['shapes'] = {shapes!r}", "attrs['like'] = like", "return views"]


@functools.lru_cache(maxsize=CompiledPlan._MAX_SHAPE_SETS)
def _layout(shapes: tuple[Shape, ...]):
    """``like(flat, context=None)``, the one constructor of carriers of
    ``shapes``; the flat array's shape; and each array's entry count (a
    read-only array).  ``like`` seals ``flat`` first when given a context,
    then builds the views and the carrier in the same frame.  Rendered once per
    shapes; linecache never holds the code, so it leaves with its cache entry."""
    shapes = tuple([tuple(map(int, s)) for s in shapes])
    counts = [math.prod(s) for s in shapes]
    sizes = np.array(counts, dtype=np.intp)
    sizes.setflags(write=False)
    size = sum(counts)
    lines = ["def like(flat, context=None):", "    if context is not None:"]
    lines += [f"        {ln}" for ln in _sealing(size, "f'{context} produced a non-finite value'")]
    lines += [f"    {ln}" for ln in _carrier(_view_source(shapes), shapes)]
    like = _compiled(lines, f"<carrier {_shape_names(shapes)}>", "like", {}, cached=False)
    return like, (size,), sizes


def sizes_of(shapes) -> np.ndarray:
    """The entry count of each array of ``shapes``, from their cached layout."""
    return _layout(tuple(shapes))[2]


class FlatViews(tuple):
    """Arrays of ``shapes`` end to end in the 1-D array ``flat``, as an immutable tuple of views.

    The views are read-only exactly when ``flat`` is: coreflow seals ``flat``
    before it makes the views, or freezes the views when it seals ``flat``.
    ``like(flat, context=None)`` is the constructor of carriers of this layout
    (``_layout``'s), which every carrier comes from: a step hands it a fresh
    1-D result and a context to seal it with.
    """

    def __new__(cls, flat: np.ndarray, shapes):
        if type(shapes) is not tuple:
            shapes = tuple(shapes)
        like, flat_shape, _ = _layout(shapes)
        if flat.shape != flat_shape:
            raise ShapeMismatch(f"flat array of shape {flat.shape} for {flat_shape[0]} entries")
        return like(flat)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return FlatViews, (self.flat, self.shapes)


# The globals of all rendered code.  Every carrier is made by its
# ``new(FlatViews, views)``: in a reverse pass or in its layout's ``like``.
_RENDERED = {"np": np, "empty": np.empty, "isfinite": np.isfinite, "count_nonzero": _count_nonzero,
             "NumericalError": NumericalError, "FlatViews": FlatViews, "new": tuple.__new__}


def shapes_of(arrays) -> tuple[Shape, ...]:
    """The shapes of ``arrays``: a FlatViews' own, else read from each array."""
    return arrays.shapes if isinstance(arrays, FlatViews) else tuple(map(_shape, arrays))


def carried(arrays):
    """``arrays`` end to end, and the constructor of carriers of their layout:
    a FlatViews' own, else a copy."""
    if isinstance(arrays, FlatViews):
        return arrays.flat, arrays.like
    return np.concatenate([a.ravel() for a in arrays]), _layout(tuple([a.shape for a in arrays]))[0]


def contract_grads(
    plan: ContractionPlan, inputs: list[np.ndarray], grad_out: np.ndarray, slots: tuple[int, ...]
) -> FlatViews:
    """Gradients of <contract(plan, inputs), grad_out> with respect to the
    operands at ``slots`` (ascending), as FlatViews of one sealed float64
    array holding them end to end, checked for finiteness once.  A standalone
    pass: its own forward, then the reverse pass, inside one error scope.
    Operands enter as float64, as in ``contract``."""
    compiled = compile_plan(plan)
    inputs = [np.asarray(x, dtype=np.float64) for x in inputs]
    return quietly(lambda: compiled.gradients(compiled.forward(inputs)[1], grad_out, slots))


def frobenius_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Entrywise inner product over all indices."""
    require_same_shape(a, b, "inner-product operands")
    value = float(a.ravel().dot(b.ravel()))
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
