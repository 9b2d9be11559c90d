"""Computed flops and bytes of one optimizer step, from the contraction plans.

The engine evaluates every plan by pairwise ``tensordot`` steps in
left-to-right operand order.  This module replays that order on label
extents alone: no arrays are built.  A pairwise step with accumulator labels
A and next-operand labels B sums over the shared labels S and yields the
labels R = (A - B) + (B - A), so it costs

    flops = 2 * |R| * |S|          (one multiply and one add per term)
    bytes = 8 * (|A| + |B| + |R|)  (float64 operands read, result written)

where |X| is the product of the extents of X.  When the surviving labels are
out of output order, the final permutation adds a contiguous copy
(16 * |out| bytes).  The figures are computed, not measured: they ignore
caches and the copies ``tensordot`` makes internally.
"""

from __future__ import annotations

import math

from coreflow.model import hole_plan
from coreflow.optim import SamConfig


def _size(labels: str, extents: dict[str, int]) -> int:
    return math.prod(extents[ch] for ch in labels)


def plan_cost(operand_labels, output_labels: str, extents) -> tuple[int, int]:
    """(flops, bytes) of one contraction evaluated left to right."""
    flops, nbytes = 0, 0
    acc = operand_labels[0]
    for nxt in operand_labels[1:]:
        shared = "".join(ch for ch in acc if ch in nxt)
        result = "".join(ch for ch in acc if ch not in nxt) + "".join(
            ch for ch in nxt if ch not in shared
        )
        flops += 2 * _size(result, extents) * _size(shared, extents)
        nbytes += 8 * (_size(acc, extents) + _size(nxt, extents) + _size(result, extents))
        acc = result
    if acc != output_labels:
        nbytes += 16 * _size(output_labels, extents)
    return flops, nbytes


def _extents(spec) -> dict[str, int]:
    extents: dict[str, int] = {}
    shapes = iter(spec.core_shapes)
    for labels, const in zip(spec.plan.operand_labels, spec.constants):
        shape = next(shapes) if const is None else const.shape
        extents.update(zip(labels, shape))
    return extents


def gradient_pass_cost(spec) -> tuple[int, int]:
    """(flops, bytes) of one forward contraction plus all K hole contractions."""
    extents = _extents(spec)
    plans = [spec.plan] + [hole_plan(spec, m) for m in range(spec.num_cores)]
    costs = [plan_cost(p.operand_labels, p.output_labels, extents) for p in plans]
    return sum(f for f, _ in costs), sum(b for _, b in costs)


def step_cost(spec, cfg) -> tuple[int, int]:
    """(flops, bytes) of the contractions in one step: SAM takes two passes."""
    flops, nbytes = gradient_pass_cost(spec)
    passes = 2 if isinstance(cfg, SamConfig) else 1
    return passes * flops, passes * nbytes
