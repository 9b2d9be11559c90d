"""Scalar losses over the reconstructed tensor, and evaluation metrics.  A
noisy target redrawn every step draws many steps' noise in one call."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateVariance, NumericalError
from .tensor import quietly, require_same_shape, seal


def _squared_error(resid: np.ndarray, normalizer: int, context: str):
    """The loss sum(resid**2)/normalizer and its gradient, made in place.  Only a
    finite loss returns: it proves each residual finite (0*Inf = NaN) and < 1.4e154."""
    loss = float((resid * resid).sum()) / normalizer
    if not math.isfinite(loss):
        raise NumericalError(f"{context} produced a non-finite loss {loss!r}")
    resid *= 2.0 / normalizer
    return loss, resid


@dataclass
class MaskedMse:
    """Mean squared error over observed entries (mask entry 1 = observed)."""

    target: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        require_same_shape(self.target, self.mask, "target and mask")
        values = np.unique(self.mask)
        if not np.isin(values, (0.0, 1.0)).all():
            raise ValueError("mask entries must be 0 or 1")
        self.normalizer = int(self.mask.sum())
        if self.normalizer < 1:
            raise ValueError("mask selects no entries")

    def begin_step(self, t: int) -> None:
        pass

    def loss_and_grad(self, t_hat: np.ndarray) -> tuple[float, np.ndarray]:
        require_same_shape(t_hat, self.target, "prediction and target")
        resid = t_hat - self.target
        resid *= self.mask
        return _squared_error(resid, self.normalizer, "masked mse")


@dataclass
class NoisyTargetMse:
    """Squared error against a noisy target: ||T - (T* + alpha*N)||_F^2.

    N has unit-variance Gaussian entries.  With resample_each_step the draw is
    refreshed once per optimizer step (begin_step), so the two gradient passes
    of a perturbation-based step see the same noise; otherwise the draw made at
    construction is frozen.  Redrawn noise is drawn _BLOCK_BYTES at a time (at
    least a step's), in one call that gives the bits of a call per step, sealed
    and scaled by alpha once; ``noise`` is a read-only row of the block.
    """

    clean_target: np.ndarray
    alpha: float
    seed: int = 0
    resample_each_step: bool = False
    noise: np.ndarray = field(init=False)
    _BLOCK_BYTES = 1 << 17  # a constant, not a field

    def __post_init__(self):
        self._rng = np.random.Generator(np.random.PCG64(self.seed))
        rows = self._BLOCK_BYTES // max(self.clean_target.nbytes, 1)
        self._shape = (max(rows, 1) if self.resample_each_step else 1, *self.clean_target.shape)
        self._rows = iter(())
        self._draw()

    def _draw(self) -> None:
        """The next row of the block, and of alpha times it; a new block when used up."""
        row = next(self._rows, None)
        if row is None:
            block = seal(self._rng.standard_normal(self._shape), "noise draw")
            self._rows = zip(block, quietly(np.multiply, self.alpha, block))
            row = next(self._rows)
        self.noise, self._scaled_noise = row

    def begin_step(self, t: int) -> None:
        if self.resample_each_step:
            self._draw()

    def loss_and_grad(self, t_hat: np.ndarray) -> tuple[float, np.ndarray]:
        require_same_shape(t_hat, self.clean_target, "prediction and target")
        resid = t_hat - self.clean_target
        resid -= self._scaled_noise
        return _squared_error(resid, 1, "noisy mse")


def r2_score(pred: np.ndarray, truth: np.ndarray, mask: np.ndarray) -> float:
    """1 - SSE/SST over the masked entries; SST uses the masked mean of truth."""
    require_same_shape(pred, truth, "pred and truth")
    require_same_shape(truth, mask, "truth and mask")
    selected = mask != 0
    n = int(np.count_nonzero(selected))
    if n < 2:
        raise DegenerateVariance("mask must select at least 2 entries")
    y = truth[selected]
    y_hat = pred[selected]
    sse = float(np.sum((y - y_hat) ** 2))
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        raise DegenerateVariance("masked target variance is zero")
    return 1.0 - sse / sst
