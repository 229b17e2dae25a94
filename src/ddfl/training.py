"""Multinomial logistic regression: mini-batch SGD training and evaluation.

Parameters and features stay float32; all loss and gradient sums
accumulate in float64, and each SGD step rounds back to float32. One
float64 kernel, ``_softmax_cross_entropy``, forms the loss and its
gradient: ``local_train`` calls it on each mini-batch and
``loss_and_gradient`` on a whole dataset, so SGD steps along exactly the
gradient that the finite-difference checks verify. Local SGD gathers each
mini-batch's float32 rows and only then converts them to float64, which is
exact, so no float64 copy of a whole shard is made. ``evaluate`` likewise
converts the test set in blocks of ``EVAL_BLOCK_ROWS`` rows. With a fixed
seed the batch order, and therefore every parameter bit, is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import NumericError, ValidationError
from .params import ParameterVector

# Rows of the test set that ``evaluate`` converts to float64 at a time. The
# remainder joins the last block, so no block is shorter than this unless
# the whole set is: a product of few rows can take another BLAS kernel
# (OpenBLAS has a small-matrix path) and round differently from the same
# rows inside the whole-set product.
EVAL_BLOCK_ROWS = 512


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    batch_size: int
    seed: int

    def __post_init__(self):
        if not (self.learning_rate > 0 and np.isfinite(self.learning_rate)):
            raise ValidationError(f"learning_rate must be positive, got {self.learning_rate}")
        # epochs == 0 is allowed: it makes training the identity, which the
        # round protocol relies on for fixed-point checks.
        if self.epochs < 0:
            raise ValidationError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (0 <= self.seed < 2**64):
            raise ValidationError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class EvalResult:
    accuracy: float
    mean_loss: float
    sample_count: int


def _check_shapes(params: ParameterVector, data: Dataset) -> None:
    if len(params.shapes) != 1:
        raise ValidationError(
            f"expected a single dense layer, got {len(params.shapes)} layers"
        )
    d, k = params.shapes[0]
    if d != data.dim or k != data.num_classes:
        raise ValidationError(
            f"model is {d}x{k} but data has {data.dim} features / {data.num_classes} classes"
        )
    if len(data) == 0:
        raise ValidationError("dataset is empty")


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax, computed in place: ``scores`` is overwritten and returned."""
    scores -= scores.max(axis=1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=1, keepdims=True)
    return scores


def _row_cross_entropy(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-row cross-entropy ``-log p[label]`` of softmax rows ``probs``."""
    # log(0) -> inf is the divergence signal callers test for; keep it quiet.
    with np.errstate(divide="ignore"):
        return -np.log(probs[np.arange(len(labels)), labels])


def _softmax_cross_entropy(
    x: np.ndarray, y: np.ndarray, w: np.ndarray, b: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean softmax cross-entropy of rows ``x`` with labels ``y``, and its gradient.

    All operands are float64; returns ``(loss, grad_w, grad_b)``. A
    non-finite loss is returned, not raised, so callers can report where
    it occurred.
    """
    m = len(y)
    scores = x @ w
    scores += b
    probs = _softmax_rows(scores)
    loss = float(_row_cross_entropy(probs, y).mean())
    probs[np.arange(m), y] -= 1.0
    probs /= m
    return loss, x.T @ probs, probs.sum(axis=0)


def loss_and_gradient(params: ParameterVector, data: Dataset) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its analytic gradient, both in float64.

    The returned gradient is flat and uses the same layout as
    ``params.values`` (row-major weights, then biases).
    """
    _check_shapes(params, data)
    w, b = params.layer(0)
    loss, grad_w, grad_b = _softmax_cross_entropy(
        data.features.astype(np.float64), data.labels, w.astype(np.float64), b.astype(np.float64)
    )
    return loss, np.concatenate([grad_w.reshape(-1), grad_b])


def local_train(params: ParameterVector, data: Dataset, cfg: TrainConfig) -> ParameterVector:
    """Run seeded mini-batch SGD and return the updated parameters.

    The input vector is never modified. ``epochs == 0`` returns a bitwise
    copy of the input: no step overwrites the scratch copies it starts from.
    """
    _check_shapes(params, data)
    n = len(data)
    if cfg.batch_size > n:
        raise ValidationError(f"batch_size {cfg.batch_size} exceeds dataset size {n}")
    rng = np.random.default_rng(cfg.seed)
    # float64 arrays that always hold float32-rounded values: the float32
    # parameter bits, converted once per step instead of once per use.
    w0, b0 = params.layer(0)
    w = w0.astype(np.float64)
    b = b0.astype(np.float64)
    # Each step rounds through these float32 scratch arrays, which hold the
    # result once training ends.
    w32 = w0.copy()
    b32 = b0.copy()
    lr = float(cfg.learning_rate)

    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for batch_index, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            loss, grad_w, grad_b = _softmax_cross_entropy(
                data.features[idx].astype(np.float64), data.labels[idx], w, b
            )
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {batch_index}"
                )
            grad_w *= lr
            grad_b *= lr
            w -= grad_w
            b -= grad_b
            np.copyto(w32, w, casting="same_kind")
            np.copyto(b32, b, casting="same_kind")
            np.copyto(w, w32)
            np.copyto(b, b32)
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise NumericError(f"non-finite parameters after epoch {epoch}")

    return ParameterVector(np.concatenate([w32.reshape(-1), b32]), params.shapes)


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of consecutive row blocks covering ``range(n)``.

    Every block has ``EVAL_BLOCK_ROWS`` rows except the last, which also
    takes the remainder.
    """
    stops = list(range(EVAL_BLOCK_ROWS, n - EVAL_BLOCK_ROWS + 1, EVAL_BLOCK_ROWS)) + [n]
    return list(zip([0] + stops[:-1], stops))


def evaluate(params: ParameterVector, data: Dataset) -> EvalResult:
    """Accuracy (argmax, ties to the lowest class index) and mean cross-entropy.

    Rows are converted to float64 one block at a time. The per-row losses
    are gathered in one vector whose mean is taken once, so the result is
    the same as that of the whole-set computation.
    """
    _check_shapes(params, data)
    w0, b0 = params.layer(0)
    w = w0.astype(np.float64)
    b = b0.astype(np.float64)
    n = len(data)
    losses = np.empty(n)
    correct = 0
    for start, stop in _row_blocks(n):
        y = data.labels[start:stop]
        scores = data.features[start:stop].astype(np.float64) @ w
        scores += b
        correct += int((scores.argmax(axis=1) == y).sum())
        losses[start:stop] = _row_cross_entropy(_softmax_rows(scores), y)
    return EvalResult(accuracy=correct / n, mean_loss=float(losses.mean()), sample_count=n)
