"""Multinomial logistic regression: mini-batch SGD training and evaluation.

The model is one dense layer, the one a ``ParameterVector`` holds.
Parameters and features stay float32; all loss and gradient sums
accumulate in float64, and each SGD step rounds back to float32. One
float64 kernel, ``_softmax_cross_entropy``, forms the loss and its
gradient: ``local_train`` calls it on each mini-batch and
``loss_and_gradient`` on a whole dataset, so SGD steps along exactly the
gradient that the finite-difference checks verify. Local SGD gathers each
mini-batch's float32 rows and only then converts them to float64, which is
exact, so no float64 copy of a whole shard is made. It updates ``W`` and
``b`` as views into one float64 copy of the flat parameter vector, writes
each gradient into one float64 buffer of the same layout, and each step
rounds that copy through one float32 copy, which is the result.
``evaluate`` computes only the accuracy, from one float32 product. With a
fixed seed the batch order, and therefore every parameter bit, is
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import NumericError, ValidationError
from .params import ParameterVector


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
            raise ValidationError(f"seed must fit in 64 unsigned bits, got {self.seed}")


@dataclass(frozen=True)
class EvalResult:
    accuracy: float


def _check_shapes(params: ParameterVector, data: Dataset) -> None:
    ((d, k),) = params.shapes
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


def _softmax_cross_entropy(
    x: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    grad_w: np.ndarray | None = None,
    grad_b: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean softmax cross-entropy of rows ``x`` with labels ``y``, and its gradient.

    All operands are float64; returns ``(loss, grad_w, grad_b)``, written
    into ``grad_w`` and ``grad_b`` when they are given. A non-finite loss
    is returned, not raised, so callers can report where it occurred.
    """
    m = len(y)
    scores = x @ w
    scores += b
    probs = _softmax_rows(scores)
    rows = np.arange(m)
    # log(0) -> inf is the divergence signal callers test for; keep it quiet.
    with np.errstate(divide="ignore"):
        loss = float(-np.log(probs[rows, y]).mean())
    probs[rows, y] -= 1.0
    probs /= m
    return loss, np.matmul(x.T, probs, out=grad_w), probs.sum(axis=0, out=grad_b)


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
    copy of the input: no step overwrites the float32 copy it starts from.
    """
    _check_shapes(params, data)
    n = len(data)
    if cfg.batch_size > n:
        raise ValidationError(f"batch_size {cfg.batch_size} exceeds dataset size {n}")
    rng = np.random.default_rng(cfg.seed)
    # Each step rounds ``values`` through ``values32``, the result, so the
    # float64 copy always holds the float32 parameter bits, converted once
    # per step instead of once per use. ``w`` and ``b`` are views into it,
    # and the gradient is written into views of one buffer of its layout.
    values32 = params.values.copy()
    values = values32.astype(np.float64)
    grad = np.empty_like(values)
    ((d, k),) = params.shapes
    w = values[: d * k].reshape(d, k)
    b = values[d * k :]
    grad_w = grad[: d * k].reshape(d, k)
    grad_b = grad[d * k :]
    lr = float(cfg.learning_rate)

    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for batch_index, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            loss, _, _ = _softmax_cross_entropy(
                data.features[idx].astype(np.float64), data.labels[idx], w, b, grad_w, grad_b
            )
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {batch_index}"
                )
            grad *= lr
            values -= grad
            np.copyto(values32, values, casting="same_kind")
            np.copyto(values, values32)
        if not np.all(np.isfinite(values)):
            raise NumericError(f"non-finite parameters after epoch {epoch}")

    return ParameterVector(values32, params.shapes)


def evaluate(params: ParameterVector, data: Dataset) -> EvalResult:
    """Accuracy of the argmax prediction; ties go to the lowest class index."""
    _check_shapes(params, data)
    w, b = params.layer(0)
    scores = data.features @ w
    scores += b
    correct = int((scores.argmax(axis=1) == data.labels).sum())
    return EvalResult(accuracy=correct / len(data))
