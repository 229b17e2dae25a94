import math
import tracemalloc

import numpy as np
import pytest

from ddfl.data import Dataset
from ddfl.errors import NumericError, ValidationError
from ddfl.params import ParameterVector, init_model
from ddfl.training import (
    EVAL_BLOCK_ROWS,
    EvalResult,
    TrainConfig,
    _row_blocks,
    evaluate,
    local_train,
    loss_and_gradient,
)


def blob_dataset(n=200, seed=0, std=0.5):
    """Two linearly separable Gaussian blobs at (+2,+2) and (-2,-2)."""
    rng = np.random.default_rng(seed)
    half = n // 2
    pos = rng.normal(2.0, std, size=(half, 2))
    neg = rng.normal(-2.0, std, size=(n - half, 2))
    x = np.vstack([pos, neg]).astype(np.float32)
    y = np.array([1] * half + [0] * (n - half))
    order = rng.permutation(n)
    return Dataset(x[order], y[order], 2)


def zero_model(d, k):
    return ParameterVector(np.zeros(d * k + k, dtype=np.float32), ((d, k),))


# --- independent oracles -----------------------------------------------------

def oracle_loss(w_flat, x, y, k):
    """Mean softmax cross-entropy, coded independently of the library."""
    d = x.shape[1]
    w = np.asarray(w_flat[: d * k], dtype=np.float64).reshape(d, k)
    b = np.asarray(w_flat[d * k :], dtype=np.float64)
    total = 0.0
    for i in range(x.shape[0]):
        scores = x[i].astype(np.float64) @ w + b
        scores -= scores.max()
        log_z = math.log(np.exp(scores).sum())
        total += log_z - scores[y[i]]
    return total / x.shape[0]


def oracle_sgd(x, y, k, lr, epochs, batch_size, seed):
    """Plain-loop SGD on softmax cross-entropy; structured unlike local_train."""
    n, d = x.shape
    w = np.zeros((d, k))
    b = np.zeros(k)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        for idx in np.array_split(rng.permutation(n), math.ceil(n / batch_size)):
            gw = np.zeros_like(w)
            gb = np.zeros_like(b)
            for i in idx:
                scores = x[i].astype(np.float64) @ w + b
                scores -= scores.max()
                p = np.exp(scores)
                p /= p.sum()
                p[y[i]] -= 1.0
                gw += np.outer(x[i], p)
                gb += p
            w -= lr * gw / len(idx)
            b -= lr * gb / len(idx)
    return w, b


def oracle_accuracy(w, b, x, y):
    return float(np.mean((x.astype(np.float64) @ w + b).argmax(axis=1) == y))


# --- gradient correctness ----------------------------------------------------

def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(123)
    h = 1e-3
    for _ in range(10):
        x = rng.normal(size=(5, 3)).astype(np.float32)
        y = rng.integers(0, 3, size=5)
        data = Dataset(x, y, 3)
        w_flat = rng.normal(scale=0.5, size=3 * 3 + 3).astype(np.float32)
        params = ParameterVector(w_flat, ((3, 3),))
        _, analytic = loss_and_gradient(params, data)
        w64 = params.values.astype(np.float64)
        numeric = np.empty_like(w64)
        for j in range(w64.size):
            up = w64.copy()
            up[j] += h
            down = w64.copy()
            down[j] -= h
            numeric[j] = (
                oracle_loss(up, x, y, 3) - oracle_loss(down, x, y, 3)
            ) / (2 * h)
        rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
        assert rel < 1e-4


def test_zero_model_loss_is_ln_k():
    for k in (2, 3, 10):
        rng = np.random.default_rng(k)
        data = Dataset(
            rng.normal(size=(40, 4)).astype(np.float32), rng.integers(0, k, 40), k
        )
        result = evaluate(zero_model(4, k), data)
        assert result.mean_loss == pytest.approx(math.log(k), abs=1e-6)


# --- training behavior -------------------------------------------------------

def test_blob_training_reaches_high_accuracy():
    data = blob_dataset()
    cfg = TrainConfig(learning_rate=0.1, epochs=20, batch_size=32, seed=7)
    before = evaluate(zero_model(2, 2), data)
    trained = local_train(zero_model(2, 2), data, cfg)
    after = evaluate(trained, data)

    # Independent check that the task is learnable this way at all.
    w, b = oracle_sgd(data.features, data.labels, 2, 0.1, 20, 32, seed=7)
    assert oracle_accuracy(w, b, data.features, data.labels) >= 0.95

    assert after.accuracy >= 0.95
    assert after.mean_loss < before.mean_loss

    # Generalization: held-out blobs from the same distribution.
    held_out = blob_dataset(n=200, seed=1234)
    assert evaluate(trained, held_out).accuracy >= 0.95


def test_epochs_zero_is_identity():
    data = blob_dataset(n=64, seed=3)
    model = init_model([(2, 2)], seed=5)
    out = local_train(model, data, TrainConfig(0.1, 0, 16, seed=0))
    assert out.values.tobytes() == model.values.tobytes()
    assert out is not model


def test_training_deterministic_and_input_unmodified():
    data = blob_dataset(n=100, seed=1)
    model = init_model([(2, 2)], seed=2)
    snapshot = model.values.tobytes()
    cfg = TrainConfig(learning_rate=0.05, epochs=3, batch_size=10, seed=9)
    a = local_train(model, data, cfg)
    b = local_train(model, data, cfg)
    assert a.values.tobytes() == b.values.tobytes()
    assert model.values.tobytes() == snapshot
    # A different batch-order seed must change the trajectory.
    c = local_train(model, data, TrainConfig(0.05, 3, 10, seed=10))
    assert c.values.tobytes() != a.values.tobytes()


def test_shape_mismatch_rejected():
    data = blob_dataset(n=20)
    with pytest.raises(ValidationError):
        local_train(init_model([(3, 2)], seed=0), data, TrainConfig(0.1, 1, 4, 0))
    with pytest.raises(ValidationError):
        evaluate(init_model([(2, 5)], seed=0), data)


def test_batch_size_larger_than_dataset_rejected():
    data = blob_dataset(n=10)
    with pytest.raises(ValidationError):
        local_train(zero_model(2, 2), data, TrainConfig(0.1, 1, 11, 0))


def test_divergence_reports_epoch_and_batch():
    # Identical inputs with conflicting labels: no separator exists, so a huge
    # step drives one sample's probability to zero and the loss to infinity.
    x = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=np.float32)
    data = Dataset(x, np.array([0, 1]), 2)
    cfg = TrainConfig(learning_rate=1e30, epochs=2, batch_size=1, seed=0)
    with pytest.raises(NumericError, match=r"epoch \d+, batch \d+"):
        local_train(zero_model(2, 2), data, cfg)
    # A finite loss whose step overflows float32: with one batch per epoch,
    # the check after the epoch is the one that sees the parameters blow up.
    x = np.array([[1e3, -1e3], [-1e3, 1e3]], dtype=np.float32)
    data = Dataset(x, np.array([0, 1]), 2)
    cfg = TrainConfig(learning_rate=1e37, epochs=1, batch_size=len(data), seed=0)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match=r"after epoch 0"):
        local_train(zero_model(2, 2), data, cfg)


def test_train_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(learning_rate=0.0, epochs=1, batch_size=1, seed=0)
    with pytest.raises(ValidationError):
        TrainConfig(learning_rate=0.1, epochs=-1, batch_size=1, seed=0)
    with pytest.raises(ValidationError):
        TrainConfig(learning_rate=0.1, epochs=1, batch_size=0, seed=0)


# --- evaluation --------------------------------------------------------------

def test_zero_model_predicts_class_zero():
    rng = np.random.default_rng(4)
    labels = np.array([0] * 30 + [1] * 40 + [2] * 30)
    data = Dataset(rng.normal(size=(100, 3)).astype(np.float32), labels, 3)
    result = evaluate(zero_model(3, 3), data)
    # All scores tie at zero, argmax picks class 0, which is 30% of labels.
    assert result.accuracy == 0.30
    assert result.sample_count == 100


def test_accuracy_is_exact_ratio():
    data = blob_dataset(n=64, seed=8)
    trained = local_train(zero_model(2, 2), data, TrainConfig(0.1, 5, 16, seed=1))
    result = evaluate(trained, data)
    scores = data.features.astype(np.float64) @ trained.layer(0)[0].astype(np.float64)
    correct = int(((scores + trained.layer(0)[1]).argmax(axis=1) == data.labels).sum())
    assert result.accuracy == correct / 64


def test_single_sample_dominant_params():
    x = np.array([[1.0, 0.0]], dtype=np.float32)
    data = Dataset(x, np.array([1]), 2)
    # Weight row steers class 1 strongly for this sample.
    values = np.array([-5.0, 5.0, 0.0, 0.0, 0.0, 0.0], dtype=np.float32)
    result = evaluate(ParameterVector(values, ((2, 2),)), data)
    assert result.accuracy == 1.0


def test_eval_result_fields():
    data = blob_dataset(n=32, seed=0)
    result = evaluate(zero_model(2, 2), data)
    assert isinstance(result, EvalResult)
    assert 0.0 <= result.accuracy <= 1.0
    assert result.mean_loss >= 0.0


def whole_set_evaluation(params, data):
    """Accuracy and mean loss from one float64 product over every row at once."""
    w, b = params.layer(0)
    scores = data.features.astype(np.float64) @ w.astype(np.float64) + b.astype(np.float64)
    n = len(data)
    correct = int((scores.argmax(axis=1) == data.labels).sum())
    scores -= scores.max(axis=1, keepdims=True)
    probs = np.exp(scores)
    probs /= probs.sum(axis=1, keepdims=True)
    mean_loss = float(-np.log(probs[np.arange(n), data.labels]).mean())
    return EvalResult(accuracy=correct / n, mean_loss=mean_loss, sample_count=n)


def test_blocked_evaluate_matches_whole_set_bits():
    # Three full blocks and a ragged remainder. Small integer features and
    # weights in eighths make every score exact under any summation order,
    # so the blocks, the per-row losses and their one mean are what is
    # compared, not how a BLAS orders its sums.
    n, d, k = 3 * EVAL_BLOCK_ROWS + 37, 6, 4
    rng = np.random.default_rng(11)
    x = rng.integers(-4, 5, size=(n, d)).astype(np.float32)
    y = rng.integers(0, k, n)
    # All-zero rows score only the bias, whose two top classes tie: the tie
    # goes to class 0, so those labelled 1 are wrong. One lands in each block.
    tied = [5, EVAL_BLOCK_ROWS + 6, 2 * EVAL_BLOCK_ROWS + 7, n - 1]
    x[tied] = 0.0
    y[tied] = [0, 1, 1, 0]
    values = np.concatenate([rng.integers(-16, 17, size=d * k) / 8.0, [0.5, 0.5, -0.25, 0.0]])
    params = ParameterVector(values.astype(np.float32), ((d, k),))
    data = Dataset(x, y, k)

    result = evaluate(params, data)
    expected = whole_set_evaluation(params, data)
    assert result.accuracy.hex() == expected.accuracy.hex()
    assert result.mean_loss.hex() == expected.mean_loss.hex()
    assert result.sample_count == n
    # Taking each block's mean and then the mean of those differs in the
    # last bits here, so the comparison above can tell the two apart.
    blocks = np.split(np.arange(n), [EVAL_BLOCK_ROWS, 2 * EVAL_BLOCK_ROWS, 3 * EVAL_BLOCK_ROWS])
    block_means = [whole_set_evaluation(params, Dataset(x[i], y[i], k)).mean_loss for i in blocks]
    assert float(np.average(block_means, weights=[len(i) for i in blocks])) != expected.mean_loss


@pytest.mark.parametrize(
    "n", [1, EVAL_BLOCK_ROWS - 1, EVAL_BLOCK_ROWS, EVAL_BLOCK_ROWS + 1, 2 * EVAL_BLOCK_ROWS - 1]
)
def test_row_blocks_cover_every_row_and_none_is_short(n):
    # A short block could take another BLAS kernel than the whole set would.
    blocks = _row_blocks(n)
    starts = [start for start, _ in blocks]
    stops = [stop for _, stop in blocks]
    assert starts == [0] + stops[:-1] and stops[-1] == n
    sizes = [stop - start for start, stop in blocks]
    assert all(size == EVAL_BLOCK_ROWS for size in sizes[:-1])
    assert min(n, EVAL_BLOCK_ROWS) <= sizes[-1] < 2 * EVAL_BLOCK_ROWS


def test_evaluate_peak_memory_stays_below_half_a_float64_copy():
    n, d, k = 5000, 784, 10
    rng = np.random.default_rng(12)
    data = Dataset(rng.standard_normal((n, d), dtype=np.float32), rng.integers(0, k, n), k)
    params = init_model([(d, k)], seed=0)
    tracemalloc.start()
    try:
        evaluate(params, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * d * 8 / 2, f"evaluate peaked at {peak / 1e6:.1f} MB"


# --- one gradient for checks and SGD -------------------------------------------

@pytest.mark.parametrize("n,d,k", [(1, 1, 2), (3, 2, 2), (17, 5, 3), (64, 12, 5), (150, 40, 10)])
@pytest.mark.parametrize("lr", [1e-3, 0.05, 4.0])
def test_sgd_step_follows_loss_and_gradient(n, d, k, lr):
    # One full-batch epoch is one step along the gradient that the
    # finite-difference test checks, taken over the epoch's shuffled rows.
    rng = np.random.default_rng([n, d, k])
    data = Dataset(rng.normal(size=(n, d)).astype(np.float32), rng.integers(0, k, n), k)
    params = ParameterVector(rng.normal(scale=0.5, size=d * k + k).astype(np.float32), ((d, k),))
    cfg = TrainConfig(learning_rate=lr, epochs=1, batch_size=n, seed=int(rng.integers(2**32)))
    order = np.random.default_rng(cfg.seed).permutation(n)
    _, g = loss_and_gradient(params, Dataset(data.features[order], data.labels[order], k))
    expected = (params.values.astype(np.float64) - lr * g).astype(np.float32)
    assert local_train(params, data, cfg).values.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "call",
    [
        evaluate,
        loss_and_gradient,
        lambda params, data: local_train(params, data, TrainConfig(0.1, 1, 1, seed=0)),
    ],
    ids=["evaluate", "loss_and_gradient", "local_train"],
)
def test_empty_dataset_rejected(call):
    empty = Dataset(np.zeros((0, 2), dtype=np.float32), np.zeros(0, dtype=np.int64), 2)
    with pytest.raises(ValidationError, match="empty"):
        call(zero_model(2, 2), empty)
