"""Bitwise equivalence of data generation and local SGD with float64 oracles.

The oracles below are the earlier implementations of ``generate_synthetic``
and ``local_train``, which converted the whole feature matrix to float64.
The library now keeps features float32 and converts only each mini-batch;
since float32 -> float64 is exact and the same float64 operands reach the
same arithmetic, every output bit must match.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ddfl.data import Dataset, generate_synthetic
from ddfl.errors import NumericError
from ddfl.params import ParameterVector, init_model
from ddfl.training import TrainConfig, local_train


# --- oracles: the float64 implementations, kept verbatim ---------------------

def _oracle_near_equal_counts(n, k):
    return [n // k + (1 if i < n % k else 0) for i in range(k)]


def oracle_generate_synthetic(n, d, k, seed):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, size=(k, d))
    counts = _oracle_near_equal_counts(n, k)
    features = np.empty((n, d), dtype=np.float64)
    labels = np.empty(n, dtype=np.int64)
    offset = 0
    for cls, count in enumerate(counts):
        features[offset : offset + count] = centers[cls] + rng.normal(
            0.0, 1.6, size=(count, d)
        )
        labels[offset : offset + count] = cls
        offset += count
    order = rng.permutation(n)
    return Dataset(features[order].astype(np.float32), labels[order], k)


def _oracle_softmax_rows(scores):
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _oracle_mean_cross_entropy(probs, labels):
    with np.errstate(divide="ignore"):
        return float(-np.log(probs[np.arange(len(labels)), labels]).mean())


def oracle_local_train(params, data, cfg):
    n = len(data)
    if cfg.epochs == 0:
        return ParameterVector(params.values, params.shapes)

    rng = np.random.default_rng(cfg.seed)
    w0, b0 = params.layer(0)
    w = w0.astype(np.float32).copy()
    b = b0.astype(np.float32).copy()
    x64 = data.features.astype(np.float64)
    labels = data.labels
    lr = float(cfg.learning_rate)

    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for batch_index, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            xb = x64[idx]
            yb = labels[idx]
            m = len(idx)
            scores = xb @ w.astype(np.float64) + b.astype(np.float64)
            probs = _oracle_softmax_rows(scores)
            loss = _oracle_mean_cross_entropy(probs, yb)
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {batch_index}"
                )
            probs[np.arange(m), yb] -= 1.0
            probs /= m
            grad_w = xb.T @ probs
            grad_b = probs.sum(axis=0)
            w = (w.astype(np.float64) - lr * grad_w).astype(np.float32)
            b = (b.astype(np.float64) - lr * grad_b).astype(np.float32)
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise NumericError(f"non-finite parameters after epoch {epoch}")

    return ParameterVector(np.concatenate([w.reshape(-1), b]), params.shapes)


# --- helpers -----------------------------------------------------------------

def _outcome(train, params, data, cfg):
    """Parameter bits, or the NumericError message, of one training run."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return ("ok", train(params, data, cfg).values.view(np.uint32).tobytes())
    except NumericError as exc:
        return ("NumericError", str(exc))


@st.composite
def training_cases(draw):
    k = draw(st.integers(2, 5))
    d = draw(st.integers(1, 12))
    n = draw(st.integers(max(k, 3), 70))
    kind = draw(st.sampled_from(["one", "all", "ragged"]))
    if kind == "one":
        batch_size = 1
    elif kind == "all":
        batch_size = n
    else:
        batch_size = draw(st.integers(2, n - 1))
        if n % batch_size == 0:
            batch_size = n - 1  # n % (n - 1) == 1 for n >= 3
    cfg = TrainConfig(
        learning_rate=draw(st.sampled_from([1e-3, 0.05, 0.5, 4.0])),
        epochs=draw(st.integers(1, 3)),
        batch_size=batch_size,
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    data_seed = draw(st.integers(0, 2**32 - 1))
    return generate_synthetic(n, d, k, data_seed), init_model([(d, k)], data_seed), cfg


# --- properties --------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(
    n_per_class=st.integers(1, 40),
    extra=st.integers(0, 9),
    d=st.integers(1, 40),
    k=st.integers(2, 10),
    seed=st.integers(0, 2**64 - 1),
)
def test_generate_synthetic_matches_float64_oracle(n_per_class, extra, d, k, seed):
    n = n_per_class * k + extra % k
    got = generate_synthetic(n, d, k, seed)
    want = oracle_generate_synthetic(n, d, k, seed)
    assert got.features.dtype == np.float32
    assert got.features.view(np.uint32).tobytes() == want.features.view(np.uint32).tobytes()
    assert np.array_equal(got.labels, want.labels)
    assert got.num_classes == want.num_classes


@settings(max_examples=150, deadline=None)
@given(case=training_cases())
def test_local_train_matches_float64_oracle(case):
    data, params, cfg = case
    got = local_train(params, data, cfg)
    want = oracle_local_train(params, data, cfg)
    assert got.shapes == want.shapes
    assert got.values.view(np.uint32).tobytes() == want.values.view(np.uint32).tobytes()


@settings(max_examples=60, deadline=None)
@given(case=training_cases(), learning_rate=st.sampled_from([1e4, 1e12, 1e30, 1e38]))
def test_local_train_divergence_matches_float64_oracle(case, learning_rate):
    data, params, cfg = case
    cfg = TrainConfig(learning_rate, cfg.epochs, cfg.batch_size, cfg.seed)
    assert _outcome(local_train, params, data, cfg) == _outcome(
        oracle_local_train, params, data, cfg
    )


def test_diverging_run_raises_the_oracle_message():
    x = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=np.float32)
    data = Dataset(x, np.array([0, 1]), 2)
    params = ParameterVector(np.zeros(6, dtype=np.float32), ((2, 2),))
    cfg = TrainConfig(learning_rate=1e30, epochs=2, batch_size=1, seed=0)
    got = _outcome(local_train, params, data, cfg)
    assert got[0] == "NumericError"
    assert got == _outcome(oracle_local_train, params, data, cfg)
