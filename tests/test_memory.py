"""Peak-memory bounds for data generation and local SGD.

numpy reports its buffers to ``tracemalloc``, so the traced peak above the
starting point measures every array a call allocates, however short-lived.
"""

import tracemalloc

import numpy as np

from ddfl.data import generate_synthetic
from ddfl.params import init_model
from ddfl.training import TrainConfig, local_train


def traced_peak_growth(fn):
    """``fn()``'s result and the peak traced bytes above the starting level."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - start


def test_generate_synthetic_peak_below_1_6_float32_copies():
    # The rows are permuted in place and finiteness is checked without a
    # mask, so beyond the float32 matrix only the float64 class blocks (two
    # at k = 10 while the next one is drawn, 0.4 copies) are alive.
    data, peak = traced_peak_growth(lambda: generate_synthetic(5000, 784, 10, seed=3))
    assert data.features.dtype == np.float32
    assert peak < 1.6 * data.features.nbytes


def test_local_train_holds_no_float64_copy_of_the_shard():
    data = generate_synthetic(2500, 784, 10, seed=4)
    params = init_model([(784, 10)], seed=4)
    cfg = TrainConfig(learning_rate=0.05, epochs=1, batch_size=32, seed=5)
    _, peak = traced_peak_growth(lambda: local_train(params, data, cfg))
    float64_shard_bytes = data.features.size * np.dtype(np.float64).itemsize
    assert peak < float64_shard_bytes / 4
