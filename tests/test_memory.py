"""Peak-memory bounds for data generation, the split and local SGD.

numpy reports its buffers to ``tracemalloc``, so the traced peak above the
starting point measures every array a call allocates, however short-lived.
"""

import tracemalloc

import numpy as np

from ddfl.backends import BackendConfig, BackendKind
from ddfl.crypto import generate_key
from ddfl.data import generate_synthetic, partition
from ddfl.orchestrator import ExperimentConfig, IdxSpec, SyntheticSpec, build_datasets
from ddfl.params import init_model
from ddfl.training import TrainConfig, local_train
from test_data import write_idx_pair


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


def test_generate_synthetic_peak_below_1_3_float32_copies():
    # The rows are permuted in place, finiteness is checked without a mask,
    # and class blocks are drawn a few hundred rows at a time, so beyond the
    # float32 matrix only one small float64 chunk is alive.
    data, peak = traced_peak_growth(lambda: generate_synthetic(5000, 784, 10, seed=3))
    assert data.features.dtype == np.float32
    assert peak < 1.3 * data.features.nbytes


def build_and_partition_peak(dataset):
    """The rows of ``build_datasets`` + ``partition`` and their traced peak growth."""
    cfg = ExperimentConfig(
        n_clients=8,
        rounds=1,
        train=TrainConfig(learning_rate=0.1, epochs=1, batch_size=32, seed=0),
        backend=BackendConfig(kind=BackendKind.MEMORY),
        group_key=generate_key(rng_seed=0),
        dataset=dataset,
        seed=3,
    )

    def build():
        train, test = build_datasets(cfg)
        return partition(train, cfg.n_clients), test

    (shards, test), peak = traced_peak_growth(build)
    return sum(len(s) for s in shards) + len(test), peak


def test_build_and_partition_peak_below_1_3_float32_copies():
    # Shards and test set are views of the one generated matrix: neither
    # the split nor the held-out rows are copied.
    rows, peak = build_and_partition_peak(SyntheticSpec(n=5000, d=784, k=10, test_n=1250))
    assert rows == 6250
    assert peak < 1.3 * 6250 * 784 * np.dtype(np.float32).itemsize


def test_idx_build_and_partition_peak_below_1_5_float32_copies(tmp_path):
    # The file's bytes (a quarter of a copy) are freed once scaled to
    # float32, and the layout permutes that one matrix in place.
    n, side = 6000, 28
    pixels = np.random.default_rng(7).integers(0, 256, size=n * side * side, dtype=np.uint8)
    classes = (np.arange(n) % 10).astype(np.uint8)
    images, labels = write_idx_pair(tmp_path, pixels, classes, side, side)
    rows, peak = build_and_partition_peak(IdxSpec(images, labels))
    assert rows == n
    assert peak < 1.5 * n * side * side * np.dtype(np.float32).itemsize


def test_local_train_holds_no_float64_copy_of_the_shard():
    data = generate_synthetic(2500, 784, 10, seed=4)
    params = init_model([(784, 10)], seed=4)
    cfg = TrainConfig(learning_rate=0.05, epochs=1, batch_size=32, seed=5)
    _, peak = traced_peak_growth(lambda: local_train(params, data, cfg))
    float64_shard_bytes = data.features.size * np.dtype(np.float64).itemsize
    assert peak < float64_shard_bytes / 4
