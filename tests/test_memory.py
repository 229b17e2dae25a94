"""Peak-memory bounds for data generation, the split, local SGD, the stores and a round.

numpy reports its buffers to ``tracemalloc``, so the traced peak above the
starting point measures every array a call allocates, however short-lived.
"""

import tracemalloc

import numpy as np

from ddfl.backends import BackendConfig, BackendKind, open_backend
from ddfl.crypto import decrypt, encrypt, generate_key
from ddfl.data import generate_synthetic, partition
from ddfl.orchestrator import (
    ExperimentConfig,
    IdxSpec,
    SyntheticSpec,
    aggregate,
    build_datasets,
    put_model,
    run_experiment,
    run_round,
)
from ddfl.params import init_model, serialize_params
from ddfl.store import StoreKey, global_key
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


def memory_run_peak_growth(rounds):
    """The token length and traced peak growth of a memory-kind ``run_experiment``."""
    n_clients = 4
    cfg = ExperimentConfig(
        n_clients=n_clients,
        rounds=rounds,
        train=TrainConfig(learning_rate=0.1, epochs=1, batch_size=8, seed=0),
        backend=BackendConfig(kind=BackendKind.MEMORY),
        group_key=generate_key(rng_seed=0),
        # 1871 x 10 parameters: a token of about 100 KB.
        dataset=SyntheticSpec(n=64, d=1870, k=10, test_n=32),
        seed=0,
    )
    outcomes, peak = traced_peak_growth(lambda: run_experiment(cfg))
    # Every token of a run has one length: N client tokens and a global a round.
    token_bytes = outcomes[-1].bytes_written // (n_clients + 1)
    return token_bytes, peak


def test_memory_store_holds_one_round_of_client_records():
    # A round's global retires its client records, so six more rounds keep
    # only six more globals alive, not six rounds of client tokens as well.
    token_bytes, peak_2 = memory_run_peak_growth(2)
    assert 90_000 < token_bytes < 110_000
    _, peak_8 = memory_run_peak_growth(8)
    assert peak_8 - peak_2 < 7 * token_bytes, (peak_8 - peak_2) / token_bytes


# The model-bound benchmark's layer: a 1.64 MB model in a 2.18 MB token.
MODEL_SHAPE = (8192, 50)
MODEL_BYTES = (8192 * 50 + 50) * np.dtype(np.float32).itemsize


def test_decrypt_peak_below_3_plaintexts():
    # The body is decoded a block at a time into one buffer, which is then
    # decrypted in place; the plaintext returned is the one other copy.
    key = generate_key(rng_seed=0)
    plaintext = serialize_params(init_model([MODEL_SHAPE], seed=0))
    token = encrypt(key, plaintext)
    result, peak = traced_peak_growth(lambda: decrypt(key, token))
    assert result == plaintext
    assert peak < 3 * len(plaintext), peak / len(plaintext)


def test_aggregate_of_8_models_peak_below_4_models():
    # The canonical order compares values a block at a time, with no
    # tobytes() keys, and the float64 sum runs over blocks of parameters.
    models = [init_model([MODEL_SHAPE], seed=s) for s in range(8)]
    mean, peak = traced_peak_growth(lambda: aggregate(models, [float(s + 1) for s in range(8)]))
    assert mean.values.nbytes == MODEL_BYTES
    assert peak < 4 * MODEL_BYTES, peak / MODEL_BYTES


def test_run_round_peak_below_its_tokens_plus_3_models(tmp_path):
    # A disk store hands the master each client token as fresh bytes. Each
    # is dropped once decrypted, and a model is smaller than its token, so
    # the round holds at most the N tokens and about two more models: the
    # previous global is measured, not kept.
    n_clients = 8
    cfg = ExperimentConfig(
        n_clients=n_clients,
        rounds=1,
        train=TrainConfig(learning_rate=0.1, epochs=1, batch_size=8, seed=0),
        backend=BackendConfig(kind=BackendKind.FILESYSTEM, root_path=tmp_path),
        group_key=generate_key(rng_seed=0),
        dataset=SyntheticSpec(n=64, d=MODEL_SHAPE[0], k=MODEL_SHAPE[1], test_n=64),
        seed=0,
    )
    test_set = generate_synthetic(64, *MODEL_SHAPE, seed=1)
    with open_backend(cfg.backend) as store:
        token_bytes = put_model(store, cfg.group_key, global_key(0), init_model([MODEL_SHAPE], 0))
        for client in range(n_clients):
            model = init_model([MODEL_SHAPE], seed=client + 1)
            put_model(store, cfg.group_key, StoreKey(client, 1), model)
        outcome, peak = traced_peak_growth(
            lambda: run_round(1, store, cfg, test_set, [10] * n_clients)
        )
    assert outcome.bytes_written == (n_clients + 1) * token_bytes
    assert peak < n_clients * token_bytes + 3 * MODEL_BYTES, peak / MODEL_BYTES
