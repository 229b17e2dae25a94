import time

import numpy as np
import pytest

from ddfl.backends import BackendConfig, BackendKind, open_backend
from ddfl.crypto import decrypt, encrypt, generate_key
from ddfl.data import generate_synthetic
from ddfl.errors import (
    AuthenticationError,
    BarrierTimeoutError,
    NotFoundError,
    ValidationError,
)
from ddfl.orchestrator import (
    Aggregation,
    ExperimentConfig,
    RoundOutcome,
    SyntheticSpec,
    aggregate,
    build_datasets,
    client_seed,
    run_client_round,
    run_experiment,
    run_round,
)
from ddfl.params import (
    ParameterVector,
    deserialize_params,
    init_model,
    serialize_params,
)
from ddfl.store import ModelRecord, StoreKey, global_key, now_ms
from ddfl.training import TrainConfig


def _vec(values):
    # One layer (n-1, 1): n-1 weights + 1 bias = n values.
    values = np.asarray(values, dtype=np.float32)
    return ParameterVector(values, ((values.size - 1, 1),))


def memory_cfg(**kw):
    defaults = dict(
        n_clients=2,
        rounds=1,
        train=TrainConfig(learning_rate=0.1, epochs=1, batch_size=16, seed=0),
        backend=BackendConfig(kind=BackendKind.MEMORY),
        group_key=generate_key(rng_seed=0),
        dataset=SyntheticSpec(n=200, d=4, k=2, test_n=100),
        seed=0,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# --- aggregate ----------------------------------------------------------------

def test_aggregate_equal_weights():
    out = aggregate([_vec([1.0, 2.0]), _vec([3.0, 4.0])], [1.0, 1.0])
    assert out.values.tolist() == [2.0, 3.0]


def test_aggregate_weighted():
    out = aggregate([_vec([1.0, 2.0]), _vec([3.0, 4.0])], [1.0, 3.0])
    assert out.values.tolist() == [2.5, 3.5]


def test_aggregate_single_model_identity():
    model = init_model([(6, 3)], seed=1)
    out = aggregate([model], [0.37])
    assert out.values.tobytes() == model.values.tobytes()


def test_aggregate_copies_identity():
    model = init_model([(5, 4)], seed=2)
    out = aggregate([model] * 5, [0.2, 1.0, 3.5, 0.01, 2.0])
    assert out.values.tobytes() == model.values.tobytes()


def test_aggregate_permutation_invariance():
    rng = np.random.default_rng(0)
    models = [_vec(rng.normal(size=33)) for _ in range(6)]
    weights = list(rng.uniform(0.1, 5.0, size=6))
    baseline = aggregate(models, weights)
    for trial in range(10):
        perm = rng.permutation(6)
        shuffled = aggregate([models[i] for i in perm], [weights[i] for i in perm])
        assert shuffled.values.tobytes() == baseline.values.tobytes()


def test_aggregate_matches_bruteforce_oracle():
    rng = np.random.default_rng(42)
    for _ in range(50):
        count = rng.integers(1, 9)
        size = int(rng.integers(2, 200))
        models = [_vec(rng.normal(size=size)) for _ in range(count)]
        weights = list(rng.uniform(0.05, 10.0, size=count))
        got = aggregate(models, weights).values.astype(np.float64)

        # Brute force: elementwise weighted mean, coded independently.
        expected = np.zeros(size)
        for j in range(size):
            num = sum(w * float(m.values[j]) for w, m in zip(weights, models))
            expected[j] = num / sum(weights)
        rel = np.abs(got - expected) / np.maximum(np.abs(expected), 1e-30)
        assert rel.max() < 1e-6  # f32 rounding of the f64 mean


def test_aggregate_validation():
    with pytest.raises(ValidationError):
        aggregate([], [])
    with pytest.raises(ValidationError):
        aggregate([_vec([1, 2])], [1.0, 2.0])
    with pytest.raises(ValidationError):
        aggregate([_vec([1, 2]), init_model([(3, 2)], 0)], [1.0, 1.0])
    with pytest.raises(ValidationError):
        aggregate([_vec([1, 2])], [0.0])
    with pytest.raises(ValidationError):
        aggregate([_vec([1, 2])], [-1.0])


def test_client_seed_stable_and_distinct():
    assert client_seed(7, 1, 0) == client_seed(7, 1, 0)
    seeds = {client_seed(7, r, c) for r in range(1, 4) for c in range(4)}
    assert len(seeds) == 12


# --- client round ---------------------------------------------------------------

def setup_store_with_initial(cfg):
    store = open_backend(cfg.backend)
    train, test = build_datasets(cfg)
    initial = init_model([(train.dim, train.num_classes)], cfg.seed)
    store.store_global(
        0,
        ModelRecord(
            key=global_key(0),
            payload=encrypt(cfg.group_key, serialize_params(initial)),
            stored_at=now_ms(),
        ),
    )
    return store, train, test, initial


def test_run_client_round_stores_valid_model():
    cfg = memory_cfg()
    store, train, test, initial = setup_store_with_initial(cfg)
    shard = generate_synthetic(50, 4, 2, seed=3)
    elapsed = run_client_round(0, 1, store, cfg.group_key, shard, cfg.train)
    assert elapsed >= 0
    rec = store.get(StoreKey(0, 1, 0))
    model = deserialize_params(decrypt(cfg.group_key, rec.payload))
    assert model.shapes == initial.shapes
    assert rec.elapsed_ms is not None


def test_run_client_round_epochs_zero_stores_global_bitwise():
    cfg = memory_cfg(train=TrainConfig(0.1, 0, 16, seed=0))
    store, train, test, initial = setup_store_with_initial(cfg)
    shard = generate_synthetic(50, 4, 2, seed=3)
    run_client_round(0, 1, store, cfg.group_key, shard, cfg.train)
    stored = deserialize_params(
        decrypt(cfg.group_key, store.get(StoreKey(0, 1, 0)).payload)
    )
    assert stored.values.tobytes() == initial.values.tobytes()


def test_run_client_round_missing_global():
    cfg = memory_cfg()
    store = open_backend(cfg.backend)
    shard = generate_synthetic(50, 4, 2, seed=3)
    with pytest.raises(NotFoundError):
        run_client_round(0, 1, store, cfg.group_key, shard, cfg.train)


def test_run_client_round_wrong_key_aborts():
    cfg = memory_cfg()
    store, train, test, initial = setup_store_with_initial(cfg)
    shard = generate_synthetic(50, 4, 2, seed=3)
    with pytest.raises(AuthenticationError):
        run_client_round(0, 1, store, generate_key(rng_seed=99), shard, cfg.train)


def test_two_clients_same_round_distinct_keys():
    cfg = memory_cfg()
    store, train, test, initial = setup_store_with_initial(cfg)
    shard = generate_synthetic(50, 4, 2, seed=3)
    run_client_round(0, 1, store, cfg.group_key, shard, cfg.train)
    run_client_round(1, 1, store, cfg.group_key, shard, cfg.train)
    assert len(store.fetch_round(1, 2)) == 2


# --- master round -----------------------------------------------------------------

def test_run_round_epochs_zero_fixed_point():
    cfg = memory_cfg(train=TrainConfig(0.1, 0, 16, seed=0))
    store, train, test, initial = setup_store_with_initial(cfg)
    shards = [generate_synthetic(50, 4, 2, seed=i) for i in range(2)]
    for cid in range(2):
        run_client_round(cid, 1, store, cfg.group_key, shards[cid], cfg.train)
    outcome = run_round(1, store, cfg, test, shard_sizes=[50, 50])
    new_global = deserialize_params(decrypt(cfg.group_key, store.fetch_global(1).payload))
    assert new_global.values.tobytes() == initial.values.tobytes()
    assert store.latest_round() == 1
    assert isinstance(outcome, RoundOutcome)


def test_run_round_barrier_timeout_names_missing():
    cfg = memory_cfg(n_clients=3, barrier_timeout_ms=50)
    store, train, test, initial = setup_store_with_initial(cfg)
    shard = generate_synthetic(50, 4, 2, seed=3)
    run_client_round(1, 1, store, cfg.group_key, shard, cfg.train)  # only client 1
    with pytest.raises(BarrierTimeoutError) as excinfo:
        run_round(1, store, cfg, test, shard_sizes=[50, 50, 50])
    assert excinfo.value.missing_clients == [0, 2]
    assert "0" in str(excinfo.value) and "2" in str(excinfo.value)


def test_run_round_rejects_shard_sizes_for_another_client_count():
    cfg = memory_cfg(n_clients=2)
    store, train, test, initial = setup_store_with_initial(cfg)
    with pytest.raises(ValidationError):
        run_round(1, store, cfg, test, shard_sizes=[50])


def test_run_round_global_record_has_schema_columns():
    cfg = memory_cfg(train=TrainConfig(0.1, 1, 16, seed=0))
    store, train, test, initial = setup_store_with_initial(cfg)
    shards = [generate_synthetic(50, 4, 2, seed=i) for i in range(2)]
    started = time.perf_counter()
    for cid in range(2):
        run_client_round(cid, 1, store, cfg.group_key, shards[cid], cfg.train)
    outcome = run_round(1, store, cfg, test, [50, 50], started)
    rec = store.fetch_global(1)
    assert rec.accuracy is not None and 0.0 <= rec.accuracy <= 1.0
    # The round's wall time runs from round_started, so it covers the clients.
    assert rec.elapsed_ms == outcome.round_wall_ms
    assert outcome.round_wall_ms >= sum(outcome.per_client_train_ms)


def _round_one_global(cfg, extra_records=()):
    """Run clients 0..N-1 of round 1, store ``extra_records``, and return the new global."""
    store, train, test, initial = setup_store_with_initial(cfg)
    shards = [generate_synthetic(40 + 10 * cid, 4, 2, seed=cid) for cid in range(cfg.n_clients)]
    for cid, shard in enumerate(shards):
        run_client_round(cid, 1, store, cfg.group_key, shard, cfg.train)
    for key in extra_records:
        store.put(ModelRecord(key=key, payload=store.get(StoreKey(0, 1, 0)).payload))
    run_round(1, store, cfg, test, [len(s) for s in shards])
    return deserialize_params(decrypt(cfg.group_key, store.fetch_global(1).payload))


def test_run_round_ignores_a_later_iteration_record():
    cfg = memory_cfg(n_clients=3)
    clean = _round_one_global(cfg)
    extra = _round_one_global(cfg, extra_records=[StoreKey(0, 1, 1)])
    assert extra.values.tobytes() == clean.values.tobytes()


def test_run_round_stray_client_does_not_stand_in_for_a_missing_one():
    cfg = memory_cfg(n_clients=3, barrier_timeout_ms=50)
    store, train, test, initial = setup_store_with_initial(cfg)
    shard = generate_synthetic(50, 4, 2, seed=3)
    for cid in (0, 1, 5):
        run_client_round(cid, 1, store, cfg.group_key, shard, cfg.train)
    with pytest.raises(BarrierTimeoutError) as excinfo:
        run_round(1, store, cfg, test, shard_sizes=[50, 50, 50])
    assert excinfo.value.missing_clients == [2]
    with pytest.raises(NotFoundError):
        store.fetch_global(1)


# --- full experiment -----------------------------------------------------------------

def test_experiment_single_round_epochs_zero():
    cfg = memory_cfg(rounds=1, train=TrainConfig(0.1, 0, 16, seed=0))
    outcomes = run_experiment(cfg)
    assert len(outcomes) == 1
    assert outcomes[0].round == 1


def test_experiment_deterministic():
    cfg = memory_cfg(
        n_clients=4,
        rounds=3,
        train=TrainConfig(0.1, 2, 16, seed=1),
        dataset=SyntheticSpec(n=400, d=6, k=3, test_n=200),
        seed=5,
    )
    a = [o.global_accuracy for o in run_experiment(cfg)]
    b = [o.global_accuracy for o in run_experiment(cfg)]
    assert a == b


def test_experiment_byte_accounting():
    cfg = memory_cfg(n_clients=3, rounds=2, dataset=SyntheticSpec(n=300, d=5, k=3))
    outcomes = run_experiment(cfg)
    from ddfl.crypto import token_length
    from ddfl.params import serialized_size

    token = token_length(serialized_size([(5, 3)]))
    for outcome in outcomes:
        assert outcome.bytes_written == 3 * token + token
        assert outcome.bytes_read == 3 * token + 3 * token
        assert len(outcome.per_client_train_ms) == 3


def test_experiment_outcomes_are_monotone_rounds():
    cfg = memory_cfg(n_clients=2, rounds=4)
    outcomes = run_experiment(cfg)
    assert [o.round for o in outcomes] == [1, 2, 3, 4]


def test_experiment_round_time_covers_client_training():
    cfg = memory_cfg(n_clients=4, rounds=3, train=TrainConfig(0.1, 2, 16, seed=0))
    for outcome in run_experiment(cfg):
        assert outcome.round_wall_ms >= sum(outcome.per_client_train_ms)


def test_uniform_vs_sample_weighted_differ_on_uneven_shards():
    # 3 clients over 100 samples -> shard sizes (34, 33, 33).
    base = dict(
        n_clients=3,
        rounds=1,
        train=TrainConfig(0.2, 2, 8, seed=2),
        dataset=SyntheticSpec(n=100, d=4, k=2, test_n=60),
        seed=3,
    )
    uniform = memory_cfg(aggregation=Aggregation.UNIFORM, **base)
    weighted = memory_cfg(aggregation=Aggregation.SAMPLE_WEIGHTED, **base)
    # Both run; weighting may or may not move accuracy, but the protocol
    # must accept both modes.
    run_experiment(uniform)
    run_experiment(weighted)


def test_stored_payloads_reject_wrong_key():
    cfg = memory_cfg(n_clients=2, rounds=2)
    store = open_backend(cfg.backend)
    # Re-run the experiment against this store instance via a shared backend
    # is not possible for memory; instead replay manually.
    train, test = build_datasets(cfg)
    from ddfl.data import partition

    shards = partition(train, 2, cfg.seed)
    initial = init_model([(train.dim, train.num_classes)], cfg.seed)
    store.store_global(
        0,
        ModelRecord(
            key=global_key(0),
            payload=encrypt(cfg.group_key, serialize_params(initial)),
            stored_at=now_ms(),
        ),
    )
    for round_number in (1, 2):
        for cid in range(2):
            run_client_round(
                cid, round_number, store, cfg.group_key, shards[cid], cfg.train
            )
        run_round(round_number, store, cfg, test, shard_sizes=[len(s) for s in shards])

    wrong = generate_key(rng_seed=123456)
    payloads = [store.fetch_global(r).payload for r in range(0, 3)]
    payloads += [rec.payload for r in (1, 2) for rec in store.fetch_round(r, 2)]
    assert len(payloads) == 7
    for payload in payloads:
        with pytest.raises(AuthenticationError):
            decrypt(wrong, payload)


def test_config_validation():
    with pytest.raises(ValidationError):
        memory_cfg(n_clients=0)
    with pytest.raises(ValidationError):
        memory_cfg(rounds=0)
    with pytest.raises(ValidationError):
        memory_cfg(barrier_timeout_ms=0)


@pytest.mark.parametrize("barrier_timeout_ms", [500, 30_000])
def test_experiment_surfaces_client_error_over_barrier_timeout(barrier_timeout_ms):
    from ddfl.errors import NumericError

    # A diverging learning rate kills every client in round 1; the run must
    # report the training failure at once, not after a barrier timeout.
    cfg = memory_cfg(
        train=TrainConfig(learning_rate=1e30, epochs=3, batch_size=4, seed=0),
        barrier_timeout_ms=barrier_timeout_ms,
    )
    start = time.monotonic()
    with pytest.raises(NumericError):
        run_experiment(cfg)
    assert time.monotonic() - start < 5.0
