import ast
import collections
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ddfl import orchestrator
from ddfl.backends import BackendConfig, BackendKind, open_backend
from ddfl.crypto import FernetKey, decrypt, generate_key
from ddfl.data import Dataset, generate_synthetic, load_idx, partition
from ddfl.errors import (
    AuthenticationError,
    BackendUnavailableError,
    BarrierTimeoutError,
    NotFoundError,
    ValidationError,
)
from ddfl.orchestrator import (
    ExperimentConfig,
    IdxSpec,
    RoundOutcome,
    SyntheticSpec,
    aggregate,
    build_datasets,
    client_seed,
    model_of,
    put_model,
    run_client_round,
    run_experiment,
    run_round,
)
from ddfl.params import ParameterVector, init_model
from ddfl.store import StoreKey, global_key, now_ms
from ddfl.training import TrainConfig, evaluate, local_train
from test_data import write_idx_pair
from test_store_backends import break_namespace


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


def tobytes_keyed_aggregate(models, weights):
    """The reference ``aggregate``: each model's bytes copied into a sort key,
    and one float64 sum over whole models."""
    weights = [float(w) for w in weights]
    order = sorted(range(len(models)), key=lambda i: (weights[i], models[i].values.tobytes()))
    acc = np.zeros(models[0].param_count, dtype=np.float64)
    total = 0.0
    for i in order:
        acc += weights[i] * models[i].values.astype(np.float64)
        total += weights[i]
    return (acc / total).astype(np.float32)


@pytest.mark.parametrize("weights", [[2.0] * 7, [1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0]])
def test_aggregate_matches_the_tobytes_keyed_order_past_one_compare_block(weights):
    # Models equal through the first 64 KiB of values or more, so only a
    # later compare block orders them, plus an exact duplicate. Their tails
    # mix +-1e20 with small integers, which the float64 sum absorbs or keeps
    # depending on its order, so a wrong order changes bits of the float32
    # mean. 150,001 values span three blocks of the float64 sum.
    rng = np.random.default_rng(11)
    size = 150_001
    first_block = 65_536 // 4
    base = rng.normal(size=size).astype(np.float32)
    models = [_vec(base)]
    for start in (first_block, first_block, first_block + 1, 2 * first_block, size - 2):
        values = base.copy()
        values[start:] = rng.choice([-1e20, 1e20, 1.0, 2.0, 3.0], size=size - start)
        models.append(_vec(values))
    models.append(models[2])
    expected = tobytes_keyed_aggregate(models, weights)
    for perm in [range(7), range(6, -1, -1), *(rng.permutation(7) for _ in range(5))]:
        got = aggregate([models[i] for i in perm], [weights[i] for i in perm])
        assert got.values.tobytes() == expected.tobytes()


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
    put_model(store, cfg.group_key, global_key(0), initial)
    return store, train, test, initial


def test_put_model_stores_what_model_of_reads():
    cfg = memory_cfg()
    store = open_backend(cfg.backend)
    model = init_model([(4, 2)], seed=1)
    before = now_ms()
    token_len = put_model(store, cfg.group_key, global_key(3), model, 0.5, 12.0)
    rec = store.get(global_key(3))
    assert token_len == len(rec.payload)
    assert (rec.accuracy, rec.elapsed_ms) == (0.5, 12.0)
    assert rec.stored_at >= before
    assert model_of(rec, cfg.group_key).values.tobytes() == model.values.tobytes()


def test_run_client_round_stores_valid_model():
    cfg = memory_cfg()
    store, train, test, initial = setup_store_with_initial(cfg)
    shard = generate_synthetic(50, 4, 2, seed=3)
    elapsed = run_client_round(0, 1, store, cfg.group_key, shard, cfg.train)
    assert elapsed >= 0
    rec = store.get(StoreKey(0, 1))
    assert model_of(rec, cfg.group_key).shapes == initial.shapes
    assert rec.elapsed_ms is not None


def test_run_client_round_epochs_zero_stores_global_bitwise():
    cfg = memory_cfg(train=TrainConfig(0.1, 0, 16, seed=0))
    store, train, test, initial = setup_store_with_initial(cfg)
    shard = generate_synthetic(50, 4, 2, seed=3)
    run_client_round(0, 1, store, cfg.group_key, shard, cfg.train)
    stored = model_of(store.get(StoreKey(0, 1)), cfg.group_key)
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
    new_global = model_of(store.get(global_key(1)), cfg.group_key)
    assert new_global.values.tobytes() == initial.values.tobytes()
    assert store.latest_round() == 1
    assert isinstance(outcome, RoundOutcome)


def test_run_round_barrier_timeout_names_missing():
    cfg = memory_cfg(n_clients=3)
    store, train, test, initial = setup_store_with_initial(cfg)
    shard = generate_synthetic(50, 4, 2, seed=3)
    run_client_round(1, 1, store, cfg.group_key, shard, cfg.train)  # only client 1
    with pytest.raises(BarrierTimeoutError) as excinfo:
        run_round(1, store, cfg, test, shard_sizes=[50, 50, 50])
    assert excinfo.value.missing_clients == [0, 2]
    assert "0" in str(excinfo.value) and "2" in str(excinfo.value)


def test_run_round_reads_the_round_once_and_never_sleeps(monkeypatch):
    cfg = memory_cfg(n_clients=3)
    store, train, test, initial = setup_store_with_initial(cfg)
    run_client_round(1, 1, store, cfg.group_key, generate_synthetic(50, 4, 2, seed=3), cfg.train)
    calls = []
    fetch_round = store.fetch_round

    def counting_fetch_round(*args, **kwargs):
        calls.append((args, kwargs))
        return fetch_round(*args, **kwargs)

    def no_sleep(seconds):
        raise AssertionError(f"run_round slept {seconds} s")

    monkeypatch.setattr(store, "fetch_round", counting_fetch_round)
    monkeypatch.setattr(orchestrator.time, "sleep", no_sleep)
    with pytest.raises(BarrierTimeoutError) as excinfo:
        run_round(1, store, cfg, test, shard_sizes=[50, 50, 50])
    assert excinfo.value.missing_clients == [0, 2]
    assert calls == [((1, 3), {})]


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
    rec = store.get(global_key(1))
    assert rec.accuracy is not None and 0.0 <= rec.accuracy <= 1.0
    # The round's wall time runs from round_started, so it covers the clients.
    assert rec.elapsed_ms == outcome.round_wall_ms
    assert outcome.round_wall_ms >= sum(outcome.per_client_train_ms)


def test_run_round_stray_client_does_not_stand_in_for_a_missing_one():
    cfg = memory_cfg(n_clients=3)
    store, train, test, initial = setup_store_with_initial(cfg)
    shard = generate_synthetic(50, 4, 2, seed=3)
    for cid in (0, 1, 5):
        run_client_round(cid, 1, store, cfg.group_key, shard, cfg.train)
    with pytest.raises(BarrierTimeoutError) as excinfo:
        run_round(1, store, cfg, test, shard_sizes=[50, 50, 50])
    assert excinfo.value.missing_clients == [2]
    with pytest.raises(NotFoundError):
        store.get(global_key(1))


@pytest.mark.parametrize("fault", ["removed", "replaced_by_file"])
def test_run_round_on_a_broken_filesystem_namespace_fails_fast(fault, tmp_path):
    """An unavailable backend fails the round's read at once."""
    cfg = memory_cfg(
        backend=BackendConfig(kind=BackendKind.FILESYSTEM, root_path=tmp_path, namespace="ns"),
    )
    store, train, test, initial = setup_store_with_initial(cfg)
    break_namespace(tmp_path / "ns", fault)
    started = time.monotonic()
    with pytest.raises(BackendUnavailableError):
        run_round(1, store, cfg, test, shard_sizes=[100, 100])
    assert time.monotonic() - started < 0.5


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


def store_free_rounds(cfg):
    """The rounds of ``cfg`` with models passed by hand: no store, token or blob.

    Returns the per-round accuracies and the final global.
    """
    train, test = build_datasets(cfg)
    shards = partition(train, cfg.n_clients)
    model = init_model([(train.dim, train.num_classes)], cfg.seed)
    accuracies = []
    for round_number in range(1, cfg.rounds + 1):
        local_models = [
            local_train(
                model,
                shard,
                replace(
                    cfg.train,
                    batch_size=min(cfg.train.batch_size, len(shard)),
                    seed=client_seed(cfg.train.seed, round_number, client_id),
                ),
            )
            for client_id, shard in enumerate(shards)
        ]
        model = aggregate(local_models, [len(shard) for shard in shards])
        accuracies.append(evaluate(model, test).accuracy)
    return accuracies, model


@pytest.mark.parametrize("kind", list(BackendKind), ids=lambda kind: kind.value)
def test_experiment_matches_the_store_free_loop(kind, tmp_path, monkeypatch):
    # serialize -> encrypt -> store -> decrypt -> deserialize must be
    # bit-transparent: the store may not change a single model bit.
    cfg = memory_cfg(
        n_clients=5,
        rounds=4,
        # 128 exceeds every shard of 100 or 101 rows, so the batch is clamped.
        train=TrainConfig(learning_rate=0.1, epochs=2, batch_size=128, seed=3),
        backend=BackendConfig(kind=kind, root_path=tmp_path),
        dataset=SyntheticSpec(n=503, d=9, k=3),
        seed=2,
    )
    finals = []

    def open_recording_final(backend_cfg):
        store = open_backend(backend_cfg)
        close = store.close

        def read_final_then_close():
            finals.append(store.get(global_key(store.latest_round())))
            close()

        store.close = read_final_then_close
        return store

    monkeypatch.setattr(orchestrator, "open_backend", open_recording_final)
    outcomes = run_experiment(cfg)
    accuracies, final = store_free_rounds(cfg)
    assert [o.global_accuracy for o in outcomes] == accuracies
    (record,) = finals
    assert record.key == global_key(cfg.rounds)
    assert model_of(record, cfg.group_key).values.tobytes() == final.values.tobytes()


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


def _traced_functions() -> tuple[str, ...]:
    """``TRACED_FUNCTIONS`` of the round benchmark's tracer, read without importing it."""
    tree = ast.parse((Path(__file__).parents[1] / "roundbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "TRACED_FUNCTIONS":
            return ast.literal_eval(node.value)
    raise AssertionError("roundbench/tracing.py defines no TRACED_FUNCTIONS")


def test_orchestrator_calls_traced_functions_in_the_shape_the_tracer_reads(monkeypatch):
    # The round benchmark traces a run by replacing these module globals of
    # ddfl.orchestrator, reads sizes and round numbers from positional
    # arguments and counts the crypto calls of each round.
    calls = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, args, kwargs))
            return fn(*args, **kwargs)

        return wrapper

    names = _traced_functions()
    for name in names:
        monkeypatch.setattr(orchestrator, name, recording(name, getattr(orchestrator, name)))
    cfg = memory_cfg(n_clients=2, rounds=2)
    run_experiment(cfg)

    assert {name for name, _, _ in calls} == set(names)
    per_round = collections.defaultdict(collections.Counter)
    round_number = 0
    for name, args, kwargs in calls:
        if name == "run_client_round":
            round_number = args[1]
        elif name == "run_round":
            round_number = args[0]
        per_round[round_number][name] += 1
        if name in ("encrypt", "decrypt"):
            assert not kwargs and len(args) == 2
            assert isinstance(args[0], FernetKey) and isinstance(args[1], bytes)
        elif name == "local_train":
            assert not kwargs and len(args) == 3
            model, shard, train_cfg = args
            assert isinstance(model, ParameterVector) and isinstance(shard, Dataset)
            assert isinstance(train_cfg, TrainConfig)
    for r in (1, 2):
        assert per_round[r]["encrypt"] == cfg.n_clients + 1
        assert per_round[r]["decrypt"] == 2 * cfg.n_clients


def test_stored_payloads_reject_wrong_key():
    cfg = memory_cfg(n_clients=2, rounds=2)
    store = open_backend(cfg.backend)
    # A round's global retires its client records, so every payload is
    # captured on its way into the store.
    payloads = []
    store_put = store.put

    def capturing_put(record):
        payloads.append(record.payload)
        store_put(record)

    store.put = capturing_put
    # Re-run the experiment against this store instance via a shared backend
    # is not possible for memory; instead replay manually.
    train, test = build_datasets(cfg)
    shards = partition(train, 2)
    initial = init_model([(train.dim, train.num_classes)], cfg.seed)
    put_model(store, cfg.group_key, global_key(0), initial)
    for round_number in (1, 2):
        for cid in range(2):
            run_client_round(
                cid, round_number, store, cfg.group_key, shards[cid], cfg.train
            )
        run_round(round_number, store, cfg, test, shard_sizes=[len(s) for s in shards])

    wrong = generate_key(rng_seed=123456)
    assert len(payloads) == 7
    for payload in payloads:
        with pytest.raises(AuthenticationError):
            decrypt(wrong, payload)


def test_config_validation():
    with pytest.raises(ValidationError):
        memory_cfg(n_clients=0)
    with pytest.raises(ValidationError):
        memory_cfg(rounds=0)
    # -1 must fail here, not once the run starts in numpy's untyped seeding error.
    with pytest.raises(ValidationError, match="seed"):
        memory_cfg(seed=-1)


def test_experiment_surfaces_client_error_over_barrier_timeout():
    from ddfl.errors import NumericError

    # A diverging learning rate kills every client in round 1; the run must
    # report the training failure at once, not after a barrier timeout.
    cfg = memory_cfg(train=TrainConfig(learning_rate=1e30, epochs=3, batch_size=4, seed=0))
    start = time.monotonic()
    with pytest.raises(NumericError):
        run_experiment(cfg)
    assert time.monotonic() - start < 5.0


def _owning_array(array):
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def test_shards_and_test_set_view_one_matrix():
    # The experiment holds each row once: every shard and the test set are
    # slices of a single (n + test_n) x d matrix.
    cfg = memory_cfg(n_clients=3, dataset=SyntheticSpec(n=200, d=4, k=2, test_n=50))
    train, test = build_datasets(cfg)
    parts = [*partition(train, cfg.n_clients), test]
    owners = {id(_owning_array(part.features)) for part in parts}
    assert len(owners) == 1
    owner = _owning_array(test.features)
    assert owner.shape == (250, 4) and owner.nbytes == 250 * 4 * 4
    assert np.array_equal(np.concatenate([part.features for part in parts]), owner)


def split_by_gather(train, test, n_clients, seed):
    """Reference split: a seeded shuffle of ``train``, then one gather per shard."""
    order = np.random.default_rng(seed).permutation(len(train))
    shards = []
    offset = 0
    for c in range(n_clients):
        size = len(train) // n_clients + (1 if c < len(train) % n_clients else 0)
        rows = order[offset : offset + size]
        shards.append((train.features[rows], train.labels[rows]))
        offset += size
    return shards, (test.features, test.labels)


def assert_split_matches(cfg, want_shards, want_test):
    train, test = build_datasets(cfg)
    shards = partition(train, cfg.n_clients)
    assert len(shards) == len(want_shards)
    for shard, (features, labels) in zip(shards, want_shards):
        assert shard.features.tobytes() == features.tobytes()
        assert np.array_equal(shard.labels, labels)
    assert test.features.tobytes() == want_test[0].tobytes()
    assert np.array_equal(test.labels, want_test[1])


@pytest.mark.parametrize("n_clients", [1, 3, 7])
def test_synthetic_split_equals_shuffle_then_gather(n_clients):
    spec = SyntheticSpec(n=103, d=5, k=3, test_n=29)
    cfg = memory_cfg(n_clients=n_clients, dataset=spec, seed=6)
    full = generate_synthetic(spec.n + spec.test_n, spec.d, spec.k, cfg.seed)
    train = Dataset(full.features[: spec.n], full.labels[: spec.n], spec.k)
    test = Dataset(full.features[spec.n :], full.labels[spec.n :], spec.k)
    assert_split_matches(cfg, *split_by_gather(train, test, n_clients, cfg.seed))


@pytest.mark.parametrize("n_clients", [1, 4])
def test_idx_split_equals_shuffle_then_gather(tmp_path, n_clients):
    n = 61
    images, labels = idx_pair_with_row_ids(tmp_path, n)
    cfg = memory_cfg(n_clients=n_clients, dataset=IdxSpec(images, labels), seed=4)
    full = load_idx(images, labels)
    order = np.random.default_rng(cfg.seed).permutation(n)
    holdout = max(1, int(n * 0.2))
    test_rows, train_rows = order[:holdout], order[holdout:]
    train = Dataset(full.features[train_rows], full.labels[train_rows], full.num_classes)
    test = Dataset(full.features[test_rows], full.labels[test_rows], full.num_classes)
    assert_split_matches(cfg, *split_by_gather(train, test, n_clients, cfg.seed))


def idx_pair_with_row_ids(tmp_path, n):
    """An IDX pair of n 2x3 images whose first pixel is the row index."""
    rng = np.random.default_rng(n)
    pixels = rng.integers(0, 256, size=(n, 6))
    pixels[:, 0] = np.arange(n)
    return write_idx_pair(tmp_path, pixels.reshape(-1).tolist(), (np.arange(n) % 3).tolist(), 2, 3)


def test_idx_experiment_holds_out_a_fifth_and_repeats(tmp_path):
    n = 53
    images, labels = idx_pair_with_row_ids(tmp_path, n)
    cfg = memory_cfg(dataset=IdxSpec(images, labels), seed=4)
    train, test = build_datasets(cfg)
    assert len(test) == max(1, int(n * 0.2))

    # Every file row lands in exactly one of the two sets, with its label.
    full = load_idx(images, labels)
    ids = [np.rint(part.features[:, 0] * 255).astype(int) for part in (train, test)]
    assert sorted(np.concatenate(ids).tolist()) == list(range(n))
    for part, part_ids in zip((train, test), ids):
        assert np.array_equal(part.features, full.features[part_ids])
        assert np.array_equal(part.labels, full.labels[part_ids])

    def outcomes():
        return [
            (o.round, o.global_accuracy, o.bytes_written, o.bytes_read)
            for o in run_experiment(cfg)
        ]

    assert outcomes() == outcomes()
