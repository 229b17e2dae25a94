"""The round protocol: N clients and a master, talking only through a store.

Each round, every client fetches the previous global model, decrypts it,
trains on its own shard, and stores its encrypted local model. The master
then reads the round's records of clients 0..N-1 once, decrypts and
aggregates them, evaluates the new global on the test set, and stores it
encrypted with accuracy and elapsed time filled in.

``run_experiment`` runs each round's clients one after another in the
caller's thread, then the master's ``run_round``; a crashing client
therefore fails the round at once, and a client missing from the round
fails ``run_round`` at once. Model values are fully deterministic for
fixed seeds; only timings vary.
"""

from __future__ import annotations

import enum
import functools
import logging
import time
from dataclasses import dataclass, replace

import numpy as np

from .backends import BackendConfig, open_backend
from .crypto import FernetKey, decrypt, encrypt
from .data import Dataset, IdxSpec, SyntheticSpec, build_datasets, partition
from .errors import BarrierTimeoutError, ValidationError
from .params import ParameterVector, deserialize_params, init_model, serialize_params
from .store import ModelRecord, ModelStore, StoreKey, global_key, now_ms
from .training import TrainConfig, evaluate, local_train

log = logging.getLogger(__name__)

# Parameters that aggregate sums per block, and bytes that its ordering
# compares per step: each bounds a temporary well below a model's size.
_AGGREGATE_BLOCK = 1 << 16
_COMPARE_BYTES = 1 << 16


# Clients are always weighted by their sample counts, and the master reads
# a round once. The enum, ExperimentConfig.aggregation and the unread
# ExperimentConfig.barrier_timeout_ms stay only because the round benchmark
# passes them.
class Aggregation(enum.Enum):
    SAMPLE_WEIGHTED = "sample_weighted"


@dataclass(frozen=True)
class ExperimentConfig:
    n_clients: int
    rounds: int
    train: TrainConfig
    backend: BackendConfig
    group_key: FernetKey
    dataset: SyntheticSpec | IdxSpec
    seed: int = 0
    aggregation: Aggregation = Aggregation.SAMPLE_WEIGHTED
    barrier_timeout_ms: int = 30_000

    def __post_init__(self):
        if self.n_clients < 1:
            raise ValidationError(f"n_clients must be at least 1, got {self.n_clients}")
        if self.rounds < 1:
            raise ValidationError(f"rounds must be at least 1, got {self.rounds}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class RoundOutcome:
    """Per-round metrics. ``round_wall_ms`` runs from the start of the round's
    first client to the start of the new global's publish, so it leaves out
    that publish's encrypt and ``put``. Byte counters follow the store
    traffic, except for one token a round:

    bytes_written = sum of the N client token lengths + the new global token;
    bytes_read    = N downloads of the previous global token + the master's
                    reads of the N client tokens. The master's own read
                    of the previous global is not counted, so the store
                    serves one more global token a round than
                    ``bytes_read`` reports.
    """

    round: int
    global_accuracy: float
    round_wall_ms: float
    per_client_train_ms: tuple[float, ...]
    bytes_written: int
    bytes_read: int


def client_seed(base_seed: int, round_number: int, client_id: int) -> int:
    """Stable per-(round, client) training seed derived from the experiment seed."""
    ss = np.random.SeedSequence([base_seed, round_number, client_id])
    return int(ss.generate_state(1, np.uint64)[0])


def _compare_bytes(a: np.ndarray, b: np.ndarray) -> int:
    """``a.tobytes()`` compared with ``b.tobytes()`` (-1, 0 or 1), for equal sizes.

    Compares ``_COMPARE_BYTES`` bytes at a time, so it copies neither array.
    """
    a, b = a.view(np.uint8), b.view(np.uint8)
    for start in range(0, len(a), _COMPARE_BYTES):
        block = slice(start, start + _COMPARE_BYTES)
        differ = np.flatnonzero(a[block] != b[block])
        if len(differ):
            at = start + differ[0]
            return -1 if a[at] < b[at] else 1
    return 0


def aggregate(models: list[ParameterVector], weights: list[float]) -> ParameterVector:
    """Weighted mean of parameter vectors: (sum w_i * M_i) / (sum w_i).

    Accumulates in float64 over a canonical input ordering, by weight and
    then by the values' bytes, then rounds to float32, so jointly permuting
    (models, weights) cannot change a bit of the output. The sum runs
    ``_AGGREGATE_BLOCK`` parameters at a time, so the float64 work holds
    two blocks, not two models.
    """
    if not models:
        raise ValidationError("cannot aggregate an empty model list")
    if len(models) != len(weights):
        raise ValidationError(f"{len(models)} models but {len(weights)} weights")
    shapes = models[0].shapes
    for m in models[1:]:
        if m.shapes != shapes:
            raise ValidationError(f"shape mismatch: {m.shapes} vs {shapes}")
    weights = [float(w) for w in weights]
    for w in weights:
        if not (w > 0 and np.isfinite(w)):
            raise ValidationError(f"weights must be positive and finite, got {w}")

    def canonical(i: int, j: int) -> int:
        if weights[i] != weights[j]:
            return -1 if weights[i] < weights[j] else 1
        return _compare_bytes(models[i].values, models[j].values)

    order = sorted(range(len(models)), key=functools.cmp_to_key(canonical))
    total = 0.0
    for i in order:
        total += weights[i]
    count = models[0].param_count
    mean = np.empty(count, np.float32)
    for start in range(0, count, _AGGREGATE_BLOCK):
        block = slice(start, min(start + _AGGREGATE_BLOCK, count))
        acc = np.zeros(block.stop - start, np.float64)
        term = np.empty_like(acc)
        for i in order:
            # dtype= makes the product float64; a Python float alone would
            # leave it in the values' float32.
            np.multiply(models[i].values[block], weights[i], out=term, dtype=np.float64)
            acc += term
        acc /= total
        mean[block] = acc
    return ParameterVector(mean, shapes)


def put_model(
    store: ModelStore,
    group_key: FernetKey,
    slot: StoreKey,
    model: ParameterVector,
    accuracy: float | None = None,
    elapsed_ms: float | None = None,
) -> int:
    """Serialize, encrypt and store ``model`` at ``slot``; returns the token length.

    With ``model_of``, the one path between a model and a record.
    """
    token = encrypt(group_key, serialize_params(model))
    store.put(ModelRecord(slot, token, accuracy, elapsed_ms, stored_at=now_ms()))
    return len(token)


def model_of(record: ModelRecord, group_key: FernetKey) -> ParameterVector:
    """The model that ``put_model`` stored in ``record``."""
    return deserialize_params(decrypt(group_key, record.payload))


def run_client_round(
    client_id: int,
    round_number: int,
    store: ModelStore,
    key: FernetKey,
    shard: Dataset,
    cfg: TrainConfig,
) -> float:
    """One client's work for one round; returns the training time in ms.

    Fetches and decrypts the previous global, trains on the shard, then
    encrypts and stores the local model at (client_id, round).
    """
    model = model_of(store.get(global_key(round_number - 1)), key)
    start = time.perf_counter()
    trained = local_train(model, shard, cfg)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    put_model(store, key, StoreKey(client_id, round_number), trained, elapsed_ms=elapsed_ms)
    return elapsed_ms


def run_round(
    round_number: int,
    store: ModelStore,
    cfg: ExperimentConfig,
    test_set: Dataset,
    shard_sizes: list[int],
    round_started: float | None = None,
) -> RoundOutcome:
    """Master's side of one round: read, aggregate, evaluate, publish.

    Reads the round's client records once; records of clients outside
    0..N-1 are ignored, so a stray or extra record can neither stand in for
    a missing client nor enter the aggregate. If any of clients 0..N-1 has
    no record, raises ``BarrierTimeoutError`` naming them and publishes
    nothing.

    ``shard_sizes[c]`` is client c's sample count, its weight in the
    aggregate. ``round_started`` is the
    ``time.perf_counter()`` reading at which the round's clients began;
    the round's wall time, reported and stored with the new global, runs
    from it (default: the call to this function) to the start of the
    global's publish, after evaluation and before its encrypt.
    """
    start = time.perf_counter() if round_started is None else round_started
    if len(shard_sizes) != cfg.n_clients:
        raise ValidationError(f"{len(shard_sizes)} shard sizes for {cfg.n_clients} clients")
    records = [
        rec
        for rec in store.fetch_round(round_number, cfg.n_clients)
        if rec.key.client_id < cfg.n_clients
    ]
    if len(records) != cfg.n_clients:
        present = {rec.key.client_id for rec in records}
        raise BarrierTimeoutError(round_number, sorted(set(range(cfg.n_clients)) - present))
    weights = [float(shard_sizes[rec.key.client_id]) for rec in records]
    per_client_train_ms = tuple(rec.elapsed_ms or 0.0 for rec in records)
    client_bytes = sum(len(rec.payload) for rec in records)
    previous_bytes = len(store.get(global_key(round_number - 1)).payload)
    # Each token goes as soon as it is decrypted, so a disk backend's N
    # token copies and the N models are never all alive at once.
    models = []
    while records:
        models.append(model_of(records.pop(0), cfg.group_key))
    new_global = aggregate(models, weights)
    del models  # the publish below needs none of them
    result = evaluate(new_global, test_set)
    round_wall_ms = (time.perf_counter() - start) * 1000.0
    global_bytes = put_model(
        store, cfg.group_key, global_key(round_number), new_global, result.accuracy, round_wall_ms
    )
    return RoundOutcome(
        round=round_number,
        global_accuracy=result.accuracy,
        round_wall_ms=round_wall_ms,
        per_client_train_ms=per_client_train_ms,
        bytes_written=client_bytes + global_bytes,
        bytes_read=cfg.n_clients * previous_bytes + client_bytes,
    )


def run_experiment(cfg: ExperimentConfig) -> list[RoundOutcome]:
    """Run the full protocol: round-0 global, then R rounds of train/aggregate/evaluate.

    Each round runs its N clients in turn, then ``run_round``. The clients
    have all stored their models before the master reads the round, so the
    master reads it once and waits for nothing.
    """
    train, test = build_datasets(cfg)
    shards = partition(train, cfg.n_clients)
    shard_sizes = [len(s) for s in shards]
    layer = (train.dim, train.num_classes)

    with open_backend(cfg.backend) as store:
        initial = init_model([layer], cfg.seed)
        baseline = evaluate(initial, test)
        put_model(store, cfg.group_key, global_key(0), initial, accuracy=baseline.accuracy)
        log.info("round 0: initial accuracy %.4f", baseline.accuracy)

        outcomes = []
        for round_number in range(1, cfg.rounds + 1):
            round_started = time.perf_counter()
            for client_id, shard in enumerate(shards):
                run_client_round(
                    client_id,
                    round_number,
                    store,
                    cfg.group_key,
                    shard,
                    replace(
                        cfg.train,
                        batch_size=min(cfg.train.batch_size, len(shard)),
                        seed=client_seed(cfg.train.seed, round_number, client_id),
                    ),
                )
            outcome = run_round(round_number, store, cfg, test, shard_sizes, round_started)
            outcomes.append(outcome)
            log.info(
                "round %d: accuracy %.4f (%.1f ms)",
                round_number,
                outcome.global_accuracy,
                outcome.round_wall_ms,
            )
        return outcomes
