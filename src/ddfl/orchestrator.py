"""The round protocol: N clients and a master, talking only through a store.

Each round, every client fetches the previous global model, decrypts it,
trains on its own shard, and stores its encrypted local model. The master
polls until the records of clients 0..N-1 exist (the barrier), decrypts
and aggregates them, evaluates the new global on the test set, and stores
it encrypted with accuracy and elapsed time filled in.

``run_experiment`` runs each round's clients one after another in the
caller's thread, then the master's ``run_round``; a crashing client
therefore fails the round at once. ``run_round`` keeps its barrier for
clients driven from elsewhere. Model values are fully deterministic for
fixed seeds; only timings vary.
"""

from __future__ import annotations

import enum
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

# How long the barrier sleeps between two fetch_round polls.
POLL_INTERVAL_MS = 5.0


# Clients are always weighted by their sample counts. The enum and
# ExperimentConfig.aggregation stay only because the round benchmark passes them.
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
            raise ValidationError("n_clients must be at least 1")
        if self.rounds < 1:
            raise ValidationError("rounds must be at least 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.barrier_timeout_ms <= 0:
            raise ValidationError("barrier_timeout_ms must be positive")


@dataclass(frozen=True)
class RoundOutcome:
    """Per-round metrics. ``round_wall_ms`` runs from the start of the round's
    first client to the start of the new global's publish, so it leaves out
    that publish's encrypt and ``put``. Byte counters follow the store
    traffic, except for one token a round:

    bytes_written = sum of the N client token lengths + the new global token;
    bytes_read    = N downloads of the previous global token + the master's
                    reads of the N client tokens. Barrier polls are not
                    counted, nor is the master's own read of the previous
                    global, so the store serves one more global token a
                    round than ``bytes_read`` reports.
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


def aggregate(models: list[ParameterVector], weights: list[float]) -> ParameterVector:
    """Weighted mean of parameter vectors: (sum w_i * M_i) / (sum w_i).

    Accumulates in float64 over a canonical input ordering, then rounds to
    float32, so jointly permuting (models, weights) cannot change a bit of
    the output.
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

    order = sorted(range(len(models)), key=lambda i: (weights[i], models[i].values.tobytes()))
    acc = np.zeros(models[0].param_count, dtype=np.float64)
    total = 0.0
    for i in order:
        acc += weights[i] * models[i].values.astype(np.float64)
        total += weights[i]
    return ParameterVector((acc / total).astype(np.float32), shapes)


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


def _await_round(
    store: ModelStore, round_number: int, expected: int, timeout_ms: float
) -> list[ModelRecord]:
    """The records of clients 0..expected-1, sorted by client id.

    Records of other clients are ignored, so a stray or extra record can
    neither complete the barrier nor enter the aggregate.
    """
    deadline = time.monotonic() + timeout_ms / 1000.0
    while True:
        records = [
            rec
            for rec in store.fetch_round(round_number, expected)
            if rec.key.client_id < expected
        ]
        if len(records) == expected:
            return records
        if time.monotonic() >= deadline:
            present = {rec.key.client_id for rec in records}
            missing = sorted(set(range(expected)) - present)
            raise BarrierTimeoutError(round_number, missing)
        time.sleep(POLL_INTERVAL_MS / 1000.0)


def run_round(
    round_number: int,
    store: ModelStore,
    cfg: ExperimentConfig,
    test_set: Dataset,
    shard_sizes: list[int],
    round_started: float | None = None,
) -> RoundOutcome:
    """Master's side of one round: barrier, aggregate, evaluate, publish.

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
    records = _await_round(store, round_number, cfg.n_clients, cfg.barrier_timeout_ms)
    previous = store.get(global_key(round_number - 1))
    models = [model_of(rec, cfg.group_key) for rec in records]
    weights = [float(shard_sizes[rec.key.client_id]) for rec in records]
    new_global = aggregate(models, weights)
    result = evaluate(new_global, test_set)
    round_wall_ms = (time.perf_counter() - start) * 1000.0
    global_bytes = put_model(
        store, cfg.group_key, global_key(round_number), new_global, result.accuracy, round_wall_ms
    )
    client_bytes = sum(len(rec.payload) for rec in records)
    return RoundOutcome(
        round=round_number,
        global_accuracy=result.accuracy,
        round_wall_ms=round_wall_ms,
        per_client_train_ms=tuple(rec.elapsed_ms or 0.0 for rec in records),
        bytes_written=client_bytes + global_bytes,
        bytes_read=cfg.n_clients * len(previous.payload) + client_bytes,
    )


def run_experiment(cfg: ExperimentConfig) -> list[RoundOutcome]:
    """Run the full protocol: round-0 global, then R rounds of train/aggregate/evaluate."""
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
