"""The ModelStore conformance suite.

One property set, run unchanged against every backend, proving the
backends are interchangeable behind the contract. ``check_backend`` runs
it over a configured backend; ``run_suite`` over stores from any factory,
with an optional ``reopen`` callable to check durability across restarts.
"""

from __future__ import annotations

import functools
import random
import threading
from dataclasses import dataclass
from typing import Callable

from .backends import DISK_BACKENDS, BackendConfig, fresh_namespace, open_backend
from .errors import DuplicateKeyError, NotFoundError, ValidationError
from .store import GLOBAL_CLIENT_ID, ModelRecord, ModelStore, StoreKey, global_key


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str = ""


def _expect(condition: bool, message: str) -> None:
    # An assert statement would vanish under python -O and pass every store.
    if not condition:
        raise AssertionError(message)


def _expect_raises(error: type[Exception], action: Callable[[], object], message: str) -> None:
    try:
        action()
    except error:
        return
    raise AssertionError(message)


def _random_record(rng: random.Random, client_id: int, round_number: int) -> ModelRecord:
    payload = rng.randbytes(rng.randint(1, 2048))
    return ModelRecord(
        key=StoreKey(client_id, round_number),
        payload=payload,
        accuracy=rng.random() if rng.random() < 0.5 else None,
        elapsed_ms=rng.random() * 1e4 if rng.random() < 0.5 else None,
        stored_at=rng.randint(0, 2**48),
    )


def _check_roundtrip(store: ModelStore, rng: random.Random) -> None:
    record = _random_record(rng, 3, 2)
    store.put(record)
    got = store.get(record.key)
    _expect(got.payload == record.payload, "payload changed across put/get")
    _expect(got.key == record.key, "key changed across put/get")
    _expect(got.accuracy == record.accuracy, "accuracy changed across put/get")
    _expect(got.elapsed_ms == record.elapsed_ms, "elapsed_ms changed across put/get")
    _expect(got.stored_at == record.stored_at, "stored_at changed across put/get")


def _check_duplicate_rejection(store: ModelStore, rng: random.Random) -> None:
    record = _random_record(rng, 0, 1)
    store.put(record)
    _expect_raises(
        DuplicateKeyError,
        lambda: store.put(record),
        "second put of the same key did not raise DuplicateKeyError",
    )
    store.put(_random_record(rng, GLOBAL_CLIENT_ID, 1))
    _expect_raises(
        DuplicateKeyError,
        lambda: store.put(_random_record(rng, GLOBAL_CLIENT_ID, 1)),
        "second put of a round's global did not raise DuplicateKeyError",
    )


def _check_not_found(store: ModelStore, rng: random.Random) -> None:
    for key in (StoreKey(5, 7), global_key(99)):
        _expect_raises(
            NotFoundError,
            lambda: store.get(key),
            f"get on never-written {key} did not raise NotFoundError",
        )
    _expect_raises(
        ValidationError, lambda: StoreKey(1, 0), "client key with round 0 was not rejected"
    )


def _check_sorted_fetch_round(store: ModelStore, rng: random.Random) -> None:
    for client_id in (2, 0, 1):
        store.put(_random_record(rng, client_id, 4))
    records = store.fetch_round(4, 3)
    ids = [rec.key.client_id for rec in records]
    _expect(ids == [0, 1, 2], f"fetch_round returned client order {ids}")
    _expect(store.fetch_round(5, 3) == [], "fetch_round on an empty round must be []")


def _check_latest_round(store: ModelStore, rng: random.Random) -> None:
    _expect(store.latest_round() == 0, "empty store must report latest_round 0")
    for round_number in (1, 3):
        store.put(_random_record(rng, GLOBAL_CLIENT_ID, round_number))
        _expect(store.latest_round() == round_number, f"latest_round is not {round_number}")
    # A client put never advances the global round.
    store.put(_random_record(rng, 0, 9))
    _expect(store.latest_round() == 3, "client records must not affect latest_round")
    _expect(store.get(global_key(3)).key == global_key(3), "global of round 3 has another key")


def _check_retired_round(store: ModelStore, rng: random.Random) -> None:
    # Putting round 2's global closes round 2 and leaves round 3 open.
    closed_round = [_random_record(rng, client_id, 2) for client_id in range(3)]
    open_round = [_random_record(rng, client_id, 3) for client_id in range(3)]
    for record in closed_round + open_round:
        store.put(record)
    for round_number in (1, 2):
        store.put(_random_record(rng, GLOBAL_CLIENT_ID, round_number))
    _expect(store.fetch_round(2, 3) == [], "a round's global did not retire its client records")
    _expect_raises(
        NotFoundError,
        lambda: store.get(StoreKey(0, 2)),
        "get of a retired client record did not raise NotFoundError",
    )
    _expect_raises(
        DuplicateKeyError,
        lambda: store.put(_random_record(rng, 4, 2)),
        "a client put into a closed round did not raise DuplicateKeyError",
    )
    _expect(store.fetch_round(2, 3) == [], "a late client put reopened a closed round")
    _expect(store.fetch_round(3, 3) == open_round, "retiring round 2 changed round 3")
    for round_number in (1, 2):
        got = store.get(global_key(round_number))
        _expect(got.key == global_key(round_number), f"global {round_number} has another key")
    _expect(store.latest_round() == 2, "latest_round is not 2 after retiring round 2")


def _check_byte_fidelity(store: ModelStore, rng: random.Random, records: int = 1000) -> None:
    stored: dict[StoreKey, bytes] = {}
    for i in range(records):
        record = _random_record(rng, i % 50, 1 + i // 50)
        if record.key in stored:
            continue
        store.put(record)
        stored[record.key] = record.payload
    for key, payload in stored.items():
        got = store.get(key)
        _expect(got.payload == payload, f"payload mismatch at {key}")


def _check_concurrent_writers(store: ModelStore, rng: random.Random, writers: int = 8) -> None:
    per_writer = 25
    errors: list[BaseException] = []

    def write(client_id: int) -> None:
        try:
            for round_number in range(1, per_writer + 1):
                store.put(
                    ModelRecord(
                        key=StoreKey(client_id, round_number),
                        payload=bytes([client_id]) * 64 + round_number.to_bytes(4, "little"),
                        stored_at=1,
                    )
                )
        except BaseException as exc:  # noqa: BLE001 - collected and re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(i,)) for i in range(writers)]
    for t in threads:
        t.start()
    # Reads may interleave with the writers.
    for _ in range(20):
        store.fetch_round(1, writers)
    for t in threads:
        t.join()
    if errors:
        raise AssertionError(f"concurrent put failed: {errors[0]!r}")
    for round_number in range(1, per_writer + 1):
        got = store.fetch_round(round_number, writers)
        _expect(
            len(got) == writers, f"round {round_number} has {len(got)} of {writers} records"
        )

    # Same-key race: exactly one writer may win.
    contested = ModelRecord(key=StoreKey(0, 500), payload=b"contested", stored_at=1)
    wins = []
    losses = []

    def race() -> None:
        try:
            store.put(contested)
            wins.append(1)
        except DuplicateKeyError:
            losses.append(1)

    racers = [threading.Thread(target=race) for _ in range(writers)]
    for t in racers:
        t.start()
    for t in racers:
        t.join()
    _expect(len(wins) == 1, f"{len(wins)} writers claimed the same key")
    _expect(len(losses) == writers - 1, f"{len(losses)} writers lost the same key")


def _check_durability(reopen: Callable, store: ModelStore, rng: random.Random) -> None:
    # Closes ``store`` as a restart would; the suite's own close is then a no-op.
    # Round 1 is closed by its global, round 2 still open.
    record = _random_record(rng, 1, 2)
    store.put(record)
    store.put(_random_record(rng, 1, 1))
    store.put(_random_record(rng, GLOBAL_CLIENT_ID, 1))
    store.close()
    with reopen() as again:
        got = again.get(record.key)
        _expect(got.payload == record.payload, "payload changed across reopen")
        _expect(again.latest_round() == 1, "global lost across reopen")
        _expect(again.fetch_round(1, 2) == [], "a retired round has records after reopen")
        _expect_raises(
            NotFoundError,
            lambda: again.get(StoreKey(1, 1)),
            "a retired client record is back after reopen",
        )
        _expect_raises(
            DuplicateKeyError,
            lambda: again.put(_random_record(rng, 0, 1)),
            "a closed round took a client put after reopen",
        )


# Seeds the random records of every property, so a failure reproduces.
SUITE_SEED = 20240101

CORE_PROPERTIES: list[tuple[str, Callable[[ModelStore, random.Random], None]]] = [
    ("roundtrip", _check_roundtrip),
    ("duplicate_rejection", _check_duplicate_rejection),
    ("not_found", _check_not_found),
    ("sorted_fetch_round", _check_sorted_fetch_round),
    ("latest_round", _check_latest_round),
    ("retired_round", _check_retired_round),
    ("byte_fidelity", _check_byte_fidelity),
    ("concurrent_writers", _check_concurrent_writers),
]


def run_suite(
    factory: Callable[[], ModelStore], reopen: Callable[[], ModelStore] | None = None
) -> list[PropertyResult]:
    """Run every conformance property against stores built by ``factory``.

    ``factory`` must return a fresh, empty store on each call. When
    ``reopen`` is given it must return a store over the same persistent
    state as the most recent ``factory`` store; it is used for the
    durability property, which runs last.
    """
    properties = list(CORE_PROPERTIES)
    if reopen is not None:
        properties.append(("durability_reopen", functools.partial(_check_durability, reopen)))
    results = []
    rng = random.Random(SUITE_SEED)
    for name, check in properties:
        with factory() as store:
            try:
                check(store, rng)
                results.append(PropertyResult(name, True))
            except Exception as exc:  # any leak is a conformance failure
                results.append(PropertyResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results


def check_backend(cfg: BackendConfig) -> list[PropertyResult]:
    """Run every property against ``cfg``'s backend, each in a ``fresh_namespace``.

    Disk kinds also check durability by reopening the last namespace. Any
    number of runs may share one root.
    """
    namespaces: list[BackendConfig] = []

    def factory() -> ModelStore:
        namespaces.append(fresh_namespace(cfg, "conformance"))
        return open_backend(namespaces[-1])

    durable = cfg.kind in DISK_BACKENDS
    return run_suite(factory, reopen=(lambda: open_backend(namespaces[-1])) if durable else None)
