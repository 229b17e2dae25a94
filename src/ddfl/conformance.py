"""The ModelStore conformance suite.

One property set, run unchanged against every backend, proving the
backends are interchangeable behind the contract. Callers supply a
factory returning a fresh, empty store per property; disk backends may
also supply a ``reopen`` callable to check durability across restarts.
"""

from __future__ import annotations

import functools
import random
import threading
from dataclasses import dataclass
from typing import Callable

from .errors import DuplicateKeyError, NotFoundError, ValidationError
from .store import GLOBAL_CLIENT_ID, ModelRecord, ModelStore, StoreKey, global_key


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str = ""


def _random_record(rng: random.Random, client_id: int, round_number: int) -> ModelRecord:
    payload = rng.randbytes(rng.randint(1, 2048))
    return ModelRecord(
        key=StoreKey(client_id, round_number, 0),
        payload=payload,
        accuracy=rng.random() if rng.random() < 0.5 else None,
        elapsed_ms=rng.random() * 1e4 if rng.random() < 0.5 else None,
        stored_at=rng.randint(0, 2**48),
    )


def _check_roundtrip(store: ModelStore, rng: random.Random) -> None:
    record = _random_record(rng, 3, 2)
    store.put(record)
    got = store.get(record.key)
    assert got.payload == record.payload, "payload changed across put/get"
    assert got.key == record.key, "key changed across put/get"
    assert got.accuracy == record.accuracy, "accuracy changed across put/get"
    assert got.elapsed_ms == record.elapsed_ms, "elapsed_ms changed across put/get"
    assert got.stored_at == record.stored_at, "stored_at changed across put/get"


def _check_duplicate_rejection(store: ModelStore, rng: random.Random) -> None:
    record = _random_record(rng, 0, 1)
    store.put(record)
    try:
        store.put(record)
    except DuplicateKeyError:
        pass
    else:
        raise AssertionError("second put of the same key did not raise DuplicateKeyError")
    store.put(_random_record(rng, GLOBAL_CLIENT_ID, 1))
    try:
        store.put(_random_record(rng, GLOBAL_CLIENT_ID, 1))
    except DuplicateKeyError:
        pass
    else:
        raise AssertionError("second put of a round's global did not raise DuplicateKeyError")


def _check_not_found(store: ModelStore, rng: random.Random) -> None:
    for key in (StoreKey(5, 7, 0), global_key(99)):
        try:
            store.get(key)
        except NotFoundError:
            continue
        raise AssertionError(f"get on never-written {key} did not raise NotFoundError")
    try:
        StoreKey(1, 0, 0)
    except ValidationError:
        pass
    else:
        raise AssertionError("client key with round 0 was not rejected")


def _check_sorted_fetch_round(store: ModelStore, rng: random.Random) -> None:
    for client_id in (2, 0, 1):
        store.put(_random_record(rng, client_id, 4))
    records = store.fetch_round(4, 3)
    ids = [rec.key.client_id for rec in records]
    assert ids == [0, 1, 2], f"fetch_round returned client order {ids}"
    assert store.fetch_round(5, 3) == [], "fetch_round on an empty round must be []"


def _check_latest_round(store: ModelStore, rng: random.Random) -> None:
    assert store.latest_round() == 0, "empty store must report latest_round 0"
    for round_number in (1, 3):
        store.put(_random_record(rng, GLOBAL_CLIENT_ID, round_number))
        assert store.latest_round() == round_number
    # A client put never advances the global round.
    store.put(_random_record(rng, 0, 9))
    assert store.latest_round() == 3, "client records must not affect latest_round"
    assert store.get(global_key(3)).key == global_key(3)


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
        assert got.payload == payload, f"payload mismatch at {key}"


def _check_concurrent_writers(store: ModelStore, rng: random.Random, writers: int = 8) -> None:
    per_writer = 25
    errors: list[BaseException] = []

    def write(client_id: int) -> None:
        try:
            for round_number in range(1, per_writer + 1):
                store.put(
                    ModelRecord(
                        key=StoreKey(client_id, round_number, 0),
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
        assert len(got) == writers, f"round {round_number} has {len(got)} of {writers} records"

    # Same-key race: exactly one writer may win.
    contested = ModelRecord(key=StoreKey(0, 500, 0), payload=b"contested", stored_at=1)
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
    assert len(wins) == 1, f"{len(wins)} writers claimed the same key"
    assert len(losses) == writers - 1


def _check_durability(reopen: Callable, store: ModelStore, rng: random.Random) -> None:
    # Closes ``store`` as a restart would; the suite's own close is then a no-op.
    record = _random_record(rng, 1, 1)
    store.put(record)
    store.put(_random_record(rng, GLOBAL_CLIENT_ID, 1))
    store.close()
    with reopen() as again:
        got = again.get(record.key)
        assert got.payload == record.payload, "payload changed across reopen"
        assert again.latest_round() == 1, "global lost across reopen"


# Seeds the random records of every property, so a failure reproduces.
SUITE_SEED = 20240101

CORE_PROPERTIES: list[tuple[str, Callable[[ModelStore, random.Random], None]]] = [
    ("roundtrip", _check_roundtrip),
    ("duplicate_rejection", _check_duplicate_rejection),
    ("not_found", _check_not_found),
    ("sorted_fetch_round", _check_sorted_fetch_round),
    ("latest_round", _check_latest_round),
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
