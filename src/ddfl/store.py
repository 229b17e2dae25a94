"""The model-store contract: the only channel between master and clients.

Records follow a four-column schema: round number, encrypted model
payload, optional testing accuracy, and optional elapsed time. Every
record is addressed by (client_id, round) within a namespace; the
reserved client id -1 marks global models and renders as "global".
Keys and ``stored_at`` lie below 2**63 and ``elapsed_ms`` is finite, so
every backend can store every record that constructs.
"""

from __future__ import annotations

import abc
import math
import time
from dataclasses import dataclass

from .errors import ValidationError

GLOBAL_CLIENT_ID = -1


def _check_range(name: str, value: int, least: int) -> None:
    # Keys and ``stored_at`` must fit the relational backend's signed 64-bit
    # INTEGER columns, so every backend refuses larger values.
    if not (least <= value < 2**63):
        raise ValidationError(f"{name} must be in [{least}, 2**63), got {value}")


def now_ms() -> int:
    return int(time.time() * 1000)


@dataclass(frozen=True, order=True)
class StoreKey:
    client_id: int
    round: int

    def __post_init__(self):
        _check_range("client_id", self.client_id, GLOBAL_CLIENT_ID)
        # Client rounds start at 1. Round 0 is allowed only for the global
        # slot, which holds the master's initial model.
        min_round = 0 if self.client_id == GLOBAL_CLIENT_ID else 1
        _check_range("round", self.round, min_round)

    @property
    def is_global(self) -> bool:
        return self.client_id == GLOBAL_CLIENT_ID

    @property
    def client_label(self) -> str:
        return "global" if self.is_global else str(self.client_id)


def global_key(round_number: int) -> StoreKey:
    return StoreKey(GLOBAL_CLIENT_ID, round_number)


@dataclass(frozen=True)
class ModelRecord:
    key: StoreKey
    payload: bytes
    accuracy: float | None = None
    elapsed_ms: float | None = None
    stored_at: int = 0

    def __post_init__(self):
        if not self.payload:
            raise ValidationError("record payload must not be empty")
        if self.accuracy is not None and not (0.0 <= self.accuracy <= 1.0):
            raise ValidationError(f"accuracy must be in [0, 1], got {self.accuracy}")
        if self.elapsed_ms is not None and not (0 <= self.elapsed_ms < math.inf):
            raise ValidationError(f"elapsed_ms must be finite and >= 0, got {self.elapsed_ms}")
        _check_range("stored_at", self.stored_at, 0)


class ModelStore(abc.ABC):
    """Contract every storage backend must satisfy.

    Implementations must be safe under concurrent ``put`` from many client
    workers plus concurrent reads from the master, atomic at record
    granularity, and must never inspect payload bytes. ``put`` is
    insert-only: writing an existing key raises DuplicateKeyError.

    Putting round r's global closes round r and retires its client
    records: ``fetch_round(r)`` then returns ``[]``, ``get`` of a round-r
    client key raises NotFoundError, and a later client ``put`` into round
    r raises DuplicateKeyError. Globals are never retired.
    """

    def __init__(self, namespace: str):
        check_namespace(namespace)
        self.namespace = namespace

    @abc.abstractmethod
    def put(self, record: ModelRecord) -> None:
        """Durably store a new record; fails on an existing key or a closed round.

        A global record also retires the client records of its round.
        """

    @abc.abstractmethod
    def get(self, key: StoreKey) -> ModelRecord:
        """Return the record stored under ``key`` (payload byte-identical)."""

    @abc.abstractmethod
    def fetch_round(self, round_number: int, expected_clients: int) -> list[ModelRecord]:
        """All client records for a round, sorted by client_id.

        May return fewer than ``expected_clients`` records; the caller checks
        that the round is complete.
        """

    @abc.abstractmethod
    def latest_round(self) -> int:
        """Highest round with a stored global model, or 0 if there is none."""

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


def check_namespace(namespace: str) -> None:
    # Disk backends keep a namespace in a directory of that name under their root.
    if namespace in ("", ".", "..") or any(c in namespace for c in "/\\\0"):
        raise ValidationError(f"namespace must be a single path component, got {namespace!r}")


def check_fetch_round_args(round_number: int) -> None:
    _check_range("fetch_round's round", round_number, 1)
