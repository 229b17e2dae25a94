"""The model-store contract: the only channel between master and clients.

Records follow a four-column schema: round number, encrypted model
payload, optional testing accuracy, and optional elapsed time. Every
record is addressed by (client_id, round, iteration) within a namespace;
the reserved client id -1 marks global models and renders as "global".
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass

from .errors import ValidationError

GLOBAL_CLIENT_ID = -1


def now_ms() -> int:
    return int(time.time() * 1000)


@dataclass(frozen=True, order=True)
class StoreKey:
    client_id: int
    round: int
    iteration: int = 0

    def __post_init__(self):
        if self.client_id < GLOBAL_CLIENT_ID:
            raise ValidationError(f"client_id must be >= -1, got {self.client_id}")
        if self.iteration < 0:
            raise ValidationError(f"iteration must be >= 0, got {self.iteration}")
        # Client rounds start at 1. Round 0 is allowed only for the global
        # slot, which holds the master's initial model.
        min_round = 0 if self.client_id == GLOBAL_CLIENT_ID else 1
        if self.round < min_round:
            raise ValidationError(
                f"round must be >= {min_round} for client_id {self.client_id}, "
                f"got {self.round}"
            )

    @property
    def is_global(self) -> bool:
        return self.client_id == GLOBAL_CLIENT_ID

    @property
    def client_label(self) -> str:
        return "global" if self.is_global else str(self.client_id)


def global_key(round_number: int) -> StoreKey:
    return StoreKey(GLOBAL_CLIENT_ID, round_number, 0)


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
        if self.elapsed_ms is not None and self.elapsed_ms < 0:
            raise ValidationError(f"elapsed_ms must be >= 0, got {self.elapsed_ms}")
        if self.stored_at < 0:
            raise ValidationError("stored_at must be >= 0")


class ModelStore(abc.ABC):
    """Contract every storage backend must satisfy.

    Implementations must be safe under concurrent ``put`` from many client
    workers plus concurrent reads from the master, atomic at record
    granularity, and must never inspect payload bytes. ``put`` is
    insert-only: writing an existing key raises DuplicateKeyError.
    """

    def __init__(self, namespace: str):
        check_namespace(namespace)
        self.namespace = namespace

    @abc.abstractmethod
    def put(self, record: ModelRecord) -> None:
        """Durably store a new record; fails on an existing key."""

    @abc.abstractmethod
    def get(self, key: StoreKey) -> ModelRecord:
        """Return the record stored under ``key`` (payload byte-identical)."""

    @abc.abstractmethod
    def fetch_round(self, round_number: int, expected_clients: int) -> list[ModelRecord]:
        """All client records for a round, sorted by client_id.

        May return fewer than ``expected_clients`` records; the caller owns
        the barrier.
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
    if round_number < 1:
        raise ValidationError(f"fetch_round needs round >= 1, got {round_number}")
