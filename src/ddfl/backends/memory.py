"""In-memory backend: locked dicts, nothing persisted across opens.

Globals are kept by round, client records by round and then client, so
putting a round's global retires that round's client records in one pop.
"""

from __future__ import annotations

import threading

from ..errors import DuplicateKeyError, NotFoundError
from ..store import ModelRecord, ModelStore, StoreKey, check_fetch_round_args


class MemoryStore(ModelStore):
    def __init__(self, namespace: str):
        super().__init__(namespace)
        self._globals: dict[int, ModelRecord] = {}
        self._clients: dict[int, dict[int, ModelRecord]] = {}
        self._lock = threading.Lock()

    def put(self, record: ModelRecord) -> None:
        key = record.key
        with self._lock:
            if key.round in self._globals:
                what = "already stored" if key.is_global else "is in a closed round"
                raise DuplicateKeyError(f"{key} {what} in {self.namespace!r}")
            if key.is_global:
                self._globals[key.round] = record
                self._clients.pop(key.round, None)
                return
            clients = self._clients.setdefault(key.round, {})
            if key.client_id in clients:
                raise DuplicateKeyError(f"{key} already stored in {self.namespace!r}")
            clients[key.client_id] = record

    def get(self, key: StoreKey) -> ModelRecord:
        with self._lock:
            try:
                if key.is_global:
                    return self._globals[key.round]
                return self._clients[key.round][key.client_id]
            except KeyError:
                raise NotFoundError(f"{key} not in {self.namespace!r}") from None

    def fetch_round(self, round_number: int, expected_clients: int) -> list[ModelRecord]:
        check_fetch_round_args(round_number)
        with self._lock:
            clients = self._clients.get(round_number, {})
            return [clients[client_id] for client_id in sorted(clients)]

    def latest_round(self) -> int:
        with self._lock:
            return max(self._globals, default=0)
