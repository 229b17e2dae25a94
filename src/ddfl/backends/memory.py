"""In-memory backend: a locked dict, nothing persisted across opens."""

from __future__ import annotations

import threading

from ..errors import DuplicateKeyError, NotFoundError
from ..store import GLOBAL_CLIENT_ID, ModelRecord, ModelStore, StoreKey, check_fetch_round_args


class MemoryStore(ModelStore):
    def __init__(self, namespace: str):
        super().__init__(namespace)
        self._records: dict[StoreKey, ModelRecord] = {}
        self._lock = threading.Lock()

    def put(self, record: ModelRecord) -> None:
        with self._lock:
            if record.key in self._records:
                raise DuplicateKeyError(f"{record.key} already stored in {self.namespace!r}")
            self._records[record.key] = record

    def get(self, key: StoreKey) -> ModelRecord:
        with self._lock:
            try:
                return self._records[key]
            except KeyError:
                raise NotFoundError(f"{key} not in {self.namespace!r}") from None

    def fetch_round(self, round_number: int, expected_clients: int) -> list[ModelRecord]:
        check_fetch_round_args(round_number)
        with self._lock:
            hits = [
                rec
                for key, rec in self._records.items()
                if key.round == round_number and key.client_id >= 0
            ]
        return sorted(hits, key=lambda rec: rec.key.client_id)

    def latest_round(self) -> int:
        with self._lock:
            rounds = [
                key.round for key in self._records if key.client_id == GLOBAL_CLIENT_ID
            ]
        return max(rounds, default=0)
