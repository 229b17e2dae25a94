"""Embedded relational backend over the stdlib sqlite3 engine.

One database file per root directory; the schema is a single table whose
columns and primary key mirror the record addressing exactly, so several
namespaces can share the file.
"""

from __future__ import annotations

import sqlite3
import threading
from pathlib import Path

from ..errors import (
    BackendUnavailableError,
    DuplicateKeyError,
    NotFoundError,
)
from ..store import (
    GLOBAL_CLIENT_ID,
    ModelRecord,
    ModelStore,
    StoreKey,
    check_fetch_round_args,
)

DB_FILENAME = "models.sqlite3"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS models (
    namespace  TEXT    NOT NULL,
    client_id  INTEGER NOT NULL,
    "round"    INTEGER NOT NULL,
    iteration  INTEGER NOT NULL,
    payload    BLOB    NOT NULL,
    accuracy   REAL,
    elapsed_ms REAL,
    stored_at  INTEGER NOT NULL,
    PRIMARY KEY (namespace, client_id, "round", iteration)
)
"""


class RelationalStore(ModelStore):
    def __init__(self, root: Path, namespace: str, fsync: bool = False):
        super().__init__(namespace)
        self.path = Path(root) / DB_FILENAME
        self._lock = threading.RLock()
        conn = None
        try:
            conn = sqlite3.connect(self.path, check_same_thread=False)
            conn.execute(f"PRAGMA synchronous = {'FULL' if fsync else 'OFF'}")
            conn.execute(_SCHEMA)
            conn.commit()
        except sqlite3.Error as exc:
            if conn is not None:
                conn.close()
            raise BackendUnavailableError(f"cannot open {self.path}: {exc}") from exc
        self._conn = conn

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def _row_to_record(self, row) -> ModelRecord:
        client_id, round_number, iteration, payload, accuracy, elapsed_ms, stored_at = row
        return ModelRecord(
            key=StoreKey(client_id, round_number, iteration),
            payload=bytes(payload),
            accuracy=accuracy,
            elapsed_ms=elapsed_ms,
            stored_at=stored_at,
        )

    def put(self, record: ModelRecord) -> None:
        with self._lock:
            try:
                self._conn.execute(
                    'INSERT INTO models (namespace, client_id, "round", iteration,'
                    " payload, accuracy, elapsed_ms, stored_at)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        self.namespace,
                        record.key.client_id,
                        record.key.round,
                        record.key.iteration,
                        record.payload,
                        record.accuracy,
                        record.elapsed_ms,
                        record.stored_at,
                    ),
                )
                self._conn.commit()
            except sqlite3.IntegrityError:
                raise DuplicateKeyError(
                    f"{record.key} already stored in {self.namespace!r}"
                ) from None
            except sqlite3.Error as exc:
                raise BackendUnavailableError(str(exc)) from exc

    def _query(self, sql: str, params: tuple) -> list[tuple]:
        """All rows of one read, with sqlite errors raised as BackendUnavailableError."""
        with self._lock:
            try:
                return self._conn.execute(sql, params).fetchall()
            except sqlite3.Error as exc:
                raise BackendUnavailableError(str(exc)) from exc

    def get(self, key: StoreKey) -> ModelRecord:
        rows = self._query(
            'SELECT client_id, "round", iteration, payload, accuracy, elapsed_ms,'
            " stored_at FROM models WHERE namespace = ? AND client_id = ?"
            ' AND "round" = ? AND iteration = ?',
            (self.namespace, key.client_id, key.round, key.iteration),
        )
        if not rows:
            raise NotFoundError(f"{key} not in {self.namespace!r}")
        return self._row_to_record(rows[0])

    def fetch_round(self, round_number: int, expected_clients: int) -> list[ModelRecord]:
        check_fetch_round_args(round_number)
        rows = self._query(
            'SELECT client_id, "round", iteration, payload, accuracy, elapsed_ms,'
            ' stored_at FROM models WHERE namespace = ? AND "round" = ?'
            " AND client_id >= 0",
            (self.namespace, round_number),
        )
        # Sorted here, not by ORDER BY: sqlite would copy every payload into
        # a temporary sorter.
        records = [self._row_to_record(row) for row in rows]
        records.sort(key=lambda rec: (rec.key.client_id, rec.key.iteration))
        return records

    def latest_round(self) -> int:
        ((latest,),) = self._query(
            'SELECT MAX("round") FROM models WHERE namespace = ? AND client_id = ?',
            (self.namespace, GLOBAL_CLIENT_ID),
        )
        return 0 if latest is None else int(latest)
