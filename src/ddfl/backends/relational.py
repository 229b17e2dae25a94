"""Embedded relational backend over the stdlib sqlite3 engine.

One database file per root directory; the schema is a single table whose
columns and primary key mirror the record addressing exactly, so several
namespaces can share the file. The key leads with the round, so a round's
records are one index range. A table with other columns fails at open.

Putting a round's global deletes the round's client records in the same
transaction. Every insert is guarded, in the same statement, by the
absence of its round's global, so a closed round takes no new records.
Freed pages are not zeroed (``secure_delete = OFF``): the payloads are
ciphertext, and zeroing would write and journal every page a round frees.
A new file gets 32 KiB pages, so a model token spans fewer overflow pages
to write, read and free; an existing file keeps its page size.
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
PAGE_SIZE = 32768

_SCHEMA = """
CREATE TABLE IF NOT EXISTS models (
    namespace  TEXT    NOT NULL,
    client_id  INTEGER NOT NULL,
    "round"    INTEGER NOT NULL,
    payload    BLOB    NOT NULL,
    accuracy   REAL,
    elapsed_ms REAL,
    stored_at  INTEGER NOT NULL,
    PRIMARY KEY (namespace, "round", client_id)
)
"""
# A record goes in only while its round has no global: a client's round is
# still open, and a global is not stored yet.
_INSERT_INTO_OPEN_ROUND = (
    'INSERT INTO models (namespace, client_id, "round", payload, accuracy, elapsed_ms, stored_at)'
    " SELECT ?1, ?2, ?3, ?4, ?5, ?6, ?7 WHERE NOT EXISTS (SELECT 1 FROM models"
    f' WHERE namespace = ?1 AND "round" = ?3 AND client_id = {GLOBAL_CLIENT_ID})'
)
_COLUMNS = ["namespace", "client_id", "round", "payload", "accuracy", "elapsed_ms", "stored_at"]


class RelationalStore(ModelStore):
    def __init__(self, root: Path, namespace: str, fsync: bool = False):
        super().__init__(namespace)
        self.path = Path(root) / DB_FILENAME
        self._lock = threading.RLock()
        conn = None
        try:
            conn = sqlite3.connect(self.path, check_same_thread=False)
            conn.execute(f"PRAGMA synchronous = {'FULL' if fsync else 'OFF'}")
            conn.execute("PRAGMA secure_delete = OFF")
            # Takes effect only while the file is still empty.
            conn.execute(f"PRAGMA page_size = {PAGE_SIZE}")
            conn.execute(_SCHEMA)
            conn.commit()
            columns = [row[1] for row in conn.execute("PRAGMA table_info(models)")]
        except sqlite3.Error as exc:
            if conn is not None:
                conn.close()
            raise BackendUnavailableError(f"cannot open {self.path}: {exc}") from exc
        if columns != _COLUMNS:
            conn.close()
            raise BackendUnavailableError(f"{self.path}: models table has columns {columns}")
        self._conn = conn

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def _row_to_record(self, row) -> ModelRecord:
        client_id, round_number, payload, accuracy, elapsed_ms, stored_at = row
        return ModelRecord(
            key=StoreKey(client_id, round_number),
            payload=bytes(payload),
            accuracy=accuracy,
            elapsed_ms=elapsed_ms,
            stored_at=stored_at,
        )

    def put(self, record: ModelRecord) -> None:
        key = record.key
        values = (
            self.namespace,
            key.client_id,
            key.round,
            record.payload,
            record.accuracy,
            record.elapsed_ms,
            record.stored_at,
        )
        with self._lock:
            try:
                with self._conn:  # one transaction: commit, or roll back on any error
                    if not self._conn.execute(_INSERT_INTO_OPEN_ROUND, values).rowcount:
                        what = "already stored" if key.is_global else "is in a closed round"
                        raise DuplicateKeyError(f"{key} {what} in {self.namespace!r}")
                    if key.is_global:
                        self._conn.execute(
                            'DELETE FROM models WHERE namespace = ? AND "round" = ?'
                            " AND client_id >= 0",
                            (self.namespace, key.round),
                        )
            except sqlite3.IntegrityError:
                raise DuplicateKeyError(f"{key} already stored in {self.namespace!r}") from None
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
            'SELECT client_id, "round", payload, accuracy, elapsed_ms, stored_at'
            ' FROM models WHERE namespace = ? AND "round" = ? AND client_id = ?',
            (self.namespace, key.round, key.client_id),
        )
        if not rows:
            raise NotFoundError(f"{key} not in {self.namespace!r}")
        return self._row_to_record(rows[0])

    def fetch_round(self, round_number: int, expected_clients: int) -> list[ModelRecord]:
        check_fetch_round_args(round_number)
        rows = self._query(
            'SELECT client_id, "round", payload, accuracy, elapsed_ms, stored_at'
            ' FROM models WHERE namespace = ? AND "round" = ? AND client_id >= 0'
            " ORDER BY client_id",
            (self.namespace, round_number),
        )
        return [self._row_to_record(row) for row in rows]

    def latest_round(self) -> int:
        ((latest,),) = self._query(
            'SELECT MAX("round") FROM models WHERE namespace = ? AND client_id = ?',
            (self.namespace, GLOBAL_CLIENT_ID),
        )
        return 0 if latest is None else int(latest)
