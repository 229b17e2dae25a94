"""Filesystem backend: one file per record, published by atomic link.

Record files live at <root>/<namespace>/<client>/<round>/<iteration>.rec
and contain:

    header  (16 bytes): magic "DDR1" | payload length u64 LE | flags u32 LE
    payload (length as above)
    footer  (24 bytes): accuracy f64 LE | elapsed_ms f64 LE | stored_at u64 LE

Flag bit 0 marks a present accuracy, bit 1 a present elapsed_ms; absent
fields are written as zero. Writes go to a temp file in the same
directory and are published with os.link, which is atomic and fails on an
existing target, giving crash safety and duplicate detection in one step.
With fsync on, the record file is synced before the link, and every
directory that may have gained an entry (round, client, namespace) after it.

Every OSError is a BackendUnavailableError, except a missing record on
``get`` (NotFoundError) and an existing one on ``link`` (DuplicateKeyError).
So is a missing root at open, which makes only the namespace directory, and
a namespace path that is not a directory, at open or later.
"""

from __future__ import annotations

import contextlib
import os
import struct
import uuid
from collections.abc import Iterator
from pathlib import Path

from ..errors import BackendUnavailableError, CorruptRecordError, DuplicateKeyError, NotFoundError
from ..store import ModelRecord, ModelStore, StoreKey, check_fetch_round_args

RECORD_MAGIC = b"DDR1"
_HEADER = struct.Struct("<4sQI")
_FOOTER = struct.Struct("<ddQ")
_HAS_ACCURACY = 0x1
_HAS_ELAPSED = 0x2


def _frame(record: ModelRecord) -> tuple[bytes, bytes]:
    """The header and footer that enclose ``record.payload`` in its file."""
    flags = 0
    accuracy = 0.0
    elapsed = 0.0
    if record.accuracy is not None:
        flags |= _HAS_ACCURACY
        accuracy = record.accuracy
    if record.elapsed_ms is not None:
        flags |= _HAS_ELAPSED
        elapsed = record.elapsed_ms
    return (
        _HEADER.pack(RECORD_MAGIC, len(record.payload), flags),
        _FOOTER.pack(accuracy, elapsed, record.stored_at),
    )


def encode_record(record: ModelRecord) -> bytes:
    """The bytes of ``record``'s file, as ``put`` writes them."""
    header, footer = _frame(record)
    return b"".join((header, record.payload, footer))


def _read_record(path: Path, key: StoreKey) -> ModelRecord:
    """Check a record file's header against its size, then read the payload in one read."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size + _FOOTER.size:
            raise CorruptRecordError(f"{path}: {size} bytes is too short for a record")
        magic, payload_len, flags = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != RECORD_MAGIC:
            raise CorruptRecordError(f"{path}: bad record magic {magic!r}")
        expected = _HEADER.size + payload_len + _FOOTER.size
        if size != expected:
            raise CorruptRecordError(f"{path}: expected {expected} bytes, found {size}")
        payload = fh.read(payload_len)
        footer = fh.read(_FOOTER.size)
    if len(payload) != payload_len or len(footer) != _FOOTER.size:
        raise CorruptRecordError(f"{path}: shorter than its {size} bytes when read")
    accuracy, elapsed, stored_at = _FOOTER.unpack(footer)
    return ModelRecord(
        key=key,
        payload=payload,
        accuracy=accuracy if flags & _HAS_ACCURACY else None,
        elapsed_ms=elapsed if flags & _HAS_ELAPSED else None,
        stored_at=stored_at,
    )


def _numbered_entries(directory: Path, suffix: str = "") -> Iterator[tuple[int, Path]]:
    """Yield (n, entry) for each entry of ``directory`` named ``str(n) + suffix``.

    These are the names ``put`` writes; any other name (``global``, ``007``,
    ``abc.rec``, a temp file) is skipped, and a missing directory is empty.
    """
    if not directory.is_dir():
        return
    for entry in directory.iterdir():
        number = entry.name.removesuffix(suffix)
        if entry.name == number + suffix and number.isdecimal() and str(int(number)) == number:
            yield int(number), entry


def _fsync_dir(path: Path) -> None:
    dir_fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


class FilesystemStore(ModelStore):
    def __init__(self, root: Path, namespace: str, fsync: bool = False):
        super().__init__(namespace)
        self.root = Path(root)
        self.fsync = fsync
        self._ns_dir = self.root / namespace
        try:
            # No parents=True: a missing root stays missing.
            self._ns_dir.mkdir(exist_ok=True)
            if fsync:
                _fsync_dir(self.root)
        except OSError as exc:
            raise BackendUnavailableError(f"namespace {namespace!r}: {exc}") from exc

    def _record_path(self, key: StoreKey) -> Path:
        return self._ns_dir / key.client_label / str(key.round) / f"{key.iteration}.rec"

    @contextlib.contextmanager
    def _available(self):
        """Run the block on a live namespace; raise any OSError as BackendUnavailableError."""
        try:
            if not self._ns_dir.is_dir():
                raise BackendUnavailableError(f"namespace directory {self._ns_dir} is gone")
            yield
        except OSError as exc:
            raise BackendUnavailableError(f"namespace {self.namespace!r}: {exc}") from exc

    def put(self, record: ModelRecord) -> None:
        final = self._record_path(record.key)
        tmp = final.parent / f".{final.name}.tmp-{uuid.uuid4().hex}"
        header, footer = _frame(record)
        with self._available():
            # No parents=True: a namespace that vanishes now must stay missing.
            final.parent.parent.mkdir(exist_ok=True)
            final.parent.mkdir(exist_ok=True)
            try:
                with open(tmp, "wb") as fh:
                    # A payload larger than the write buffer goes from its
                    # own bytes to the file, with no joined copy.
                    fh.write(header)
                    fh.write(record.payload)
                    fh.write(footer)
                    if self.fsync:
                        fh.flush()
                        os.fsync(fh.fileno())
                try:
                    os.link(tmp, final)
                except FileExistsError:
                    raise DuplicateKeyError(
                        f"{record.key} already stored in {self.namespace!r}"
                    ) from None
                if self.fsync:
                    for directory in (final.parent, final.parent.parent, self._ns_dir):
                        _fsync_dir(directory)
            finally:
                tmp.unlink(missing_ok=True)

    def get(self, key: StoreKey) -> ModelRecord:
        path = self._record_path(key)
        with self._available():
            try:
                return _read_record(path, key)
            except FileNotFoundError:
                raise NotFoundError(f"{key} not in {self.namespace!r}") from None

    def fetch_round(self, round_number: int, expected_clients: int) -> list[ModelRecord]:
        check_fetch_round_args(round_number)
        records = []
        with self._available():
            for client_id, client_dir in _numbered_entries(self._ns_dir):
                for iteration, path in _numbered_entries(client_dir / str(round_number), ".rec"):
                    key = StoreKey(client_id, round_number, iteration)
                    records.append(_read_record(path, key))
        records.sort(key=lambda rec: (rec.key.client_id, rec.key.iteration))
        return records

    def latest_round(self) -> int:
        with self._available():
            rounds = _numbered_entries(self._ns_dir / "global")
            return max(
                (n for n, path in rounds if any(_numbered_entries(path, ".rec"))), default=0
            )
