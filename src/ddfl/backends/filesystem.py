"""Filesystem backend: one file per record, published by atomic link.

Record files live at <root>/<namespace>/<round>/<client>.rec, where a
round's global model is <client> = "global", and contain:

    header  (16 bytes): magic "DDR1" | payload length u64 LE | flags u32 LE
    payload (length as above)
    footer  (24 bytes): accuracy f64 LE | elapsed_ms f64 LE | stored_at u64 LE

Flag bit 0 marks a present accuracy, bit 1 a present elapsed_ms; absent
fields are written as zero. Writes go to a temp file in the same
directory and are published with os.link, which is atomic and fails on an
existing target, giving crash safety and duplicate detection in one step.
With fsync on, the record file is synced before the link, and every
directory that may have gained an entry (round, namespace) after it.

Linking a round's global closes the round: its client records are then
unlinked, a later client ``put`` into it raises DuplicateKeyError, and
``fetch_round`` returns nothing for a round directory that lists a
global.rec, so records left by a crash before the unlinks stay hidden.

Every OSError is a BackendUnavailableError, except a missing record on
``get`` (NotFoundError) and an existing one on ``link`` (DuplicateKeyError).
So is a missing root at open, which makes only the namespace directory, a
namespace path that is not a directory, at open or later, and a namespace
holding a "global" directory, the mark of the older <client>/<round>/ layout.
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
# The name of a round's global record; a round directory holding it is closed.
GLOBAL_RECORD = "global.rec"


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


def _read_record(path: str | Path, key: StoreKey) -> ModelRecord:
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


def _listing(directory: Path) -> list[os.DirEntry]:
    """The entries of ``directory``; a missing directory, or a file, is empty."""
    try:
        with os.scandir(directory) as entries:
            return list(entries)
    except (FileNotFoundError, NotADirectoryError):
        return []


def _numbered_entries(
    entries: list[os.DirEntry], suffix: str = ""
) -> Iterator[tuple[int, os.DirEntry]]:
    """Yield (n, entry) for each entry named ``str(n) + suffix`` that ``put`` could write.

    With a suffix these are regular files (records), without one
    directories (rounds). Any other name or kind of entry (``global.rec``,
    ``007``, ``abc.rec``, a temp file, a directory ``3.rec``) is skipped.
    """
    for entry in entries:
        number = entry.name.removesuffix(suffix)
        if entry.name != number + suffix or not number.isdecimal() or str(int(number)) != number:
            continue
        if entry.is_file(follow_symlinks=False) if suffix else entry.is_dir(follow_symlinks=False):
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
        if (self._ns_dir / "global").exists():
            raise BackendUnavailableError(f"{self._ns_dir} holds records in an older layout")

    def _record_path(self, key: StoreKey) -> Path:
        return self._ns_dir / str(key.round) / f"{key.client_label}.rec"

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
        round_dir = final.parent
        tmp = round_dir / f".{final.name}.tmp-{uuid.uuid4().hex}"
        header, footer = _frame(record)
        with self._available():
            # No parents=True: a namespace that vanishes now must stay missing.
            round_dir.mkdir(exist_ok=True)
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
                    for directory in (round_dir, self._ns_dir):
                        _fsync_dir(directory)
            finally:
                tmp.unlink(missing_ok=True)
            if record.key.is_global:
                # Retire the round's client records; a racing client may
                # already have removed its own.
                for _, entry in _numbered_entries(_listing(round_dir), ".rec"):
                    with contextlib.suppress(FileNotFoundError):
                        os.unlink(entry.path)
            elif (round_dir / GLOBAL_RECORD).is_file():
                # Checked after the link: a global linked before this check
                # closed the round first, and one linked after it retires
                # this record with the rest of the round.
                final.unlink(missing_ok=True)
                raise DuplicateKeyError(f"{record.key} is in a closed round in {self.namespace!r}")

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
            entries = _listing(self._ns_dir / str(round_number))
            # A closed round is empty, even if a crash or a late put left records in it.
            if any(entry.name == GLOBAL_RECORD and entry.is_file() for entry in entries):
                return []
            for client_id, entry in _numbered_entries(entries, ".rec"):
                records.append(_read_record(entry.path, StoreKey(client_id, round_number)))
        records.sort(key=lambda rec: rec.key.client_id)
        return records

    def latest_round(self) -> int:
        with self._available():
            rounds = _numbered_entries(_listing(self._ns_dir))
            closed = (n for n, entry in rounds if Path(entry.path, GLOBAL_RECORD).is_file())
            return max(closed, default=0)
