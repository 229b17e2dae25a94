import math
import os
import shutil
import sqlite3
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import ddfl
import ddfl.backends.filesystem as fs_mod
from ddfl.backends import DISK_BACKENDS, BackendConfig, BackendKind, open_backend
from ddfl.backends.filesystem import FilesystemStore, encode_record
from ddfl.backends.memory import MemoryStore
from ddfl.backends.queue import QueueStore
from ddfl.backends.relational import RelationalStore
from ddfl.cli import EXIT_OK, main
from ddfl.conformance import check_backend, run_suite
from ddfl.errors import (
    BackendUnavailableError,
    CorruptRecordError,
    DuplicateKeyError,
    NotFoundError,
    ValidationError,
)
from ddfl.store import ModelRecord, ModelStore, StoreKey, global_key

ALL_KINDS = list(BackendKind)


def make_config(kind: BackendKind, tmp_path, namespace="t") -> BackendConfig:
    needs_root = kind in DISK_BACKENDS
    return BackendConfig(
        kind=kind, root_path=tmp_path if needs_root else None, namespace=namespace
    )


def record(client_id, round_number, payload=b"payload", **kw):
    return ModelRecord(
        key=StoreKey(client_id, round_number), payload=payload, stored_at=1, **kw
    )


def global_record(round_number, payload=b"global"):
    return ModelRecord(key=global_key(round_number), payload=payload, stored_at=1)


# --- conformance: identical suite for every backend -------------------------

@pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
def test_conformance_suite(kind, tmp_path, capsys):
    # A second run over the same root must find fresh namespaces, not the first run's.
    for _ in range(2):
        results = check_backend(make_config(kind, tmp_path))
        failures = [r for r in results if not r.passed]
        assert not failures, failures
        assert {r.name for r in results} >= {
            "roundtrip",
            "duplicate_rejection",
            "sorted_fetch_round",
            "latest_round",
            "retired_round",
            "byte_fidelity",
            "concurrent_writers",
        }
        assert ("durability_reopen" in {r.name for r in results}) == (kind in DISK_BACKENDS)
    # A kind listed twice runs twice in `ddfl conformance`, over one temporary root.
    assert main(["conformance", "--backend", f"{kind.value},{kind.value}"]) == EXIT_OK
    assert "FAIL" not in capsys.readouterr().out


# Stores that lie on get, fetch_round and latest_round; prints the failing properties.
LYING_STORE_SUITE = """
import dataclasses
from ddfl.backends.memory import MemoryStore
from ddfl.conformance import run_suite

class LyingStore(MemoryStore):
    def get(self, key):
        return dataclasses.replace(super().get(key), payload=b"other bytes")

    def fetch_round(self, round_number, expected_clients):
        return []

    def latest_round(self):
        return 0

print(sorted(r.name for r in run_suite(lambda: LyingStore("lying")) if not r.passed))
"""


def test_conformance_fails_a_lying_store_under_python_O(capsys):
    # With assert statements stripped, the suite must fail the same properties.
    exec(LYING_STORE_SUITE, {})
    failed = capsys.readouterr().out
    assert "roundtrip" in failed
    package_root = str(Path(ddfl.__file__).parents[1])
    path = os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    optimized = subprocess.run(
        [sys.executable, "-O", "-c", LYING_STORE_SUITE],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert optimized.stdout == failed


class KeepEverythingStore(ModelStore):
    """A locked dict of every record ever put: the contract before rounds closed."""

    def __init__(self, namespace):
        super().__init__(namespace)
        self._records = {}
        self._lock = threading.Lock()

    def put(self, record):
        with self._lock:
            if record.key in self._records:
                raise DuplicateKeyError(str(record.key))
            self._records[record.key] = record

    def get(self, key):
        with self._lock:
            try:
                return self._records[key]
            except KeyError:
                raise NotFoundError(str(key)) from None

    def fetch_round(self, round_number, expected_clients):
        with self._lock:
            records = list(self._records.values())
        return sorted(
            (r for r in records if r.key.round == round_number and not r.key.is_global),
            key=lambda r: r.key.client_id,
        )

    def latest_round(self):
        with self._lock:
            return max((k.round for k in self._records if k.is_global), default=0)


def test_conformance_fails_a_store_that_never_retires_a_round():
    results = run_suite(lambda: KeepEverythingStore("kept"))
    assert [r.name for r in results if not r.passed] == ["retired_round"]


def test_conformance_fails_durability_of_memory_store():
    results = run_suite(lambda: MemoryStore("gone"), reopen=lambda: MemoryStore("gone"))
    durability = next(r for r in results if r.name == "durability_reopen")
    assert not durability.passed
    assert "NotFoundError" in durability.detail


def test_conformance_names_broken_roundtrip(tmp_path):
    class DroppingStore(MemoryStore):
        def put(self, record):  # silently loses every write
            return None

    results = run_suite(lambda: DroppingStore("broken"))
    roundtrip = next(r for r in results if r.name == "roundtrip")
    assert not roundtrip.passed


def test_conformance_records_foreign_exceptions(tmp_path):
    class LeakyStore(MemoryStore):
        def get(self, key):  # leaks a non-store exception type
            raise RuntimeError("driver exploded")

    results = run_suite(lambda: LeakyStore("leaky"))
    roundtrip = next(r for r in results if r.name == "roundtrip")
    assert not roundtrip.passed
    assert "RuntimeError" in roundtrip.detail


# --- store-level semantics ---------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
def test_basic_contract_examples(kind, tmp_path):
    store = open_backend(make_config(kind, tmp_path))
    rec = record(0, 1, payload=b"abc")
    store.put(rec)
    assert store.get(rec.key).payload == b"abc"
    with pytest.raises(DuplicateKeyError):
        store.put(rec)
    with pytest.raises(NotFoundError):
        store.get(StoreKey(4, 9))
    with pytest.raises(ValidationError):
        store.get(StoreKey(0, 0))  # client rounds start at 1
    assert store.fetch_round(5, 3) == []
    with pytest.raises(ValidationError):
        store.fetch_round(0, 3)  # client rounds start at 1
    store.close()


@pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
def test_global_racing_client_puts_leaves_no_client_record(kind, tmp_path):
    """Each client put that races its round's global is retired or refused, never kept."""
    store = open_backend(make_config(kind, tmp_path))
    clients = 8
    errors = []
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_number in range(1, 11):
            start = threading.Barrier(clients + 1)

            def put(rec):
                try:
                    start.wait(timeout=10)
                    store.put(rec)
                except DuplicateKeyError:
                    pass  # the round closed first
                except BaseException as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

            records = [record(c, round_number) for c in range(clients)]
            threads = [
                threading.Thread(target=put, args=(rec,))
                for rec in [*records[:4], global_record(round_number), *records[4:]]
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors
            assert store.fetch_round(round_number, clients) == []
            for rec in records:
                with pytest.raises(NotFoundError):
                    store.get(rec.key)
            assert store.latest_round() == round_number
    finally:
        sys.setswitchinterval(switch_interval)
        store.close()


def test_key_validation():
    with pytest.raises(ValidationError):
        StoreKey(-2, 1)
    assert global_key(0).client_label == "global"
    assert StoreKey(3, 1).client_label == "3"


def test_record_validation():
    with pytest.raises(ValidationError):
        ModelRecord(key=StoreKey(0, 1), payload=b"")
    with pytest.raises(ValidationError):
        ModelRecord(key=StoreKey(0, 1), payload=b"x", accuracy=1.5)
    with pytest.raises(ValidationError):
        ModelRecord(key=StoreKey(0, 1), payload=b"x", elapsed_ms=-1.0)


UNSTORABLE = {
    "elapsed_ms=nan": lambda store: store.put(record(0, 1, elapsed_ms=math.nan)),
    "elapsed_ms=inf": lambda store: store.put(record(0, 1, elapsed_ms=math.inf)),
    "stored_at=2**63": lambda store: store.put(ModelRecord(StoreKey(0, 1), b"x", stored_at=2**63)),
    "stored_at=2**64": lambda store: store.put(ModelRecord(StoreKey(0, 1), b"x", stored_at=2**64)),
    "round=2**63": lambda store: store.put(record(0, 2**63)),
    "client_id=2**63": lambda store: store.put(record(2**63, 1)),
    "fetch_round=2**63": lambda store: store.fetch_round(2**63, 1),
}


@pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
@pytest.mark.parametrize("call", UNSTORABLE.values(), ids=UNSTORABLE.keys())
def test_what_some_backend_cannot_store_is_invalid_on_every_backend(call, kind, tmp_path):
    """Every backend stores the same records: none may take one another cannot."""
    store = open_backend(make_config(kind, tmp_path))
    with pytest.raises(ValidationError):
        call(store)
    store.close()


@pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
def test_largest_keys_and_stored_at_round_trip(kind, tmp_path):
    big = 2**63 - 1
    store = open_backend(make_config(kind, tmp_path))
    rec = ModelRecord(StoreKey(big, big), b"x", elapsed_ms=1.5, stored_at=big)
    store.put(rec)
    assert store.get(rec.key) == rec
    assert store.fetch_round(big, 1) == [rec]
    store.put(ModelRecord(global_key(big), b"g", stored_at=big))
    assert store.get(global_key(big)).stored_at == big
    assert store.latest_round() == big
    store.close()


def test_memory_backend_not_durable(tmp_path):
    cfg = make_config(BackendKind.MEMORY, tmp_path)
    store = open_backend(cfg)
    store.put(global_record(1))
    store.close()
    reopened = open_backend(cfg)
    assert reopened.latest_round() == 0


# --- filesystem backend -------------------------------------------------------

def test_filesystem_durable_across_reopen(tmp_path):
    cfg = make_config(BackendKind.FILESYSTEM, tmp_path)
    store = open_backend(cfg)
    # Round 3 is still open, so the global of round 2 leaves its record in place.
    rec = record(3, 3, payload=os.urandom(4096), accuracy=0.5, elapsed_ms=12.5)
    store.put(rec)
    store.put(global_record(2, payload=b"gl"))
    store.close()

    reopened = open_backend(cfg)
    got = reopened.get(rec.key)
    assert got.payload == rec.payload
    assert got.accuracy == 0.5
    assert got.elapsed_ms == 12.5
    assert reopened.latest_round() == 2


def test_filesystem_record_file_layout(tmp_path):
    store = FilesystemStore(tmp_path, "ns")
    rec = record(7, 3, payload=b"\x01\x02\x03")
    store.put(rec)
    path = tmp_path / "ns" / "3" / "7.rec"
    blob = path.read_bytes()
    assert blob[:4] == b"DDR1"
    assert int.from_bytes(blob[4:12], "little") == 3  # payload length
    assert blob[16:19] == b"\x01\x02\x03"
    assert len(blob) == 16 + 3 + 24  # header + payload + footer


def test_filesystem_global_renders_as_global_dir(tmp_path):
    store = FilesystemStore(tmp_path, "ns")
    store.put(global_record(1, payload=b"g"))
    assert (tmp_path / "ns" / "1" / "global.rec").is_file()


@pytest.mark.parametrize(
    "stray",
    ["1/abc.rec", "1/007.rec", "007/0.rec", "5/junk.rec", "5/global.rec/", "5/3.rec", "1/3.rec/"],
)
def test_filesystem_skips_stray_names(stray, tmp_path):
    """Only names that put writes count; anything else in the tree is skipped.

    A trailing slash makes the stray a directory. ``5/3.rec`` is a client
    record of a round with no global, which must not count as round 5.
    A directory ``1/3.rec`` is neither read as a record nor retired.
    """
    store = FilesystemStore(tmp_path, "ns")
    real = [record(0, 1, payload=b"a"), record(1, 1, payload=b"b")]
    for rec in real:
        store.put(rec)
    path = tmp_path / "ns" / stray
    if stray.endswith("/"):
        path.mkdir(parents=True)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(encode_record(record(0, 1, payload=b"stray")))
    assert store.fetch_round(1, 2) == real
    store.put(global_record(1, payload=b"g"))
    assert store.fetch_round(1, 2) == []
    assert store.latest_round() == 1


@pytest.mark.parametrize("key", [StoreKey(3, 1), global_key(1)], ids=["client", "global"])
@pytest.mark.parametrize("entry", ["record_is_a_directory", "round_is_a_file"])
def test_filesystem_get_of_a_stray_entry_is_not_found(entry, key, tmp_path):
    """``get`` skips a stray entry as ``fetch_round`` and ``latest_round`` do.

    A directory at the record's path, or a regular file at its round's
    path, holds no record: that is ``NotFoundError``, not an outage.
    """
    store = FilesystemStore(tmp_path, "ns")
    round_dir = tmp_path / "ns" / "1"
    if entry == "round_is_a_file":
        round_dir.write_bytes(b"not a round")
    else:
        name = fs_mod.GLOBAL_RECORD if key.is_global else f"{key.client_id}.rec"
        (round_dir / name).mkdir(parents=True)
    assert store.fetch_round(1, 4) == []
    assert store.latest_round() == 0
    with pytest.raises(NotFoundError):
        store.get(key)


def test_filesystem_corrupt_record_detected(tmp_path):
    store = FilesystemStore(tmp_path, "ns")
    rec = record(1, 1)
    store.put(rec)
    path = tmp_path / "ns" / "1" / "1.rec"
    path.write_bytes(b"DDR1" + b"\x00" * 4)  # far too short
    with pytest.raises(CorruptRecordError):
        store.get(rec.key)


@pytest.mark.parametrize("fsync", [False, True])
def test_filesystem_large_record_file_is_its_encoding(fsync, tmp_path):
    # Larger than the write and read buffers, so the payload takes the
    # direct path through both.
    store = FilesystemStore(tmp_path, "ns", fsync=fsync)
    rec = record(2, 1, payload=os.urandom(3 * 2**20 + 7), accuracy=0.25, elapsed_ms=3.0)
    store.put(rec)
    path = tmp_path / "ns" / "1" / "2.rec"
    assert path.read_bytes() == encode_record(rec)
    assert store.get(rec.key) == rec
    assert store.fetch_round(1, 3) == [rec]


@pytest.mark.parametrize(
    "damage",
    [
        lambda blob: blob + b"\x00",
        lambda blob: blob[:-1],
        lambda blob: b"DDR2" + blob[4:],
        lambda blob: blob[:4] + (len(blob)).to_bytes(8, "little") + blob[12:],
    ],
    ids=["extra-byte", "short-byte", "bad-magic", "length-too-large"],
)
def test_filesystem_record_of_wrong_size_or_magic_is_corrupt(damage, tmp_path):
    store = FilesystemStore(tmp_path, "ns")
    rec = record(0, 1, payload=os.urandom(10_000))
    store.put(rec)
    path = tmp_path / "ns" / "1" / "0.rec"
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(CorruptRecordError):
        store.get(rec.key)
    with pytest.raises(CorruptRecordError):
        store.fetch_round(1, 1)


def test_filesystem_crash_between_write_and_publish(tmp_path, monkeypatch):
    """A crash injected before the atomic link leaves no record visible."""
    store = FilesystemStore(tmp_path, "ns")

    class SimulatedCrash(RuntimeError):
        pass

    def crashing_link(src, dst, *a, **kw):
        raise SimulatedCrash()

    monkeypatch.setattr(fs_mod.os, "link", crashing_link)
    with pytest.raises(SimulatedCrash):
        store.put(record(0, 1, payload=b"half-written"))
    monkeypatch.undo()

    with pytest.raises(NotFoundError):
        store.get(StoreKey(0, 1))
    assert store.fetch_round(1, 1) == []
    # The slot is still usable afterwards.
    store.put(record(0, 1, payload=b"second attempt"))
    assert store.get(StoreKey(0, 1)).payload == b"second attempt"


def test_filesystem_crash_before_retiring_leaves_the_round_closed(tmp_path, monkeypatch):
    """A crash between a global's link and its unlinks hides the round's records."""
    cfg = make_config(BackendKind.FILESYSTEM, tmp_path)
    store = open_backend(cfg)
    store.put(record(0, 1))

    class SimulatedCrash(RuntimeError):
        pass

    real_unlink = os.unlink

    def crashing_unlink(path, *a, **kw):
        if os.path.basename(path) == "0.rec":
            raise SimulatedCrash()
        return real_unlink(path, *a, **kw)

    monkeypatch.setattr(fs_mod.os, "unlink", crashing_unlink)
    with pytest.raises(SimulatedCrash):
        store.put(global_record(1))
    monkeypatch.undo()
    store.close()

    reopened = open_backend(cfg)
    assert (tmp_path / "t" / "1" / "0.rec").is_file()
    assert reopened.fetch_round(1, 1) == []
    with pytest.raises(NotFoundError):
        reopened.get(StoreKey(0, 1))
    with pytest.raises(DuplicateKeyError):
        reopened.put(record(1, 1))
    assert reopened.get(global_key(1)).payload == b"global"
    reopened.close()


def break_namespace(ns_dir, fault):
    """Remove an open store's namespace directory, or replace it with a file."""
    shutil.rmtree(ns_dir)
    if fault == "replaced_by_file":
        ns_dir.write_bytes(b"not a directory")


@pytest.mark.parametrize("fault", ["removed", "replaced_by_file"])
@pytest.mark.parametrize("operation", ["put", "get", "fetch_round", "latest_round"])
def test_filesystem_broken_namespace_is_unavailable(operation, fault, tmp_path):
    """After open, a namespace that is gone is an outage, not an empty store."""
    store = FilesystemStore(tmp_path, "ns")
    store.put(record(0, 1))
    store.put(global_record(1))
    break_namespace(tmp_path / "ns", fault)
    calls = {
        "put": lambda: store.put(record(1, 1)),
        "get": lambda: store.get(StoreKey(0, 1)),
        "fetch_round": lambda: store.fetch_round(1, 2),
        "latest_round": store.latest_round,
    }
    with pytest.raises(BackendUnavailableError):
        calls[operation]()
    assert not (tmp_path / "ns").is_dir(), "put recreated the namespace"


def test_filesystem_namespace_path_that_is_a_file_fails_open(tmp_path):
    (tmp_path / "ns").write_bytes(b"not a directory")
    with pytest.raises(BackendUnavailableError):
        FilesystemStore(tmp_path, "ns")
    assert (tmp_path / "ns").read_bytes() == b"not a directory"


def test_filesystem_namespace_in_the_old_layout_fails_open(tmp_path):
    """A namespace of <client>/<round>/<iteration>.rec files is refused, not misread."""
    old = tmp_path / "ns" / "global" / "0" / "0.rec"
    old.parent.mkdir(parents=True)
    old.write_bytes(encode_record(global_record(0)))
    with pytest.raises(BackendUnavailableError, match="older layout"):
        FilesystemStore(tmp_path, "ns")
    assert old.read_bytes() == encode_record(global_record(0))


@pytest.mark.parametrize("entry", ["open_backend", "store_class"])
@pytest.mark.parametrize("kind", sorted(DISK_BACKENDS, key=lambda k: k.value), ids=lambda k: k.value)
def test_filesystem_missing_root_unavailable(kind, entry, tmp_path):
    # Both entry points refuse a missing root and create none of its missing ancestors.
    root = tmp_path / "missing" / "deeper"
    with pytest.raises(BackendUnavailableError):
        if entry == "open_backend":
            open_backend(BackendConfig(kind=kind, root_path=root, namespace="x"))
        else:
            STORE_CONSTRUCTORS[kind](root, "x")
    assert not any(tmp_path.iterdir())


STORE_CONSTRUCTORS = {
    BackendKind.MEMORY: lambda root, ns: MemoryStore(ns),
    BackendKind.FILESYSTEM: FilesystemStore,
    BackendKind.QUEUE: lambda root, ns: QueueStore(ns),
    BackendKind.RELATIONAL: RelationalStore,
}


@pytest.mark.parametrize(
    "namespace",
    [".", "..", "../escaped", "a/b", "a\\b", "a\x00b", "ABSOLUTE"],
    ids=["dot", "dotdot", "parent", "slash", "backslash", "nul", "absolute"],
)
def test_namespace_must_be_one_path_component(namespace, tmp_path):
    root = tmp_path / "root"
    root.mkdir()
    if namespace == "ABSOLUTE":
        namespace = str(tmp_path / "elsewhere")
    for kind, open_store in STORE_CONSTRUCTORS.items():
        with pytest.raises(ValidationError, match="namespace"):
            BackendConfig(kind=kind, root_path=root, namespace=namespace)
        with pytest.raises(ValidationError, match="namespace"):
            open_store(root, namespace)
    assert [p.name for p in tmp_path.iterdir()] == ["root"]
    assert not any(root.iterdir())


def test_fsync_flag_accepted(tmp_path):
    cfg = BackendConfig(
        kind=BackendKind.FILESYSTEM, root_path=tmp_path, namespace="x", fsync=True
    )
    store = open_backend(cfg)
    store.put(record(0, 1))
    assert store.get(StoreKey(0, 1)).payload == b"payload"


def test_filesystem_fsync_syncs_each_directory_that_gained_an_entry(tmp_path, monkeypatch):
    """With fsync on, a put syncs its record and every directory that gained an entry."""
    synced = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        st = os.fstat(fd)
        synced.append((st.st_dev, st.st_ino))
        real_fsync(fd)

    monkeypatch.setattr(fs_mod.os, "fsync", recording_fsync)

    def synced_paths():
        names = {}
        for path in [tmp_path, *tmp_path.rglob("*")]:
            st = path.stat()
            names[(st.st_dev, st.st_ino)] = path.relative_to(tmp_path).as_posix()
        found = sorted(names[i] for i in synced)
        synced.clear()
        return found

    store = FilesystemStore(tmp_path, "ns", fsync=True)
    assert synced_paths() == ["."]
    store.put(record(0, 1))
    # The temp file synced before the link is the record's inode.
    assert synced_paths() == ["ns", "ns/1", "ns/1/0.rec"]


# --- queue backend --------------------------------------------------------------

def test_queue_contract_reads_after_transport():
    store = QueueStore("q")
    store.put(record(1, 1, payload=b"m1"))
    store.put(record(0, 1, payload=b"m0"))
    fetched = store.fetch_round(1, 2)
    assert [r.key.client_id for r in fetched] == [0, 1]
    assert store.get(StoreKey(1, 1)).payload == b"m1"
    store.put(global_record(1, payload=b"g1"))
    assert store.latest_round() == 1
    assert store.get(global_key(1)).payload == b"g1"


# --- relational backend ----------------------------------------------------------

def test_relational_schema_columns(tmp_path):
    store = RelationalStore(tmp_path, "ns")
    store.put(record(2, 4, payload=b"blob", accuracy=0.25, elapsed_ms=3.5))
    conn = sqlite3.connect(tmp_path / "models.sqlite3")
    columns = [row[1] for row in conn.execute("PRAGMA table_info(models)")]
    assert columns == [
        "namespace",
        "client_id",
        "round",
        "payload",
        "accuracy",
        "elapsed_ms",
        "stored_at",
    ]
    row = conn.execute('SELECT namespace, client_id, "round", payload FROM models').fetchone()
    assert row == ("ns", 2, 4, b"blob")
    conn.close()
    store.close()


def test_relational_durable_across_reopen(tmp_path):
    cfg = make_config(BackendKind.RELATIONAL, tmp_path)
    store = open_backend(cfg)
    store.put(record(0, 1, payload=b"keep me"))
    store.close()
    reopened = open_backend(cfg)
    assert reopened.get(StoreKey(0, 1)).payload == b"keep me"
    reopened.close()


def test_relational_namespaces_isolated(tmp_path):
    a = RelationalStore(tmp_path, "alpha")
    b = RelationalStore(tmp_path, "beta")
    a.put(record(0, 1, payload=b"a"))
    with pytest.raises(NotFoundError):
        b.get(StoreKey(0, 1))
    b.put(record(0, 1, payload=b"b"))
    assert a.get(StoreKey(0, 1)).payload == b"a"
    a.close()
    b.close()


@pytest.mark.parametrize(
    "read",
    [
        lambda store: store.get(StoreKey(0, 1)),
        lambda store: store.fetch_round(1, 1),
        lambda store: store.latest_round(),
    ],
    ids=["get", "fetch_round", "latest_round"],
)
def test_relational_reads_on_closed_store_raise_unavailable(read, tmp_path):
    store = RelationalStore(tmp_path, "ns")
    store.put(record(0, 1, payload=b"stored"))
    store.close()
    with pytest.raises(BackendUnavailableError):
        read(store)


def record_connections(monkeypatch) -> list:
    """The list that every sqlite3 connection opened from now on is appended to."""
    connections = []
    connect = sqlite3.connect

    def recording_connect(*args, **kwargs):
        connections.append(connect(*args, **kwargs))
        return connections[-1]

    monkeypatch.setattr(sqlite3, "connect", recording_connect)
    return connections


def test_relational_open_failure_closes_its_connection(tmp_path, monkeypatch):
    (tmp_path / "models.sqlite3").write_bytes(b"not a database" * 100)
    connections = record_connections(monkeypatch)
    with pytest.raises(BackendUnavailableError):
        RelationalStore(tmp_path, "ns")
    (conn,) = connections
    with pytest.raises(sqlite3.ProgrammingError, match="closed"):
        conn.execute("SELECT 1")


def plans_of(store, action):
    """``action()``'s result and the plan of each statement it ran, BEGIN and COMMIT aside."""
    statements = []
    store._conn.set_trace_callback(statements.append)
    try:
        result = action()
    finally:
        store._conn.set_trace_callback(None)
    plans = [
        [row[3] for row in store._conn.execute("EXPLAIN QUERY PLAN " + statement)]
        for statement in statements
        if statement.split()[0] not in ("BEGIN", "COMMIT")
    ]
    return result, plans


def test_relational_fetch_round_sorts_without_a_temporary_sorter(tmp_path):
    # An ORDER BY that no index serves copies every payload into a temporary
    # b-tree. The primary key leads with the round, so fetch_round seeks to
    # its round and reads the clients in key order, and get seeks on the
    # whole key.
    store = RelationalStore(tmp_path, "ns")
    for round_number in (2, 3, 4):
        for client_id in (2, 0, 1):
            store.put(record(client_id, round_number))

    records, [[step]] = plans_of(store, lambda: store.fetch_round(3, 3))
    assert [rec.key for rec in records] == [StoreKey(c, 3) for c in (0, 1, 2)]
    assert step.startswith("SEARCH") and "round=?" in step and "TEMP B-TREE" not in step, step
    got, [[step]] = plans_of(store, lambda: store.get(StoreKey(1, 3)))
    assert got.key == StoreKey(1, 3)
    assert step.startswith("SEARCH"), step
    assert "(namespace=? AND round=? AND client_id=?)" in step, step
    store.close()


def test_relational_retirement_seeks_its_round(tmp_path):
    # A round's global deletes that round's client rows by one index range,
    # and a client insert looks up its round's global by the whole key.
    store = RelationalStore(tmp_path, "ns")
    for round_number in (2, 3):
        for client_id in (0, 1, 2):
            store.put(record(client_id, round_number))
    _, [_, [step]] = plans_of(store, lambda: store.put(global_record(2)))
    assert step.startswith("SEARCH"), step
    assert "(namespace=? AND round=? AND client_id>?)" in step, step
    _, [guarded] = plans_of(store, lambda: store.put(record(3, 3)))
    assert any("(namespace=? AND round=? AND client_id=?)" in step for step in guarded), guarded
    assert store.fetch_round(2, 3) == []
    assert [rec.key.client_id for rec in store.fetch_round(3, 4)] == [0, 1, 2, 3]
    store.close()


def test_relational_new_file_has_large_pages_and_no_secure_delete(tmp_path):
    store = RelationalStore(tmp_path, "ns")
    assert store._conn.execute("PRAGMA secure_delete").fetchone() == (0,)
    store.close()
    conn = sqlite3.connect(tmp_path / "models.sqlite3")
    assert conn.execute("PRAGMA page_size").fetchone() == (32768,)
    conn.close()


def test_relational_file_with_small_pages_still_opens_and_retires(tmp_path):
    conn = sqlite3.connect(tmp_path / "models.sqlite3")
    conn.execute("PRAGMA page_size = 4096")
    conn.execute("CREATE TABLE other (x)")
    conn.close()
    store = RelationalStore(tmp_path, "ns")
    assert store._conn.execute("PRAGMA page_size").fetchone() == (4096,)
    store.put(record(0, 1, payload=os.urandom(40_000)))
    store.put(global_record(1))
    assert store.fetch_round(1, 1) == []
    with pytest.raises(NotFoundError):
        store.get(StoreKey(0, 1))
    with pytest.raises(DuplicateKeyError):
        store.put(record(1, 1))
    assert store.latest_round() == 1
    store.close()


# The table as written before records were keyed by (client, round).
OLD_RELATIONAL_SCHEMA = """
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


def test_relational_store_in_the_old_format_fails_at_open(tmp_path, monkeypatch):
    """A file whose table still has the iteration column is refused, not misread."""
    conn = sqlite3.connect(tmp_path / "models.sqlite3")
    conn.execute(OLD_RELATIONAL_SCHEMA)
    conn.close()
    connections = record_connections(monkeypatch)
    with pytest.raises(BackendUnavailableError, match="models.sqlite3"):
        RelationalStore(tmp_path, "fresh")
    (opened,) = connections
    with pytest.raises(sqlite3.ProgrammingError, match="closed"):
        opened.execute("SELECT 1")


# --- payload opacity ---------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
def test_store_never_inspects_payload(kind, tmp_path):
    """Random bytes behave exactly like ciphertext of the same length."""
    store = open_backend(make_config(kind, tmp_path))
    noise = os.urandom(257)
    store.put(record(0, 1, payload=noise))
    assert store.get(StoreKey(0, 1)).payload == noise
    store.close()
