import os
import shutil
import sqlite3

import pytest

import ddfl.backends.filesystem as fs_mod
from ddfl.backends import DISK_BACKENDS, BackendConfig, BackendKind, open_backend
from ddfl.backends.filesystem import FilesystemStore, encode_record
from ddfl.backends.memory import MemoryStore
from ddfl.backends.queue import QueueStore
from ddfl.backends.relational import RelationalStore
from ddfl.conformance import run_suite
from ddfl.errors import (
    BackendUnavailableError,
    CorruptRecordError,
    DuplicateKeyError,
    NotFoundError,
    ValidationError,
)
from ddfl.store import ModelRecord, StoreKey, global_key

ALL_KINDS = list(BackendKind)


def make_config(kind: BackendKind, tmp_path, namespace="t") -> BackendConfig:
    needs_root = kind in DISK_BACKENDS
    return BackendConfig(
        kind=kind, root_path=tmp_path if needs_root else None, namespace=namespace
    )


def record(client_id, round_number, payload=b"payload", **kw):
    return ModelRecord(
        key=StoreKey(client_id, round_number, 0), payload=payload, stored_at=1, **kw
    )


def global_record(round_number, payload=b"global"):
    return ModelRecord(key=global_key(round_number), payload=payload, stored_at=1)


# --- conformance: identical suite for every backend -------------------------

@pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
def test_conformance_suite(kind, tmp_path):
    counter = [0]

    def reopen():  # the most recent factory store's namespace
        return open_backend(make_config(kind, tmp_path, namespace=f"conf-{counter[0]}"))

    def factory():
        counter[0] += 1
        return reopen()

    durable = kind in DISK_BACKENDS
    results = run_suite(factory, reopen=reopen if durable else None)
    failures = [r for r in results if not r.passed]
    assert not failures, failures
    assert {r.name for r in results} >= {
        "roundtrip",
        "duplicate_rejection",
        "sorted_fetch_round",
        "latest_round",
        "byte_fidelity",
        "concurrent_writers",
    }
    assert ("durability_reopen" in {r.name for r in results}) == durable


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
        store.get(StoreKey(4, 9, 0))
    with pytest.raises(ValidationError):
        store.get(StoreKey(0, 0, 0))  # client rounds start at 1
    assert store.fetch_round(5, 3) == []
    with pytest.raises(ValidationError):
        store.fetch_round(0, 3)  # client rounds start at 1
    store.close()


def test_key_validation():
    with pytest.raises(ValidationError):
        StoreKey(-2, 1, 0)
    with pytest.raises(ValidationError):
        StoreKey(0, 1, -1)
    assert global_key(0).client_label == "global"
    assert StoreKey(3, 1).client_label == "3"


def test_record_validation():
    with pytest.raises(ValidationError):
        ModelRecord(key=StoreKey(0, 1), payload=b"")
    with pytest.raises(ValidationError):
        ModelRecord(key=StoreKey(0, 1), payload=b"x", accuracy=1.5)
    with pytest.raises(ValidationError):
        ModelRecord(key=StoreKey(0, 1), payload=b"x", elapsed_ms=-1.0)


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
    rec = record(3, 2, payload=os.urandom(4096), accuracy=0.5, elapsed_ms=12.5)
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
    path = tmp_path / "ns" / "7" / "3" / "0.rec"
    blob = path.read_bytes()
    assert blob[:4] == b"DDR1"
    assert int.from_bytes(blob[4:12], "little") == 3  # payload length
    assert blob[16:19] == b"\x01\x02\x03"
    assert len(blob) == 16 + 3 + 24  # header + payload + footer


def test_filesystem_global_renders_as_global_dir(tmp_path):
    store = FilesystemStore(tmp_path, "ns")
    store.put(global_record(1, payload=b"g"))
    assert (tmp_path / "ns" / "global" / "1" / "0.rec").is_file()


@pytest.mark.parametrize(
    "stray", ["0/1/abc.rec", "0/1/007.rec", "007/1/0.rec", "global/5/junk.rec"]
)
def test_filesystem_skips_stray_names(stray, tmp_path):
    """Only names that put writes count; anything else in the tree is skipped."""
    store = FilesystemStore(tmp_path, "ns")
    real = [record(0, 1, payload=b"a"), record(1, 1, payload=b"b")]
    for rec in real:
        store.put(rec)
    store.put(global_record(1, payload=b"g"))
    path = tmp_path / "ns" / stray
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(encode_record(record(0, 1, payload=b"stray")))
    assert store.fetch_round(1, 2) == real
    assert store.latest_round() == 1


def test_filesystem_corrupt_record_detected(tmp_path):
    store = FilesystemStore(tmp_path, "ns")
    rec = record(1, 1)
    store.put(rec)
    path = tmp_path / "ns" / "1" / "1" / "0.rec"
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
    path = tmp_path / "ns" / "2" / "1" / "0.rec"
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
    path = tmp_path / "ns" / "0" / "1" / "0.rec"
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
        store.get(StoreKey(0, 1, 0))
    assert store.fetch_round(1, 1) == []
    # The slot is still usable afterwards.
    store.put(record(0, 1, payload=b"second attempt"))
    assert store.get(StoreKey(0, 1, 0)).payload == b"second attempt"


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
        "get": lambda: store.get(StoreKey(0, 1, 0)),
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
    assert store.get(StoreKey(0, 1, 0)).payload == b"payload"


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
    assert synced_paths() == ["ns", "ns/0", "ns/0/1", "ns/0/1/0.rec"]


# --- queue backend --------------------------------------------------------------

def test_queue_contract_reads_after_transport():
    store = QueueStore("q")
    store.put(record(1, 1, payload=b"m1"))
    store.put(record(0, 1, payload=b"m0"))
    store.put(global_record(1, payload=b"g1"))
    fetched = store.fetch_round(1, 2)
    assert [r.key.client_id for r in fetched] == [0, 1]
    assert store.latest_round() == 1
    assert store.get(global_key(1)).payload == b"g1"
    assert store.get(StoreKey(1, 1, 0)).payload == b"m1"


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
        "iteration",
        "payload",
        "accuracy",
        "elapsed_ms",
        "stored_at",
    ]
    row = conn.execute(
        'SELECT namespace, client_id, "round", iteration, payload FROM models'
    ).fetchone()
    assert row == ("ns", 2, 4, 0, b"blob")
    conn.close()
    store.close()


def test_relational_durable_across_reopen(tmp_path):
    cfg = make_config(BackendKind.RELATIONAL, tmp_path)
    store = open_backend(cfg)
    store.put(record(0, 1, payload=b"keep me"))
    store.close()
    reopened = open_backend(cfg)
    assert reopened.get(StoreKey(0, 1, 0)).payload == b"keep me"
    reopened.close()


def test_relational_namespaces_isolated(tmp_path):
    a = RelationalStore(tmp_path, "alpha")
    b = RelationalStore(tmp_path, "beta")
    a.put(record(0, 1, payload=b"a"))
    with pytest.raises(NotFoundError):
        b.get(StoreKey(0, 1, 0))
    b.put(record(0, 1, payload=b"b"))
    assert a.get(StoreKey(0, 1, 0)).payload == b"a"
    a.close()
    b.close()


@pytest.mark.parametrize(
    "read",
    [
        lambda store: store.get(StoreKey(0, 1, 0)),
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


def test_relational_open_failure_closes_its_connection(tmp_path, monkeypatch):
    (tmp_path / "models.sqlite3").write_bytes(b"not a database" * 100)
    connections = []
    connect = sqlite3.connect

    def recording_connect(*args, **kwargs):
        connections.append(connect(*args, **kwargs))
        return connections[-1]

    monkeypatch.setattr(sqlite3, "connect", recording_connect)
    with pytest.raises(BackendUnavailableError):
        RelationalStore(tmp_path, "ns")
    (conn,) = connections
    with pytest.raises(sqlite3.ProgrammingError, match="closed"):
        conn.execute("SELECT 1")


def test_relational_fetch_round_sorts_without_a_temporary_sorter(tmp_path):
    # An ORDER BY that no index serves copies every payload into a temporary
    # b-tree; fetch_round sorts its records in Python instead.
    store = RelationalStore(tmp_path, "ns")
    for client_id, iteration in ((2, 0), (0, 1), (1, 0), (0, 0)):
        store.put(
            ModelRecord(key=StoreKey(client_id, 3, iteration), payload=b"p", stored_at=1)
        )
    statements = []
    store._conn.set_trace_callback(statements.append)
    records = store.fetch_round(3, 3)
    store._conn.set_trace_callback(None)
    assert [(rec.key.client_id, rec.key.iteration) for rec in records] == [
        (0, 0), (0, 1), (1, 0), (2, 0)
    ]
    (select,) = statements
    plan = [row[3] for row in store._conn.execute("EXPLAIN QUERY PLAN " + select)]
    assert plan and not any("TEMP B-TREE" in step for step in plan), plan
    store.close()


# --- payload opacity ---------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
def test_store_never_inspects_payload(kind, tmp_path):
    """Random bytes behave exactly like ciphertext of the same length."""
    store = open_backend(make_config(kind, tmp_path))
    noise = os.urandom(257)
    store.put(record(0, 1, payload=noise))
    assert store.get(StoreKey(0, 1, 0)).payload == noise
    store.close()
