#!/usr/bin/env python3
"""Four interchangeable stores, one contract.

The training protocol never names a database: it talks to a ModelStore.
This script stores the same records through all four embedded backends,
shows that a round's global retires its client records, runs the shared
conformance suite on each with ``ddfl.check_backend`` (every property in a
fresh namespace of one config, and a reopen check on the disk kinds), and
peeks at the filesystem backend's on-disk layout.
"""

import tempfile
from pathlib import Path

import ddfl
from ddfl.store import ModelRecord, StoreKey, global_key, now_ms

with tempfile.TemporaryDirectory(prefix="ddfl-backends-") as tmp:
    workdir = Path(tmp)
    print("working under", workdir)

    # Memory and queue stores ignore the root; disk stores keep their files there.
    configs = [
        ddfl.BackendConfig(kind=kind, root_path=workdir, namespace="demo") for kind in ddfl.BackendKind
    ]
    for cfg in configs:
        store = ddfl.open_backend(cfg)

        # Same calls, regardless of what sits underneath.
        store.put(ModelRecord(key=StoreKey(0, 1), payload=b"client-0 model", stored_at=now_ms()))
        store.put(ModelRecord(key=StoreKey(1, 1), payload=b"client-1 model", stored_at=now_ms()))
        round_records = store.fetch_round(1, 2)
        # The round's global closes the round and retires its client records.
        store.put(
            ModelRecord(key=global_key(1), payload=b"global model", accuracy=0.9, stored_at=now_ms())
        )
        print(
            f"{cfg.kind.value:12s} round 1 clients={[r.key.client_id for r in round_records]}"
            f" after its global: {store.fetch_round(1, 2)} latest_round={store.latest_round()}"
        )
        store.close()

    # The identical property suite proves the backends are interchangeable.
    print("\nconformance:")
    for cfg in configs:
        results = ddfl.check_backend(cfg)
        status = "all pass" if all(r.passed for r in results) else "FAILURES"
        print(f"  {cfg.kind.value:12s} {len(results)} properties: {status}")

    # Filesystem records are plain files: header, opaque payload, footer.
    fs_file = next((workdir / "demo").rglob("*.rec"))
    blob = fs_file.read_bytes()
    print("\nfilesystem record", fs_file.relative_to(workdir))
    print("  magic:", blob[:4], " payload length:", int.from_bytes(blob[4:12], "little"))
