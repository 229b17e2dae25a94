#!/usr/bin/env python3
"""Four interchangeable stores, one contract.

The training protocol never names a database: it talks to a ModelStore.
This script stores the same records through all four embedded backends,
shows the shared conformance suite passing on each, and peeks at the
filesystem backend's on-disk layout.
"""

import tempfile
from pathlib import Path

import ddfl
from ddfl.store import ModelRecord, StoreKey, global_key, now_ms

with tempfile.TemporaryDirectory(prefix="ddfl-backends-") as tmp:
    workdir = Path(tmp)
    print("working under", workdir)

    for kind in ddfl.BackendKind:
        # Memory and queue stores ignore the root; disk stores keep their files there.
        root = workdir / kind.value
        root.mkdir(exist_ok=True)
        store = ddfl.open_backend(ddfl.BackendConfig(kind=kind, root_path=root, namespace="demo"))

        # Same calls, regardless of what sits underneath.
        store.put(ModelRecord(key=StoreKey(0, 1), payload=b"client-0 model", stored_at=now_ms()))
        store.put(ModelRecord(key=StoreKey(1, 1), payload=b"client-1 model", stored_at=now_ms()))
        store.put(
            ModelRecord(key=global_key(1), payload=b"global model", accuracy=0.9, stored_at=now_ms())
        )
        round_records = store.fetch_round(1, 2)
        print(
            f"{kind.value:12s} round 1 clients={[r.key.client_id for r in round_records]}"
            f" latest_round={store.latest_round()}"
        )
        store.close()

    # The identical property suite proves the backends are interchangeable.
    print("\nconformance:")
    for kind in ddfl.BackendKind:
        counter = [0]

        def factory(kind=kind, counter=counter):
            counter[0] += 1
            root = workdir / f"conf-{kind.value}-{counter[0]}"
            root.mkdir(exist_ok=True)
            return ddfl.open_backend(ddfl.BackendConfig(kind=kind, root_path=root, namespace="conf"))

        results = ddfl.run_suite(factory)
        status = "all pass" if all(r.passed for r in results) else "FAILURES"
        print(f"  {kind.value:12s} {len(results)} properties: {status}")

    # Filesystem records are plain files: header, opaque payload, footer.
    fs_file = next((workdir / "filesystem").rglob("*.rec"))
    blob = fs_file.read_bytes()
    print("\nfilesystem record", fs_file.relative_to(workdir))
    print("  magic:", blob[:4], " payload length:", int.from_bytes(blob[4:12], "little"))
