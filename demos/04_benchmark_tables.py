#!/usr/bin/env python3
"""The three benchmark tables: query latency, communication cost, scaling.

Same shapes as the evaluation an operator would run before choosing a
backend: how fast are point reads, what does one model transfer cost, and
how does total training time grow with the client count.
"""

import tempfile
from pathlib import Path

import ddfl
from ddfl.bench import bench_comm, bench_query, bench_scale

with tempfile.TemporaryDirectory(prefix="ddfl-bench-") as tmp:
    root = Path(tmp)
    (root / "disk").mkdir()

    backends = [
        ddfl.BackendConfig(kind=ddfl.BackendKind.MEMORY),
        ddfl.BackendConfig(kind=ddfl.BackendKind.QUEUE),
        ddfl.BackendConfig(kind=ddfl.BackendKind.FILESYSTEM, root_path=root / "disk", fsync=True),
        ddfl.BackendConfig(kind=ddfl.BackendKind.RELATIONAL, root_path=root / "disk"),
    ]

    print("== query latency (200 records of ~31 KB) ==")
    print(bench_query(backends, records=200, payload_bytes=31423).to_markdown())

    print("== communication cost for a 784x10 model ==")
    print(bench_comm(backends, d=784, k=10, group_key=ddfl.generate_key(rng_seed=0)).to_markdown())

    print("== scaling: total wall seconds per client count ==")
    base = ddfl.ExperimentConfig(
        n_clients=2,
        rounds=3,
        train=ddfl.TrainConfig(learning_rate=0.1, epochs=2, batch_size=16, seed=0),
        backend=backends[0],
        group_key=ddfl.generate_key(rng_seed=0),
        dataset=ddfl.SyntheticSpec(n=1600, d=8, k=4, test_n=400),
        seed=0,
    )
    scale_backends = [backends[0], backends[2]]
    print(bench_scale(base, scale_backends, [2, 4, 8], fixed_shard=True).to_markdown())
