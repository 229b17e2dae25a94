#!/usr/bin/env python3
"""A complete federated run, and why it beats training on one shard.

Eight clients share 2000 synthetic samples. Each round they pull the
encrypted global model from the store, train locally, and push encrypted
updates; the master aggregates, evaluates, and publishes the next global.
The only shared object is the store, so swapping the backend changes
nothing about the math, and fixed seeds make every accuracy reproducible
to the bit.
"""

import dataclasses
import tempfile
from pathlib import Path

import ddfl
from ddfl.orchestrator import build_datasets

with tempfile.TemporaryDirectory(prefix="ddfl-train-") as root:
    cfg = ddfl.ExperimentConfig(
        n_clients=8,
        rounds=10,
        train=ddfl.TrainConfig(learning_rate=0.1, epochs=2, batch_size=32, seed=1),
        backend=ddfl.BackendConfig(kind=ddfl.BackendKind.FILESYSTEM, root_path=Path(root)),
        group_key=ddfl.generate_key(rng_seed=1),
        dataset=ddfl.SyntheticSpec(n=2000, d=8, k=4, test_n=2000),
        seed=1,
    )

    outcomes = ddfl.run_experiment(cfg)
    print("round  accuracy  wall_ms  bytes_written")
    for o in outcomes:
        print(f"{o.round:5d}  {o.global_accuracy:.4f}   {o.round_wall_ms:7.1f}  {o.bytes_written}")

    # Everything in the store is ciphertext; a wrong key opens nothing.
    with ddfl.open_backend(cfg.backend) as store:
        wrong_key = ddfl.generate_key(rng_seed=999)
        try:
            ddfl.decrypt(wrong_key, store.get(ddfl.global_key(10)).payload)
        except ddfl.AuthenticationError:
            print("\nstored global model is opaque without the group key")

# Baselines with the same trainer and epoch budget.
train, test = build_datasets(cfg)
shards = ddfl.partition(train, cfg.n_clients)
initial = ddfl.init_model([(train.dim, train.num_classes)], cfg.seed)
budget = ddfl.TrainConfig(learning_rate=0.1, epochs=20, batch_size=32, seed=1)

single = ddfl.evaluate(ddfl.local_train(initial, shards[0], budget), test).accuracy
central = ddfl.evaluate(ddfl.local_train(initial, train, budget), test).accuracy

print(f"\nfederated (8 clients): {outcomes[-1].global_accuracy:.4f}")
print(f"single shard baseline: {single:.4f}")
print(f"centralized ceiling:   {central:.4f}")

# Determinism: the same config reproduces the same accuracies exactly,
# even on a different backend.
rerun = ddfl.run_experiment(
    dataclasses.replace(cfg, backend=ddfl.BackendConfig(kind=ddfl.BackendKind.MEMORY))
)
print("rerun identical:", [o.global_accuracy for o in rerun] == [o.global_accuracy for o in outcomes])
