"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import csv
import os
import time

import numpy as np
import pytest
from cryptography.fernet import Fernet as ReferenceFernet

import ddfl
from ddfl.bench import bench_query
from ddfl.cli import EXIT_OK, main
from ddfl.conformance import run_suite
from ddfl.errors import InvalidToken
from ddfl.orchestrator import build_datasets
from ddfl.params import ParameterVector


class Criterion:
    """Collects the verdict and enforces the stated runtime budget."""

    def __init__(self, number, name, budget_s):
        self.number = number
        self.name = name
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None and elapsed < self.budget_s else "FAIL"
        print(f"criterion {self.number} ({self.name}): {verdict} [{elapsed:.2f}s / budget {self.budget_s}s]")
        if exc_type is None and elapsed >= self.budget_s:
            raise AssertionError(
                f"criterion {self.number} exceeded its {self.budget_s}s budget ({elapsed:.2f}s)"
            )
        return False


def test_criterion_1_fernet_interoperability():
    with Criterion(1, "fernet interoperability", 5):
        # Byte-for-byte agreement with the reference implementation on
        # fixed (key, timestamp, IV) vectors.
        vectors = [
            (ddfl.FernetKey.from_bytes(bytes(32)), b"hello", 499162800, bytes(16)),
            (ddfl.generate_key(rng_seed=1), b"", 0, b"\x55" * 16),
            (ddfl.generate_key(rng_seed=2), bytes(range(256)), 2**33, b"\xaa" * 16),
            (ddfl.generate_key(rng_seed=3), b"x" * 1000, 1_700_000_000, b"\x01" * 16),
        ]
        for key, plaintext, timestamp, iv in vectors:
            ours = ddfl.encrypt(key, plaintext, timestamp, iv)
            reference = ReferenceFernet(key.encoded().encode())._encrypt_from_parts(
                plaintext, timestamp, iv
            )
            assert ours == reference

        # Roundtrip property over 500 random plaintexts.
        rng = np.random.default_rng(0)
        key = ddfl.generate_key(rng_seed=9)
        for _ in range(500):
            data = rng.bytes(int(rng.integers(0, 600)))
            assert ddfl.decrypt(key, ddfl.encrypt(key, data)) == data

        # Every single-byte mutation of a token is rejected.
        token = ddfl.encrypt(key, b"acceptance vector", timestamp=44, iv=b"\x0f" * 16)
        for position in range(len(token)):
            original = token[position]
            for value in range(256):
                if value == original:
                    continue
                mutated = token[:position] + bytes([value]) + token[position + 1 :]
                try:
                    ddfl.decrypt(key, mutated)
                except InvalidToken:
                    continue
                raise AssertionError(
                    f"mutation at {position} to {value:#x} was silently accepted"
                )


def test_criterion_2_aggregation_oracle():
    with Criterion(2, "aggregation oracle", 10):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            count = int(rng.integers(1, 9))
            size = int(rng.integers(10, 10_001))
            models = [
                ParameterVector(
                    rng.normal(size=size).astype(np.float32), ((size - 1, 1),)
                )
                for _ in range(count)
            ]
            weights = list(rng.uniform(0.05, 10.0, size=count))
            got = ddfl.aggregate(models, weights).values.astype(np.float64)

            # Independent brute force: elementwise f64 weighted mean, rounded
            # to f32 exactly as the operation contract specifies.
            stack = np.stack([m.values.astype(np.float64) for m in models])
            expected = (
                np.average(stack, axis=0, weights=weights).astype(np.float32)
            ).astype(np.float64)
            rel = np.abs(got - expected) / np.maximum(np.abs(expected), 1e-300)
            assert rel.max() <= 1e-12

        # Permutation invariance holds bitwise.
        models = [
            ParameterVector(rng.normal(size=501).astype(np.float32), ((500, 1),))
            for _ in range(8)
        ]
        weights = list(rng.uniform(0.1, 4.0, size=8))
        baseline = ddfl.aggregate(models, weights).values.tobytes()
        for _ in range(20):
            perm = rng.permutation(8)
            shuffled = ddfl.aggregate(
                [models[i] for i in perm], [weights[i] for i in perm]
            )
            assert shuffled.values.tobytes() == baseline

        # Identity: k copies of M aggregate back to M bitwise.
        model = ddfl.init_model([(100, 5)], seed=3)
        for k in (1, 2, 5, 8):
            out = ddfl.aggregate([model] * k, list(rng.uniform(0.1, 9.0, size=k)))
            assert out.values.tobytes() == model.values.tobytes()


def test_criterion_3_backend_conformance(tmp_path):
    with Criterion(3, "backend conformance", 60):
        for kind in ddfl.BackendKind:
            root = tmp_path / kind.value
            root.mkdir()
            counter = [0]

            def factory(kind=kind, root=root, counter=counter):
                counter[0] += 1
                return ddfl.open_backend(
                    ddfl.BackendConfig(
                        kind=kind,
                        root_path=root if kind in (ddfl.BackendKind.FILESYSTEM, ddfl.BackendKind.RELATIONAL) else None,
                        namespace=f"accept-{counter[0]}",
                    )
                )

            results = run_suite(factory)
            failed = [r for r in results if not r.passed]
            assert not failed, f"{kind.value}: {failed}"
            names = {r.name for r in results}
            assert {
                "roundtrip",
                "duplicate_rejection",
                "sorted_fetch_round",
                "latest_round",
                "byte_fidelity",
                "concurrent_writers",
            } <= names

        # Filesystem extras: crash-point atomicity and post-restart durability.
        import ddfl.backends.filesystem as fs_mod
        from ddfl.backends.filesystem import FilesystemStore
        from ddfl.errors import NotFoundError
        from ddfl.store import ModelRecord, StoreKey

        fs_root = tmp_path / "fs-extra"
        fs_root.mkdir()
        store = FilesystemStore(fs_root, "crash")
        real_link = os.link

        class SimulatedCrash(RuntimeError):
            pass

        def crashing_link(src, dst, *a, **kw):
            raise SimulatedCrash()

        fs_mod.os.link = crashing_link
        try:
            with pytest.raises(SimulatedCrash):
                store.put(ModelRecord(key=StoreKey(0, 1), payload=b"partial", stored_at=1))
        finally:
            fs_mod.os.link = real_link
        with pytest.raises(NotFoundError):
            store.get(StoreKey(0, 1))

        durable = FilesystemStore(fs_root, "durable")
        payload = os.urandom(2000)
        durable.put(ModelRecord(key=StoreKey(1, 2), payload=payload, stored_at=1))
        durable.put(ModelRecord(key=StoreKey(-1, 1), payload=b"g", stored_at=1))
        durable.close()
        reopened = FilesystemStore(fs_root, "durable")
        assert reopened.get(StoreKey(1, 2)).payload == payload
        assert reopened.latest_round() == 1


def test_criterion_4_federated_benefit():
    with Criterion(4, "end-to-end federated benefit", 60):
        seed = 1
        cfg = ddfl.ExperimentConfig(
            n_clients=8,
            rounds=10,
            train=ddfl.TrainConfig(learning_rate=0.1, epochs=2, batch_size=32, seed=seed),
            backend=ddfl.BackendConfig(kind=ddfl.BackendKind.MEMORY),
            group_key=ddfl.generate_key(rng_seed=seed),
            dataset=ddfl.SyntheticSpec(n=2000, d=8, k=4, test_n=2000),
            seed=seed,
        )
        outcomes = ddfl.run_experiment(cfg)
        federated = outcomes[-1].global_accuracy

        # Baselines share the trainer and the total local-epoch budget.
        train, test = build_datasets(cfg)
        shards = ddfl.partition(train, cfg.n_clients)
        initial = ddfl.init_model([(train.dim, train.num_classes)], cfg.seed)
        budget = ddfl.TrainConfig(
            learning_rate=0.1, epochs=cfg.rounds * cfg.train.epochs, batch_size=32, seed=seed
        )
        single_shard = ddfl.evaluate(
            ddfl.local_train(initial, shards[0], budget), test
        ).accuracy
        centralized = ddfl.evaluate(ddfl.local_train(initial, train, budget), test).accuracy

        assert federated >= single_shard, (
            f"federated {federated:.4f} < single shard {single_shard:.4f}"
        )
        assert abs(federated - centralized) <= 0.02, (
            f"federated {federated:.4f} vs centralized {centralized:.4f}"
        )

        # Deterministic under fixed seeds.
        again = [o.global_accuracy for o in ddfl.run_experiment(cfg)]
        assert again == [o.global_accuracy for o in outcomes]


def test_criterion_5_latency_ordering(tmp_path):
    with Criterion(5, "directional latency ordering", 60):
        payload = 31423
        configs = [
            ddfl.BackendConfig(kind=ddfl.BackendKind.MEMORY),
            ddfl.BackendConfig(
                kind=ddfl.BackendKind.FILESYSTEM, root_path=tmp_path, fsync=True
            ),
        ]
        report = bench_query(configs, records=1000, payload_bytes=payload)
        medians = {
            row.backend: row.value
            for row in report.rows
            if row.metric == "query_get_median"
        }
        assert isinstance(medians["memory"], float)
        assert isinstance(medians["filesystem"], float)
        assert medians["memory"] * 5 < medians["filesystem"], (
            f"memory {medians['memory']:.6f} ms vs filesystem {medians['filesystem']:.6f} ms"
        )


def test_criterion_6_communication_accounting():
    with Criterion(6, "communication accounting", 30):
        # Serialized size is exactly 23 + 4 * param_count for any model spec.
        for d, k in ((784, 10), (8, 4), (1, 2), (3072, 10), (37, 3)):
            model = ddfl.init_model([(d, k)], seed=0)
            blob = ddfl.serialize_params(model)
            assert model.param_count == d * k + k
            assert len(blob) == 23 + 4 * model.param_count
            # Token length matches the Fernet length formula exactly.
            token = ddfl.encrypt(ddfl.generate_key(rng_seed=0), blob)
            assert len(token) == ddfl.token_length(len(blob))
            raw = 57 + 16 * ((len(blob) + 16) // 16)
            assert ddfl.token_length(len(blob)) == 4 * ((raw + 2) // 3)

        # bytes_written per round == N * token(client) + token(global).
        cfg = ddfl.ExperimentConfig(
            n_clients=5,
            rounds=2,
            train=ddfl.TrainConfig(learning_rate=0.1, epochs=1, batch_size=16, seed=0),
            backend=ddfl.BackendConfig(kind=ddfl.BackendKind.MEMORY),
            group_key=ddfl.generate_key(rng_seed=4),
            dataset=ddfl.SyntheticSpec(n=500, d=6, k=3, test_n=200),
            seed=4,
        )
        token_len = ddfl.token_length(ddfl.serialized_size([(6, 3)]))
        for outcome in ddfl.run_experiment(cfg):
            assert outcome.bytes_written == 5 * token_len + token_len
            assert outcome.bytes_read == 5 * token_len + 5 * token_len


def test_criterion_7_scalability_harness(tmp_path):
    with Criterion(7, "scalability harness", 300):
        root = tmp_path / "scale-root"
        root.mkdir()
        config_path = tmp_path / "scale.cfg"
        config_path.write_text(
            "n_clients = 2\n"
            "rounds = 3\n"
            "learning_rate = 0.1\n"
            "epochs = 3\n"
            "batch_size = 8\n"
            "seed = 0\n"
            "backend = memory,filesystem\n"
            f"root_path = {root}\n"
            "dataset = synthetic:4000x8x4\n",
            encoding="utf-8",
        )
        default_out = tmp_path / "scale-default.csv"
        code = main(
            ["bench-scale", str(config_path), "--clients", "2,4,6,8", "--out", str(default_out)]
        )
        assert code == EXIT_OK
        with default_out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8  # 2 backends x 4 client counts
        assert all(float(r["value"]) > 0 for r in rows)

        fixed_out = tmp_path / "scale-fixed.csv"
        code = main(
            [
                "bench-scale",
                str(config_path),
                "--clients",
                "2,4,6,8",
                "--fixed-shard",
                "--out",
                str(fixed_out),
            ]
        )
        assert code == EXIT_OK
        by_backend: dict[str, list[float]] = {}
        with fixed_out.open() as fh:
            for row in csv.DictReader(fh):
                by_backend.setdefault(row["backend"], []).append(float(row["value"]))
        assert set(by_backend) == {"memory", "filesystem"}
        for backend, times in by_backend.items():
            assert len(times) == 4
            assert all(a <= b for a, b in zip(times, times[1:])), (
                f"{backend} times not non-decreasing: {times}"
            )


def test_criterion_8_gradient_correctness():
    with Criterion(8, "gradient correctness", 5):
        rng = np.random.default_rng(88)
        step = 1e-3
        for _ in range(50):
            n = int(rng.integers(3, 9))
            d = int(rng.integers(2, 6))
            k = int(rng.integers(2, 5))
            x = rng.normal(size=(n, d)).astype(np.float32)
            y = rng.integers(0, k, size=n)
            data = ddfl.Dataset(x, y, k)
            params = ParameterVector(
                rng.normal(scale=0.5, size=d * k + k).astype(np.float32), ((d, k),)
            )
            _, analytic = ddfl.loss_and_gradient(params, data)

            # Central finite differences over an independently coded f64 loss.
            def loss_at(flat):
                w = flat[: d * k].reshape(d, k)
                b = flat[d * k :]
                scores = x.astype(np.float64) @ w + b
                scores = scores - scores.max(axis=1, keepdims=True)
                log_probs = scores - np.log(np.exp(scores).sum(axis=1, keepdims=True))
                return -log_probs[np.arange(n), y].mean()

            base = params.values.astype(np.float64)
            numeric = np.empty_like(base)
            for j in range(base.size):
                up = base.copy()
                up[j] += step
                down = base.copy()
                down[j] -= step
                numeric[j] = (loss_at(up) - loss_at(down)) / (2 * step)
            rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
            assert rel < 1e-4, f"gradient relative error {rel:.2e}"
