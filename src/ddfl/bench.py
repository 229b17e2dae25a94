"""Benchmark suites: query latency, communication cost, and scalability.

All timings use the monotonic clock; per-item latencies are the median
over repeated measurements to damp scheduler noise. Every timing row
carries an explicit unit.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time
import uuid

from .backends import BackendConfig, open_backend
from .crypto import FernetKey, decrypt, encrypt, token_length
from .errors import DDFLError
from .orchestrator import ExperimentConfig, SyntheticSpec, run_experiment
from .params import deserialize_params, init_model, serialize_params
from .report import MetricsReport
from .store import ModelRecord, StoreKey

REPETITIONS = 5
# Dataset column of the query and comm rows, whose payloads are random
# bytes and freshly initialized models.
DATASET_LABEL = "synthetic"


def _fresh_namespace(cfg: BackendConfig, label: str) -> BackendConfig:
    # Repeated benchmark runs over one root must not collide on keys.
    return dataclasses.replace(cfg, namespace=f"{cfg.namespace}-{label}-{uuid.uuid4().hex[:8]}")


def _percentile_95(samples: list[float]) -> float:
    ordered = sorted(samples)
    index = max(0, -(-len(ordered) * 95 // 100) - 1)  # ceil(0.95 n) - 1
    return ordered[index]


def _median_get_ms(store, key: StoreKey) -> float:
    times = []
    for _ in range(REPETITIONS):
        start = time.perf_counter_ns()
        store.get(key)
        times.append((time.perf_counter_ns() - start) / 1e6)
    return statistics.median(times)


def bench_query(
    backend_configs: list[BackendConfig], records: int, payload_bytes: int
) -> MetricsReport:
    """Insert ``records`` random payloads per backend, then time single-record gets.

    Emits a median and a p95 row per backend. A backend that fails to open
    is reported with value ``unavailable`` instead of aborting the run.
    """
    report = MetricsReport()
    param = f"records={records};payload={payload_bytes}"
    for cfg in backend_configs:
        name = cfg.kind.value
        try:
            store = open_backend(_fresh_namespace(cfg, "query"))
        except DDFLError:
            report.add("query_get_median", name, DATASET_LABEL, param, "unavailable", "ms")
            report.add("query_get_p95", name, DATASET_LABEL, param, "unavailable", "ms")
            continue
        with store:
            keys = []
            for i in range(records):
                key = StoreKey(i, 1, 0)
                store.put(ModelRecord(key=key, payload=os.urandom(payload_bytes), stored_at=1))
                keys.append(key)
            samples = [_median_get_ms(store, key) for key in keys]
        report.add(
            "query_get_median", name, DATASET_LABEL, param, statistics.median(samples), "ms"
        )
        report.add("query_get_p95", name, DATASET_LABEL, param, _percentile_95(samples), "ms")
    return report


def bench_comm(
    backend_configs: list[BackendConfig], d: int, k: int, group_key: FernetKey
) -> MetricsReport:
    """Measure the cost of moving one model through a store.

    Size rows (value count, serialized bytes, token bytes, bytes per
    value) are backend-independent; the end-to-end time row is emitted per
    backend.
    """
    model = init_model([(d, k)], 0)
    blob = serialize_params(model)
    token_bytes = token_length(len(blob))
    param = f"d={d};k={k}"
    report = MetricsReport()
    report.add("param_count", "-", DATASET_LABEL, param, model.param_count, "values")
    report.add("serialized_size", "-", DATASET_LABEL, param, len(blob), "bytes")
    report.add("token_size", "-", DATASET_LABEL, param, token_bytes, "bytes")
    report.add(
        "bytes_per_value", "-", DATASET_LABEL, param, len(blob) / model.param_count, "bytes"
    )

    for cfg in backend_configs:
        name = cfg.kind.value
        try:
            store = open_backend(_fresh_namespace(cfg, "comm"))
        except DDFLError:
            report.add("comm_time", name, DATASET_LABEL, param, "unavailable", "ms")
            continue
        with store:
            times = []
            for rep in range(REPETITIONS):
                start = time.perf_counter_ns()
                token = encrypt(group_key, serialize_params(model))
                key = StoreKey(0, rep + 1, 0)
                store.put(ModelRecord(key=key, payload=token, stored_at=1))
                fetched = store.get(key)
                deserialize_params(decrypt(group_key, fetched.payload))
                times.append((time.perf_counter_ns() - start) / 1e6)
        report.add("comm_time", name, DATASET_LABEL, param, statistics.median(times), "ms")
    return report


def bench_scale(
    base: ExperimentConfig,
    backend_configs: list[BackendConfig],
    client_counts: list[int],
    fixed_shard: bool = False,
) -> MetricsReport:
    """Total experiment wall time per (backend, client count).

    By default the dataset size stays fixed, so shards shrink as clients
    grow. With ``fixed_shard`` each client keeps the same shard size and
    the total dataset grows, so total work is non-decreasing in N.
    """
    if not client_counts:
        raise DDFLError("client list must not be empty")
    if not isinstance(base.dataset, SyntheticSpec):
        raise DDFLError("bench_scale needs a synthetic dataset spec")
    spec = base.dataset
    shard_size = max(2, spec.n // max(client_counts))
    report = MetricsReport()
    dataset_label = f"synthetic:{spec.n}x{spec.d}x{spec.k}"
    for backend_cfg in backend_configs:
        for n_clients in client_counts:
            n = shard_size * n_clients if fixed_shard else spec.n
            run_cfg = dataclasses.replace(
                base,
                n_clients=n_clients,
                dataset=dataclasses.replace(spec, n=n),
                backend=_fresh_namespace(backend_cfg, f"scale{n_clients}"),
            )
            param = f"clients={n_clients};fixed_shard={str(fixed_shard).lower()}"
            try:
                start = time.perf_counter()
                run_experiment(run_cfg)
                elapsed_s = time.perf_counter() - start
            except DDFLError as exc:
                report.add(
                    "scale_total_time", backend_cfg.kind.value, dataset_label, param,
                    f"failed:{exc.__class__.__name__}", "s",
                )
                continue
            report.add(
                "scale_total_time", backend_cfg.kind.value, dataset_label, param, elapsed_s, "s"
            )
    return report
