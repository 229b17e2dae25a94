"""Benchmark suites: query latency, communication cost, and scalability.

All timings use the monotonic clock; per-item latencies are the median
over repeated measurements to damp scheduler noise. Every timing row
carries an explicit unit.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import os
import statistics
import time
import uuid

from .backends import BackendConfig, open_backend
from .crypto import FernetKey, token_length
from .errors import DDFLError
from .orchestrator import ExperimentConfig, model_of, put_model, run_experiment
from .params import init_model, serialize_params
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


def _median_s(call) -> float:
    """Median wall time of ``REPETITIONS`` calls of ``call``, in seconds."""
    times = []
    for _ in range(REPETITIONS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _add_measured(report, metrics, cfg: BackendConfig, param, unit, measure) -> None:
    """Add one row per metric for backend ``cfg``, valued by ``measure(cfg)``.

    ``measure`` runs the backend's whole measurement: open, write and time.
    If it raises a DDFLError, every row reads ``failed:<ErrorClassName>``
    and the suite goes on to the next backend.
    """
    try:
        values = measure(cfg)
    except DDFLError as exc:
        values = [f"failed:{type(exc).__name__}"] * len(metrics)
    for metric, value in zip(metrics, values, strict=True):
        report.add(metric, cfg.kind.value, DATASET_LABEL, param, value, unit)


def bench_query(
    backend_configs: list[BackendConfig], records: int, payload_bytes: int
) -> MetricsReport:
    """Insert ``records`` random payloads per backend, then time single-record gets.

    A record's get time is the median of ``REPETITIONS`` gets. Each backend
    has a median and a p95 row over its records; both read
    ``failed:<ErrorClassName>`` if the backend fails to open, write or read.
    """

    def measure(cfg):
        with open_backend(_fresh_namespace(cfg, "query")) as store:
            keys = [StoreKey(i, 1, 0) for i in range(records)]
            for key in keys:
                store.put(ModelRecord(key=key, payload=os.urandom(payload_bytes), stored_at=1))
            samples = [_median_s(functools.partial(store.get, key)) * 1e3 for key in keys]
        return statistics.median(samples), _percentile_95(samples)

    report = MetricsReport()
    param = f"records={records};payload={payload_bytes}"
    for cfg in backend_configs:
        _add_measured(report, ["query_get_median", "query_get_p95"], cfg, param, "ms", measure)
    return report


def bench_comm(
    backend_configs: list[BackendConfig], d: int, k: int, group_key: FernetKey
) -> MetricsReport:
    """Measure the cost of moving one model through a store.

    Size rows (value count, serialized bytes, token bytes, bytes per
    value) are backend-independent, with backend ``-``. Each backend's
    ``comm_time`` row is the median of ``REPETITIONS`` passes of serialize,
    encrypt, put, get, decrypt and deserialize, or ``failed:<ErrorClassName>``.
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

    def move_model(store, key):
        put_model(store, group_key, key, model)
        model_of(store.get(key), group_key)

    def measure(cfg):
        keys = (StoreKey(0, rep, 0) for rep in itertools.count(1))
        with open_backend(_fresh_namespace(cfg, "comm")) as store:
            return [_median_s(lambda: move_model(store, next(keys))) * 1e3]

    for cfg in backend_configs:
        _add_measured(report, ["comm_time"], cfg, param, "ms", measure)
    return report


def bench_scale(
    base: ExperimentConfig,
    backend_configs: list[BackendConfig],
    client_counts: list[int],
    fixed_shard: bool = False,
) -> MetricsReport:
    """Total experiment wall time per (backend, client count).

    ``base.dataset`` must be a SyntheticSpec. Each point is the median of
    ``REPETITIONS`` runs, each in a fresh namespace. A backend's points run
    round-robin, one run of each per pass, so that a stall or drift of the
    host falls on every point alike instead of deciding one; a point whose
    run fails reads ``failed:<ErrorClassName>``. By default the dataset
    size stays fixed, so shards shrink as clients grow. With
    ``fixed_shard`` each client keeps the same shard size and the total
    dataset grows, so total work is non-decreasing in N.
    """
    if not client_counts:
        raise DDFLError("client list must not be empty")
    spec = base.dataset
    shard_size = max(2, spec.n // max(client_counts))
    report = MetricsReport()
    dataset_label = f"synthetic:{spec.n}x{spec.d}x{spec.k}"

    def run_s(backend_cfg, n_clients):
        n = shard_size * n_clients if fixed_shard else spec.n
        cfg = dataclasses.replace(
            base,
            n_clients=n_clients,
            dataset=dataclasses.replace(spec, n=n),
            backend=_fresh_namespace(backend_cfg, f"scale{n_clients}"),
        )
        start = time.perf_counter()
        run_experiment(cfg)
        return time.perf_counter() - start

    for backend_cfg in backend_configs:
        times = {n_clients: [] for n_clients in client_counts}
        failed = {}
        for _ in range(REPETITIONS):
            for n_clients in times:
                if n_clients in failed:
                    continue
                try:
                    times[n_clients].append(run_s(backend_cfg, n_clients))
                except DDFLError as exc:
                    failed[n_clients] = f"failed:{type(exc).__name__}"
        for n_clients in client_counts:
            param = f"clients={n_clients};fixed_shard={str(fixed_shard).lower()}"
            value = failed.get(n_clients) or statistics.median(times[n_clients])
            report.add("scale_total_time", backend_cfg.kind.value, dataset_label, param, value, "s")
    return report
