import types

import pytest

import ddfl
from ddfl import bench
from ddfl.backends.memory import MemoryStore
from ddfl.bench import bench_comm, bench_query, bench_scale
from ddfl.errors import BackendUnavailableError


@pytest.fixture
def base_experiment():
    return ddfl.ExperimentConfig(
        n_clients=2,
        rounds=3,
        train=ddfl.TrainConfig(learning_rate=0.1, epochs=2, batch_size=16, seed=0),
        backend=ddfl.BackendConfig(kind=ddfl.BackendKind.MEMORY),
        group_key=ddfl.generate_key(rng_seed=0),
        dataset=ddfl.SyntheticSpec(n=1600, d=8, k=4, test_n=400),
        seed=0,
    )


def test_query_reports_unavailable_backend(tmp_path):
    configs = [
        ddfl.BackendConfig(kind=ddfl.BackendKind.MEMORY),
        ddfl.BackendConfig(
            kind=ddfl.BackendKind.FILESYSTEM, root_path=tmp_path / "missing"
        ),
    ]
    report = bench_query(configs, records=3, payload_bytes=16)
    by_backend = {(r.backend, r.metric): r.value for r in report.rows}
    assert isinstance(by_backend[("memory", "query_get_median")], float)
    assert by_backend[("filesystem", "query_get_median")] == "failed:BackendUnavailableError"
    assert by_backend[("filesystem", "query_get_p95")] == "failed:BackendUnavailableError"


class LostConnectionStore(MemoryStore):
    """Opens and stores, then loses its connection on every read."""

    def get(self, key):
        raise BackendUnavailableError("connection lost")


@pytest.fixture
def queue_loses_connection(monkeypatch):
    """Make the queue kind open as a store whose ``get`` raises."""

    def open_backend(cfg):
        if cfg.kind is ddfl.BackendKind.QUEUE:
            return LostConnectionStore(cfg.namespace)
        return ddfl.open_backend(cfg)

    monkeypatch.setattr(bench, "open_backend", open_backend)


@pytest.mark.parametrize(
    "suite",
    [
        lambda configs: bench_query(configs, records=3, payload_bytes=16),
        lambda configs: bench_comm(configs, d=4, k=2, group_key=ddfl.generate_key(rng_seed=1)),
    ],
    ids=["query", "comm"],
)
def test_backend_failing_after_open_fails_only_its_rows(suite, queue_loses_connection):
    configs = [
        ddfl.BackendConfig(kind=ddfl.BackendKind.QUEUE),
        ddfl.BackendConfig(kind=ddfl.BackendKind.MEMORY),
    ]
    timed: dict[str, list] = {}
    for row in suite(configs).rows:
        if row.backend != "-":
            timed.setdefault(row.backend, []).append(row.value)
    assert timed["queue"] == ["failed:BackendUnavailableError"] * len(timed["memory"])
    assert timed["memory"] and all(isinstance(v, float) for v in timed["memory"])


def test_comm_report_sizes_are_exact():
    report = bench_comm(
        [ddfl.BackendConfig(kind=ddfl.BackendKind.MEMORY)],
        d=784,
        k=10,
        group_key=ddfl.generate_key(rng_seed=1),
    )
    values = {row.metric: row.value for row in report.rows}
    assert values["param_count"] == 7850
    assert values["serialized_size"] == 23 + 4 * 7850
    assert values["token_size"] == ddfl.token_length(23 + 4 * 7850)
    assert values["comm_time"] > 0


def test_scale_memory_not_slower_than_fsync_filesystem(tmp_path, base_experiment):
    backends = [
        ddfl.BackendConfig(kind=ddfl.BackendKind.MEMORY),
        ddfl.BackendConfig(
            kind=ddfl.BackendKind.FILESYSTEM, root_path=tmp_path, fsync=True
        ),
    ]
    report = bench_scale(base_experiment, backends, [8])
    times = {row.backend: row.value for row in report.rows}
    assert times["memory"] <= times["filesystem"]


def test_scale_records_failures_per_row(tmp_path, base_experiment):
    bad = ddfl.BackendConfig(kind=ddfl.BackendKind.RELATIONAL, root_path=tmp_path / "nope")
    report = bench_scale(base_experiment, [bad], [2])
    assert len(report.rows) == 1
    assert str(report.rows[0].value).startswith("failed:")


def test_scale_reports_fastest_of_repeated_runs(monkeypatch, base_experiment):
    # Run times per client count; one stall of 9 s must not decide a point.
    durations = {2: [0.5, 0.1, 9.0, 0.3, 0.2], 4: [0.6, 0.7, 0.4, 9.0, 0.8]}
    clock = types.SimpleNamespace(now=0.0)
    runs: dict[int, list[str]] = {2: [], 4: []}

    def fake_run(cfg):
        runs[cfg.n_clients].append(cfg.backend.namespace)
        clock.now += durations[cfg.n_clients][len(runs[cfg.n_clients]) - 1]

    monkeypatch.setattr(bench, "REPETITIONS", 5)
    monkeypatch.setattr(bench, "run_experiment", fake_run)
    monkeypatch.setattr(bench, "time", types.SimpleNamespace(perf_counter=lambda: clock.now))
    report = bench_scale(base_experiment, [base_experiment.backend], [2, 4])
    assert {n: len(set(namespaces)) for n, namespaces in runs.items()} == {2: 5, 4: 5}
    values = {row.param: row.value for row in report.rows}
    assert values == {
        "clients=2;fixed_shard=false": pytest.approx(0.1),
        "clients=4;fixed_shard=false": pytest.approx(0.4),
    }
