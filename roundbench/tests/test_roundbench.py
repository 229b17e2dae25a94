"""Tests of the round benchmark itself, on the tiny variant of each workload.

Run from the root of the repository:

    python3 -m pytest roundbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import ddfl  # noqa: E402
import harness  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
from ddfl import orchestrator  # noqa: E402
from ddfl.store import global_key  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# Shorter than one experiment, so each backend runs exactly once (twice when traced).
ONE_PASS = 0.01
SEED = 3


def declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def emitted(result):
    return {name: unit for name, (_, unit) in result.metrics.items()}


@pytest.fixture(scope="module")
def untraced():
    return {
        name: harness.run(workload, SEED, ONE_PASS, reference={})
        for name, workload in harness.SMOKE_WORKLOADS.items()
    }


@pytest.fixture(scope="module")
def traced():
    return {
        name: harness.run(workload, SEED, ONE_PASS, trace=True, reference={})
        for name, workload in harness.SMOKE_WORKLOADS.items()
    }


def test_declared_workloads_are_harness_workloads():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(harness.WORKLOADS)
    assert list(harness.SMOKE_WORKLOADS) == list(harness.WORKLOADS)


@pytest.mark.parametrize("name", list(harness.SMOKE_WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(untraced, name):
    result = untraced[name]
    assert result.correct, result.problems
    assert emitted(result) == declared("end_to_end")
    assert all(value > 0 for value, _ in result.metrics.values())
    summary = json.loads(json.dumps(result.summary()))
    assert summary["attempted"] == 4 * harness.SMOKE_WORKLOADS[name].rounds
    assert summary["failed"] == 0
    lines = bench_run.report_lines(result)
    for metric, unit in declared("end_to_end").items():
        assert any(line.startswith(f"{metric} = ") and line.endswith(f" {unit}") for line in lines)


@pytest.mark.parametrize("name", list(harness.SMOKE_WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(traced, name):
    result = traced[name]
    assert result.correct, result.problems
    assert emitted(result) == declared("per_layer")
    missing = [metric for metric, (value, _) in result.metrics.items() if value is None]
    assert missing == []
    trace_file = harness.OUT_DIR / f"trace-{name}-seed{SEED}.jsonl"
    with open(trace_file, encoding="utf-8") as fh:
        assert json.loads(fh.readline())["env"] == result.env
        assert {json.loads(line)["name"] for line in fh} >= set(tracing.TRACED_FUNCTIONS)


def test_traced_counts_follow_the_round_protocol(traced):
    metrics = traced["train-bound"].metrics
    n = harness.N_CLIENTS
    assert metrics["crypto.encrypt_calls_per_round"][0] == n + 1
    assert metrics["crypto.decrypt_calls_per_round"][0] == 2 * n
    assert metrics["training.evaluate_calls_per_round"][0] == 1
    for kind in harness.BACKENDS:
        b = f"backends.{kind.value}"
        assert metrics[f"{b}.put_calls_per_round"][0] == n + 1
        assert metrics[f"{b}.get_calls_per_round"][0] == n + 1
        assert metrics[f"{b}.bytes_written_per_round"][0] == metrics[
            f"{b}.reported_bytes_written_per_round"][0]
        # The master's own read of the previous global is left out of bytes_read.
        assert metrics[f"{b}.unreported_read_bytes_per_round"][0] > 0


@pytest.mark.parametrize("trace", [False, True])
def test_untraced_experiments_call_the_original_functions(trace):
    originals = {name: getattr(orchestrator, name) for name in tracing.TRACED_FUNCTIONS}
    seen = set()

    class Checking(harness.ClockStore):
        def put(self, record):
            traced = isinstance(self.inner, tracing.TracingStore)
            calls_originals = all(getattr(orchestrator, n) is fn for n, fn in originals.items())
            seen.add((traced, calls_originals))
            super().put(record)

    harness.run(harness.SMOKE_WORKLOADS["round-bound"], SEED, ONE_PASS, trace=trace,
                make_store=Checking, reference={})
    # In a traced run, untraced and traced experiments alternate.
    assert seen == ({(False, True), (True, False)} if trace else {(False, True)})


def test_traced_run_restores_every_patched_name():
    names = tracing.TRACED_FUNCTIONS + ("open_backend",)
    before = {name: getattr(orchestrator, name) for name in names}
    harness.run(harness.SMOKE_WORKLOADS["round-bound"], SEED, ONE_PASS, trace=True, reference={})
    assert {name: getattr(orchestrator, name) for name in names} == before


class FailingFilesystem(harness.ClockStore):
    """The filesystem backend becomes unavailable at the barrier of round 2."""

    def fetch_round(self, round_number, expected_clients):
        if round_number == 2 and self.filesystem:
            raise ddfl.BackendUnavailableError("injected failure")
        return super().fetch_round(round_number, expected_clients)

    @property
    def filesystem(self):
        inner = getattr(self.inner, "inner", self.inner)
        return type(inner).__name__ == "FilesystemStore"


@pytest.mark.parametrize("trace", [False, True])
def test_backend_failure_counts_its_remaining_rounds(trace):
    workload = harness.SMOKE_WORKLOADS["round-bound"]
    result = harness.run(workload, SEED, 4.0, trace=trace, make_store=FailingFilesystem,
                         reference={})
    failing = [exp for exp in result.experiments if exp.backend == "filesystem"]
    # Not retried in the same measurement; the others keep running.
    assert len(failing) == (2 if trace else 1)
    assert all(exp.rounds_completed == 1 for exp in failing)
    assert len(result.experiments) > 4 * (2 if trace else 1)
    summary = result.summary()
    assert summary["failed"] == len(failing) * (workload.rounds - 1)
    assert not summary["correct"]
    assert any("filesystem" in problem for problem in result.problems)
    if not trace:
        share = summary["metrics"]["completed_share"]["value"]
        assert share == pytest.approx(1 - summary["failed"] / summary["attempted"])


class SwappedFinalModel(harness.ClockStore):
    """The queue backend stores the previous global model as the final one."""

    def put(self, record):
        last = harness.SMOKE_WORKLOADS["train-bound"].rounds
        if record.key == global_key(last) and type(self.inner).__name__ == "QueueStore":
            previous = self.inner.get(global_key(last - 1))
            record = type(record)(record.key, previous.payload, record.accuracy,
                                  record.elapsed_ms, record.stored_at)
        super().put(record)


def test_output_check_catches_a_backend_with_another_final_model():
    result = harness.run(harness.SMOKE_WORKLOADS["train-bound"], SEED, ONE_PASS,
                         make_store=SwappedFinalModel, reference={})
    assert result.summary()["failed"] == 0
    assert not result.correct
    assert any("differ across backends" in problem for problem in result.problems)


def test_output_check_compares_with_the_recorded_hash(untraced):
    result = untraced["model-bound"]
    workload = result.workload
    good = result.experiments[0].final_hash
    reference = {workload.name: {"spec": workload.spec, "hashes": {str(SEED): good}}}
    problems, note = harness.check_outputs(workload, SEED, result.experiments, reference)
    assert problems == [] and note.startswith("matches reference")
    reference[workload.name]["hashes"][str(SEED)] = "0" * 64
    problems, _ = harness.check_outputs(workload, SEED, result.experiments, reference)
    assert any("differs from the reference" in problem for problem in problems)
    reference[workload.name]["spec"] = "another spec"
    problems, _ = harness.check_outputs(workload, SEED, result.experiments, reference)
    assert any("reference recorded for" in problem for problem in problems)


def test_reference_hashes_match_the_workloads():
    reference = harness.load_reference()
    for name, workload in harness.WORKLOADS.items():
        assert reference[name]["spec"] == workload.spec
        assert len(reference[name]["hashes"]) >= 10


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "roundbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "roundbench/run.py", "--workload", "round-bound", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
