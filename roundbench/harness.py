"""Round benchmark harness: runs ``ddfl.run_experiment`` on every backend.

The program under test is called exactly as a user calls it. The one
intervention in an untraced run is a delegating ``ModelStore`` returned from
a patched ``ddfl.orchestrator.open_backend``: it reads the clock each time a
global model is published, which gives the set-up time (call -> round-0
global stored) and the time of each round (publish -> publish).
"""

from __future__ import annotations

import hashlib
import contextlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import cryptography
import numpy as np

import ddfl
from ddfl import orchestrator
from ddfl.store import ModelStore, global_key
from tracing import Tracer, layer_metrics, patched

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE_FILE = BENCH_DIR / "reference_hashes.json"

BACKENDS = tuple(ddfl.BackendKind)
N_CLIENTS = 8
# Well above any round here (< 2 s), and short enough that a backend whose
# client hangs is given up within the 180 s a run may take.
BARRIER_TIMEOUT_MS = 10_000


@dataclass(frozen=True)
class Workload:
    """Synthetic n x d x k data split over 8 clients, run for a fixed round count."""

    name: str
    n: int
    d: int
    k: int
    rounds: int

    @property
    def spec(self) -> str:
        return f"{self.n}x{self.d}x{self.k} rounds={self.rounds}"


# Why each workload exists is recorded in README.md and BENCHMARK.json.
# round-bound is runnable but not in BENCHMARK.json: its rounds take one or
# two 5 ms barrier polls at random, so its figures are too unsteady to gate on.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-bound", 20000, 784, 10, rounds=10),
        Workload("model-bound", 800, 8192, 50, rounds=4),
        Workload("round-bound", 800, 16, 4, rounds=200),
    )
}

# Tiny variants for the benchmark's own tests: same code path, seconds not minutes.
SMOKE_WORKLOADS = {
    "train-bound": replace(WORKLOADS["train-bound"], n=400, d=32, rounds=2),
    "model-bound": replace(WORKLOADS["model-bound"], n=80, d=256, rounds=2),
    "round-bound": replace(WORKLOADS["round-bound"], n=80, d=8, rounds=6),
}


def experiment_config(workload: Workload, seed: int, kind, root: Path, namespace: str):
    """Every input is derived from ``seed``: data, partition, initial model, key."""
    return ddfl.ExperimentConfig(
        n_clients=N_CLIENTS,
        rounds=workload.rounds,
        train=ddfl.TrainConfig(learning_rate=0.1, epochs=1, batch_size=32, seed=seed),
        backend=ddfl.BackendConfig(kind=kind, root_path=root, namespace=namespace, fsync=False),
        group_key=ddfl.generate_key(rng_seed=seed),
        dataset=ddfl.SyntheticSpec(workload.n, workload.d, workload.k),
        seed=seed,
        aggregation=ddfl.Aggregation.SAMPLE_WEIGHTED,
        barrier_timeout_ms=BARRIER_TIMEOUT_MS,
    )


def model_hash(key, token: bytes) -> str:
    """SHA-256 of the serialized parameters inside an encrypted global token."""
    return hashlib.sha256(ddfl.decrypt(key, token)).hexdigest()


class ClockStore(ModelStore):
    """Delegates every call to ``inner``; records when each global model is published.

    ``close`` is deferred: the harness reads the final global back from the
    backend first, then closes ``inner`` itself.
    """

    def __init__(self, inner: ModelStore):
        super().__init__(inner.namespace)
        self.inner = inner
        self.published: list[float] = []

    def put(self, record):
        self.inner.put(record)
        if record.key.is_global:
            self.published.append(time.perf_counter())

    def get(self, key):
        return self.inner.get(key)

    def fetch_round(self, round_number, expected_clients):
        return self.inner.fetch_round(round_number, expected_clients)

    def latest_round(self):
        return self.inner.latest_round()

    def close(self):
        pass


@dataclass
class Experiment:
    """One ``run_experiment`` call on one backend."""

    backend: str
    rounds: int
    started: float = 0.0
    published: list[float] = field(default_factory=list)
    outcomes: list | None = None
    error: str | None = None
    final_hash: str | None = None
    final_accuracy: float | None = None
    traced: bool = False

    @property
    def setup_s(self) -> float | None:
        return self.published[0] - self.started if self.published else None

    @property
    def round_times(self) -> list[float]:
        return [b - a for a, b in zip(self.published, self.published[1:])]

    @property
    def rounds_completed(self) -> int:
        return len(self.round_times)

    @property
    def rounds_failed(self) -> int:
        return self.rounds - self.rounds_completed if self.error else 0


def run_once(workload, seed, kind, work_dir: Path, index: int, make_store) -> Experiment:
    """Run one experiment on a fresh namespace (and, for disk backends, a fresh root)."""
    root = Path(tempfile.mkdtemp(prefix=f"{kind.value}-", dir=work_dir))
    cfg = experiment_config(workload, seed, kind, root, f"{workload.name}-{seed}-{index}")
    exp = Experiment(kind.value, workload.rounds)
    opened = []
    open_backend = orchestrator.open_backend

    def opener(backend_cfg):
        opened.append(make_store(open_backend(backend_cfg)))
        return opened[0]

    try:
        with patched(orchestrator, {"open_backend": opener}):
            exp.started = time.perf_counter()
            try:
                exp.outcomes = orchestrator.run_experiment(cfg)
            except Exception as exc:  # a failing backend is a result, not a crash
                exp.error = f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
        # The store is dropped here, so a run holds no payloads from earlier experiments.
        for store in opened:
            exp.published = store.published
            try:
                if exp.error is None:
                    final = store.inner.get(global_key(cfg.rounds))
                    exp.final_hash = model_hash(cfg.group_key, final.payload)
                    exp.final_accuracy = final.accuracy
            except ddfl.DDFLError as exc:
                exp.error = f"final global unreadable: {type(exc).__name__}: {exc}"
            finally:
                store.inner.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return exp


def measure(workload, seed, seconds, work_dir: Path, make_store, tracer=None) -> list[Experiment]:
    """Round-robin over the backends until ``seconds`` are used, each at least once.

    The load is closed-loop: one experiment at a time, rounds back to back.
    With a ``tracer``, each backend runs untraced and then traced in every
    cycle, so both kinds of experiment see the same drift of the host.
    A slot (backend, traced or not) that raises is not run again; its
    remaining rounds count as failed.
    """
    modes = (False, True) if tracer is not None else (False,)
    slots = [(kind, traced) for kind in BACKENDS for traced in modes]
    experiments: list[Experiment] = []
    last_duration: dict = {}
    failed: set = set()
    n_traced = 0
    start = time.perf_counter()
    for index in itertools.count():
        if len(failed) == len(slots):
            break
        slot = slots[index % len(slots)]
        if slot in failed:
            continue
        elapsed = time.perf_counter() - start
        if index >= len(slots) and elapsed + last_duration[slot] > seconds:
            break
        kind, traced = slot
        store, installed = make_store, contextlib.nullcontext()
        if traced:
            tracer.begin_experiment(n_traced)
            n_traced += 1
            store, installed = tracer.store_factory(make_store), tracer.installed(orchestrator)
        began = time.perf_counter()
        with installed:
            exp = run_once(workload, seed, kind, work_dir, index, store)
        last_duration[slot] = time.perf_counter() - began
        exp.traced = traced
        experiments.append(exp)
        if exp.error:
            failed.add(slot)
    return experiments


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else {}


def check_outputs(workload, seed, experiments, reference) -> tuple[list[str], str]:
    """Problems found in the outputs (empty when correct) and how the hash was checked.

    Every completed experiment must return R outcomes; all final-model
    hashes must be equal, across backends and repeats; and they must equal
    the hash recorded for this workload and seed, when one is recorded.
    """
    problems = []
    for exp in experiments:
        if exp.error:
            problems.append(f"{exp.backend}: {exp.error}")
        elif len(exp.outcomes) != workload.rounds:
            problems.append(
                f"{exp.backend}: {len(exp.outcomes)} outcomes for {workload.rounds} rounds"
            )
    hashes = sorted({(exp.backend, exp.final_hash) for exp in experiments if exp.final_hash})
    if len({h for _, h in hashes}) > 1:
        problems.append(f"final models differ across backends or repeats: {hashes}")
    if workload.name not in reference:
        return problems, f"no reference for {workload.name}; checked across backends only"
    recorded = reference[workload.name]
    if recorded["spec"] != workload.spec:
        problems.append(f"reference recorded for {recorded['spec']!r}, not {workload.spec!r}")
        return problems, "stale reference"
    expected = recorded["hashes"].get(str(seed))
    if expected is None:
        return problems, f"no reference for seed {seed}; checked across backends only"
    wrong = [(b, h) for b, h in hashes if h != expected]
    if wrong:
        problems.append(f"final model hash differs from the reference {expected}: {wrong}")
    return problems, f"matches reference for seed {seed}"


def mean_round_s(experiments) -> float | None:
    times = [t for exp in experiments for t in exp.round_times]
    return sum(times) / len(times) if times else None


def end_to_end_metrics(experiments) -> dict:
    metrics = {}
    for kind in BACKENDS:
        own = [exp for exp in experiments if exp.backend == kind.value]
        metrics[f"round_s.{kind.value}"] = (mean_round_s(own), "s")
    setups = [exp.setup_s for exp in experiments if exp.setup_s is not None]
    metrics["setup_s"] = (statistics.median(setups) if setups else None, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    attempted, failed = round_counts(experiments)
    metrics["completed_share"] = ((attempted - failed) / attempted, "ratio")
    return metrics


def round_counts(experiments) -> tuple[int, int]:
    attempted = sum(exp.rounds for exp in experiments)
    failed = sum(exp.rounds_failed for exp in experiments)
    return attempted, failed


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def filesystem_type(path: Path) -> str:
    """Type of the mount holding ``path``, from the longest matching /proc/mounts entry."""
    path = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        lines = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return fstype
    for line in lines:
        parts = line.split()
        if len(parts) < 3:
            continue
        mount = parts[1].replace("\\040", " ")
        inside = path == mount or path.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, fstype = mount, parts[2]
    return fstype


def environment(work_dir: Path) -> dict:
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cryptography": cryptography.__version__,
        "tmp_root_fs": filesystem_type(work_dir),
        # The benchmark leaves BLAS threading as the user's environment sets it.
        "blas_threads": {
            var: os.environ.get(var, "unset") for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "fsync": False,
        "page_cache": "warm page cache, caches not dropped",
    }


@dataclass
class RunResult:
    workload: Workload
    seed: int
    env: dict
    experiments: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    reference_note: str = ""

    @property
    def correct(self) -> bool:
        return not self.problems

    def summary(self) -> dict:
        attempted, failed = round_counts(self.experiments)
        return {
            "correct": self.correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in self.metrics.items()
            },
        }


def run(workload, seed, seconds, trace=False, make_store=ClockStore, reference=None) -> RunResult:
    """Measure one workload. Untraced: end-to-end metrics over ``seconds``.

    Traced: untraced and traced experiments in turn, and the per-layer
    metrics (including the tracing overhead between the two kinds).
    """
    reference = load_reference() if reference is None else reference
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"work-{os.getpid()}-", dir=OUT_DIR))
    result = RunResult(workload, seed, environment(work_dir))
    try:
        if not trace:
            result.experiments = measure(workload, seed, seconds, work_dir, make_store)
            result.metrics = end_to_end_metrics(result.experiments)
        else:
            tracer = Tracer()
            result.experiments = measure(workload, seed, seconds, work_dir, make_store, tracer)
            untraced = [exp for exp in result.experiments if not exp.traced]
            traced = [exp for exp in result.experiments if exp.traced]
            result.metrics = layer_metrics(tracer.spans, traced, N_CLIENTS)
            base, with_trace = mean_round_s(untraced), mean_round_s(traced)
            overhead = (with_trace - base) / base if base and with_trace else None
            result.metrics["trace.overhead_share"] = (overhead, "ratio")
            tracer.write(OUT_DIR / f"trace-{workload.name}-seed{seed}.jsonl", result.env, traced)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result.problems, result.reference_note = check_outputs(
        workload, seed, result.experiments, reference
    )
    return result
