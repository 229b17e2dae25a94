"""Spans around the calls ``ddfl.orchestrator`` makes into each layer.

The orchestrator looks its collaborators up as module globals at call
time, so replacing those names with timing wrappers traces a run without
touching the program. Every replaced name is restored when the block
ends. Spans stay in memory and are written out once, after the run.

A span records its name, start, end, the enclosing span on the same
thread (its cause), the experiment it belongs to and the round and client
it serves; spans of one round share (experiment, round).
"""

from __future__ import annotations

import contextlib
import json
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

from ddfl.store import ModelStore

# Public functions that ddfl.orchestrator calls through its module globals.
TRACED_FUNCTIONS = (
    "build_datasets",
    "partition",
    "local_train",
    "evaluate",
    "serialize_params",
    "deserialize_params",
    "encrypt",
    "decrypt",
    "aggregate",
    "run_client_round",
    "run_round",
)


@dataclass(slots=True)
class Span:
    name: str
    experiment: int
    parent: "Span | None"
    round: int | None
    client: int | None
    nbytes: int = 0
    count: int = 0
    start: float = 0.0
    end: float = 0.0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


@contextlib.contextmanager
def patched(module, replacements: dict):
    """Set attributes of ``module`` for the duration of the block, then restore them."""
    originals = {name: getattr(module, name) for name in replacements}
    try:
        for name, value in replacements.items():
            setattr(module, name, value)
        yield originals
    finally:
        for name, value in originals.items():
            setattr(module, name, value)


def _call_fields(name: str, args) -> dict:
    """Round, client and size that a traced call's arguments identify."""
    if name == "run_client_round":
        return {"client": args[0], "round": args[1]}
    if name == "run_round":
        return {"round": args[0]}
    if name == "local_train":
        return {"count": len(args[1]) * args[2].epochs}
    if name in ("encrypt", "decrypt"):
        return {"nbytes": len(args[1])}
    if name == "deserialize_params":
        return {"nbytes": len(args[0])}
    return {}


class Tracer:
    """Collects the spans of one traced measurement in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.experiment = 0
        self._local = threading.local()

    def begin_experiment(self, index: int) -> None:
        self.experiment = index

    @contextlib.contextmanager
    def span(self, name, round=None, client=None, nbytes=0, count=0):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if parent is not None:
            round = parent.round if round is None else round
            client = parent.client if client is None else client
        span = Span(name, self.experiment, parent, round, client, nbytes, count)
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name, **_call_fields(name, args)):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def installed(self, module):
        """Replace the traced names in ``module`` for a ``with`` block."""
        return patched(module, {n: self.wrap(n, getattr(module, n)) for n in TRACED_FUNCTIONS})

    def store_factory(self, make_store):
        return lambda inner: make_store(TracingStore(inner, self))

    def write(self, path, env: dict, experiments) -> None:
        ids = {id(span): i for i, span in enumerate(self.spans)}
        origin = min((span.start for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"env": env}) + "\n")
            for i, span in enumerate(self.spans):
                record = {
                    "id": i,
                    "parent": ids[id(span.parent)] if span.parent is not None else None,
                    "name": span.name,
                    "backend": experiments[span.experiment].backend,
                    "experiment": span.experiment,
                    "round": span.round,
                    "client": span.client,
                    "start_ms": round((span.start - origin) * 1000.0, 4),
                    "ms": round(span.ms, 4),
                    "bytes": span.nbytes,
                    "count": span.count,
                }
                fh.write(json.dumps(record) + "\n")


class TracingStore(ModelStore):
    """Delegating store that records a span around every put, get and fetch_round."""

    def __init__(self, inner: ModelStore, tracer: Tracer):
        super().__init__(inner.namespace)
        self.inner = inner
        self.tracer = tracer

    def put(self, record):
        with self.tracer.span("put", nbytes=len(record.payload)) as span:
            span.client = record.key.client_id
            self.inner.put(record)

    def get(self, key):
        with self.tracer.span("get") as span:
            record = self.inner.get(key)
            span.nbytes = len(record.payload)
        return record

    def fetch_round(self, round_number, expected_clients):
        with self.tracer.span("fetch_round") as span:
            records = self.inner.fetch_round(round_number, expected_clients)
            span.nbytes = sum(len(rec.payload) for rec in records)
            span.count = len(records)
        return records

    def latest_round(self):
        return self.inner.latest_round()

    def close(self):
        self.inner.close()


def percentile(values, q: float):
    """Nearest-rank percentile (q in [0, 100]); None for no samples."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _median(values):
    return statistics.median(values) if values else None


def _ratio(num, den):
    return num / den if den else None


def layer_metrics(spans, experiments, n_clients: int) -> dict:
    """Per-layer metrics, named ``<layer>.<what>``, from the spans of a traced run.

    ``experiments`` are the traced experiments in order (span.experiment
    indexes them); their publish times give the round intervals.
    """
    by_name, in_round = defaultdict(list), defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.round is not None:
            in_round[span.name].append(span)
    rounds_all = sum(exp.rounds_completed for exp in experiments)

    def p50(name):
        return percentile([s.ms for s in in_round[name]], 50)

    def per_round(name):
        return _ratio(len(in_round[name]), rounds_all)

    def total_s(name):
        return sum(s.end - s.start for s in in_round[name])

    local_train = [s.ms for s in in_round["local_train"]]
    samples = sum(s.count for s in in_round["local_train"])
    decrypted = sum(s.nbytes for s in in_round["decrypt"])
    m = {
        "data.build_datasets_s": (_median([s.ms / 1000 for s in by_name["build_datasets"]]), "s"),
        "data.partition_s": (_median([s.ms / 1000 for s in by_name["partition"]]), "s"),
        "training.local_train_ms.p50": (percentile(local_train, 50), "ms"),
        "training.local_train_ms.p90": (percentile(local_train, 90), "ms"),
        "training.local_train_samples_per_s": (_ratio(samples, total_s("local_train")), "1/s"),
        "training.evaluate_ms.p50": (p50("evaluate"), "ms"),
        "training.evaluate_calls_per_round": (per_round("evaluate"), "count"),
        "params.serialize_ms.p50": (p50("serialize_params"), "ms"),
        "params.deserialize_ms.p50": (p50("deserialize_params"), "ms"),
        "crypto.encrypt_ms.p50": (p50("encrypt"), "ms"),
        "crypto.decrypt_ms.p50": (p50("decrypt"), "ms"),
        "crypto.decrypt_mb_per_s": (_ratio(decrypted / 1e6, total_s("decrypt")), "MB/s"),
        "crypto.encrypt_calls_per_round": (per_round("encrypt"), "count"),
        "crypto.decrypt_calls_per_round": (per_round("decrypt"), "count"),
    }

    for backend in dict.fromkeys(exp.backend for exp in experiments):
        own = {i for i, exp in enumerate(experiments) if exp.backend == backend}
        m.update(_backend_metrics(backend, spans, experiments, own, n_clients))
    return m


def _backend_metrics(backend, spans, experiments, own, n_clients) -> dict:
    """``backends.<b>.*`` and ``orchestrator.<b>.*`` for the experiments in ``own``."""
    mine = [s for s in spans if s.experiment in own and s.round is not None]
    rounds = sum(experiments[i].rounds_completed for i in own)
    named = defaultdict(list)
    for span in mine:
        named[span.name].append(span)

    fetches = named["fetch_round"]
    full = [s for s in fetches if s.count >= n_clients]
    polls = [s for s in fetches if s.count < n_clients]
    protocol_read = sum(s.nbytes for s in named["get"]) + sum(s.nbytes for s in full)
    reported_read = sum(o.bytes_read for i in own for o in experiments[i].outcomes or [])
    reported_written = sum(o.bytes_written for i in own for o in experiments[i].outcomes or [])

    b = f"backends.{backend}"
    m = {
        f"{b}.put_ms.p50": (percentile([s.ms for s in named["put"]], 50), "ms"),
        f"{b}.put_ms.p90": (percentile([s.ms for s in named["put"]], 90), "ms"),
        f"{b}.get_ms.p50": (percentile([s.ms for s in named["get"]], 50), "ms"),
        f"{b}.fetch_round_ms.p50": (percentile([s.ms for s in fetches], 50), "ms"),
        f"{b}.fetch_round_ms.p90": (percentile([s.ms for s in fetches], 90), "ms"),
        f"{b}.put_calls_per_round": (_ratio(len(named["put"]), rounds), "count"),
        f"{b}.get_calls_per_round": (_ratio(len(named["get"]), rounds), "count"),
        f"{b}.fetch_round_calls_per_round": (_ratio(len(fetches), rounds), "count"),
        f"{b}.bytes_written_per_round": (_ratio(sum(s.nbytes for s in named["put"]), rounds), "B"),
        f"{b}.reported_bytes_written_per_round": (_ratio(reported_written, rounds), "B"),
        f"{b}.protocol_bytes_read_per_round": (_ratio(protocol_read, rounds), "B"),
        f"{b}.reported_bytes_read_per_round": (_ratio(reported_read, rounds), "B"),
        f"{b}.poll_bytes_read_per_round": (_ratio(sum(s.nbytes for s in polls), rounds), "B"),
        f"{b}.unreported_read_bytes_per_round": (
            _ratio(protocol_read - reported_read, rounds), "B"),
    }

    # The master's steps are the spans whose cause is its run_round span.
    def by_master(name):
        return [s for s in named[name] if s.parent is not None and s.parent.name == "run_round"]

    barrier = [(s.end - s.parent.start) * 1000.0 for s in by_master("fetch_round")
               if s.count >= n_clients]
    evaluated = {(s.experiment, s.round): s.end for s in by_master("evaluate")}
    publish = [(s.end - evaluated[(s.experiment, s.round)]) * 1000.0 for s in by_master("put")
               if (s.experiment, s.round) in evaluated]
    clients = defaultdict(list)
    for s in named["run_client_round"]:
        clients[(s.experiment, s.round)].append(s.ms)
    stragglers = [max(d) - statistics.median(d) for d in clients.values()]
    round_ms = [t * 1000.0 for i in own for t in experiments[i].round_times]
    train_s = sum(s.end - s.start for s in named["local_train"])

    o = f"orchestrator.{backend}"
    m.update({
        f"{o}.round_ms.p50": (percentile(round_ms, 50), "ms"),
        f"{o}.round_ms.p90": (percentile(round_ms, 90), "ms"),
        f"{o}.round_ms.samples": (len(round_ms), "count"),
        f"{o}.barrier_wait_ms.p50": (percentile(barrier, 50), "ms"),
        f"{o}.barrier_useful_ratio": (_ratio(len(full), len(fetches)), "ratio"),
        f"{o}.client_round_ms.p90": (
            percentile([s.ms for s in named["run_client_round"]], 90), "ms"),
        f"{o}.straggler_ms.p50": (percentile(stragglers, 50), "ms"),
        f"{o}.aggregate_ms.p50": (percentile([s.ms for s in named["aggregate"]], 50), "ms"),
        f"{o}.publish_ms.p50": (percentile(publish, 50), "ms"),
        f"{o}.train_overlap": (_ratio(train_s, sum(round_ms) / 1000.0), "ratio"),
    })
    return m
