import csv
import dataclasses
import io

import pytest

from ddfl.backends import BackendConfig, BackendKind
from ddfl.cli import EXIT_CONFIG, main
from ddfl.config import (
    backend_kinds,
    experiment_config,
    group_key_from,
    parse_config_file,
    parse_dataset_spec,
)
from ddfl.crypto import FernetKey, generate_key
from ddfl.errors import ConfigError, ValidationError
from ddfl.orchestrator import Aggregation, ExperimentConfig, IdxSpec, SyntheticSpec
from ddfl.report import CSV_HEADER, MetricsReport
from ddfl.training import TrainConfig


def write_config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text, encoding="utf-8")
    return path


GOOD = """
# a comment line
n_clients = 2
rounds = 3
learning_rate = 0.1
epochs = 1
batch_size = 16
seed = 7
backend = memory
dataset = synthetic:200x4x2
"""


def test_parse_good_config(tmp_path):
    values = parse_config_file(write_config(tmp_path, GOOD))
    cfg = experiment_config(values)
    assert cfg.n_clients == 2
    assert cfg.rounds == 3
    assert cfg.train.seed == 7
    assert cfg.dataset == SyntheticSpec(n=200, d=4, k=2)
    assert cfg.aggregation is Aggregation.SAMPLE_WEIGHTED  # default


def test_unknown_key_names_key_and_line(tmp_path):
    path = write_config(tmp_path, "backend = memory\nmystery = 1\n")
    with pytest.raises(ConfigError, match=r"mystery"):
        parse_config_file(path)
    with pytest.raises(ConfigError, match=r":2"):
        parse_config_file(path)


# Clients are always weighted by their sample counts, so the key is gone.
@pytest.mark.parametrize("rule", ["uniform", "sample_weighted"])
def test_aggregation_is_an_unknown_key(rule, tmp_path):
    path = write_config(tmp_path, f"backend = memory\naggregation = {rule}\n")
    with pytest.raises(ConfigError, match=r":2: unknown key 'aggregation'"):
        parse_config_file(path)


# The master reads each round once and waits for nothing, so the key is gone.
def test_barrier_timeout_ms_is_an_unknown_key(tmp_path, capsys):
    path = write_config(tmp_path, GOOD + "barrier_timeout_ms = 30000\n")
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert ":11: unknown key 'barrier_timeout_ms'" in capsys.readouterr().err


def test_repeated_key_names_key_and_both_lines(tmp_path):
    path = write_config(tmp_path, "rounds = 1\nbackend = memory\nrounds = 3\n")
    with pytest.raises(ConfigError, match=r":3: key 'rounds' already set on line 1"):
        parse_config_file(path)


def test_missing_required_key_named(tmp_path):
    values = parse_config_file(write_config(tmp_path, "backend = memory\n"))
    with pytest.raises(ConfigError, match="dataset"):
        experiment_config(values)


def test_rounds_zero_rejected_by_name(tmp_path):
    values = parse_config_file(
        write_config(tmp_path, GOOD.replace("rounds = 3", "rounds = 0"))
    )
    with pytest.raises(ConfigError, match="rounds"):
        experiment_config(values)


# Every integer key and its least accepted value.
INTEGER_KEYS = {
    "n_clients": 1,
    "rounds": 1,
    "epochs": 0,
    "batch_size": 1,
    "seed": 0,
}


@pytest.mark.parametrize("key", INTEGER_KEYS)
def test_integer_keys_checked_by_name(key, tmp_path):
    least = INTEGER_KEYS[key]
    # A key may be set only once, so GOOD's own line for it is dropped.
    base = "".join(
        line for line in GOOD.splitlines(keepends=True) if not line.startswith(f"{key} =")
    )
    experiment_config(parse_config_file(write_config(tmp_path, base + f"{key} = {least}\n")))
    for bad in (str(least - 1), "1.5", "ten"):
        values = parse_config_file(write_config(tmp_path, base + f"{key} = {bad}\n"))
        with pytest.raises(ConfigError, match=key):
            experiment_config(values)


def test_omitted_keys_get_dataclass_defaults(tmp_path):
    text = "n_clients = 2\nrounds = 3\nbackend = memory\ndataset = synthetic:200x4x2\n"
    cfg = experiment_config(parse_config_file(write_config(tmp_path, text)))
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    assert cfg.seed == defaults["seed"]
    assert cfg.aggregation == defaults["aggregation"]
    assert cfg.barrier_timeout_ms == defaults["barrier_timeout_ms"]
    assert cfg.backend == BackendConfig(kind=BackendKind.MEMORY)
    assert cfg.train == TrainConfig(learning_rate=0.1, epochs=1, batch_size=32, seed=cfg.seed)
    assert cfg.group_key == generate_key(rng_seed=cfg.seed)


def test_backend_selection():
    assert backend_kinds({"backend": "all"}) == list(BackendKind)
    assert backend_kinds({"backend": "memory,queue"}) == [
        BackendKind.MEMORY,
        BackendKind.QUEUE,
    ]
    with pytest.raises(ConfigError):
        backend_kinds({"backend": "oracle-db"})


def test_dataset_spec_grammar():
    assert parse_dataset_spec("synthetic:10x3x2", {}) == SyntheticSpec(n=10, d=3, k=2)
    spec = parse_dataset_spec(
        "idx", {"idx_images": "img.idx", "idx_labels": "lbl.idx"}
    )
    assert isinstance(spec, IdxSpec)
    with pytest.raises(ConfigError, match="idx_images"):
        parse_dataset_spec("idx", {})


# The bare "synthetic" has no dimensions; every spec spells them out.
@pytest.mark.parametrize("spelling", ["synthetic", "synthetic:10x3", "synthetic:ax3x2", "csv"])
def test_bad_dataset_spelling_named(spelling):
    with pytest.raises(ConfigError, match="dataset"):
        parse_dataset_spec(spelling, {})


def test_group_key_parsing():
    key = generate_key(rng_seed=5)
    assert group_key_from({"group_key": key.encoded()}) == key
    # Absent key: derived from the seed, stable across runs.
    assert group_key_from({"seed": "3"}) == group_key_from({"seed": "3"})
    with pytest.raises(ConfigError, match="group_key"):
        group_key_from({"group_key": "tooshort"})


# 0xfb 0xff bytes encode to "-" and "_", so the standard alphabet's
# spelling of this key differs from the url-safe one.
CANONICAL = FernetKey.from_bytes(b"\xfb\xff" * 16).encoded()


@pytest.mark.parametrize(
    "spelling",
    [
        CANONICAL + "!!",
        CANONICAL.replace("-", "+").replace("_", "/"),
        " " + CANONICAL,
        CANONICAL.replace("=", "") + "==",
        "\u00e9" + CANONICAL[1:],
    ],
    ids=["trailing-junk", "standard-alphabet", "leading-space", "extra-padding", "non-ascii"],
)
def test_group_key_only_in_canonical_spelling(spelling):
    assert spelling != CANONICAL
    with pytest.raises(ValidationError):
        FernetKey.from_encoded(spelling)
    with pytest.raises(ConfigError, match="group_key"):
        group_key_from({"group_key": spelling})


def test_hash_inside_a_value_is_not_a_comment(tmp_path):
    """A '#' starts a comment only at the start of a line or after whitespace."""
    text = "  # an indented comment\nnamespace = exp#3\nbackend = memory # inline\n"
    values = parse_config_file(write_config(tmp_path, text))
    assert values == {"namespace": "exp#3", "backend": "memory"}


def test_bad_line_shape(tmp_path):
    with pytest.raises(ConfigError, match=":1"):
        parse_config_file(write_config(tmp_path, "just some words\n"))


def test_missing_file():
    with pytest.raises(ConfigError):
        parse_config_file("/nonexistent/exp.cfg")


def test_config_that_is_not_utf8_is_a_config_error(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_bytes(b"backend = memory\nn_clients = 2\xff\n")
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config_file(path)


# --- metrics report ------------------------------------------------------------

def test_csv_header_exact():
    report = MetricsReport()
    assert report.to_csv().splitlines()[0] == "metric,backend,dataset,param,value,unit"
    assert CSV_HEADER == ["metric", "backend", "dataset", "param", "value", "unit"]


def test_csv_roundtrip():
    # What a reader of the CSV gets back: floats exactly (repr), ints, failed rows.
    report = MetricsReport()
    report.add("query_get_median", "memory", "synthetic", "records=10", 0.1 + 0.2, "ms")
    report.add("param_count", "-", "synthetic", "d=784;k=10", 7850, "values")
    report.add(
        "query_get_median", "filesystem", "synthetic", "records=10",
        "failed:BackendUnavailableError", "ms",
    )
    rows = list(csv.DictReader(io.StringIO(report.to_csv())))
    assert [list(row.values()) for row in rows] == [
        [r.metric, r.backend, r.dataset, r.param, str(r.value), r.unit] for r in report.rows
    ]
    assert float(rows[0]["value"]) == 0.1 + 0.2
    assert int(rows[1]["value"]) == 7850
    assert rows[2]["value"] == "failed:BackendUnavailableError"


def test_markdown_table_shape():
    report = MetricsReport()
    report.add("m", "memory", "d", "p", 1.5, "ms")
    lines = report.to_markdown().splitlines()
    assert lines[0].startswith("| metric")
    assert set(lines[1]) <= {"|", "-"}
    assert "memory" in lines[2]


def test_timing_rows_have_units():
    report = MetricsReport()
    report.add("scale_total_time", "memory", "synthetic", "clients=2", 1.25, "s")
    for row in report.rows:
        assert row.unit in ("ms", "s", "bytes", "values")
