import csv
import io

import pytest

from ddfl.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, conformance_exit_code, main
from ddfl.conformance import PropertyResult
from ddfl.report import MetricsReport
from test_data import write_idx_pair


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


BASE = """
n_clients = 2
rounds = 3
learning_rate = 0.1
epochs = 1
batch_size = 16
seed = 7
backend = memory
dataset = synthetic:200x4x2
"""


def test_run_happy_path(tmp_path, capsys):
    code = main(["run", write_config(tmp_path, BASE)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(captured.out)))
    assert rows[0] == ["round", "accuracy", "wall_ms", "bytes_written", "bytes_read"]
    assert len(rows) == 1 + 3  # header + one row per round
    assert [row[0] for row in rows[1:]] == ["1", "2", "3"]


def test_run_out_file(tmp_path):
    out = tmp_path / "rounds.csv"
    code = main(["run", write_config(tmp_path, BASE), "--out", str(out)])
    assert code == EXIT_OK
    assert out.read_text().startswith("round,accuracy")


def test_run_idx_dataset(tmp_path, capsys):
    images, labels = write_idx_pair(
        tmp_path, [(7 * i) % 256 for i in range(40 * 4)], [i % 2 for i in range(40)], 2, 2
    )
    text = BASE.replace("dataset = synthetic:200x4x2", "dataset = idx")
    text += f"idx_images = {images}\nidx_labels = {labels}\n"
    assert main(["run", write_config(tmp_path, text)]) == EXIT_OK
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [row[0] for row in rows[1:]] == ["1", "2", "3"]


def test_run_config_error_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.replace("rounds = 3", "rounds = 0"))
    assert main(["run", cfg]) == EXIT_CONFIG
    assert "rounds" in capsys.readouterr().err


def test_run_unknown_key_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE + "surprise = 1\n")
    assert main(["run", cfg]) == EXIT_CONFIG
    assert "surprise" in capsys.readouterr().err


@pytest.mark.parametrize(
    "dataset", ["synthetic:0x8x4", "synthetic:-5x8x4", "synthetic:100x0x4", "synthetic:100x8x1"]
)
def test_run_bad_synthetic_size_exit_2(dataset, tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.replace("synthetic:200x4x2", dataset))
    assert main(["run", cfg]) == EXIT_CONFIG
    assert "dataset" in capsys.readouterr().err


def test_run_missing_root_exit_3(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        BASE.replace("backend = memory", "backend = filesystem")
        + f"root_path = {tmp_path / 'missing-root'}\n",
    )
    assert main(["run", cfg]) == EXIT_RUNTIME
    assert "BackendUnavailable" in capsys.readouterr().err


def test_bench_query_row_count(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.replace("backend = memory", "backend = memory,queue"))
    code = main(["bench-query", cfg, "--records", "5", "--payload-bytes", "64"])
    assert code == EXIT_OK
    report = MetricsReport.from_csv(capsys.readouterr().out)
    assert len(report.rows) == 4  # 2 backends x (median, p95)


def test_bench_query_single_record_p95_equals_median(tmp_path, capsys):
    code = main(["bench-query", write_config(tmp_path, BASE), "--records", "1"])
    assert code == EXIT_OK
    report = MetricsReport.from_csv(capsys.readouterr().out)
    values = {row.metric: row.value for row in report.rows}
    assert values["query_get_median"] == values["query_get_p95"]


def test_bench_query_all_backends(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        BASE.replace("backend = memory", "backend = all") + f"root_path = {tmp_path}\n",
    )
    code = main(["bench-query", cfg, "--records", "3", "--payload-bytes", "32"])
    assert code == EXIT_OK
    report = MetricsReport.from_csv(capsys.readouterr().out)
    assert len(report.rows) == 8  # 4 backends x 2 statistics


def test_bench_comm_values(tmp_path, capsys):
    cfg = write_config(
        tmp_path, BASE.replace("dataset = synthetic:200x4x2", "dataset = synthetic:10x784x10")
    )
    code = main(["bench-comm", cfg])
    assert code == EXIT_OK
    report = MetricsReport.from_csv(capsys.readouterr().out)
    values = {row.metric: row.value for row in report.rows}
    assert values["param_count"] == 7850
    assert values["serialized_size"] == 23 + 4 * 7850
    assert values["bytes_per_value"] == pytest.approx((23 + 4 * 7850) / 7850)
    assert "comm_time" in values


def test_bench_markdown_out_file(tmp_path):
    out = tmp_path / "comm.md"
    code = main(["bench-comm", write_config(tmp_path, BASE), "--markdown", "--out", str(out)])
    assert code == EXIT_OK
    assert out.read_text().startswith("| metric")


def test_bench_scale_rows(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        BASE.replace("dataset = synthetic:200x4x2", "dataset = synthetic:64x3x2"),
    )
    code = main(["bench-scale", cfg, "--clients", "1,2"])
    assert code == EXIT_OK
    report = MetricsReport.from_csv(capsys.readouterr().out)
    assert len(report.rows) == 2
    assert all(row.unit == "s" for row in report.rows)
    assert all(isinstance(row.value, float) and row.value > 0 for row in report.rows)


def test_bench_scale_bad_clients(tmp_path, capsys):
    assert main(["bench-scale", write_config(tmp_path, BASE), "--clients", "2,zero"]) == EXIT_CONFIG


def test_conformance_all_green(capsys):
    assert main(["conformance", "--backend", "all"]) == EXIT_OK
    out = capsys.readouterr().out
    for kind in ("memory", "filesystem", "queue", "relational"):
        assert kind in out
    assert "roundtrip" in out
    assert "FAIL" not in out


def test_conformance_single_backend(capsys):
    assert main(["conformance", "--backend", "memory"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "memory" in out and "filesystem" not in out


def test_conformance_backend_list(capsys):
    # The same grammar as the config file's backend key.
    assert main(["conformance", "--backend", "memory,queue"]) == EXIT_OK
    out = capsys.readouterr().out
    assert {line.split()[0] for line in out.splitlines()} == {"memory", "queue"}


def test_conformance_unknown_backend(capsys):
    assert main(["conformance", "--backend", "etcd"]) == EXIT_CONFIG


def test_conformance_exit_code_on_failure():
    results = [
        ("memory", [PropertyResult("roundtrip", True)]),
        ("broken", [PropertyResult("roundtrip", False, "lost write")]),
    ]
    assert conformance_exit_code(results) == EXIT_RUNTIME
    results = [("memory", [PropertyResult("roundtrip", True)])]
    assert conformance_exit_code(results) == EXIT_OK
