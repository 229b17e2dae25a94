import csv
import io

import pytest

from ddfl.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, conformance_exit_code, main
from ddfl.conformance import PropertyResult
from test_data import write_idx_pair


def csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


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


@pytest.mark.parametrize("missing", ["images", "labels"])
def test_run_missing_idx_file_exit_3(missing, tmp_path, capsys):
    images, labels = write_idx_pair(tmp_path, list(range(64)), [i % 2 for i in range(16)], 2, 2)
    paths = {"images": images, "labels": labels}
    paths[missing] = tmp_path / "absent.idx"
    text = BASE.replace("dataset = synthetic:200x4x2", "dataset = idx")
    text += f"idx_images = {paths['images']}\nidx_labels = {paths['labels']}\n"
    assert main(["run", write_config(tmp_path, text)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "error: FileNotFoundError" in err and "absent.idx" in err


@pytest.mark.parametrize(
    "command", [["run"], ["bench-query", "--records", "2"]], ids=["run", "bench-query"]
)
def test_out_in_missing_directory_exit_3(command, tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    cfg = write_config(tmp_path, BASE)
    assert main([command[0], cfg, *command[1:], "--out", str(out)]) == EXIT_RUNTIME
    assert "error: FileNotFoundError" in capsys.readouterr().err
    assert not out.parent.exists()


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


def test_run_more_clients_than_samples_exit_2(tmp_path, capsys):
    text = BASE.replace("n_clients = 2", "n_clients = 4").replace("200x4x2", "2x4x2")
    assert main(["run", write_config(tmp_path, text)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "n_clients" in err and "dataset" in err


@pytest.mark.parametrize("namespace", ["../escaped", "ABSOLUTE"], ids=["parent", "absolute"])
def test_run_namespace_outside_root_exit_2(namespace, tmp_path, capsys):
    work = tmp_path / "work"
    root = work / "root"
    root.mkdir(parents=True)
    if namespace == "ABSOLUTE":
        namespace = str(work / "elsewhere")
    text = BASE.replace("backend = memory", "backend = filesystem")
    text += f"root_path = {root}\nnamespace = {namespace}\n"
    assert main(["run", write_config(tmp_path, text)]) == EXIT_CONFIG
    assert "namespace" in capsys.readouterr().err
    assert [p.name for p in work.iterdir()] == ["root"]
    assert not any(root.iterdir())


def test_run_root_path_with_hash_is_not_cut(tmp_path):
    """The store lands under ``st#x``, not under ``st``, which also exists."""
    (tmp_path / "st#x").mkdir()
    (tmp_path / "st").mkdir()
    text = BASE.replace("backend = memory", "backend = filesystem")
    text += f"root_path = {tmp_path / 'st#x'}\n"
    assert main(["run", write_config(tmp_path, text)]) == EXIT_OK
    assert (tmp_path / "st#x" / "default" / "3" / "global.rec").is_file()
    assert not any((tmp_path / "st").iterdir())


def test_run_missing_root_exit_3(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        BASE.replace("backend = memory", "backend = filesystem")
        + f"root_path = {tmp_path / 'missing-root'}\n",
    )
    assert main(["run", cfg]) == EXIT_RUNTIME
    assert "BackendUnavailable" in capsys.readouterr().err


def test_run_namespace_path_is_a_file_exit_3(tmp_path, capsys):
    (tmp_path / "ns").write_text("not a directory")
    cfg = write_config(
        tmp_path,
        BASE.replace("backend = memory", "backend = filesystem")
        + f"root_path = {tmp_path}\nnamespace = ns\n",
    )
    assert main(["run", cfg]) == EXIT_RUNTIME
    assert "error: BackendUnavailableError" in capsys.readouterr().err


def test_bench_query_row_count(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.replace("backend = memory", "backend = memory,queue"))
    code = main(["bench-query", cfg, "--records", "5", "--payload-bytes", "64"])
    assert code == EXIT_OK
    assert len(csv_rows(capsys.readouterr().out)) == 4  # 2 backends x (median, p95)


def test_bench_query_single_record_p95_equals_median(tmp_path, capsys):
    code = main(["bench-query", write_config(tmp_path, BASE), "--records", "1"])
    assert code == EXIT_OK
    values = {row["metric"]: float(row["value"]) for row in csv_rows(capsys.readouterr().out)}
    assert values["query_get_median"] == values["query_get_p95"]


def test_bench_query_all_backends(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        BASE.replace("backend = memory", "backend = all") + f"root_path = {tmp_path}\n",
    )
    code = main(["bench-query", cfg, "--records", "3", "--payload-bytes", "32"])
    assert code == EXIT_OK
    assert len(csv_rows(capsys.readouterr().out)) == 8  # 4 backends x 2 statistics


def test_bench_comm_values(tmp_path, capsys):
    cfg = write_config(
        tmp_path, BASE.replace("dataset = synthetic:200x4x2", "dataset = synthetic:10x784x10")
    )
    code = main(["bench-comm", cfg])
    assert code == EXIT_OK
    values = {row["metric"]: row["value"] for row in csv_rows(capsys.readouterr().out)}
    assert values["param_count"] == "7850"
    assert values["serialized_size"] == str(23 + 4 * 7850)
    assert float(values["bytes_per_value"]) == pytest.approx((23 + 4 * 7850) / 7850)
    assert float(values["comm_time"]) > 0


def test_bench_comm_no_backend_measured_exit_3(tmp_path, capsys):
    text = BASE.replace("backend = memory", "backend = filesystem")
    text += f"root_path = {tmp_path / 'missing-root'}\n"
    assert main(["bench-comm", write_config(tmp_path, text)]) == EXIT_RUNTIME
    values = {row["metric"]: row["value"] for row in csv_rows(capsys.readouterr().out)}
    assert values["comm_time"] == "failed:BackendUnavailableError"


def test_bench_comm_without_dataset_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.replace("dataset = synthetic:200x4x2\n", ""))
    assert main(["bench-comm", cfg]) == EXIT_CONFIG
    assert "missing required key 'dataset'" in capsys.readouterr().err


def test_bench_comm_negative_seed_exit_2(tmp_path, capsys):
    """bench-comm derives its group key from the seed, so it checks the seed's bound."""
    cfg = write_config(tmp_path, BASE.replace("seed = 7", "seed = -1"))
    assert main(["bench-comm", cfg]) == EXIT_CONFIG
    assert "seed" in capsys.readouterr().err


def test_bench_scale_idx_dataset_exit_2(tmp_path, capsys):
    images, labels = write_idx_pair(tmp_path, list(range(64)), [i % 2 for i in range(16)], 2, 2)
    text = BASE.replace("dataset = synthetic:200x4x2", "dataset = idx")
    text += f"idx_images = {images}\nidx_labels = {labels}\n"
    assert main(["bench-scale", write_config(tmp_path, text), "--clients", "2"]) == EXIT_CONFIG
    assert "dataset" in capsys.readouterr().err


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
    rows = csv_rows(capsys.readouterr().out)
    assert len(rows) == 2
    assert all(row["unit"] == "s" for row in rows)
    assert all(float(row["value"]) > 0 for row in rows)


def test_bench_scale_bad_clients(tmp_path, capsys):
    assert main(["bench-scale", write_config(tmp_path, BASE), "--clients", "2,zero"]) == EXIT_CONFIG


def test_bench_scale_clients_above_samples_exit_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path, BASE.replace("dataset = synthetic:200x4x2", "dataset = synthetic:6x4x2")
    )
    assert main(["bench-scale", cfg, "--clients", "2,8"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--clients 8" in err and "6 samples" in err
    # With --fixed-shard the dataset grows with the client count, so 8 is fine.
    assert main(["bench-scale", cfg, "--clients", "2,8", "--fixed-shard"]) == EXIT_OK


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
