"""Command-line entry point.

Subcommands: run, bench-query, bench-comm, bench-scale, conformance.
Exit codes are a stable contract: 0 success, 2 configuration error,
3 runtime error, a file that cannot be read or written among them. A bench
command exits 3 only when no backend measured.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import tempfile
from pathlib import Path

from .backends import BackendConfig
from .bench import bench_comm, bench_query, bench_scale
from .conformance import PropertyResult, check_backend
from .config import backend_kinds, load_config
from .data import SyntheticSpec
from .errors import ConfigError, DDFLError
from .orchestrator import run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _write_output(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_run(args) -> int:
    cfg, backends = load_config(args.config)
    if len(backends) != 1:
        raise ConfigError("key 'backend' must name exactly one backend for this command")
    outcomes = run_experiment(cfg)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["round", "accuracy", "wall_ms", "bytes_written", "bytes_read"])
    for outcome in outcomes:
        writer.writerow(
            [
                outcome.round,
                repr(outcome.global_accuracy),
                repr(outcome.round_wall_ms),
                outcome.bytes_written,
                outcome.bytes_read,
            ]
        )
    _write_output(out.getvalue(), args.out)
    return EXIT_OK


def _emit_report(report, args) -> int:
    """Write a bench report; its exit code is 3 when no backend measured.

    That is, when no row holds a number apart from the size rows, whose
    backend is ``-``.
    """
    _write_output(report.to_markdown() if args.markdown else report.to_csv(), args.out)
    measured = any(
        row.backend != "-" and isinstance(row.value, (int, float)) for row in report.rows
    )
    return EXIT_OK if measured else EXIT_RUNTIME


def _synthetic(spec) -> SyntheticSpec:
    # bench-comm sizes its model from the spec, bench-scale its datasets.
    if not isinstance(spec, SyntheticSpec):
        raise ConfigError("key 'dataset' must be a synthetic spec for this command")
    return spec


def cmd_bench_query(args) -> int:
    _, backends = load_config(args.config)
    if args.records < 1:
        raise ConfigError(f"--records must be >= 1, got {args.records}")
    if args.payload_bytes < 1:
        raise ConfigError(f"--payload-bytes must be >= 1, got {args.payload_bytes}")
    report = bench_query(backends, args.records, args.payload_bytes)
    return _emit_report(report, args)


def cmd_bench_comm(args) -> int:
    cfg, backends = load_config(args.config)
    spec = _synthetic(cfg.dataset)
    report = bench_comm(backends, spec.d, spec.k, cfg.group_key)
    return _emit_report(report, args)


def cmd_bench_scale(args) -> int:
    base, backends = load_config(args.config)
    try:
        client_counts = [int(part) for part in args.clients.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"--clients must be a comma list of integers, got {args.clients!r}") from None
    if not client_counts or any(c < 1 for c in client_counts):
        raise ConfigError(f"--clients must name positive client counts, got {args.clients!r}")
    spec = _synthetic(base.dataset)
    # With --fixed-shard the dataset grows with the client count.
    if not args.fixed_shard and max(client_counts) > spec.n:
        raise ConfigError(
            f"--clients {max(client_counts)} exceeds the {spec.n} samples in 'dataset'"
        )
    report = bench_scale(base, backends, client_counts, fixed_shard=args.fixed_shard)
    return _emit_report(report, args)


def conformance_exit_code(results: list[tuple[str, list[PropertyResult]]]) -> int:
    ok = all(result.passed for _, backend_results in results for result in backend_results)
    return EXIT_OK if ok else EXIT_RUNTIME


def cmd_conformance(args) -> int:
    kinds = backend_kinds({"backend": args.backend})
    all_results = []
    with tempfile.TemporaryDirectory(prefix="ddfl-conformance-") as tmp:
        for kind in kinds:
            results = check_backend(BackendConfig(kind=kind, root_path=Path(tmp)))
            all_results.append((kind.value, results))
            for result in results:
                status = "pass" if result.passed else "FAIL"
                line = f"{kind.value:12s} {result.name:24s} {status}"
                if result.detail:
                    line += f"  ({result.detail})"
                print(line)
    return conformance_exit_code(all_results)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddfl",
        description="Federated learning over pluggable, encrypted storage middleware.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config_and_out = argparse.ArgumentParser(add_help=False)
    config_and_out.add_argument("config", help="path to a key = value config file")
    config_and_out.add_argument("--out", help="write the output here instead of stdout")
    markdown = argparse.ArgumentParser(add_help=False)
    markdown.add_argument("--markdown", action="store_true", help="emit a markdown table")
    bench = [config_and_out, markdown]

    p_run = sub.add_parser(
        "run", parents=[config_and_out], help="run a federated experiment from a config file"
    )
    p_run.set_defaults(handler=cmd_run)

    p_query = sub.add_parser(
        "bench-query", parents=bench, help="single-record get latency per backend"
    )
    p_query.add_argument("--records", type=int, default=1000)
    p_query.add_argument("--payload-bytes", type=int, default=31423)
    p_query.set_defaults(handler=cmd_bench_query)

    p_comm = sub.add_parser("bench-comm", parents=bench, help="per-model communication cost")
    p_comm.set_defaults(handler=cmd_bench_comm)

    p_scale = sub.add_parser(
        "bench-scale", parents=bench, help="experiment wall time across client counts"
    )
    p_scale.add_argument("--clients", default="2,4,6,8", help="comma list of client counts")
    p_scale.add_argument(
        "--fixed-shard",
        action="store_true",
        help="hold per-client shard size fixed instead of total dataset size",
    )
    p_scale.set_defaults(handler=cmd_bench_scale)

    p_conf = sub.add_parser("conformance", help="run the store conformance suite")
    p_conf.add_argument(
        "--backend", default="all", help="a backend kind, a comma list of kinds, or 'all'"
    )
    p_conf.set_defaults(handler=cmd_conformance)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DDFLError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
