"""Round benchmark for ddfl: seconds per round on each backend, per workload.

Run from the root of a checkout:

    python3 roundbench/run.py --workload train-bound --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a run in which untraced and traced experiments
alternate, and writes its spans to
``roundbench/out/trace-<workload>-seed<seed>.jsonl``. Every metric is
printed as ``name = value unit``; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` (rounds) and ``metrics``. The exit
code is 0 when the output check passed, 1 when it failed and 2 when the
benchmark cannot run here (for instance without ``src/ddfl``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cannot_run(message: str):
    print(f"roundbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_program():
    """Import ddfl from this checkout's sources only, never from elsewhere."""
    if not (SRC / "ddfl" / "__init__.py").is_file():
        cannot_run(f"no ddfl sources at {SRC}; run it from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    import ddfl

    if not Path(ddfl.__file__).resolve().is_relative_to(SRC):
        cannot_run(f"imported ddfl from {ddfl.__file__}, not from {SRC}")


def report_lines(result) -> list[str]:
    lines = [f"# env {json.dumps(result.env, sort_keys=True)}"]
    lines.append(f"# workload {result.workload.name} ({result.workload.spec}) seed {result.seed}")
    for exp in result.experiments:
        status = exp.error or f"final {exp.final_hash[:16]} accuracy {exp.final_accuracy:.4f}"
        name = f"{exp.backend} traced" if exp.traced else exp.backend
        lines.append(
            f"# {name:<17} setup {exp.setup_s or 0.0:.3f} s, "
            f"{exp.rounds_completed}/{exp.rounds} rounds: {status}"
        )
    summary = result.summary()
    attempted, failed = summary["attempted"], summary["failed"]
    lines.append(
        f"# rounds attempted {attempted}, failed {failed}, failed_share {failed / attempted:.4f}"
    )
    lines.append(f"# output check: {'ok' if result.correct else 'FAILED'}; {result.reference_note}")
    lines.extend(f"# problem: {problem}" for problem in result.problems)
    for name, (value, unit) in result.metrics.items():
        lines.append(f"{name} = {value} {unit}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import harness

    if args.workload not in harness.WORKLOADS:
        cannot_run(f"unknown workload {args.workload!r}; known: {', '.join(harness.WORKLOADS)}")
    result = harness.run(
        harness.WORKLOADS[args.workload], args.seed, args.seconds, trace=bool(args.trace)
    )
    print("\n".join(report_lines(result)))
    print(json.dumps(result.summary()), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
