"""Record the final-model hash of each workload for a range of seeds.

    python3 roundbench/record_reference.py --workload train-bound --seeds 0-127

Runs each seed once on the memory backend and stores the SHA-256 of the
final global model's serialized parameters in reference_hashes.json, with
the workload's spec. The benchmark then fails any run whose final model,
on any backend, differs from the hash recorded for its seed. Re-record
after changing a workload, and only from a commit whose model values are
known to be right.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run as bench_run


def parse_seeds(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="N or FIRST-LAST")
    args = parser.parse_args(argv)
    bench_run.import_program()
    import ddfl
    import harness

    workload = harness.WORKLOADS[args.workload]
    entry = harness.load_reference().get(workload.name, {})
    if entry.get("spec") != workload.spec:
        entry = {"spec": workload.spec, "hashes": {}}
    harness.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.OUT_DIR) as work_dir:
        for seed in args.seeds:
            exp = harness.run_once(workload, seed, ddfl.BackendKind.MEMORY, Path(work_dir), 0,
                                   harness.ClockStore)
            if exp.error:
                print(f"seed {seed}: {exp.error}", file=sys.stderr)
                return 1
            entry["hashes"][str(seed)] = exp.final_hash
            print(f"{workload.name} seed {seed}: {exp.final_hash}", flush=True)
    reference = harness.load_reference()  # re-read: another workload may have been recorded
    reference[workload.name] = entry
    harness.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
