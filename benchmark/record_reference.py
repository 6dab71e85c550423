"""Record the reference outputs the benchmark's checks compare against.

Run from the checkout root, once per intended change of the program's
outputs:

    python3 benchmark/record_reference.py

For every workload and pool dataset it runs one untraced workload process and
stores the values that ``workloads.check_outputs`` compares, including the
output digest, in ``benchmark/reference.json``.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import run_child
from workloads import POOL, REFERENCE_PATH, WORKLOADS, check_outputs


def main():
    reference = {}
    work = Path(".bench_work") / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for name, w in WORKLOADS.items():
        entries = reference[name] = {}
        for seed in range(POOL):
            rep = run_child(w, seed, work, f"-{name}-{seed}", False, 170.0)
            if not rep["ok"]:
                print(f"{name} seed {seed}: failed: {rep.get('error')}", file=sys.stderr)
                return 1
            _, problems = check_outputs(name, rep["outputs"], rep["outputs"])
            if problems:
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            entries[str(seed)] = rep["outputs"]
            print(f"{name} seed {seed}: {len(rep['outputs']['op_values'])} ops, "
                  f"wall {rep['wall_s']:.2f} s", flush=True)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
