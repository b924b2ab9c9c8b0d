"""Record the reference outputs that every benchmark pass is checked against.

Run from the repository root at the commit whose outputs are the
reference (seed 0, one BLAS thread):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/record_references.py

It rewrites perfbench/references.json and fails if any workload's own
checks do not pass against what it just recorded.
"""

import json
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main():
    refs = {}
    for name, wl in workloads.WORKLOADS.items():
        inputs = wl.setup(0, HERE / "runs")
        outputs, errors = workloads.run_steps(wl, inputs)
        if errors:
            raise SystemExit(f"{name}: {errors}")
        if wl.extras is not None:
            outputs.update(wl.extras(inputs))
        bad = [row for row in wl.check(outputs, outputs) if not row[1]]
        if bad:
            raise SystemExit(f"{name}: reference fails its own checks: {bad}")
        refs[name] = outputs
        print(f"{name}: recorded {len(outputs)} steps")
    (HERE / "references.json").write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    (HERE / "runs").mkdir(exist_ok=True)
    sys.exit(main())
