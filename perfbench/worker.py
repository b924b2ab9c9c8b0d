"""One benchmark process: set up a workload, run timed passes, report JSON.

Started by run.py in a fresh interpreter so that imports, peak memory and
the visibility cache belong to this workload alone.  Between passes it
starts set-up-only interpreters of itself, one after another, spread
over the run, so that the set-up samples see the same host as the passes.
The last line of standard output is one JSON object.
"""

import time

T0 = time.perf_counter()        # before numpy, scipy and visform load

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
RUNS = HERE / "runs"
#: passes per run at least; with tracing, one untraced and one traced
MIN_PASSES = 2
#: pass seeds of one run are seed * PASS_SEEDS + pass index
PASS_SEEDS = 1000
#: set-up-only interpreters per untraced run, besides the measuring one
SETUP_RUNS = 16
#: a set-up-only interpreter that takes longer than this is killed
SETUP_TIMEOUT_S = 60


def timed_pass(workload, inputs, refs, tracer=None):
    """(wall seconds, check rows, step errors) of one pass."""
    root = tracer.open("pass", "bench") if tracer else None
    t = time.perf_counter()
    outputs, errors = workloads.run_steps(workload, inputs, tracer)
    if tracer:
        tracer.step = "check"
    rows = workload.check(outputs, refs)
    wall = time.perf_counter() - t
    if tracer:
        tracer.close(root)
        tracer.step = None
    return wall, rows, errors


def blas_info():
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "blas_config": " ".join(str(blas.get("openblas configuration",
                                                 "")).split())}


def setup_sample(workload, seed):
    """setup_s of a fresh interpreter that only sets the workload up."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"),
         "--workload", workload.name, "--seed", str(seed),
         "--seconds", "1", "--trace", "0", "--setup-only"],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def measure(workload, inputs, seconds, trace, setups):
    """Timed passes for ``seconds``; appends set-up samples to ``setups``
    in step with the time used, SETUP_RUNS of them when not tracing."""
    from visform import forms
    refs = json.loads((HERE / "references.json").read_text())[workload.name]
    tracer = spans.Tracer() if trace else None
    n_setups = len(setups) + (0 if trace else SETUP_RUNS)
    walls, traced_walls, traced_idx = [], [], []
    attempted = failed = 0
    messages = []
    seed = inputs["seed"]
    start = time.perf_counter()
    k = 0
    while True:
        traced = trace and k % 2 == 1
        # each pass (each untraced/traced pair when tracing) draws its own
        # seed from the run's, so a run's median averages over several
        # random streams; walk and chain-search times depend on them
        inputs["seed"] = seed * PASS_SEEDS + (k // 2 if trace else k)
        forms.clear_visibility_cache()      # untimed, untraced
        if traced:
            tracer.pass_index = k
            with spans.Installed(tracer, spans.HOOKS):
                wall, rows, errors = timed_pass(workload, inputs, refs, tracer)
            traced_walls.append(wall)
            traced_idx.append(k)
        else:
            wall, rows, errors = timed_pass(workload, inputs, refs)
            walls.append(wall)
        attempted += len(rows)
        bad = [f"{op}: {msg}" for op, ok, msg in rows if not ok]
        failed += len(bad)
        messages += errors + bad
        k += 1
        share = min(1.0, (time.perf_counter() - start) / seconds)
        while len(setups) < n_setups * share:
            setups.append(setup_sample(workload, seed))
        if k >= MIN_PASSES and (time.perf_counter() - start + wall > seconds
                                or k == PASS_SEEDS):
            break
    while len(setups) < n_setups:
        setups.append(setup_sample(workload, seed))
    result = {"walls": walls, "passes": k, "attempted": attempted,
              "failed": failed, "messages": messages[:20], "setups": setups}
    if trace:
        layers = spans.layer_metrics(tracer, traced_idx, workload.repeat)
        layers["trace.overhead_s"] = (statistics.median(traced_walls)
                                      - statistics.median(walls))
        layers["failed_frac"] = failed / attempted
        result["additive"] = spans.additive(layers)
        result["layers"] = layers
        path = RUNS / f"spans-{workload.name}-seed{seed}.jsonl"
        tracer.write_jsonl(path, workload.name)
        result["spans_file"] = str(path.relative_to(HERE.parent))
    return result


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    RUNS.mkdir(exist_ok=True)
    inputs = workload.setup(args.seed, RUNS)
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(measure(workload, inputs, args.seconds,
                              bool(args.trace), [setup_s]))
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024.0)
        result["env"] = blas_info()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
