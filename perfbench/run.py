"""visform benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload witness-sweep --seed 1 \\
        --seconds 60 --trace 0

Workloads (defined in workloads.py): witness-sweep, eigen-walk,
whitney-audit, quick-suite.  BENCHMARK.json lists witness-sweep and
quick-suite; eigen-walk (memory-bound dense eigen and walker passes) and
whitney-audit (pure-Python Whitney passes) drift too much on a shared
host for the bound, so they run by hand only.  Each run starts fresh
interpreters, all on the highest-numbered CPU it may use, with one BLAS
thread and VISFORM_WORKERS=1:

* one measuring process, which runs the workload in passes until
  ``--seconds`` would be exceeded (at least two passes), each pass
  starting with an empty visibility cache, and checks every output
  against references.json;
* set-up-only processes, which import visform and build the workload's
  domains and kernels, started by the measuring process between passes
  and spread over the run; ``setup_s`` is the median over them and the
  measuring process.

``--trace 0`` reports ``wall_s`` (median pass wall), ``setup_s`` and
``peak_rss_mb`` (peak resident memory of the measuring process).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer self times, counters and rates of spans.py, plus
``trace.overhead_s``; spans go to perfbench/runs/ as JSONL.  Every
metric is printed by name with its unit, as BENCHMARK.json lists it; the
last line of standard output is one JSON object {correct, attempted,
failed, metrics}.  A run record (host, versions, load, every pass wall
and set-up) goes to perfbench/runs/.

An operation (one R point, eigen solve, walk, decomposition audit, chain
search or suite experiment) fails when it raises or misses its
reference; ``failed`` / ``attempted`` is the failed fraction.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("witness-sweep", "eigen-walk", "whitney-audit", "quick-suite")
#: time a run may take beyond --seconds (start-up, a slow last pass)
MARGIN_S = 100.0


def metric_units():
    """Unit of every metric, as BENCHMARK.json lists it."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for kind in ("end_to_end", "per_layer") for m in bench[kind]}


def git_commit():
    """HEAD of the checkout's git directory, or "unknown" without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def child_env():
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", VISFORM_WORKERS="1", PYTHONHASHSEED="0",
               PYTHONPATH=str(ROOT / "src"))
    return env


def run_worker(args, deadline):
    """Run worker.py to completion; its last stdout line parsed as JSON.

    The worker and the set-up processes it starts form one process group,
    which is killed as a whole when the deadline passes.
    """
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(err)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    deadline = time.monotonic() + args.seconds + MARGIN_S
    if not (ROOT / "src" / "visform" / "__init__.py").is_file():
        print(f"error: no visform sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    units = metric_units()

    # the processes of every run share one CPU: on a shared host the CPUs
    # differ in speed, and random placement on either makes runs bimodal
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    record = {"workload": args.workload, "seed": args.seed, "cpu_index": cpu,
              "seconds": args.seconds, "trace": args.trace,
              "nproc": os.cpu_count(), "cpu": cpu_model(),
              "python": platform.python_version(), "commit": git_commit(),
              "loadavg_1min": os.getloadavg()[0],
              "blas_threads": child_env()["OPENBLAS_NUM_THREADS"]}
    try:
        res = run_worker(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record.update(res.pop("env"))

    e2e = {"wall_s": statistics.median(res["walls"]),
           "setup_s": statistics.median(res["setups"]),
           "peak_rss_mb": res["peak_rss_mb"]}
    record.update(passes=res["passes"], walls=res["walls"],
                  setups=res["setups"], peak_rss_mb=res["peak_rss_mb"],
                  attempted=res["attempted"], failed=res["failed"])
    for key, value in record.items():
        print(f"# {key}: {value}")
    for msg in res["messages"]:
        print(f"FAILED {msg}", file=sys.stderr)
    correct = res["failed"] == 0
    if args.trace:
        values = dict(sorted(res["layers"].items()))
        print(f"# spans: {res['spans_file']}")
        if not res["additive"]:
            print("error: the layers' self times and the checks do not add "
                  "up to the traced wall", file=sys.stderr)
            correct = False
    else:
        values = e2e
    metrics = {name: {"value": v, "unit": units[name]}
               for name, v in values.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    (HERE / "runs").mkdir(exist_ok=True)
    (HERE / "runs" / f"record-{args.workload}-seed{args.seed}"
     f"-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
