"""The benchmark's workloads: inputs from a seed, steps, reference checks.

Every workload follows the pipeline grid -> pair visibility -> kernel
weights -> energies -> one consumer, and puts most of one optimisation
target's work on one side of it:

* ``witness-sweep``  streamed cross-group energies (segment tests),
                     with a third sweep that repeats the first's grids;
* ``eigen-walk``     materialized all-pairs visibility, the dense
                     eigensolver and the dense jump-chain walker;
* ``whitney-audit``  Whitney decomposition, sandwich check, chain sum and
                     chain search; no pair or kernel work;
* ``quick-suite``    ``reproduce-all --quick``: the cli layer and the
                     all-visible ball-mode counterexample.

Sizes are cut down from the acceptance criteria so that one pass takes a
few seconds on two cores; each cut keeps the same code and hot spot.

A step returns a JSON-able output; ``check`` compares the outputs of one
pass with the references recorded by ``record_references.py`` and
returns one (operation, ok, message) row per operation: one R point,
eigen solve, walk, decomposition audit, chain search or suite experiment.
A step that raised has output None and fails all of its operations.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from visform import (cli, geometry, kernels, mesh, spectral, walker,
                     whitney)

H = 0.5
WITNESS_R = (6.0, 12.0, 18.0)
#: (step, dumbbell variant, kernel s, fitted-exponent band of criteria 5/6)
SWEEPS = (("straight-s0.25", "straight", 0.25, (1.35, 1.65)),
          ("curved-s0.25", "curved", 0.25, (1.85, 2.15)),
          ("straight-s0.75", "straight", 0.75, (1.85, 2.15)))
EIGEN_R = (4.0, 8.0, 12.0)
WALK_R = 8.0
WALK_PATHS = 1000
WALK_MAX_STEPS = 200_000
WHITNEY_CLIP_R = 8.0
CURVED_LEVEL = 5
ANNULUS_LEVEL = 6
CHAINS = 100
CHAIN_EPS = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable            # (seed, scratch dir) -> inputs
    steps: tuple               # ((name, fn(inputs) -> output), ...)
    check: Callable            # (outputs, references) -> [(op, ok, msg)]
    repeat: tuple | None = None   # (first step, step repeating its inputs)
    extras: Callable | None = None  # inputs -> extra references


def rel_close(value, ref, rtol):
    return abs(value - ref) <= rtol * abs(ref)


def _row(op, ok, msg):
    return (op, bool(ok), "" if ok else msg)


def _dumbbells():
    return {v: geometry.make_dumbbell(v) for v in ("straight", "curved")}


def _power(s):
    return kernels.KernelSpec("power", s=s, p=2)


# ---------------------------------------------------------------------------
# witness-sweep
# ---------------------------------------------------------------------------

def _witness_setup(seed, scratch):
    return {"seed": seed, "domains": _dumbbells(),
            "kernels": {s: _power(s) for _, _, s, _ in SWEEPS}}


def _sweep(variant, s, R_list, method):
    def step(inp):
        rep = spectral.scaling_experiment(
            inp["domains"][variant], inp["kernels"][s], 2.0, R_list,
            method=method, h=H, seed=inp["seed"])
        return {"samples": [list(x) for x in rep.samples],
                "n_cells": rep.n_cells, "fitted": rep.fitted}
    return step


def _check_samples(step, out, ref, rtol):
    rows = []
    for k, (R, v_ref) in enumerate(ref["samples"]):
        op = f"{step} R={R:g}"
        if out is None:
            rows.append(_row(op, False, "step raised"))
            continue
        R_out, v = out["samples"][k]
        ok = (R_out == R and out["n_cells"][k] == ref["n_cells"][k]
              and rel_close(v, v_ref, rtol))
        rows.append(_row(op, ok, f"value {v!r} vs reference {v_ref!r}"))
    return rows


def _witness_check(outputs, refs):
    rows = []
    for step, _, _, (lo, hi) in SWEEPS:
        out = outputs[step]
        step_rows = _check_samples(step, out, refs[step], 1e-9)
        if out is not None and not lo <= out["fitted"] <= hi:
            op, _, _ = step_rows[-1]
            step_rows[-1] = _row(op, False, f"fitted {out['fitted']!r} "
                                 f"outside [{lo}, {hi}]")
        rows += step_rows
    return rows


WITNESS = Workload(
    name="witness-sweep", setup=_witness_setup,
    steps=tuple((step, _sweep(v, s, WITNESS_R, "witness"))
                for step, v, s, _ in SWEEPS),
    check=_witness_check, repeat=("straight-s0.25", "straight-s0.75"))


# ---------------------------------------------------------------------------
# eigen-walk
# ---------------------------------------------------------------------------

def _eigen_setup(seed, scratch):
    return {"seed": seed, "domains": _dumbbells(),
            "kernels": {0.25: _power(0.25)}}


def _walk(variant):
    def step(inp):
        dom = inp["domains"][variant]
        grid = mesh.build_grid(dom, dom.dumbbell.x0, WALK_R, H)
        pairs = mesh.visibility_pairs(grid)
        chain = walker.build_chain(grid, pairs, inp["kernels"][0.25])
        st = walker.mean_crossing_time(chain, n_paths=WALK_PATHS,
                                       max_steps=WALK_MAX_STEPS,
                                       seed=inp["seed"])
        return {"n_cells": grid.n_cells, "mean_steps": st.mean_steps,
                "ci95": st.ci95, "censored": st.n_censored,
                "direct_cross_jumps": st.direct_cross_jumps}
    return step


def _walk_rows(op, out, ref):
    """Walks are statistical: the mean lies within 3 reference ci95."""
    if out is None:
        return _row(op, False, "step raised")
    ok = (out["n_cells"] == ref["n_cells"] and out["censored"] == 0
          and abs(out["mean_steps"] - ref["mean_steps"]) <= 3 * ref["ci95"])
    return _row(op, ok, f"mean {out['mean_steps']!r} (censored "
                f"{out['censored']}) vs reference {ref['mean_steps']!r}"
                f" +- 3*{ref['ci95']!r}")


def _eigen_check(outputs, refs):
    rows = []
    eig = outputs["eigen"]
    checked = _check_samples("eigen", eig, refs["eigen"], 1e-6)
    for k, (op, ok, msg) in enumerate(checked):
        if ok:
            floor = refs["witness"]["samples"][k][1]
            value = eig["samples"][k][1]
            ok = value >= floor
            msg = f"eigen {value!r} below witness {floor!r}"
        rows.append(_row(op, ok, msg))
    straight = outputs["walk-straight"]
    rows.append(_walk_rows("walk-straight", straight, refs["walk-straight"]))
    curved = outputs["walk-curved"]
    op, ok, msg = _walk_rows("walk-curved", curved, refs["walk-curved"])
    if ok:
        ok = curved["direct_cross_jumps"] == 0 and straight is not None and (
            curved["mean_steps"] - curved["ci95"]
            > straight["mean_steps"] + straight["ci95"])
        msg = "curved walk not separated from straight, or jumped directly"
    rows.append(_row(op, ok, msg))
    return rows


EIGEN_WALK = Workload(
    name="eigen-walk", setup=_eigen_setup,
    steps=(("eigen", _sweep("straight", 0.25, EIGEN_R, "eigen")),
           ("walk-straight", _walk("straight")),
           ("walk-curved", _walk("curved"))),
    check=_eigen_check,
    extras=lambda inp: {"witness": _sweep("straight", 0.25, EIGEN_R,
                                          "witness")(inp)})


# ---------------------------------------------------------------------------
# whitney-audit
# ---------------------------------------------------------------------------

def _whitney_setup(seed, scratch):
    curved = geometry.make_dumbbell("curved")
    return {"seed": seed, "annulus": geometry.make_annulus(),
            "curved": geometry.clip_ball(curved, curved.dumbbell.x0,
                                         WHITNEY_CLIP_R)}


def _residual_band(level):
    # the cli's audit band: 2% at depth 8, doubling per level coarser
    return cli.WHITNEY_RESIDUAL_FRACTION * 2.0 ** (8 - level)


def _curved_audit(inp):
    decomp = whitney.whitney_decompose(inp["curved"], max_level=CURVED_LEVEL)
    residual, measure = whitney.coverage_residual(decomp)
    bad = whitney.check_sandwich(decomp)
    disjoint = whitney.disjoint_interiors(decomp)
    sup, _ = whitney.verify_whitney_sum(decomp, 2.0, 3.0)
    return {"n_cubes": decomp.n_cubes, "residual_fraction": residual / measure,
            "sandwich_failures": len(bad), "disjoint": disjoint,
            "sup_ratio": sup}


def _annulus_chains(inp):
    decomp = whitney.whitney_decompose(inp["annulus"],
                                       max_level=ANNULUS_LEVEL)
    rng = np.random.default_rng(np.random.SeedSequence([inp["seed"], 0xC4A]))
    valid = []
    for _ in range(CHAINS):
        qi, si = (int(v) for v in rng.integers(0, decomp.n_cubes, size=2))
        chain = whitney.find_admissible_chain(decomp, qi, si, CHAIN_EPS)
        valid.append(chain is not None and whitney.validate_chain(decomp,
                                                                  chain))
    return {"n_cubes": decomp.n_cubes, "valid": valid}


def _whitney_check(outputs, refs):
    out, ref = outputs["curved-audit"], refs["curved-audit"]
    if out is None:
        rows = [_row("curved-audit", False, "step raised")]
    else:
        band = _residual_band(CURVED_LEVEL)
        ok = (out["n_cubes"] == ref["n_cubes"]
              and out["sandwich_failures"] == 0 and out["disjoint"]
              and out["residual_fraction"] < band
              and rel_close(out["sup_ratio"], ref["sup_ratio"], 1e-9))
        rows = [_row("curved-audit", ok, f"audit {out} vs reference {ref}")]
    out, ref = outputs["annulus-chains"], refs["annulus-chains"]
    ok = out is not None and out["n_cubes"] == ref["n_cubes"]
    rows.append(_row("annulus-decompose", ok, "annulus cube count differs "
                     f"from reference {ref['n_cubes']}"))
    for k in range(CHAINS):
        ok = out is not None and out["valid"][k]
        rows.append(_row(f"chain {k}", ok, "no valid admissible chain"))
    return rows


WHITNEY_AUDIT = Workload(
    name="whitney-audit", setup=_whitney_setup,
    steps=(("curved-audit", _curved_audit),
           ("annulus-chains", _annulus_chains)),
    check=_whitney_check)


# ---------------------------------------------------------------------------
# quick-suite
# ---------------------------------------------------------------------------

#: summary keys with a reference tolerance (0 = exact), per suite
#: experiment; keys not listed depend on the seed and only the verdict
#: is checked (comparability draws random u, check-domain Monte Carlo)
SUITE_RULES = {
    "counterexample": {"ratio_span": 1e-9},
    "scaling-straight-s025": {"fitted": 1e-9},
    "scaling-curved-s025": {"fitted": 1e-9},
    "scaling-straight-s075": {"fitted": 1e-9},
    "scaling-eigen-small-R": {"fitted": 1e-6},
    "scaling-local-p1": {"fitted": 1e-9},
    "whitney-annulus": {"n_cubes": 0, "sup_ratio": 1e-9,
                        "residual_fraction": 1e-9},
}
SUITE_WALKS = ("walk-straight", "walk-curved")


def _suite_setup(seed, scratch):
    return {"seed": seed, "scratch": scratch,
            "names": [name for name, _ in cli.suite_configs(".", quick=True)]}


def _suite(inp):
    out = Path(tempfile.mkdtemp(prefix="suite-", dir=inp["scratch"]))
    try:
        code = cli.reproduce_all(str(out), seed=inp["seed"], quick=True)
        summaries = {}
        for name in inp["names"]:
            # an experiment that errored leaves error.txt and no summary
            path = out / name / "summary.txt"
            text = path.read_text() if path.is_file() else ""
            summaries[name] = dict(line.split("=", 1)
                                   for line in text.splitlines())
    finally:
        shutil.rmtree(out)
    return {"exit_code": code, "summaries": summaries}


def _suite_rows(name, got, ref):
    if got.get("verdict") != "pass":
        return False, f"verdict {got.get('verdict')!r}"
    for key, rtol in SUITE_RULES.get(name, {}).items():
        v, r = float(got[key]), float(ref[key])
        if not (v == r if rtol == 0 else rel_close(v, r, rtol)):
            return False, f"{key}={v!r} vs reference {r!r}"
    if name in SUITE_WALKS:
        mean, ref_mean = float(got["mean_steps"]), float(ref["mean_steps"])
        if (int(got["censored"]) != 0
                or abs(mean - ref_mean) > 3 * float(ref["ci95"])):
            return False, (f"mean_steps={mean!r} censored={got['censored']} "
                           f"vs reference {ref_mean!r} +- 3*{ref['ci95']}")
        if name == "walk-curved" and int(got["direct_cross_jumps"]) != 0:
            return False, "curved walk jumped directly between the bells"
    return True, ""


def _suite_check(outputs, refs):
    out = outputs["suite"]
    ref = refs["suite"]["summaries"]
    rows = []
    for name in ref:
        if out is None:
            rows.append(_row(name, False, "step raised"))
            continue
        ok, msg = _suite_rows(name, out["summaries"][name], ref[name])
        rows.append(_row(name, ok, msg))
    if out is not None and out["exit_code"] != 0:
        rows[-1] = _row(rows[-1][0], False,
                        f"reproduce_all exited {out['exit_code']}")
    return rows


QUICK_SUITE = Workload(name="quick-suite", setup=_suite_setup,
                       steps=(("suite", _suite),), check=_suite_check)


WORKLOADS = {w.name: w for w in (WITNESS, EIGEN_WALK, WHITNEY_AUDIT,
                                 QUICK_SUITE)}


def run_steps(workload, inputs, tracer=None):
    """Run every step; returns (outputs, error messages).

    A step that raises is recorded as output None, which fails all of its
    operations, and the pass goes on, so one broken layer does not hide
    the others.
    """
    outputs = {}
    errors = []
    for name, fn in workload.steps:
        row = None
        if tracer is not None:
            tracer.step = name
            row = tracer.open(f"step:{name}", "bench")
        try:
            outputs[name] = fn(inputs)
        except Exception as exc:              # counted as failed operations
            outputs[name] = None
            errors.append(f"{name}: {type(exc).__name__}: {exc}")
        finally:
            if row is not None:
                tracer.close(row)
    return outputs, errors
