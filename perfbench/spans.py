"""Spans and counters recorded around visform's public functions.

The benchmark installs wrappers on the public functions of every layer
(module) while a traced pass runs and removes them afterwards, so
untraced passes execute the unmodified program.  Each call becomes a
span (name, layer, parent, start, end, pass, step); counters are taken
from arguments and results at the same boundary.  A span's self time is
its duration minus the part of it that its child spans cover, so the
self times of all spans in a pass add up to the pass's root span by
construction.  What can fail is the share of that wall left to the
benchmark's own step code between visform calls (``trace.unattributed_s``):
time a layer spends outside any wrapped function shows up there.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

#: layers in pipeline order; "bench" is the benchmark's own code
LAYERS = ("geometry", "mesh", "kernels", "forms", "spectral", "walker",
          "whitney", "cli", "bench")

#: class methods wrapped besides every public module-level function;
#: hot helpers called per node or per step (e.g. long_distance, cdf) are
#: left out so tracing does not dominate the traced wall
METHODS = {
    "geometry": {"DomainSpec": ("contains_many", "segment_inside_many",
                                "boundary_distance_many", "region_tags",
                                "bounding_box"),
                 "ParabolicTube": ("signed_distance",)},
    "kernels": {"KernelSpec": ("k",)},
    "whitney": {"WhitneyDecomposition": ("adjacency",)},
}

#: module-level dispatch tables holding public functions captured at import
#: time; their entries are swapped for the wrappers too (cli.run calls the
#: experiment runners through _RUNNERS)
TABLES = {"cli": ("_RUNNERS",)}

#: the layers' self times plus the benchmark's checks must add up to the
#: traced wall within this share, i.e. trace.unattributed_s stays below it
ADDITIVITY_RTOL = 0.01


class Tracer:
    """In-memory span list plus per-(pass, step) counters."""

    def __init__(self):
        # rows: [name, layer, parent id, start, end, pass index, step]
        self.spans = []
        self.counts = defaultdict(float)       # (pass, step, key) -> value
        self.pass_index = -1
        self.step = None
        self._stack = []

    def open(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        row = [name, layer, parent, time.perf_counter(), 0.0,
               self.pass_index, self.step]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        return row

    def close(self, row):
        row[4] = time.perf_counter()
        self._stack.pop()

    def count(self, key, value):
        self.counts[(self.pass_index, self.step, key)] += float(value)

    def wrap(self, fn, name, layer, hook=None):
        def traced(*args, **kwargs):
            row = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(row)
            if hook is not None:
                hook(self, result, args, kwargs)
            return result
        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def write_jsonl(self, path, workload):
        with open(path, "w") as fh:
            for sid, (name, layer, parent, t0, t1, pidx, step) in \
                    enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "layer": layer, "start": t0, "end": t1,
                    "workload": workload, "pass": pidx, "step": step}) + "\n")


class Installed:
    """Context manager that wraps visform's public functions and restores them."""

    def __init__(self, tracer, hooks):
        self.tracer = tracer
        self.hooks = hooks
        self._saved = []
        self._entries = []
        self._wrappers = {}

    def __enter__(self):
        for layer in LAYERS[:-1]:
            module = importlib.import_module(f"visform.{layer}")
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                self._patch(module, attr, f"{layer}.{attr}", layer)
            for cls_name, names in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for attr in names:
                    self._patch(cls, attr, f"{cls_name}.{attr}", layer)
            for table in TABLES.get(layer, ()):
                entries = getattr(module, table)
                for key, fn in list(entries.items()):
                    if fn in self._wrappers:
                        self._entries.append((entries, key, fn))
                        entries[key] = self._wrappers[fn]
        return self.tracer

    def _patch(self, owner, attr, name, layer):
        fn = vars(owner)[attr]
        wrapper = self.tracer.wrap(fn, name, layer, self.hooks.get(name))
        self._saved.append((owner, attr, fn))
        self._wrappers[fn] = wrapper
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        for entries, key, fn in self._entries:
            entries[key] = fn
        self._saved.clear()
        self._entries.clear()
        self._wrappers.clear()
        return False


# ---------------------------------------------------------------------------
# counters taken at span boundaries
# ---------------------------------------------------------------------------

def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _dir_bytes(path):
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def _segments(tr, vis, args, kwargs):
    tr.count("geometry.segment_tests", vis.shape[0])


def _visibility_pairs(tr, pairs, args, kwargs):
    tr.count("mesh.pairs", pairs.n_pairs)
    tr.count("mesh.pairs_visible", int(pairs.visible.sum()))


def _poincare(tr, value, args, kwargs):
    a = _bound(_unwrapped("spectral", "poincare_constant_l2"), args, kwargs)
    grid = a["form"].grid if a["grid"] is None else a["grid"]
    tr.count("spectral.eigen_solves", 1)
    tr.count("spectral.dense_bytes", 8 * grid.n_cells ** 2)


def _crossing(tr, stats, args, kwargs):
    a = _bound(_unwrapped("walker", "mean_crossing_time"), args, kwargs)
    tr.count("walker.steps",
             int(stats.steps.sum()) + stats.n_censored * a["max_steps"])
    tr.count("walker.censored_paths", stats.n_censored)


def _run_bytes(tr, code, args, kwargs):
    a = _bound(_unwrapped("cli", "run"), args, kwargs)
    cfg = a["cfg"]
    tr.count("cli.experiments", 1)
    tr.count("cli.bytes_written",
             _dir_bytes(Path(cfg.outdir) / (a["subdir"] or cfg.name)))


def _suite_bytes(tr, code, args, kwargs):
    a = _bound(_unwrapped("cli", "reproduce_all"), args, kwargs)
    tr.count("cli.bytes_written",
             (Path(a["outdir"]) / "summary.txt").stat().st_size)


def _chain(tr, chain, args, kwargs):
    tr.count("whitney.chain_attempts", 1)
    tr.count("whitney.chain_found", chain is not None)


def _unwrapped(layer, name):
    fn = getattr(importlib.import_module(f"visform.{layer}"), name)
    return getattr(fn, "__wrapped__", fn)


HOOKS = {
    "DomainSpec.segment_inside_many": _segments,
    "ParabolicTube.signed_distance":
        lambda tr, d, a, k: tr.count("geometry.tube_distance_points", d.size),
    "DomainSpec.boundary_distance_many":
        lambda tr, d, a, k: tr.count("geometry.boundary_points", d.size),
    "DomainSpec.contains_many":
        lambda tr, m, a, k: tr.count("geometry.contains_points", m.size),
    "mesh.build_grid":
        lambda tr, g, a, k: tr.count("mesh.grid_cells", g.n_cells),
    "mesh.visibility_pairs": _visibility_pairs,
    "KernelSpec.k":
        lambda tr, w, a, k: tr.count("kernels.evaluations", w.size),
    "spectral.poincare_constant_l2": _poincare,
    "walker.build_chain":
        lambda tr, c, a, k: tr.count("walker.dense_bytes", 2 * c.P.nbytes),
    "walker.mean_crossing_time": _crossing,
    "whitney.whitney_decompose":
        lambda tr, d, a, k: tr.count("whitney.cubes", d.n_cubes),
    "whitney.find_admissible_chain": _chain,
    "cli.run": _run_bytes,
    "cli.reproduce_all": _suite_bytes,
}


# ---------------------------------------------------------------------------
# self time and the per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans):
    """Per span: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, row in enumerate(spans):
        if row[2] >= 0:
            children[row[2]].append(sid)
    out = []
    for sid, row in enumerate(spans):
        t0, t1 = row[3], row[4]
        covered = 0.0
        reach = t0
        for cid in sorted(children.get(sid, ()), key=lambda c: spans[c][3]):
            c0 = max(spans[cid][3], reach)
            c1 = min(spans[cid][4], t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((t1 - t0) - covered)
    return out


#: metric -> span names whose self time it sums
SELF_METRICS = {
    "geometry.segment_s": ("DomainSpec.segment_inside_many",),
    "geometry.tube_distance_s": ("ParabolicTube.signed_distance",),
    "geometry.boundary_s": ("DomainSpec.boundary_distance_many",),
    "geometry.contains_s": ("DomainSpec.contains_many",),
    "mesh.build_grid_s": ("mesh.build_grid",),
    "mesh.visibility_pairs_s": ("mesh.visibility_pairs",),
    "kernels.k_s": ("KernelSpec.k",),
    "forms.stream_s": ("forms.grouped_energy", "forms.energy_sparse"),
    "forms.assemble_s": ("forms.assemble",),
    "forms.energy_s": ("forms.energy",),
    "spectral.eigen_s": ("spectral.poincare_constant_l2",),
    "spectral.quadratic_matrix_s": ("spectral.quadratic_matrix",),
    "spectral.rayleigh_s": ("spectral.rayleigh_ratio",),
    "walker.build_chain_s": ("walker.build_chain",),
    "walker.crossing_s": ("walker.mean_crossing_time",),
    "whitney.decompose_s": ("whitney.whitney_decompose",),
    "whitney.sandwich_s": ("whitney.check_sandwich",),
    "whitney.residual_s": ("whitney.coverage_residual",),
    "whitney.sum_s": ("whitney.verify_whitney_sum",),
    "whitney.chain_s": ("whitney.find_admissible_chain",
                        "whitney.validate_chain",
                        "WhitneyDecomposition.adjacency"),
    "cli.run_s": ("cli.run",),
}

#: counters reported as they were taken
COUNT_METRICS = ("geometry.segment_tests", "geometry.tube_distance_points",
                 "geometry.boundary_points", "geometry.contains_points",
                 "mesh.grid_cells", "mesh.pairs", "kernels.evaluations",
                 "spectral.eigen_solves", "spectral.dense_bytes",
                 "walker.steps", "walker.censored_paths",
                 "walker.dense_bytes", "whitney.cubes", "cli.experiments",
                 "cli.bytes_written")

#: rate -> (counter, span name whose inclusive time is the denominator)
RATE_METRICS = {
    "geometry.segments_per_s": ("geometry.segment_tests",
                                "DomainSpec.segment_inside_many"),
    "kernels.evals_per_s": ("kernels.evaluations", "KernelSpec.k"),
    "walker.steps_per_s": ("walker.steps", "walker.mean_crossing_time"),
    "whitney.cubes_per_s": ("whitney.cubes", "whitney.whitney_decompose"),
}


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(tracer, passes, repeat=None):
    """Per-layer metrics averaged over the traced passes.

    ``passes`` lists the traced pass indices.  ``repeat`` is a
    (first step, repeated step) pair whose inputs coincide; it yields the
    segment tests spent inside the repeat and the repeat's wall over the
    first's.
    """
    n = len(passes)
    wanted = set(passes)
    by_name = defaultdict(float)
    inclusive = defaultdict(float)
    by_layer = dict.fromkeys(LAYERS, 0.0)
    step_wall = defaultdict(float)
    wall = check = 0.0
    n_spans = 0
    for row, st in zip(tracer.spans, self_times(tracer.spans)):
        if row[5] not in wanted:
            continue
        n_spans += 1
        name, layer, parent = row[0], row[1], row[2]
        by_name[name] += st
        inclusive[name] += row[4] - row[3]
        by_layer[layer] += st
        if parent < 0:
            wall += row[4] - row[3]
            check += st        # the output checks of the pass
        if name.startswith("step:"):
            step_wall[name[5:]] += row[4] - row[3]
    counts = defaultdict(float)
    step_counts = defaultdict(float)
    for (pidx, step, key), v in tracer.counts.items():
        if pidx in wanted:
            counts[key] += v
            step_counts[(step, key)] += v

    m = {}
    for metric, names in SELF_METRICS.items():
        m[metric] = sum(by_name[s] for s in names) / n
    for metric in COUNT_METRICS:
        m[metric] = counts[metric] / n
    for metric, (counter, span) in RATE_METRICS.items():
        m[metric] = _ratio(counts[counter], inclusive[span])
    m["mesh.visible_fraction"] = _ratio(counts["mesh.pairs_visible"],
                                        counts["mesh.pairs"])
    m["whitney.chain_success_ratio"] = _ratio(
        counts["whitney.chain_found"], counts["whitney.chain_attempts"])
    if repeat is None:
        m["forms.repeat_segment_tests"] = 0.0
        m["forms.repeat_sweep_ratio"] = 0.0
    else:
        first, again = repeat
        m["forms.repeat_segment_tests"] = step_counts[
            (again, "geometry.segment_tests")] / n
        m["forms.repeat_sweep_ratio"] = _ratio(step_wall[again],
                                               step_wall[first])
    for layer, total in by_layer.items():
        m[f"{layer}.self_s"] = total / n
    m["bench.check_s"] = check / n
    m["trace.unattributed_s"] = m["bench.self_s"] - m["bench.check_s"]
    m["trace.wall_s"] = wall / n
    m["trace.spans"] = n_spans / n
    return m


def additive(m):
    """True when the layers' self times and the benchmark's checks add up to
    the traced wall within ADDITIVITY_RTOL, i.e. the step code between
    visform calls takes no more than that share of it."""
    return m["trace.unattributed_s"] <= ADDITIVITY_RTOL * m["trace.wall_s"]
