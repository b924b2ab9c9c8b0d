"""The benchmark's trace hooks still bind to the program.

``perfbench/spans.py`` counts from what visform's functions take and
return: ``ChainModel.P.nbytes``, ``mean_crossing_time``'s ``max_steps``
and ``poincare_constant_l2``'s ``grid``.  A change that drops one of them
breaks every traced benchmark run (``--trace 1``); this test runs one
tiny walk, eigen solve and witness energy under the installed hooks.
"""
import importlib.util
from pathlib import Path

from visform import forms, geometry, kernels, mesh, spectral, walker

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_hooks_count_walk_eigen_and_witness():
    spans = _spans_module()
    dom = geometry.make_dumbbell("straight")
    kernel = kernels.KernelSpec("power", s=0.25, p=2)
    with spans.Installed(spans.Tracer(), spans.HOOKS) as tracer:
        grid = mesh.build_grid(dom, dom.dumbbell.x0, 6.0, 0.5)
        chain = walker.build_chain(grid, mesh.visibility_pairs(grid), kernel)
        walker.mean_crossing_time(chain, n_paths=20, max_steps=100_000,
                                  seed=0)
        lazy = forms.lazy_form(grid, kernel, "vis")
        spectral.poincare_constant_l2(lazy)
        spectral.rayleigh_ratio(lazy, grid,
                                spectral.witness_step_function(grid))
    counts = {key: value for (_, _, key), value in tracer.counts.items()}
    assert counts["walker.dense_bytes"] > 0
    assert counts["walker.steps"] > 0
    assert counts["walker.censored_paths"] == 0
    assert counts["spectral.eigen_solves"] == 1
    assert counts["spectral.dense_bytes"] == 8 * grid.n_cells ** 2
    assert counts["geometry.segment_tests"] > 0
    names = {row[0] for row in tracer.spans}
    assert {"walker.build_chain", "walker.mean_crossing_time",
            "spectral.poincare_constant_l2", "forms.energy"} <= names
    # the wrappers are gone once the block exits
    assert not hasattr(walker.build_chain, "__wrapped__")
