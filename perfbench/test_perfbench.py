"""Fast tests of the benchmark's own arithmetic and checks.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

REFS = json.loads((HERE / "references.json").read_text())


def _tracer(rows, counts=()):
    tr = spans.Tracer()
    tr.spans = [list(r) for r in rows]
    for key, value in counts:
        tr.counts[key] += value
    return tr


# rows: name, layer, parent, start, end, pass, step
NESTED = [("pass", "bench", -1, 0.0, 10.0, 1, None),           # 0
          ("mesh.build_grid", "mesh", 0, 1.0, 4.0, 1, "a"),      # 1
          ("DomainSpec.contains_many", "geometry", 1, 2.0, 3.0, 1, "a"),
          ("step:b", "bench", 0, 5.0, 9.0, 1, "b"),              # 3
          ("KernelSpec.k", "kernels", 3, 5.5, 6.0, 1, "b"),
          ("KernelSpec.k", "kernels", 3, 7.0, 8.5, 1, "b")]


def test_self_times_of_nested_spans():
    got = spans.self_times(NESTED)
    assert got == pytest.approx([10 - 3 - 4, 3 - 1, 1, 4 - 0.5 - 1.5,
                                 0.5, 1.5])
    assert sum(got) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    rows = [("p", "bench", -1, 0.0, 4.0, 0, None),
            ("a", "mesh", 0, 1.0, 3.0, 0, None),
            ("b", "mesh", 0, 2.0, 3.5, 0, None)]
    assert spans.self_times(rows)[0] == pytest.approx(4.0 - 2.5)


def test_layer_self_times_add_up_to_the_wall():
    second = [(n, l, p + len(NESTED) if p >= 0 else -1, a + 20, b + 20, 3, s)
              for n, l, p, a, b, _, s in NESTED]
    tr = _tracer(NESTED + second,
                 [((1, "b", "kernels.evaluations"), 100.0),
                  ((3, "b", "kernels.evaluations"), 100.0),
                  ((2, "b", "kernels.evaluations"), 999.0)])  # untraced pass
    m = spans.layer_metrics(tr, [1, 3])
    assert m["trace.wall_s"] == pytest.approx(10.0)
    assert sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) == \
        pytest.approx(m["trace.wall_s"])
    assert m["mesh.build_grid_s"] == pytest.approx(2.0)
    assert m["kernels.k_s"] == pytest.approx(2.0)
    assert m["kernels.evaluations"] == pytest.approx(100.0)
    assert m["kernels.evals_per_s"] == pytest.approx(50.0)
    only_second = spans.layer_metrics(tr, [3])
    assert only_second["trace.wall_s"] == pytest.approx(10.0)
    assert only_second["bench.self_s"] == pytest.approx(3.0 + 2.0)
    assert only_second["bench.check_s"] == pytest.approx(3.0)
    # step:b spends 2 of the 10 s outside any visform call
    assert only_second["trace.unattributed_s"] == pytest.approx(2.0)
    assert not spans.additive(only_second)


def test_steps_covered_by_layers_are_additive():
    rows = [("pass", "bench", -1, 0.0, 10.0, 0, None),
            ("step:a", "bench", 0, 0.0, 9.0, 0, "a"),
            ("spectral.scaling_experiment", "spectral", 1, 0.01, 8.95, 0,
             "a")]
    m = spans.layer_metrics(_tracer(rows), [0])
    assert m["trace.unattributed_s"] == pytest.approx(0.06)
    assert m["bench.check_s"] == pytest.approx(1.0)
    assert spans.additive(m)


def test_repeat_metrics_come_from_the_repeated_step():
    rows = [("pass", "bench", -1, 0.0, 6.0, 1, None),
            ("step:first", "bench", 0, 0.0, 4.0, 1, "first"),
            ("step:again", "bench", 0, 4.0, 5.0, 1, "again")]
    tr = _tracer(rows, [((1, "first", "geometry.segment_tests"), 50.0),
                        ((1, "again", "geometry.segment_tests"), 7.0)])
    m = spans.layer_metrics(tr, [1], repeat=("first", "again"))
    assert m["forms.repeat_segment_tests"] == 7.0
    assert m["forms.repeat_sweep_ratio"] == pytest.approx(0.25)


def _failed(workload, outputs, refs):
    return [op for op, ok, _ in workload.check(outputs, refs) if not ok]


def test_outputs_equal_to_references_pass():
    for name, wl in workloads.WORKLOADS.items():
        refs = REFS[name]
        outputs = {step: copy.deepcopy(refs[step]) for step, _ in wl.steps}
        assert _failed(wl, outputs, refs) == [], name


def test_perturbed_reference_counts_as_failed_operation():
    wl = workloads.WORKLOADS["witness-sweep"]
    refs = copy.deepcopy(REFS["witness-sweep"])
    outputs = {step: copy.deepcopy(refs[step]) for step, _ in wl.steps}
    refs["curved-s0.25"]["samples"][1][1] *= 1.0 + 1e-7
    assert _failed(wl, outputs, refs) == ["curved-s0.25 R=12"]

    wl = workloads.WORKLOADS["whitney-audit"]
    refs = copy.deepcopy(REFS["whitney-audit"])
    outputs = {step: copy.deepcopy(refs[step]) for step, _ in wl.steps}
    refs["curved-audit"]["n_cubes"] += 1
    assert _failed(wl, outputs, refs) == ["curved-audit"]


def test_raising_step_fails_all_of_its_operations():
    wl = workloads.WORKLOADS["eigen-walk"]

    def boom(inputs):
        raise ValueError("broken layer")

    broken = workloads.Workload(
        name=wl.name, setup=wl.setup, check=wl.check,
        steps=(("eigen", boom),) + tuple(
            (step, lambda inp, step=step: copy.deepcopy(REFS[wl.name][step]))
            for step, _ in wl.steps[1:]))
    outputs, errors = workloads.run_steps(broken, {})
    assert errors == ["eigen: ValueError: broken layer"]
    assert _failed(broken, outputs, REFS[wl.name]) == [
        "eigen R=4", "eigen R=8", "eigen R=12"]


def test_wrappers_trace_and_are_removed():
    from visform import cli, geometry, mesh
    original = geometry.DomainSpec.segment_inside_many
    runners = dict(cli._RUNNERS)
    tr = spans.Tracer()
    tr.pass_index = 0
    with spans.Installed(tr, spans.HOOKS):
        grid = mesh.build_grid(geometry.make_box(1.0, 1.0), (0.5, 0.5),
                               1.0, 0.25)
        assert cli._RUNNERS["walk"] is cli.run_walk
        assert cli._RUNNERS["walk"].__wrapped__ is runners["walk"]
    assert cli._RUNNERS == runners
    assert geometry.DomainSpec.segment_inside_many is original
    assert mesh.build_grid.__name__ == "build_grid"
    names = [row[0] for row in tr.spans]
    assert "mesh.build_grid" in names and "DomainSpec.contains_many" in names
    assert tr.counts[(0, None, "mesh.grid_cells")] == grid.n_cells


def test_benchmark_json_lists_every_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == [
        "wall_s", "setup_s", "peak_rss_mb"]
    layers = {m["name"] for m in bench["per_layer"]}
    produced = set(spans.layer_metrics(_tracer(NESTED), [1])) | {
        "trace.overhead_s", "failed_frac"}
    assert layers == produced
    assert set(run.metric_units()) == layers | {"wall_s", "setup_s",
                                                "peak_rss_mb"}
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
