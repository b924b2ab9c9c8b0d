"""scipy loads only where a solver runs.

The eigen solve, the walker's chain build and the Whitney chain search
import scipy inside the functions that call it; the witness sweep, the
energies and the domain checks use numpy alone, so a process that runs
only those never loads scipy.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "visform").glob("*.py"))


def _import_time_imports(node):
    """Import statements that run when the module loads: everything but
    the bodies of functions and lambdas."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            continue
        if isinstance(child, ast.Import):
            yield from (alias.name for alias in child.names)
        elif isinstance(child, ast.ImportFrom):
            yield child.module or ""
        yield from _import_time_imports(child)


def test_no_module_imports_scipy_at_module_level():
    found = sorted(f"{path.stem}: {name}" for path in PACKAGE
                   for name in _import_time_imports(ast.parse(
                       path.read_text()))
                   if name.split(".")[0] == "scipy")
    assert not found, f"module-level scipy imports: {found}"


#: imports visform as the benchmark does, runs a witness sweep and the
#: domain check, then one eigen solve; prints the scipy modules loaded
#: before and after the solve, and the constant
SCRIPT = """
import sys
from visform import (cli, forms, geometry, kernels, mesh, spectral, walker,
                     whitney)

def scipy_modules():
    return sorted(k for k in sys.modules if k.split(".")[0] == "scipy")

dom = geometry.make_dumbbell("straight")
kernel = kernels.KernelSpec("power", s=0.25, p=2)
spectral.scaling_experiment(dom, kernel, 2.0, [4.0, 6.0, 8.0],
                            method="witness", h=0.5)
assert cli.main(["check-domain", "--samples", "1000",
                 "--outdir", sys.argv[1]]) == 0
print(scipy_modules())
grid = mesh.build_grid(dom, dom.dumbbell.x0, 4.0, 0.5)
print(repr(spectral.poincare_constant_l2(forms.lazy_form(grid, kernel,
                                                         "vis"))))
print(scipy_modules())
"""


def test_witness_and_domain_check_never_load_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "out")],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    before, constant, after = proc.stdout.splitlines()[-3:]
    assert before == "[]"
    assert "scipy.sparse.linalg" in after
    assert 0.0 < float(constant) < float("inf")
