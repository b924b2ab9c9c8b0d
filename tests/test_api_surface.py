"""Every public name of visform is used by the package or the benchmark.

A module-level function, class or UPPER_CASE constant that only tests
call, and a public method or annotated field of a class that nothing
reads, is API that no experiment runs; these guards keep it from growing
back.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "visform").glob("*.py"))
USERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and name.id.isupper():
                        yield name.id


def _public_members(tree):
    """(class, name) of each public method and annotated field."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                name = node.name
            elif (isinstance(node, ast.AnnAssign)
                  and isinstance(node.target, ast.Name)):
                name = node.target.id
            else:
                continue
            if not name.startswith("_"):
                yield cls.name, name


def _member_reads(tree):
    """Attributes read (a store such as ``x.a = 1`` does not count) and
    string constants, which name members for ``getattr`` and for the
    benchmark's method table."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _uses(tree):
    """Names read anywhere in the module: the definitions do not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_no_public_name_is_test_only():
    used = {name for path in USERS
            for name in _uses(ast.parse(path.read_text()))}
    unused = sorted(f"{path.stem}.{name}" for path in PACKAGE
                    for name in _public_definitions(ast.parse(path.read_text()))
                    if name not in used)
    assert not unused, f"public names only tests use: {unused}"


def test_no_class_member_is_write_only():
    read = {name for path in USERS
            for name in _member_reads(ast.parse(path.read_text()))}
    unread = sorted(f"{cls}.{name}" for path in PACKAGE
                    for cls, name in _public_members(
                        ast.parse(path.read_text()))
                    if name not in read)
    assert not unread, f"class members nothing reads: {unread}"
