"""Every name a module under ``src/repro/``, ``tests/`` or ``benchmarks/``
imports is used in it.

Package ``__init__.py`` files import to re-export, so they are skipped.
``perfbench/`` is not walked: it is the wall-clock benchmark, and its
files change only with the benchmark.
A name counts as used where it appears as an identifier, including inside
a quoted annotation such as ``"OrderedDict[str, Tuple[float, int]]"``;
a mention in a docstring or another string does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = (ROOT / "src" / "repro", ROOT / "tests", ROOT / "benchmarks")
MODULES = sorted(path for tree in TREES for path in tree.rglob("*.py")
                 if path.name != "__init__.py")


def imported_names(tree):
    """``(name, line)`` for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def annotation_names(annotation):
    """Identifiers in an annotation, parsing the quoted parts."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names |= annotation_names(ast.parse(node.value, mode="eval"))
    return names


def used_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            names |= annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            names |= annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            names |= annotation_names(node.annotation)
    return names


def test_every_module_uses_every_name_it_imports():
    assert {ROOT / "src" / "repro" / "core" / "api.py",
            Path(__file__).resolve(),
            ROOT / "benchmarks" / "conftest.py"} <= set(MODULES)
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = used_names(tree)
        unused += [f"{path.relative_to(ROOT)}:{line} imports {name!r}"
                   for name, line in imported_names(tree)
                   if name not in used]
    assert not unused, "unused imports:\n" + "\n".join(unused)
