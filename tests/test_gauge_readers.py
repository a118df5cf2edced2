"""No module under ``src/repro/`` pushes a gauge value.

A gauge restates state its owner already keeps, so the owner registers a
reader for it once (``MetricsRegistry.register_gauge``) and the registry
reads that state when asked.  A pushed copy goes stale on any path that
forgets to refresh it, so ``set_gauge`` is referenced only in
``cloudsim/monitoring.py``, which defines it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
DEFINED_IN = SRC / "cloudsim" / "monitoring.py"


def set_gauge_lines(tree):
    """Sorted lines naming ``set_gauge``, as an attribute or a bare name."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "set_gauge"
        or isinstance(node, ast.Name) and node.id == "set_gauge")


def test_the_check_finds_a_push():
    tree = ast.parse("metrics.set_gauge('depth', 1)\npush = set_gauge\n")
    assert set_gauge_lines(tree) == [1, 2]


def test_no_module_outside_monitoring_pushes_a_gauge():
    modules = sorted(SRC.rglob("*.py"))
    assert DEFINED_IN in modules
    pushes = [f"{path.relative_to(ROOT)}:{line} references set_gauge"
              for path in modules if path != DEFINED_IN
              for line in set_gauge_lines(
                  ast.parse(path.read_text(encoding="utf-8")))]
    assert not pushes, (
        "register a gauge reader instead of pushing a value:\n"
        + "\n".join(pushes))
