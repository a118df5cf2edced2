"""A tracer reaches a component one way only: through the component's clock.

``Tracer(clock)`` sets ``clock.tracer``, and every span site reads
``self.clock.tracer``, so one tracer covers every component that shares
the clock.  A ``tracer`` parameter, an assigned ``tracer`` attribute or a
``tracer`` property would be a second way in, and a component built
without it would go untraced.  Only ``cloudsim/clock.py`` and
``cloudsim/tracing.py``, which keep the one attachment point, may name
one.
"""

import ast
from pathlib import Path

import pytest

from repro.cloudsim.clock import SimClock
from repro.cloudsim.tracing import Tracer
from repro.core.errors import ConfigurationError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
KEEPERS = {SRC / "cloudsim" / "clock.py", SRC / "cloudsim" / "tracing.py"}


def _assigned(node):
    """The plain targets an assignment writes, tuple targets unpacked."""
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target])
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            yield from target.elts
        else:
            yield target


def second_attachments(tree):
    """Sorted (line, what) pairs: ``tracer`` parameters and keyword
    arguments, assignments to a ``tracer`` or ``_tracer`` attribute, and
    functions or properties named ``tracer``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.arg == "tracer":
            found.append((node.lineno, "takes a tracer parameter"))
        elif isinstance(node, ast.keyword) and node.arg == "tracer":
            found.append((node.lineno, "passes tracer="))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            found += [(target.lineno, f"assigns .{target.attr}")
                      for target in _assigned(node)
                      if isinstance(target, ast.Attribute)
                      and target.attr in ("tracer", "_tracer")]
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node.name == "tracer"):
            found.append((node.lineno, "defines tracer"))
    return sorted(found)


def test_the_check_finds_each_form():
    tree = ast.parse(
        "def build(clock, tracer=None):\n"
        "    make(clock, tracer=clock.tracer)\n"
        "    component.tracer = clock.tracer\n"
        "    self._tracer, size = None, 1\n"
        "    net.tracer: object = None\n"
        "class Pipeline:\n"
        "    @property\n"
        "    def tracer(self):\n"
        "        return self.clock.tracer\n")
    assert second_attachments(tree) == [
        (1, "takes a tracer parameter"), (2, "passes tracer="),
        (3, "assigns .tracer"), (4, "assigns ._tracer"),
        (5, "assigns .tracer"), (8, "defines tracer")]


def test_a_tracer_attaches_only_through_its_clock():
    modules = sorted(SRC.rglob("*.py"))
    assert KEEPERS <= set(modules)
    found = [f"{path.relative_to(ROOT)}:{line} {what}"
             for path in modules if path not in KEEPERS
             for line, what in second_attachments(
                 ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, (
        "span under self.clock.tracer, which Tracer(clock) sets, instead "
        "of attaching a tracer another way:\n" + "\n".join(found))


def test_a_clock_holds_one_tracer():
    clock = SimClock()
    first = Tracer(clock)
    assert clock.tracer is first
    with pytest.raises(ConfigurationError):
        Tracer(clock)
    assert clock.tracer is first
