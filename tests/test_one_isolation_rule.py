"""Tenant isolation and the audit subject live in ``core/api.py`` only.

A tenant-scoped ``/v1`` surface subclasses ``TenantSurface``, which applies
the one ownership rule (``require_owner``: another tenant's id reads like a
missing one) and forms the one audit subject (``<noun> <id>``).  A surface
that writes its own ``_owned`` check or calls ``audit_request`` itself is a
second copy of a rule that a later change can forget to update.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
DEFINED_IN = SRC / "core" / "api.py"


def private_copies(tree):
    """Sorted (line, what) pairs: calls to ``audit_request`` and
    functions named ``_owned``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name == "audit_request":
                found.append((node.lineno, "calls audit_request"))
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node.name == "_owned"):
            found.append((node.lineno, "defines _owned"))
    return sorted(found)


def test_the_check_finds_both_copies():
    tree = ast.parse(
        "class Api:\n"
        "    def _owned(self, context, job_id):\n"
        "        pass\n"
        "    def _audit(self, context):\n"
        "        audit_request(None, context, 's', 'v')\n"
        "        api.audit_request(None, context, 's', 'v')\n")
    assert private_copies(tree) == [(2, "defines _owned"),
                                    (5, "calls audit_request"),
                                    (6, "calls audit_request")]


def test_no_surface_outside_core_api_copies_the_rule():
    modules = sorted(SRC.rglob("*.py"))
    assert DEFINED_IN in modules
    copies = [f"{path.relative_to(ROOT)}:{line} {what}"
              for path in modules if path != DEFINED_IN
              for line, what in private_copies(
                  ast.parse(path.read_text(encoding="utf-8")))]
    assert not copies, (
        "subclass repro.core.api.TenantSurface instead of copying its "
        "isolation rule or audit subject:\n" + "\n".join(copies))
