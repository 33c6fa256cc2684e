"""Source-level rules for the library package."""

import ast
from pathlib import Path

import k3walls

SOURCES = sorted(Path(k3walls.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    """Invariants are explicit checks raising InvariantError: ``python -O`` strips asserts."""
    assert SOURCES
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}: raise AssertionError")
    assert not found, found
