"""Properties of the package source itself."""

import ast
from pathlib import Path

import aoulab

PACKAGE = Path(aoulab.__file__).resolve().parent


def test_no_assert_statements():
    # `python -O` strips assert; invariants must raise InvariantViolation
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found
