"""Library invariants must survive ``python -O``, which strips assert statements."""

import ast
from pathlib import Path

import arrlcs

SRC = Path(arrlcs.__file__).parent


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "assert statements in library code: " + ", ".join(found)
