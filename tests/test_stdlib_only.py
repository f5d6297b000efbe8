"""The library imports nothing outside the standard library (stdlib-only rule)."""

import ast
import sys
from pathlib import Path

import arrlcs

SRC = Path(arrlcs.__file__).parent


def test_library_imports_only_the_standard_library():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    assert not found, "non-stdlib imports in library code: " + ", ".join(found)
