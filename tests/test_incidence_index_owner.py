"""The flag enumeration has one owner: a configuration builds its own ``IncidenceIndex``."""

import ast
from pathlib import Path

import arrlcs

SRC = Path(arrlcs.__file__).parent


def test_incidence_index_is_constructed_only_in_config():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "IncidenceIndex":
                    found.append(f"{path.name}:{node.lineno}")
    assert len(found) == 1 and found[0].startswith("config.py:"), found
