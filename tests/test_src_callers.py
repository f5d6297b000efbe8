"""src/ keeps only what the program calls: each top-level function and class is named in src/ or listed with its reason."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "arrlcs"

# Top-level names no src/ code names, each with the reason it stays.  A name
# that only tests need belongs in tests/helpers.py instead.
UNCALLED = {
    "tau_kernel": "perfbench/tracer.py traces it and perfbench/run.py lists its layer",
    "tau_preimage": "perfbench/tracer.py traces it and perfbench/run.py lists its layer",
    "u_lattice": "perfbench/workloads.py draws kappa-stream's inputs from its rows",
    "delta_bar": "perfbench/workloads.py checks every κ certificate with it",
    "glued_g_map": "perfbench/inputs.py builds the c13-direct g-maps with it",
    "relators_from_g": "ROADMAP items 1, 5 and 14 compute κ from relator words",
    "relator_at_flag": "ROADMAP items 1, 5 and 14 compute κ from relator words",
    "admissibility_check": "ROADMAP items 1, 5 and 14 refuse relator sets whose degree-2 parts are not r̄",
    "isomorphisms": "ROADMAP items 13 and 15 find sub-configurations as isomorphisms",
    "intersection": "ROADMAP items 5 and 18 meet known lines in a point",
}


def scan() -> tuple[dict[str, str], set[str]]:
    """Top-level function and class names with their file, and every name an ``ast.Name`` or ``ast.Attribute`` reads."""
    defined, named = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return defined, named


def test_every_top_level_name_is_called_in_src_or_listed():
    defined, named = scan()
    assert len(defined) > 100  # the scan read the package
    uncalled = {name: path for name, path in defined.items() if name not in named}
    assert {name: path for name, path in uncalled.items() if name not in UNCALLED} == {}


def test_every_listed_name_is_defined_and_still_uncalled():
    defined, named = scan()
    assert sorted(set(UNCALLED) - set(defined)) == []
    assert sorted(set(UNCALLED) & named) == []
