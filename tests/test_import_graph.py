"""The package's import graph: the src/arrlcs modules import one another without a cycle, the MacLane layer imports only config, exactlin and words, and the certificate checker imports no reduction."""

import ast
import graphlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "arrlcs"


def is_type_checking(test: ast.expr) -> bool:
    return isinstance(test, ast.Name) and test.id == "TYPE_CHECKING" or isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


def relative_imports(body: list[ast.stmt], modules: set[str]) -> set[str]:
    """Package modules named by the module-level ``from .x import …`` and ``from . import x`` in ``body``, leaving out ``if TYPE_CHECKING:`` blocks."""
    out = set()
    for node in body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module.split(".")[0]] if node.module else [alias.name for alias in node.names]
            out.update(name for name in names if name in modules)  # ``from . import __version__`` reads the package, not a module
        elif isinstance(node, ast.If) and not is_type_checking(node.test):
            out |= relative_imports(node.body + node.orelse, modules)
    return out


def import_graph() -> dict[str, set[str]]:
    paths = {path.stem: path for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}
    return {name: relative_imports(ast.parse(path.read_text(encoding="utf-8")).body, set(paths)) for name, path in paths.items()}


def test_the_package_import_graph_has_no_cycle():
    graph = import_graph()
    assert {"cli", "config", "exactlin", "lcs", "words"} <= set(graph)  # the scan read the package
    try:
        order = list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        raise AssertionError(f"import cycle among src/arrlcs modules: {exc.args[1]}") from None
    assert set(order) == set(graph)


def test_maclane_imports_only_config_exactlin_and_words():
    graph = import_graph()
    assert graph["maclane"] <= {"config", "exactlin", "words"}
    assert "maclane" in graph["lcs"]  # the direction of the split: lcs reads the MacLane layer, never the reverse



def test_certify_imports_only_config_and_words_and_binds_no_reduction():
    graph = import_graph()
    assert graph["certify"] <= {"config", "words"}
    tree = ast.parse((SRC / "certify.py").read_text(encoding="utf-8"))
    typed = [node for node in tree.body if isinstance(node, ast.If) and is_type_checking(node.test)]
    assert [(node.module, [alias.name for alias in node.names]) for block in typed for node in block.body] == [("lcs", ["LcsData"])]
    named = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    named |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert named.isdisjoint({"Lattice", "hnf", "snf", "member", "quotient_presentation"})
