"""perfbench's reads of arrlcs: every name it wraps or reads resolves, and every cache is bound where it clears caches; nothing is traced or run."""

import ast
import functools
import importlib
import importlib.util
from pathlib import Path

from arrlcs import exactlin
from arrlcs.lcs import LcsData

ROOT = Path(__file__).resolve().parents[1]


def load_tracer():
    # the tracer imports only the standard library, so loading it by path starts no benchmark
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracer = load_tracer()
    assert tracer.FUNCTIONS
    for name, (module, attr) in tracer.FUNCTIONS.items():
        assert callable(getattr(importlib.import_module(f"arrlcs.{module}"), attr, None)), name


def test_traced_properties_are_cached_properties_of_lcs_data():
    tracer = load_tracer()
    assert tracer.PROPERTIES
    for prop in tracer.PROPERTIES:
        assert isinstance(vars(LcsData).get(prop), functools.cached_property), prop


def perfbench_modules() -> tuple[str, ...]:
    """``MODULES`` of perfbench/run.py, the arrlcs modules it imports and searches for caches, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["MODULES"])


def tracer_modules() -> tuple[str, ...]:
    """The arrlcs modules ``Tracer.install`` in perfbench/tracer.py wraps traced functions in, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    install = next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "install")
    comp = next(node for node in ast.walk(install) if isinstance(node, ast.ListComp))
    return ast.literal_eval(comp.generators[0].iter)


def test_the_tracer_wraps_every_module_that_binds_a_reduction():
    # a module that binds a reduction the tracer does not wrap hides those calls from the trace;
    # ``member`` is left out: ``maclane`` binds it and is not wrapped, a gap in perfbench itself
    reductions = ("hnf", "hnf_with_transform", "kernel_basis", "quotient_presentation")
    package = Path(importlib.import_module("arrlcs").__file__).parent
    binding = {
        path.stem
        for path in package.glob("*.py")
        if path.stem != "__init__"
        and any(vars(importlib.import_module(f"arrlcs.{path.stem}")).get(name) is getattr(exactlin, name) for name in reductions)
    }
    assert {"exactlin", "lcs"} <= binding  # the scan found the bindings
    assert sorted(binding - set(tracer_modules())) == []


def is_mods(node: ast.expr) -> bool:
    """``mods`` or ``state["mods"]``, the namespace of arrlcs modules perfbench passes around."""
    if isinstance(node, ast.Subscript):
        node = node.slice
        return isinstance(node, ast.Constant) and node.value == "mods"
    return isinstance(node, ast.Name) and node.id == "mods"


def test_every_name_the_workloads_read_resolves():
    modules, reads = perfbench_modules(), set()
    for name in ("inputs.py", "workloads.py"):
        for node in ast.walk(ast.parse((ROOT / "perfbench" / name).read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.value, ast.Name) and node.value.id == "lcs":  # ``lcs = mods.lcs``
                reads.add(("lcs", node.attr))
            elif isinstance(node.value, ast.Attribute) and node.value.attr in modules and is_mods(node.value.value):
                reads.add((node.value.attr, node.attr))
    assert ("lcs", "builtin_g_map") in reads and ("lcs", "kappa") in reads  # the scan found both forms
    assert sorted((m, name) for m, name in reads if not hasattr(importlib.import_module(f"arrlcs.{m}"), name)) == []


def decorator_name(node: ast.expr) -> str | None:
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_every_cache_in_src_is_bound_where_perfbench_clears_caches():
    # run.py's find_caches clears what it finds in the namespaces of MODULES; a cache bound
    # nowhere else would stay warm across cold samples and read as a speed-up
    bound = {id(value) for m in perfbench_modules() for value in vars(importlib.import_module(f"arrlcs.{m}")).values()}
    caches = [
        (path.stem, node.name)
        for path in sorted(Path(importlib.import_module("arrlcs").__file__).parent.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if any(decorator_name(d) in ("lru_cache", "cache") for d in getattr(node, "decorator_list", ()))
    ]
    assert len(caches) >= 6  # the scan found the package's caches
    assert [f"{m}.{name}" for m, name in caches if id(getattr(importlib.import_module(f"arrlcs.{m}"), name)) not in bound] == []
