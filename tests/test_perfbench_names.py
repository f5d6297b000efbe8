"""perfbench/tracer.py: every name it wraps resolves in arrlcs; nothing is traced or run."""

import functools
import importlib
import importlib.util
from pathlib import Path

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
