"""Spans around calls into arrlcs, recorded from the benchmark's own files.

``Tracer.install`` replaces public entry points of the arrlcs modules with
wrappers, in every arrlcs module that holds a reference to them, so each
caller (including ``from .x import f`` callers) goes through the wrapper.
Only calls that usually take a millisecond or more are wrapped.  Spans stay
in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

# span name -> (module attribute holding it, attribute name)
FUNCTIONS = {
    "exactlin.hnf": ("exactlin", "hnf"),
    "exactlin.hnf_with_transform": ("exactlin", "hnf_with_transform"),
    "exactlin.kernel_basis": ("exactlin", "kernel_basis"),
    "exactlin.quotient_presentation": ("exactlin", "quotient_presentation"),
    "exactlin.member": ("exactlin", "member"),
    "lcs.build": ("lcs", "build_lcs"),
    "lcs.u_lattice": ("lcs", "u_lattice"),
    "lcs.b_lattice": ("lcs", "b_lattice"),
    "lcs.tau_kernel": ("lcs", "tau_kernel"),
    "lcs.tau_preimage": ("lcs", "tau_preimage"),
    "lcs.kernel_is_u": ("lcs", "tau_kernel_equals_u"),
    "lcs.preimage_is_u_plus_b": ("lcs", "tau_preimage_equals_u_plus_b"),
    "lcs.tau_tilde": ("lcs", "tau_tilde"),
    "lcs.kappa": ("lcs", "kappa"),
    "lcs.tau_star_identities": ("lcs", "tau_star_identities"),
    "words.lie_basis": ("words", "lie_basis"),
    "words.generator_lists": ("lcs", "generator_lists_consistent"),
    "words.abelianize": ("words", "abelianize"),
    "config.load": ("config", "load_configuration"),
    "config.validate": ("config", "validate"),
    "config.automorphisms": ("config", "automorphisms"),
    "geom.glued_realization": ("geom", "generic_glued_realization"),
    "geom.check_realization": ("geom", "check_realization"),
    "cli.maclane_report": ("cli", "cmd_maclane_report"),
    "cli.c13_report": ("cli", "cmd_c13_report"),
    "cli.kappa": ("cli", "cmd_kappa"),
}

# lazily computed degree-3 layers of LcsData (cached properties)
PROPERTIES = ("r3", "p3", "r3perp", "tau_matrix", "im_delta")

# calls whose first argument's shape is recorded: a matrix or a lattice
SHAPED = {
    "exactlin.hnf",
    "exactlin.hnf_with_transform",
    "exactlin.kernel_basis",
    "exactlin.quotient_presentation",
    "exactlin.member",
}


def _shape(name, args):
    if name not in SHAPED:
        return None
    x = args[1] if name == "exactlin.member" else args[0]
    x = getattr(x, "canonical_form", x)  # a lattice is worked on in HNF
    return (x.rows, x.cols)


class Tracer:
    """In-memory span recorder.  A span is
    ``[name, start, end, parent index or None, sample id, shape or None]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.sample = None
        self.enabled = False

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            return self._call(name, _shape(name, args), fn, args, kwargs)

        return traced

    def _call(self, name, shape, fn, args, kwargs):
        span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.sample, shape]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def span(self, name, fn, *args):
        """Run ``fn(*args)`` inside one named span (used for whole samples)."""
        if not self.enabled:
            return fn(*args)
        return self._call(name, None, fn, args, {})

    def install(self, mods) -> None:
        modules = [getattr(mods, m) for m in ("config", "words", "exactlin", "lcs", "geom", "cli")]
        for name, (mod, attr) in FUNCTIONS.items():
            original = getattr(getattr(mods, mod), attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        cls = mods.lcs.LcsData
        for prop in PROPERTIES:
            new = functools.cached_property(self.wrap(f"lcs.{prop}", vars(cls)[prop].func))
            new.__set_name__(cls, prop)
            setattr(cls, prop, new)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "sample", "shape")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def summarize(spans, samples: list) -> dict:
    """Per-layer figures, averaged over the given traced sample ids.

    For every span name: ``calls`` per sample; ``total_s``, the time inside
    the call (children included, nested calls of the same name counted
    once); ``self_s``, that time minus the time of child spans; and the
    largest matrix shape seen.  ``layer_self_s`` sums self time per module,
    with ``sample`` the part of a sample spent outside any wrapped call.
    """
    wanted = set(samples)
    n = max(len(samples), 1)
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] is not None:
            child_time[s[3]] += s[2] - s[1]
    per_name: dict = {}
    layer_self: dict = {}
    for k, s in enumerate(spans):
        if s[4] not in wanted:
            continue
        name, dur = s[0], s[2] - s[1]
        rec = per_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_rows": 0, "max_cols": 0})
        rec["calls"] += 1
        own = dur - child_time[k]
        rec["self_s"] += own
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
        if not _has_ancestor(spans, k, name.__eq__):
            rec["total_s"] += dur
        if s[5] is not None:
            rec["max_rows"] = max(rec["max_rows"], s[5][0])
            rec["max_cols"] = max(rec["max_cols"], s[5][1])
    for rec in per_name.values():
        for key in ("calls", "total_s", "self_s"):
            rec[key] /= n
    return {"per_name": per_name, "layer_self_s": {k: v / n for k, v in layer_self.items()}}


def _has_ancestor(spans, k, test) -> bool:
    p = spans[k][3]
    while p is not None:
        if test(spans[p][0]):
            return True
        p = spans[p][3]
    return False


def covered_share(spans, samples: list, prefix: str) -> float:
    """Share of the sample spans' time covered by outermost spans of a layer."""
    wanted = set(samples)
    covered = total = 0.0
    for k, s in enumerate(spans):
        if s[4] not in wanted:
            continue
        if s[0] == "sample":
            total += s[2] - s[1]
        elif s[0].startswith(prefix) and not _has_ancestor(spans, k, lambda n: n.startswith(prefix)):
            covered += s[2] - s[1]
    return covered / total if total else 0.0
