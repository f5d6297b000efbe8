"""The MacLane-only layer: dual functionals, τ̃* pullbacks and their transport, bundled conjugators and t.

Everything here decodes or checks data hand-transcribed for the 8-line
MacLane configuration (MacLane, Amer. J. Math. 58 (1936)): the S/T
functionals on H⊗Λ²H and the I/J/K functionals on A
(``maclane_dual_basis``), the conjugator maps of the two conjugate
realizations (``builtin_g_map``) and the mod-3 functional t
(``t_functional``).  ``maclane-report`` reads all of it, κ on c8 only t.

τ̃* pulls a functional Φ on ⊕_g H⊗Λ²H, a sparse row like each MacLane
dual functional keyed g·``hw_rank`` + s, back to A through
``LcsData._flag_terms_transpose``, which neither κ nor the kernel
identities build.  An automorphism acts on A and on H⊗Λ²H by one signed
permutation each (``_line_entries``), by the line-map rules
``config.flag_images`` and ``words.slot_images``.

Imports run one way.  This module imports only ``config``, ``exactlin``
and ``words`` (``LcsData`` for type checking alone), and reads ``data``
through its attributes; ``lcs`` imports this module.
``lcs`` binds four names from here and no others: ``t_functional``,
which κ calls for its ``t_value`` on c8, and ``builtin_g_map``,
``generator_lists_consistent`` and ``tau_star_identities``, which
perfbench reads from ``arrlcs.lcs``.  A caller that reads or patches any
other name of this module on ``lcs`` fails at once instead of silently
patching nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from .config import ConfigAutomorphism, ConfigMismatchError, _builtin_json, _line_maps, flag_images, maclane_c8
from .exactlin import IntMatrix, Lattice, member
from .words import (
    AbelianGMap,
    GMap,
    Word,
    _as_abelian,
    abelianize,
    conjugated_generators,
    parse_word,
    slot_images,
    wedge_index,
    wedge_slot,
)

if TYPE_CHECKING:
    from .lcs import LcsData


# -- dual elements ------------------------------------------------------------


@dataclass(frozen=True)
class DualElement:
    """A named functional: ``coords`` is a sparse row, shared and never mutated like ``IntMatrix.sparse_rows``.

    Tags S and T are functionals on H⊗Λ²H (dimension n·C(n,2)), and I,
    J, K1 and K2 on A (dimension n·#flags).
    """

    label: str
    tag: str
    coords: dict[int, int] = field(hash=False)


@lru_cache(maxsize=None)
def maclane_dual_basis() -> tuple[DualElement, ...]:
    """Hand-checkable dual bases for the 8-line MacLane configuration, decoded once.

    Returns the S functionals (one per ordered pair of finite lines
    meeting at infinity, two per finite triple point), the five T
    functionals, and the 18 I/J/K functionals spanning U-perp; the S/T
    family spans R3perp.
    """
    config = maclane_c8()
    idx = config.index
    n = idx.n
    wp = wedge_index(n)
    np_ = len(wp)
    raw = _builtin_json("dual_basis_c8.json")
    out: list[tuple[str, str, list[int]]] = []  # (label, tag, dense coordinates), sparsified once at the end

    def add_wedge(vec, m, a, b, c):
        if a != b:
            w, sign = wedge_slot(wp, a, b)
            vec[(m - 1) * np_ + w] += sign * c

    for q in config.points_on(0):
        finite = [i for i in config.lines_through(q) if i != 0]
        for i in finite:
            for j in finite:
                if i == j:
                    continue
                vec = [0] * (n * np_)
                add_wedge(vec, i, i, j, 1)
                out.append((f"S({i},{j})", "S", vec))
    for p in idx.p0:
        ls = config.lines_through(p)
        if len(ls) != 3:
            continue
        a, b, c = ls
        for (i, j, k) in ((a, b, c), (a, c, b)):
            vec = [0] * (n * np_)
            for m, s in ((i, 1), (j, -1)):
                add_wedge(vec, m, i, j, s)
                add_wedge(vec, m, j, k, s)
                add_wedge(vec, m, k, i, s)
            out.append((f"S({i},{j},{k})", "S", vec))
    for t_idx, terms in enumerate(raw["T"]):
        vec = [0] * (n * np_)
        for coef, hform, uform, vform in terms:
            for cu, iu in uform:
                for cv, iv in vform:
                    for ch, ih in hform:
                        add_wedge(vec, ih, iu, iv, coef * ch * cu * cv)
        out.append((f"T{t_idx}", "T", vec))
    for fam in ("I", "J", "K1", "K2"):
        for p, terms in raw["U_perp"][fam].items():
            vec = [0] * (len(idx.pairs) * n)
            for c, i, j in terms:
                vec[idx.pair_pos[(i, p)] * n + (j - 1)] += c
            out.append((f"{fam}({p})", fam, vec))
    return tuple(DualElement(label, tag, {k: x for k, x in enumerate(vec) if x}) for label, tag, vec in out)


def _dual_combination(terms: Sequence[tuple[str, int]]) -> dict[int, int]:
    """Σ c·coords over (label, c) in ``terms``, each label naming a ``maclane_dual_basis`` element of one space, as a sparse row."""
    duals, out = {e.label: e for e in maclane_dual_basis()}, {}
    for label, c in terms:
        for k, x in duals[label].coords.items():
            out[k] = out.get(k, 0) + c * x
    return {k: x for k, x in out.items() if x}


# -- τ̃* pullbacks and their transport under automorphisms --------------------


def rbar_gen_coeffs(data: LcsData, i: int, p: str) -> tuple[int, ...]:
    """Coefficients of r̄(i,p) over the generator flags (min flag = -sum); a flag that is not finite raises ValueError."""
    if (i, p) not in data.index.pair_pos:
        raise ValueError(f"({i},{p}) is not a finite flag")
    out = [0] * len(data.gens)
    gp = data.index.gen_pos
    if (i, p) in gp:
        out[gp[(i, p)]] = 1
        return tuple(out)
    for k in data.config.lines_through(p):
        if (k, p) in gp:
            out[gp[(k, p)]] = -1
    return tuple(out)


def tau_star(data: LcsData, functional: dict[int, int]) -> dict[int, int]:
    """Pull a sparse functional Φ on ⊕_g H⊗Λ²H, keyed g·``hw_rank`` + s, back along τ̃: the sparse A* row a ↦ Φ(lift of a).

    Φ's entry at (g, x_j⊗(x_a∧x_b)), a < b, reaches x_b at line a's flags
    listed at (g, j) in ``LcsData._flag_terms_transpose`` and x_a, with the
    wedge sign, at line b's (``LcsData._coordinate_lift``).  A key outside
    [0, gens·``hw_rank``) raises ValueError.  For Φ = class ⊗ φ it is a ↦ ⟨φ, τ̃a(class)⟩, well
    defined on P3 values whenever φ lies in R3perp.
    """
    n, hw, np_ = data.n, data.hw_rank, data.npairs
    width, terms, pairs, lines, out = len(data.gens) * hw, data._flag_terms_transpose, list(data.wedge_pos), data.index.pairs, {}
    if functional and not 0 <= min(functional) <= max(functional) < width:
        raise ValueError(f"tau_star's functional has a key outside [0, {width})")
    for k, x in functional.items():
        g, (j, w) = k // hw, divmod(k % hw, np_)
        a, b = pairs[w]
        for f, s in terms.get((g, j + 1), ()):
            i = lines[f][0]
            if i in (a, b):
                c, y = (f * n + b - 1, s * x) if i == a else (f * n + a - 1, -s * x)
                out[c] = out.get(c, 0) + y
    return {a: y for a, y in out.items() if y}


def _line_entries(data: LcsData, sigma: ConfigAutomorphism):
    """σ acting on row vectors of A and of H⊗Λ²H, entry by entry: two maps, coordinate ↦ (image coordinate, sign).

    x_m at flag (i,p) goes to x_σm at (σi,σp) (``flag_images``), and
    x_m⊗(x_a∧x_b) to ±x_σm⊗(x_σa∧x_σb) (``slot_images``).
    """
    if sigma.config != data.config:
        raise ConfigMismatchError("automorphism of another configuration")
    if sigma.line_perm[0] != 0:
        raise ValueError("automorphism must fix the infinity line")
    s, n, images = sigma.line_perm, data.n, flag_images(data.config, data.config, sigma.line_perm)
    flags = [data.index.pair_pos[images[f]] for f in data.index.pairs]
    return lambda k: (flags[k // n] * n + s[k % n + 1] - 1, 1), slot_images(n, data.wedge_pos, s).__getitem__


@dataclass(frozen=True)
class TauStarReport:
    """Outcome of the τ̃* pullback identities and their orbit transport."""

    identities: tuple[tuple[str, bool], ...]
    transport_consistent: bool
    point_coverage: tuple[tuple[str, bool], ...]

    @property
    def all_ok(self) -> bool:
        return (
            all(ok for _, ok in self.identities)
            and self.transport_consistent
            and all(ok for _, ok in self.point_coverage)
        )

    def to_json_dict(self) -> dict:
        return {
            "identities": {label: ok for label, ok in self.identities},
            "transport_consistent": self.transport_consistent,
            "point_coverage": {p: ok for p, ok in self.point_coverage},
            "all_ok": self.all_ok,
        }


def transport_group(data: LcsData) -> list[ConfigAutomorphism]:
    """The stabiliser of line 0 in ``automorphisms(maclane_c8())``: 6 of its 48 elements, sorted.

    Line 0 carries no generator, so only these σ act on A and H⊗Λ²H
    (``_line_entries``); they carry the seven base τ̃* identities to every
    finite point.  The search pins line 0 and lists σ in line order.
    """
    if data.config != maclane_c8():
        raise ConfigMismatchError("transport group is defined for the MacLane configuration")
    return [ConfigAutomorphism(data.config, perm) for perm, _ in _line_maps(data.config, data.config, True)]


def tau_star_identities(data: LcsData) -> TauStarReport:
    """The seven pullback identities pinning U-perp, plus orbit transport.

    Each base identity states that pulling one S/T functional back
    along τ̃ against r̄(1,p) reproduces a transcribed U-perp functional
    exactly; transporting them by the symmetry group must cover the
    U-perp block of every finite point.  The base identities are the
    identity σ's slice of the transport loop: 42 pullbacks in all.
    """
    duals = {e.label: e for e in maclane_dual_basis()}
    base = (
        ("I(p135)", (1, "p135"), _dual_combination([("S(1,3,5)", 1)])),
        ("I(p147)", (1, "p147"), _dual_combination([("S(1,4,7)", 1)])),
        ("J(p16)", (1, "p16"), _dual_combination([("T3", 1)])),
        ("K1(p135)", (1, "p135"), _dual_combination([("T0", 1), ("T3", -1)])),
        ("K2(p135)", (1, "p135"), _dual_combination([("T3", 1)])),
        ("K1(p147)", (1, "p147"), _dual_combination([("T0", -1)])),
        ("K2(p147)", (1, "p147"), _dual_combination([("T3", -1)])),
    )
    functionals = [phi for *_, phi in base]
    targets = [duals[label].coords for label, *_ in base]

    def act_on(rows, act):  # σ on sparse rows, read through ``act`` at their nonzero entries
        return [{t: sign * x for k, x in row.items() for t, sign in [act(k)]} for row in rows]
    identities, transported_rows, consistent = [], [], True
    for sigma in transport_group(data):
        on_a, on_hw = _line_entries(data, sigma)
        for (label, (i, p), _), moved, target in zip(base, act_on(functionals, on_hw), act_on(targets, on_a)):
            rbar = rbar_gen_coeffs(data, sigma.line_perm[i], sigma.point_image(p))
            lhs = tau_star(data, {g * data.hw_rank + s: c * x for g, c in enumerate(rbar) if c for s, x in moved.items()})  # Φ = r̄ ⊗ φ
            ok = lhs == target
            if sigma.is_identity():  # the base identities themselves
                identities.append((label, ok))
            consistent &= ok
            transported_rows.append(lhs)
    span = Lattice(data.a_rank, IntMatrix._of(transported_rows, data.a_rank))
    uperp = [e for e in duals.values() if e.tag not in ("S", "T")]
    coverage = [(p, all(member(e.coords, span).ok for e in uperp if e.label.endswith(f"({p})"))) for p in data.index.p0]
    return TauStarReport(tuple(identities), consistent, tuple(coverage))


# -- bundled conjugator data and the mod-3 separating functional -------------


def builtin_g_map(which: str) -> GMap:
    """The transcribed conjugator assignment ("plus" or "minus")."""
    if which not in ("plus", "minus"):
        raise ValueError("expected 'plus' or 'minus'")
    return GMap.from_json_dict(maclane_c8(), _builtin_json(f"conjugators_{which}.json"))


def builtin_generator_lists(which: str) -> dict[str, list[Word]]:
    """Transcribed per-point conjugated generators, highest line first."""
    if which not in ("plus", "minus"):
        raise ValueError("expected 'plus' or 'minus'")
    raw = _builtin_json(f"relators_{which}.json")
    return {entry["point"]: [parse_word(t) for t in entry["words"]] for entry in raw}


def generator_lists_consistent(which: str) -> bool:
    """Bundled generator lists match those generated from the g-map."""
    config = maclane_c8()
    g = builtin_g_map(which)
    lists = builtin_generator_lists(which)
    if set(lists) != set(config.index.p0):
        return False
    for p, ws in lists.items():
        generated = [w for _, w in conjugated_generators(config, g, p)]
        if list(reversed(generated)) != ws:
            return False
    return True


def builtin_g_difference() -> AbelianGMap:
    """Difference of the abelianized bundled conjugator maps (plus - minus)."""
    return abelianize(builtin_g_map("plus")) - abelianize(builtin_g_map("minus"))


@lru_cache(maxsize=None)
def _t_vector() -> tuple[dict[int, int], int]:
    raw = _builtin_json("dual_basis_c8.json")["mod3_functional"]
    return _dual_combination([(f"{fam}({p})", c) for c, fam, p in raw["terms"]]), raw["modulus"]


def t_functional(a: GMap | AbelianGMap) -> int:
    """Mod-3 functional on conjugator data for the MacLane configuration.

    Vanishes on U and on B, so it descends to W = A/(U+B); its value 1
    on the bundled plus/minus difference separates the two presentations.
    """
    a = _as_abelian(a)
    if a.config != maclane_c8():
        raise ConfigMismatchError("the mod-3 functional is defined for the MacLane configuration")
    (t, modulus), vec = _t_vector(), a.vector()
    return sum(x * vec[k] for k, x in t.items()) % modulus
