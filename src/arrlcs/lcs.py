"""Lower-central-series invariants of arrangement-style presentations.

Degree-2/3 graded calculus for groups presented by one conjugation
relator per line/point flag: the relator lattices R2 = span of r̄(i,p)
inside L2 and R3 = [H,R2] inside L3, the free quotients P2 = L2/R2 and
P3 = L3/R3, the linear map τ̃ taking abelianized conjugator data to
Hom(R2,P3), the coboundary δ̄: Hom(H,P2) → Hom(R2,P3), and the
isomorphism obstruction κ = class of τ̃(ḡ - ḡ') modulo Im δ̄.

Coordinate conventions, shared with the bundled data files:

- H = ZZ^n with basis x_1..x_n, one generator per finite line.
- L2 has basis [x_i,x_j] ↔ x_i∧x_j, i < j, in ``words.wedge_index``
  order; L3 has the degree-3 Lyndon basis of ``words.lie_basis``.
- A = {maps flags → H}, flattened flag-major: the x_m-coordinate at
  flag (i,p) sits at pair_pos[(i,p)]*n + (m-1).  The functionals
  e_ij(p) (value of x_j* on a(i,p)) use the same flat indexing.
- H⊗Λ²H, the home of left-normed degree-3 lifts, is flattened as
  slot(m, w) = (m-1)*C(n,2) + w for wedge position w; its dual uses
  the same indexing.
- Hom(R2,P3) values are matrices with one row of P3 quotient
  coordinates per generator flag, flattened row-major.

Every degree-3 object is one route: a sparse left-normed lift into
H⊗Λ²H, then the bracketing matrix ``LcsData.bracket`` (H⊗Λ²H → L3),
then the P3 projection.  R3 brackets H against the R2 rows; τ̃ reads the
cached lift ``LcsData.tau_lift`` of each A coordinate; δ̄ lifts f̂ at each
generator flag; R3perp pulls perp(R3) back along the bracket.  A lift is
a sequence of (generator flag, slot, coefficient) terms.

Sign conventions: [a,b] = a^-1 b^-1 a b in the group, [x,y] = xy - yx
on graded pieces, and δf(x∧y) = [x,f̂(y)] - [y,f̂(x)] mod R3 for any
Λ²H-lift f̂ of f.  This is the unique sign for which δ̄ agrees with τ̃
on conjugator data constant in p exactly, not merely up to sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

from .config import (
    ConfigAutomorphism,
    Configuration,
    IncidenceIndex,
    _builtin_json,
    glue_c13,
    maclane_c8,
    validate,
)
from .exactlin import (
    IntMatrix,
    Lattice,
    QuotientPresentation,
    Witness,
    dot,
    kernel_basis,
    lattice_sum,
    member,
    perp,
    quotient_presentation,
    vec_mat,
    vstack,
)
from .words import (
    AbelianGMap,
    GMap,
    Word,
    abelianize,
    conjugated_generators,
    lie_basis,
    lie_component_coords,
    parse_word,
    rbar_coords,
    wedge_index,
)


class TorsionError(ValueError):
    """A graded quotient has torsion; the dual calculus needs freeness."""


class ConfigMismatchError(ValueError):
    """Arguments built over different (or unexpected) configurations."""


# -- core data ---------------------------------------------------------------


class LcsData:
    """Degree-2 and degree-3 graded data of one configuration.

    Degree-2 objects are built eagerly.  The degree-3 objects (the
    bracket map, R3, P3, R3perp, the τ̃ lift and matrix, Im δ̄) are
    cached properties computed on first use, so purely degree-2 work on
    large configurations stays cheap.
    """

    def __init__(self, config: Configuration):
        report = validate(config)
        if not report.ok:
            raise ValueError("invalid configuration: " + report.violations[0])
        if report.degenerate:
            raise ValueError("degenerate configuration")
        self.config = config
        self.index = IncidenceIndex(config)
        self.n = self.index.n
        self.wedge_pos = wedge_index(self.n)
        self.npairs = len(self.wedge_pos)
        self.gens = self.index.generator_pairs
        rows = [rbar_coords(config, i, p) for (i, p) in self.gens]
        self.r2 = Lattice(self.npairs, IntMatrix(rows, self.npairs))
        if self.r2.rank != len(self.gens):
            raise ValueError("degree-2 relator classes are not independent")
        self.p2 = quotient_presentation(self.r2)
        if not self.p2.is_torsion_free:
            raise TorsionError("degree-2 quotient has torsion")
        self.r2perp = perp(self.r2)

    def __repr__(self) -> str:
        return f"LcsData({self.n} lines, {len(self.gens)} relators)"

    @property
    def a_rank(self) -> int:
        return len(self.index.pairs) * self.n

    @property
    def hw_rank(self) -> int:
        return self.n * self.npairs

    @cached_property
    def lie3(self):
        return lie_basis(self.n, 3)

    @property
    def dim3(self) -> int:
        return len(self.lie3)

    @cached_property
    def bracket(self) -> IntMatrix:
        """The bracketing map H⊗Λ²H → L3, one row per slot.

        Row slot(m, w) holds the Lyndon coordinates of [x_m, [x_a, x_b]],
        where (a, b) is the pair at wedge position w.
        """
        rows = []
        for m in range(1, self.n + 1):
            for (a, b) in self.wedge_pos:
                tensor: dict[tuple[int, ...], int] = {}
                for word, c in (((m, a, b), 1), ((m, b, a), -1), ((a, b, m), -1), ((b, a, m), 1)):
                    tensor[word] = tensor.get(word, 0) + c
                rows.append(lie_component_coords(tensor, self.lie3))
        return IntMatrix(rows, self.dim3)

    @cached_property
    def r3(self) -> Lattice:
        """[H, R2] in L3 Lyndon coordinates (n rows per R2 generator)."""
        np_ = self.npairs
        rows = []
        for m in range(self.n):
            block = IntMatrix(self.bracket.entries[m * np_ : (m + 1) * np_], self.dim3)
            rows.extend(vec_mat(r, block) for r in self.r2.basis.entries)
        return Lattice(self.dim3, IntMatrix(rows, self.dim3))

    @cached_property
    def p3(self) -> QuotientPresentation:
        pres = quotient_presentation(self.r3)
        if not pres.is_torsion_free:
            raise TorsionError("degree-3 quotient has torsion")
        return pres

    def _r3perp_via_dstar(self) -> Lattice:
        """ker d* restricted to H*⊗R2perp, pushed into (H⊗Λ²H)* coordinates."""
        np_, n = self.npairs, self.n
        phis = self.r2perp.canonical_form.entries
        e_rows = []
        for m in range(1, n + 1):
            for phi in phis:
                e_rows.append([0] * ((m - 1) * np_) + list(phi) + [0] * ((n - m) * np_))
        triples = [
            (i, j, k)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            for k in range(j + 1, n + 1)
        ]
        wp = self.wedge_pos
        drows = [
            [
                f[(i - 1) * np_ + wp[(j, k)]]
                - f[(j - 1) * np_ + wp[(i, k)]]
                + f[(k - 1) * np_ + wp[(i, j)]]
                for (i, j, k) in triples
            ]
            for f in e_rows
        ]
        combos = kernel_basis(IntMatrix(drows, len(triples)))
        e_mat = IntMatrix(e_rows, self.hw_rank)
        return Lattice(self.hw_rank, IntMatrix([vec_mat(c, e_mat) for c in combos.entries], self.hw_rank))

    def _r3perp_via_lie(self) -> Lattice:
        """perp(R3) in L3*, pulled back through the bracketing map: perp(R3)·bracketᵀ."""
        dual = perp(self.r3).canonical_form.transpose()
        pulled = IntMatrix([vec_mat(row, dual) for row in self.bracket.entries], dual.cols)
        return Lattice(self.hw_rank, pulled.transpose())

    @cached_property
    def r3perp(self) -> Lattice:
        """Functionals on H⊗Λ²H vanishing on every left-normed lift of R3.

        Computed as ker d* ∩ H*⊗R2perp and cross-checked against the
        independent route perp(R3) ∘ bracketing; the exact sequence
        Λ³H → H⊗L2 → L3 → 0 makes the two agree over ZZ.
        """
        via_dstar = self._r3perp_via_dstar()
        if via_dstar != self._r3perp_via_lie():
            raise AssertionError("R3-perp routes disagree")
        return via_dstar

    @cached_property
    def tau_lift(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Sparse left-normed lift of τ̃, one entry per flat A coordinate.

        The entry of the x_m-coordinate at flag (i,p) lists the
        (generator flag, H⊗Λ²H slot, coefficient) terms of the lift of its
        τ̃ value: x_k⊗(x_i∧x_m) at each generator flag (k,p) with k ≠ i,
        and -Σ_{j on p, j≠i} x_j⊗(x_i∧x_m) at (i,p).
        """
        np_, gp = self.npairs, self.index.gen_pos
        out = []
        for (i, p) in self.index.pairs:
            lines_p = self.config.lines_through(p)
            for m in range(1, self.n + 1):
                terms = []
                if m != i:
                    w = self.wedge_pos[(min(i, m), max(i, m))]
                    sgn = 1 if i < m else -1
                    for k in lines_p:
                        if (k, p) not in gp:
                            continue
                        if k != i:
                            terms.append((gp[(k, p)], (k - 1) * np_ + w, sgn))
                        else:
                            terms.extend((gp[(k, p)], (j - 1) * np_ + w, -sgn) for j in lines_p if j != i)
                out.append(tuple(terms))
        return tuple(out)

    @cached_property
    def _bracket_p3(self) -> IntMatrix:
        """The bracketing map followed by the P3 projection, H⊗Λ²H → P3."""
        proj = self.p3.projection
        return IntMatrix([vec_mat(row, proj) for row in self.bracket.entries], proj.cols)

    def _to_hom(self, lift) -> tuple[int, ...]:
        """Flat Hom(R2,P3) coordinates of a sparse (generator flag, slot, coefficient) lift."""
        r = self.p3.free_rank
        bp = self._bracket_p3.entries
        out = [0] * (len(self.gens) * r)
        for g, s, c in lift:
            for t, x in enumerate(bp[s], g * r):
                if x:
                    out[t] += c * x
        return tuple(out)

    @cached_property
    def tau_matrix(self) -> IntMatrix:
        """Matrix of τ̃: A → Hom(R2,P3), rows in flat A order."""
        return IntMatrix([self._to_hom(lift) for lift in self.tau_lift], len(self.gens) * self.p3.free_rank)

    def _delta_lift(self, fhat: IntMatrix) -> list[tuple[int, int, int]]:
        """Sparse left-normed lift of δ̄(fhat): Σ_{j on p, j≠k} x_k⊗f̂(x_j) - x_j⊗f̂(x_k) at (k,p)."""
        np_ = self.npairs
        nonzero = [[(w, c) for w, c in enumerate(row) if c] for row in fhat.entries]
        terms = []
        for g, (k, p) in enumerate(self.gens):
            for j in self.config.lines_through(p):
                if j != k:
                    terms.extend((g, (k - 1) * np_ + w, c) for w, c in nonzero[j - 1])
                    terms.extend((g, (j - 1) * np_ + w, -c) for w, c in nonzero[k - 1])
        return terms

    @cached_property
    def im_delta(self) -> Lattice:
        """Image of δ̄; basis rows ordered by (line i, P2 coordinate)."""
        zero = (0,) * self.npairs
        rows = [
            self._to_hom(self._delta_lift(IntMatrix([s if j == i else zero for j in range(self.n)], self.npairs)))
            for i in range(self.n)
            for s in self.p2.section.entries
        ]
        width = len(self.gens) * self.p3.free_rank
        return Lattice(width, IntMatrix(rows, width))


def build_lcs(config: Configuration) -> LcsData:
    """Validate the configuration and assemble its graded data."""
    return LcsData(config)


@lru_cache(maxsize=None)
def _maclane_data() -> LcsData:
    return build_lcs(maclane_c8())


# -- Hom(R2,P3) values -------------------------------------------------------


@dataclass(frozen=True)
class HomR2P3:
    """Element of Hom(R2,P3): one row of P3 coordinates per generator flag."""

    gens: tuple[tuple[int, str], ...]
    free_rank: int
    flat: tuple[int, ...]

    def matrix(self) -> IntMatrix:
        r = self.free_rank
        return IntMatrix([self.flat[g * r : (g + 1) * r] for g in range(len(self.gens))], r)

    def is_zero(self) -> bool:
        return not any(self.flat)

    def __add__(self, other: "HomR2P3") -> "HomR2P3":
        if self.gens != other.gens:
            raise ConfigMismatchError("values on different generator sets")
        return HomR2P3(self.gens, self.free_rank, tuple(a + b for a, b in zip(self.flat, other.flat)))

    def __sub__(self, other: "HomR2P3") -> "HomR2P3":
        if self.gens != other.gens:
            raise ConfigMismatchError("values on different generator sets")
        return HomR2P3(self.gens, self.free_rank, tuple(a - b for a, b in zip(self.flat, other.flat)))


def _as_abelian(g: GMap | AbelianGMap) -> AbelianGMap:
    return abelianize(g) if isinstance(g, GMap) else g


def tau_tilde(data: LcsData, a: GMap | AbelianGMap) -> HomR2P3:
    """τ̃a(r̄(i,p)) = [[x_i,a(i,p)], s_p] + [x_i, Σ_j [x_j,a(j,p)]] + R3."""
    a = _as_abelian(a)
    if a.config != data.config:
        raise ConfigMismatchError("conjugator data belongs to another configuration")
    return HomR2P3(data.gens, data.p3.free_rank, vec_mat(a.vector(), data.tau_matrix))


def _lift_rows(data: LcsData, lift) -> IntMatrix:
    """Dense H⊗Λ²H rows, one per generator flag, of a sparse lift."""
    rows = [[0] * data.hw_rank for _ in data.gens]
    for g, s, c in lift:
        rows[g][s] += c
    return IntMatrix(rows, data.hw_rank)


def tau_lift_rows(data: LcsData, a: GMap | AbelianGMap) -> IntMatrix:
    """Left-normed H⊗Λ²H lift of τ̃a at each generator flag (row per flag)."""
    a = _as_abelian(a)
    if a.config != data.config:
        raise ConfigMismatchError("conjugator data belongs to another configuration")
    lift = [(g, s, x * c) for x, terms in zip(a.vector(), data.tau_lift) if x for g, s, c in terms]
    return _lift_rows(data, lift)


def bracket_to_l3(data: LcsData, hw_row: Sequence[int]) -> tuple[int, ...]:
    """Apply the bracketing map H⊗Λ²H → L3 to flat slot coordinates."""
    return vec_mat(hw_row, data.bracket)


def delta_bar(data: LcsData, f: IntMatrix) -> HomR2P3:
    """δ̄f for f: H → P2 given as an n × rank(P2) coordinate matrix."""
    if f.shape != (data.n, data.p2.free_rank):
        raise ValueError("f must be n x rank(P2)")
    return delta_bar_from_lift(data, f @ data.p2.section)


def delta_bar_from_lift(data: LcsData, fhat: IntMatrix) -> HomR2P3:
    """δ̄ from an explicit Λ²H-lift matrix; independent of the lift mod R2."""
    if fhat.shape != (data.n, data.npairs):
        raise ValueError("lift must be n x dim(L2)")
    return HomR2P3(data.gens, data.p3.free_rank, data._to_hom(data._delta_lift(fhat)))


def delta_lift_rows(data: LcsData, fhat: IntMatrix) -> IntMatrix:
    """Left-normed H⊗Λ²H lift of δ̄(fhat) at each generator flag."""
    return _lift_rows(data, data._delta_lift(fhat))


def delta_kernel(data: LcsData) -> Lattice:
    """ker δ̄ inside Hom(H,P2) flat coordinates.  Computed, nothing asserted."""
    return Lattice(data.n * data.p2.free_rank, kernel_basis(data.im_delta.basis))


# -- the kernel lattices U and B ---------------------------------------------


def u_lattice(config: Configuration) -> Lattice:
    """Span of the three generator families known to lie in ker τ̃.

    Family 0: x_i at the single flag (i,p).  Family 1: x_i at every
    flag of one point, for every i.  Family 2: Σ_{k: p2 on l_k} x_k at
    the single flag (i,p1), for every finite point p2 on l_i (p2 = p1
    allowed).
    """
    idx = IncidenceIndex(config)
    n = idx.n
    dim = len(idx.pairs) * n
    p0set = set(idx.p0)
    rows = []
    for pos, (i, p) in enumerate(idx.pairs):
        row = [0] * dim
        row[pos * n + (i - 1)] = 1
        rows.append(row)
    for p in idx.p0:
        for i in range(1, n + 1):
            row = [0] * dim
            for j in config.lines_through(p):
                row[idx.pair_pos[(j, p)] * n + (i - 1)] = 1
            rows.append(row)
    for pos, (i, p1) in enumerate(idx.pairs):
        for p2 in config.points_on(i):
            if p2 not in p0set:
                continue
            row = [0] * dim
            for k in config.lines_through(p2):
                row[pos * n + (k - 1)] += 1
            rows.append(row)
    return Lattice(dim, IntMatrix(rows, dim))


def b_lattice(config: Configuration) -> Lattice:
    """Span of the conjugator data constant in p: a(j,q) = x_i for all q."""
    idx = IncidenceIndex(config)
    n = idx.n
    dim = len(idx.pairs) * n
    rows = []
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            row = [0] * dim
            for q in idx.p0:
                if (j, q) in idx.pair_pos:
                    row[idx.pair_pos[(j, q)] * n + (i - 1)] = 1
            rows.append(row)
    return Lattice(dim, IntMatrix(rows, dim))


def tau_kernel(data: LcsData) -> Lattice:
    return Lattice(data.a_rank, kernel_basis(data.tau_matrix))


def tau_kernel_equals_u(data: LcsData) -> bool:
    """ker τ̃ = U (exact lattice equality)."""
    return tau_kernel(data) == u_lattice(data.config)


def tau_preimage(data: LcsData) -> Lattice:
    """{a : τ̃a ∈ Im δ̄}, via the joint kernel of [τ̃ | δ̄] projected to A."""
    stacked = vstack(data.tau_matrix, data.im_delta.basis)
    joint = kernel_basis(stacked)
    rows = [row[: data.a_rank] for row in joint.entries]
    return Lattice(data.a_rank, IntMatrix(rows, data.a_rank))


def tau_preimage_equals_u_plus_b(data: LcsData) -> bool:
    """τ̃^{-1}(Im δ̄) = U + B (exact lattice equality)."""
    return tau_preimage(data) == lattice_sum(u_lattice(data.config), b_lattice(data.config))


# -- dual elements ------------------------------------------------------------


@dataclass(frozen=True)
class DualElement:
    """A named functional; ``space`` says which coordinates ``coords`` use.

    space = "wedge2" for Λ²H* (dimension C(n,2)), "hwedge" for
    (H⊗Λ²H)* (dimension n·C(n,2)), "aflags" for A* (dimension
    n·#flags).
    """

    label: str
    tag: str
    space: str
    coords: tuple[int, ...]


def omega_functionals(config: Configuration) -> list[DualElement]:
    """The combinatorial generators of R2perp in Λ²H* coordinates.

    One ω_ijk per triple of lines through a finite triple point and one
    ω_ij per pair of finite lines meeting on the infinity line.
    """
    idx = IncidenceIndex(config)
    wp = wedge_index(idx.n)
    out = []

    def wedge_vec(pairs_with_signs):
        vec = [0] * len(wp)
        for (a, b), s in pairs_with_signs:
            lo, hi = (a, b) if a < b else (b, a)
            vec[wp[(lo, hi)]] += s if a < b else -s
        return tuple(vec)

    for p in idx.p0:
        ls = config.lines_through(p)
        if len(ls) == 3:
            i, j, k = ls
            vec = wedge_vec([((i, j), 1), ((j, k), 1), ((k, i), 1)])
            out.append(DualElement(f"omega({p})", "omega", "wedge2", vec))
    for q in config.points_on(0):
        finite = [i for i in config.lines_through(q) if i != 0]
        for a in range(len(finite)):
            for b in range(a + 1, len(finite)):
                i, j = finite[a], finite[b]
                out.append(DualElement(f"omega({i},{j})", "omega", "wedge2", wedge_vec([((i, j), 1)])))
    return out


def maclane_dual_basis() -> list[DualElement]:
    """Hand-checkable dual bases for the 8-line MacLane configuration.

    Returns the S functionals (one per ordered pair of finite lines
    meeting at infinity, two per finite triple point), the five T
    functionals, and the 18 I/J/K functionals spanning U-perp; the S/T
    family spans R3perp.
    """
    config = maclane_c8()
    idx = IncidenceIndex(config)
    n = idx.n
    wp = wedge_index(n)
    np_ = len(wp)
    raw = _builtin_json("dual_basis_c8.json")
    out: list[DualElement] = []

    def add_wedge(vec, m, a, b, c):
        if a == b:
            return
        lo, hi = (a, b) if a < b else (b, a)
        vec[(m - 1) * np_ + wp[(lo, hi)]] += c if a < b else -c

    for q in config.points_on(0):
        finite = [i for i in config.lines_through(q) if i != 0]
        for i in finite:
            for j in finite:
                if i == j:
                    continue
                vec = [0] * (n * np_)
                add_wedge(vec, i, i, j, 1)
                out.append(DualElement(f"S({i},{j})", "S", "hwedge", tuple(vec)))
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
            out.append(DualElement(f"S({i},{j},{k})", "S", "hwedge", tuple(vec)))
    for t_idx, terms in enumerate(raw["T"]):
        vec = [0] * (n * np_)
        for coef, hform, uform, vform in terms:
            for cu, iu in uform:
                for cv, iv in vform:
                    for ch, ih in hform:
                        add_wedge(vec, ih, iu, iv, coef * ch * cu * cv)
        out.append(DualElement(f"T{t_idx}", "T", "hwedge", tuple(vec)))
    for fam in ("I", "J", "K1", "K2"):
        for p, terms in raw["U_perp"][fam].items():
            vec = [0] * (len(idx.pairs) * n)
            for c, i, j in terms:
                vec[idx.pair_pos[(i, p)] * n + (j - 1)] += c
            out.append(DualElement(f"{fam}({p})", fam, "aflags", tuple(vec)))
    return out


# -- τ̃* pullbacks and their transport under automorphisms --------------------


def rbar_gen_coeffs(data: LcsData, i: int, p: str) -> tuple[int, ...]:
    """Coefficients of r̄(i,p) over the generator flags (min flag = -sum)."""
    out = [0] * len(data.gens)
    gp = data.index.gen_pos
    if (i, p) in gp:
        out[gp[(i, p)]] = 1
        return tuple(out)
    lines_p = data.config.lines_through(p)
    if i not in lines_p or i == 0:
        raise ValueError(f"({i},{p}) is not a finite flag")
    for k in lines_p:
        if (k, p) in gp:
            out[gp[(k, p)]] = -1
    return tuple(out)


def tau_star(data: LcsData, gen_coeffs: Sequence[int], functional: Sequence[int]) -> tuple[int, ...]:
    """Pull an (H⊗Λ²H)* functional back along τ̃ against a fixed R2 class.

    Returns the A* functional a ↦ ⟨functional, τ̃a(class)⟩, evaluated
    through left-normed lifts; well defined on P3 values whenever the
    functional lies in R3perp.
    """
    return tuple(sum(gen_coeffs[g] * c * functional[s] for g, s, c in terms) for terms in data.tau_lift)


def automorphism_from_line_perm(config: Configuration, line_perm: Sequence[int]) -> ConfigAutomorphism:
    """Build the automorphism with the given line permutation, or fail."""
    by_lines = {frozenset(config.lines_through(p)): k for k, p in enumerate(config.points)}
    point_perm = []
    for p in config.points:
        img = frozenset(line_perm[i] for i in config.lines_through(p))
        if img not in by_lines:
            raise ValueError("line permutation does not preserve incidence")
        point_perm.append(by_lines[img])
    return ConfigAutomorphism(config, tuple(line_perm), tuple(point_perm))


def transport_a_functional(data: LcsData, sigma: ConfigAutomorphism, vec: Sequence[int]) -> tuple[int, ...]:
    """Push an A* functional forward along an automorphism fixing line 0."""
    n = data.n
    out = [0] * data.a_rank
    for pos, (i, p) in enumerate(data.index.pairs):
        pos2 = data.index.pair_pos[(sigma.line_perm[i], sigma.point_image(p))]
        for m in range(1, n + 1):
            c = vec[pos * n + (m - 1)]
            if c:
                out[pos2 * n + (sigma.line_perm[m] - 1)] = c
    return tuple(out)


def transport_hw_functional(data: LcsData, sigma: ConfigAutomorphism, vec: Sequence[int]) -> tuple[int, ...]:
    """Push an (H⊗Λ²H)* functional forward along an automorphism."""
    n, np_, wp = data.n, data.npairs, data.wedge_pos
    out = [0] * data.hw_rank
    for m in range(1, n + 1):
        for (a, b), w in wp.items():
            c = vec[(m - 1) * np_ + w]
            if not c:
                continue
            sa, sb = sigma.line_perm[a], sigma.line_perm[b]
            lo, hi = (sa, sb) if sa < sb else (sb, sa)
            out[(sigma.line_perm[m] - 1) * np_ + wp[(lo, hi)]] += c if sa < sb else -c
    return tuple(out)


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
    """Closure of the two order-preserving symmetries used for transport."""
    if data.config != maclane_c8():
        raise ConfigMismatchError("transport group is defined for the MacLane configuration")
    gen1 = automorphism_from_line_perm(data.config, (0, 6, 5, 4, 3, 2, 1, 7))
    gen2 = automorphism_from_line_perm(data.config, (0, 3, 4, 5, 6, 1, 2, 7))
    group = {ConfigAutomorphism.identity(data.config), gen1, gen2}
    while True:
        extra = {a.compose(b) for a in group for b in group} - group
        if not extra:
            return sorted(group, key=lambda s: s.line_perm)
        group |= extra


def tau_star_identities(data: LcsData | None = None) -> TauStarReport:
    """The seven pullback identities pinning U-perp, plus orbit transport.

    Each base identity states that pulling one S/T functional back
    along τ̃ against r̄(1,p) reproduces a transcribed U-perp functional
    exactly; transporting them by the symmetry group must cover the
    U-perp block of every finite point.
    """
    data = data if data is not None else _maclane_data()
    duals = {e.label: e for e in maclane_dual_basis()}

    def combo(*terms):
        vec = [0] * data.hw_rank
        for label, c in terms:
            for s, x in enumerate(duals[label].coords):
                vec[s] += c * x
        return tuple(vec)

    base = (
        ("I(p135)", (1, "p135"), combo(("S(1,3,5)", 1))),
        ("I(p147)", (1, "p147"), combo(("S(1,4,7)", 1))),
        ("J(p16)", (1, "p16"), combo(("T3", 1))),
        ("K1(p135)", (1, "p135"), combo(("T0", 1), ("T3", -1))),
        ("K2(p135)", (1, "p135"), combo(("T3", 1))),
        ("K1(p147)", (1, "p147"), combo(("T0", -1))),
        ("K2(p147)", (1, "p147"), combo(("T3", -1))),
    )
    identities = []
    for label, (i, p), svec in base:
        got = tau_star(data, rbar_gen_coeffs(data, i, p), svec)
        identities.append((label, got == duals[label].coords))

    transported_rows = []
    consistent = True
    for sigma in transport_group(data):
        for label, (i, p), svec in base:
            lhs = tau_star(
                data,
                rbar_gen_coeffs(data, sigma.line_perm[i], sigma.point_image(p)),
                transport_hw_functional(data, sigma, svec),
            )
            if lhs != transport_a_functional(data, sigma, duals[label].coords):
                consistent = False
            transported_rows.append(lhs)
    span = Lattice(data.a_rank, IntMatrix(transported_rows, data.a_rank))
    coverage = []
    for p in data.index.p0:
        labels = [e.label for e in duals.values() if e.space == "aflags" and e.label.endswith(f"({p})")]
        coverage.append((p, all(member(duals[l].coords, span).ok for l in labels)))
    return TauStarReport(tuple(identities), consistent, tuple(coverage))


def check_equivariance(data: LcsData, sigma: ConfigAutomorphism) -> bool:
    """τ̃(σ·a) = σ ∘ τ̃a ∘ σ^{-1}, as an exact identity of matrices."""
    if sigma.line_perm[0] != 0:
        raise ValueError("automorphism must fix the infinity line")
    n = data.n
    rank3 = data.p3.free_rank
    l3rows = []
    for word, expansion in zip(data.lie3.words, data.lie3.expansions):
        permuted = {}
        for u, c in expansion.items():
            key = tuple(sigma.line_perm[x] for x in u)
            permuted[key] = permuted.get(key, 0) + c
        l3rows.append(lie_component_coords(permuted, data.lie3))
    p3sigma = data.p3.section @ IntMatrix(l3rows, data.dim3) @ data.p3.projection
    inv = sigma.inverse()
    rinv = IntMatrix(
        [rbar_gen_coeffs(data, inv.line_perm[k], inv.point_image(p)) for (k, p) in data.gens],
        len(data.gens),
    )
    for pos, (i, p) in enumerate(data.index.pairs):
        pos2 = data.index.pair_pos[(sigma.line_perm[i], sigma.point_image(p))]
        for m in range(1, n + 1):
            lhs = data.tau_matrix.row(pos2 * n + (sigma.line_perm[m] - 1))
            mat = IntMatrix(
                [data.tau_matrix.row(pos * n + (m - 1))[g * rank3 : (g + 1) * rank3] for g in range(len(data.gens))],
                rank3,
            )
            rhs = rinv @ mat @ p3sigma
            if IntMatrix([lhs[g * rank3 : (g + 1) * rank3] for g in range(len(data.gens))], rank3) != rhs:
                return False
    return True


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
    if set(lists) != set(IncidenceIndex(config).p0):
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
def _t_vector() -> tuple[tuple[int, ...], int]:
    raw = _builtin_json("dual_basis_c8.json")["mod3_functional"]
    duals = {e.label: e for e in maclane_dual_basis()}
    first = duals[f"{raw['terms'][0][1]}({raw['terms'][0][2]})"]
    vec = [0] * len(first.coords)
    for c, fam, p in raw["terms"]:
        for s, x in enumerate(duals[f"{fam}({p})"].coords):
            vec[s] += c * x
    return tuple(vec), raw["modulus"]


def t_functional(a: GMap | AbelianGMap) -> int:
    """Mod-3 functional on conjugator data for the MacLane configuration.

    Vanishes on U and on B, so it descends to W = A/(U+B); its value 1
    on the bundled plus/minus difference separates the two presentations.
    """
    a = _as_abelian(a)
    if a.config != maclane_c8():
        raise ConfigMismatchError("the mod-3 functional is defined for the MacLane configuration")
    vec, modulus = _t_vector()
    return dot(vec, a.vector()) % modulus


# -- the isomorphism obstruction ----------------------------------------------


@dataclass(frozen=True)
class KappaReport:
    """κ verdict for one pair of conjugator assignments.

    ``certificate`` (on zero) is the n × rank(P2) matrix of an f with
    δ̄f = τ̃(difference); ``witness`` (on nonzero) is a functional
    separating the τ̃ value from Im δ̄ in flat Hom(R2,P3) coordinates.
    """

    zero: bool
    difference: AbelianGMap
    tau_value: HomR2P3
    certificate: IntMatrix | None
    witness: Witness | None
    t_value: int | None

    def to_json_dict(self) -> dict:
        return {
            "zero": self.zero,
            "difference": {f"({i},{p})": list(v) for (i, p), v in sorted(self.difference.values.items(), key=lambda kv: (kv[0][1], kv[0][0]))},
            "tau_value": list(self.tau_value.flat),
            "certificate": self.certificate.to_lists() if self.certificate is not None else None,
            "witness": None
            if self.witness is None
            else {
                "functional": list(self.witness.functional),
                "modulus": self.witness.modulus,
                "pairing": self.witness.pairing,
            },
            "t_value": self.t_value,
        }


def kappa(data: LcsData, g: GMap | AbelianGMap, gprime: GMap | AbelianGMap) -> KappaReport:
    """Decide whether τ̃(ḡ - ḡ') ∈ Im δ̄, with an exact certificate either way."""
    diff = _as_abelian(g) - _as_abelian(gprime)
    if diff.config != data.config:
        raise ConfigMismatchError("conjugator data belongs to another configuration")
    value = tau_tilde(data, diff)
    res = member(value.flat, data.im_delta)
    certificate = None
    if res.ok:
        r = data.p2.free_rank
        certificate = IntMatrix(
            [res.coefficients[i * r : (i + 1) * r] for i in range(data.n)], r
        )
    t_val = t_functional(diff) if data.config == maclane_c8() else None
    return KappaReport(
        zero=res.ok,
        difference=diff,
        tau_value=value,
        certificate=certificate,
        witness=res.witness,
        t_value=t_val,
    )


# -- glued configurations ------------------------------------------------------


def glued_g_map(g_first: GMap, g_second: GMap) -> GMap:
    """Conjugator data on the glued 13-line configuration.

    The first copy keeps its flags verbatim; the second copy's lines
    3..7 become 8..12 and its points gain a prime; the 25 new double
    points get trivial conjugators.
    """
    c8 = maclane_c8()
    if g_first.config != c8 or g_second.config != c8:
        raise ConfigMismatchError("both halves must live on the MacLane configuration")
    line_map = {i: i + 5 for i in range(3, 8)}
    assignments = dict(g_first.assignments)
    for (i, p), w in g_second.assignments.items():
        assignments[(line_map.get(i, i), "p'" + p[1:])] = w.relabeled(line_map)
    return GMap(glue_c13(), assignments)


def class_of_glued(c13: Configuration, g_first: GMap | AbelianGMap, g_second: GMap | AbelianGMap) -> int:
    """Isomorphism class (0 or 1) of the glued presentation pair.

    The glued group admits an isomorphism to the reference gluing
    (plus, plus) respecting the canonical generators iff the two
    halves' conjugator maps have κ = 0 against each other on the 8-line
    template; the class records that verdict.
    """
    if c13 != glue_c13():
        raise ConfigMismatchError("expected the glued 13-line configuration")
    report = kappa(_maclane_data(), g_first, g_second)
    return 0 if report.zero else 1
