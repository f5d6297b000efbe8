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
  order; L3 has the degree-3 Lyndon basis in ``words.lyndon3_index``
  order: [x_i,[x_j,x_k]] for i ≤ j < k and [[x_i,x_j],x_k] for
  i < k ≤ j, the standard bracketings of the Lyndon words (i, j, k).
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
cached lift ``LcsData.tau_lift`` of each A coordinate and is stored per
point (``LcsData.tau_blocks``), and τ̃* is that lift transposed
(``LcsData.tau_lift_transpose``).  ``tau_tilde`` reads only τ̃'s nonzero
rows, re-keyed once to global columns (``LcsData.tau_support``), and
``tau_matrix``, the whole A × Hom(R2,P3) matrix built from the same rows,
serves the pinned digests and the benchmark.  τ̃'s lift, the δ
lift and Im δ̄ spread a value v at a flag (i,p) over p's generator flags
by one signed pattern (``LcsData._flag_terms``): v = x_i∧x_m, f̂(x_i)
and a section image ŝ_t of P2.  R3perp pulls perp(R3) back along the
bracket.  A lift is a sequence of (generator flag, slot, coefficient)
terms.  An automorphism acts on A and on H⊗Λ²H by one signed
permutation each, read entry by entry (``_line_entries``).  Every matrix
is built from sparse rows, so no layer reads or writes their zeros (on
C13 under 2% of entries are nonzero).

U splits over the finite points like τ̃, and both kernel identities read
it from ``LcsData.u_points``.  U's generators are defined once, point by
point (``_u_generators``).  Once the unit rows (family 0) are dropped, the
other generators at p are the unsigned incidence matrix of a bipartite
graph, which is totally unimodular, so A_p/U_p is free and a spanning
forest of that graph presents it (``_point_quotient``): no U_p is ever
reduced.  The block-diagonal π = ⊕_p π_p: A → A/U is built once
(``LcsData.u_projection``), and so are B and π(B) (``LcsData.b``,
``LcsData.pi_b``); the preimage identity and ``maclane-report``'s ranks
of U and U + B and its U⊥ comparison all read them.

Sign conventions: [a,b] = a^-1 b^-1 a b in the group, [x,y] = xy - yx
on graded pieces, and δf(x∧y) = [x,f̂(y)] - [y,f̂(x)] mod R3 for any
Λ²H-lift f̂ of f.  This is the unique sign for which δ̄ agrees with τ̃
on conjugator data constant in p exactly, not merely up to sign: the
data x_m at every flag of line j and f̂(x_j) = ±x_j∧x_m (+ when j < m,
zero elsewhere) have one lift, the pattern with v = x_j∧x_m.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

from .config import (
    ConfigAutomorphism,
    Configuration,
    _builtin_json,
    _line_maps,
    copy_line,
    glue_c13,
    glue_copies,
    maclane_c8,
    validate,
)
from .exactlin import (
    IntMatrix,
    Lattice,
    QuotientPresentation,
    Witness,
    combine,
    densify,
    dot,
    hnf,
    kernel_basis,
    member,
    perp,
    quotient_presentation,
    vstack,
)
from .words import (
    AbelianGMap,
    GMap,
    Word,
    abelianize,
    conjugated_generators,
    lyndon3_index,
    parse_word,
    rbar_coords,
    wedge_index,
)


class TorsionError(ValueError):
    """A graded quotient has torsion; the dual calculus needs freeness."""


class ConfigMismatchError(ValueError):
    """Arguments built over different (or unexpected) configurations."""


# -- core data ---------------------------------------------------------------


@dataclass(frozen=True)
class PointU:
    """U at one finite point p, as both kernel identities read it.

    ``rows`` and ``cols`` are p's slices of A and of Hom(R2,P3), ``tau``
    is τ̃_p, ``u`` holds U's generator rows at p (in p's A coordinates,
    not reduced), ``u_tau`` = ``u @ tau`` holds their images under τ̃_p,
    ``quotient`` presents A_p/U_p (``_point_quotient``: a spanning forest
    for U's own generators, so no Hermite form of U_p is built), and
    ``s_tau`` = s_p·τ̃_p is τ̃_p on its section.
    """

    rows: slice
    cols: slice
    tau: IntMatrix
    u: IntMatrix
    u_tau: IntMatrix
    quotient: QuotientPresentation
    s_tau: IntMatrix


class LcsData:
    """Degree-2 and degree-3 graded data of one configuration.

    Degree-2 objects are built eagerly.  The degree-3 objects (the
    bracket map, R3, P3, R3perp, the τ̃ lift, τ̃ per point, τ̃'s nonzero
    rows for ``tau_tilde``, U per point with A_p/U_p for both kernel
    identities, π = ⊕_p π_p, the whole τ̃ matrix for the pinned digests
    and the benchmark, Im δ̄) are cached
    properties computed on first use, so purely degree-2 work on large
    configurations stays cheap.  L3's columns and the bracket map are
    written down in closed form (``l3_pos``, ``bracket``); no Lie basis
    is built.
    """

    def __init__(self, config: Configuration):
        report = validate(config)
        if not report.ok:
            raise ValueError("invalid configuration: " + report.violations[0])
        if report.degenerate:
            raise ValueError("degenerate configuration")
        self.config = config
        self.index = config.index
        self.n = self.index.n
        self.wedge_pos = wedge_index(self.n)
        self.npairs = len(self.wedge_pos)
        self.gens = self.index.generator_pairs
        rows = [rbar_coords(config, i, p, self.wedge_pos) for (i, p) in self.gens]
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
    def l3_pos(self) -> dict[tuple[int, int, int], int]:
        """L3 column of each degree-3 Lyndon word (``words.lyndon3_index``)."""
        return lyndon3_index(self.n)

    @property
    def dim3(self) -> int:
        return len(self.l3_pos)

    @cached_property
    def bracket(self) -> IntMatrix:
        """The bracketing map H⊗Λ²H → L3, one row per slot, in closed form.

        Row slot(m, w) holds the Lyndon coordinates of [x_m, [x_a, x_b]],
        where a < b is the pair at wedge position w.  The standard
        factorization of a Lyndon word (i, j, k) splits off its longest
        proper Lyndon suffix, (j, k) when j < k and (k) otherwise, so its
        basis element e(i,j,k) is [x_i,[x_j,x_k]] for i ≤ j < k and
        [[x_i,x_j],x_k] for i < k ≤ j.  Hence

        - m ≤ a: [x_m,[x_a,x_b]] = +e(m,a,b);
        - a < m ≤ b: [x_m,[x_a,x_b]] = -[[x_a,x_b],x_m] = -e(a,b,m);
        - m > b: by the Jacobi identity [x_m,[x_a,x_b]] =
          -[x_a,[x_b,x_m]] - [x_b,[x_m,x_a]] = -[x_a,[x_b,x_m]] + [x_b,[x_a,x_m]],
          and [x_b,[x_a,x_m]] = -[[x_a,x_m],x_b], so it is -e(a,b,m) - e(a,m,b).
        """
        at, rows = self.l3_pos, []
        for m in range(1, self.n + 1):
            for (a, b) in self.wedge_pos:
                if m <= a:
                    rows.append({at[m, a, b]: 1})
                elif m <= b:
                    rows.append({at[a, b, m]: -1})
                else:
                    rows.append({at[a, b, m]: -1, at[a, m, b]: -1})
        return IntMatrix._of(rows, self.dim3)

    @cached_property
    def r3(self) -> Lattice:
        """[H, R2] in L3 Lyndon coordinates (n rows per R2 generator)."""
        np_ = self.npairs
        rows = [
            combine(((m * np_ + w, x) for w, x in r.items()), self.bracket)
            for m in range(self.n)
            for r in self.r2.basis.sparse_rows
        ]
        return Lattice(self.dim3, IntMatrix._of(rows, self.dim3))

    @cached_property
    def p3(self) -> QuotientPresentation:
        pres = quotient_presentation(self.r3)
        if not pres.is_torsion_free:
            raise TorsionError("degree-3 quotient has torsion")
        return pres

    def _r3perp_via_dstar(self) -> Lattice:
        """ker d* restricted to H*⊗R2perp, pushed into (H⊗Λ²H)* coordinates."""
        np_, n, pairs = self.npairs, self.n, list(self.wedge_pos)
        fs = [(m, phi) for m in range(1, n + 1) for phi in self.r2perp.canonical_form.sparse_rows]
        triples = [(i, j, k) for i in range(1, n + 1) for j in range(i + 1, n + 1) for k in range(j + 1, n + 1)]
        at = {t: k for k, t in enumerate(triples)}
        # d*f(i∧j∧k) = f_i(j∧k) - f_j(i∧k) + f_k(i∧j); f = x_m*⊗φ meets only the
        # triples {m, a, b} with φ(a∧b) ≠ 0, with a minus sign when a < m < b
        drows = []
        for m, phi in fs:
            row = {}
            for w, x in phi.items():
                a, b = pairs[w]
                if m not in (a, b):
                    row[at[tuple(sorted((m, a, b)))]] = -x if a < m < b else x
            drows.append(row)
        combos = kernel_basis(IntMatrix._of(drows, len(triples)))
        e_mat = IntMatrix._of([{(m - 1) * np_ + w: x for w, x in phi.items()} for m, phi in fs], self.hw_rank)
        return Lattice(self.hw_rank, combos @ e_mat)

    def _r3perp_via_lie(self) -> Lattice:
        """perp(R3) in L3*, pulled back through the bracketing map: perp(R3)·bracketᵀ."""
        return Lattice(self.hw_rank, perp(self.r3).canonical_form @ self.bracket.transpose())

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
    def _flag_terms(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Per finite flag (i,p), in ``index.pairs`` order: v at (i,p) spread as +x_k⊗v at (k,p), k ≠ i, and -Σ_{j on p, j≠i} x_j⊗v at (i,p), in (generator flag, line j, sign) terms."""
        gp, out = self.index.gen_pos, []
        for (i, p) in self.index.pairs:
            lines_p, terms = self.config.lines_through(p), []
            for k in lines_p:
                if (k, p) in gp:
                    terms += [(gp[k, p], k, 1)] if k != i else [(gp[k, p], j, -1) for j in lines_p if j != i]
            out.append(tuple(terms))
        return tuple(out)

    @cached_property
    def tau_lift(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Sparse left-normed lift of τ̃, one entry per flat A coordinate.

        The entry of the x_m-coordinate at flag (i,p) lists the
        (generator flag, H⊗Λ²H slot, coefficient) terms of the lift of its
        τ̃ value: ``_flag_terms`` of (i,p) with v = x_i∧x_m (none if m = i).
        """
        np_, wp, out = self.npairs, self.wedge_pos, []
        for (i, _), terms in zip(self.index.pairs, self._flag_terms):
            for m in range(1, self.n + 1):
                if m == i:
                    out.append(())
                    continue
                w, sgn = wp[min(i, m), max(i, m)], 1 if i < m else -1
                out.append(tuple((g, (j - 1) * np_ + w, sgn * s) for g, j, s in terms))
        return tuple(out)

    @cached_property
    def tau_lift_transpose(self) -> dict[tuple[int, int], dict[int, int]]:
        """``tau_lift`` transposed for τ̃*: (generator flag, H⊗Λ²H slot) → {A coordinate: coefficient}, keys of lift terms only."""
        out: dict[tuple[int, int], dict[int, int]] = {}
        for a, terms in enumerate(self.tau_lift):
            for g, s, c in terms:
                out.setdefault((g, s), {})[a] = c
        return out

    @cached_property
    def _bracket_p3(self) -> IntMatrix:
        """The bracketing map followed by the P3 projection, H⊗Λ²H → P3."""
        return self.bracket @ self.p3.projection

    def _to_hom(self, lift, gens: range | None = None, images: IntMatrix | None = None) -> dict[int, int]:
        """Sparse flat Hom(R2,P3) coordinates of a sparse lift on the generator flags ``gens`` (default all).

        A term (g, s, c) adds c times row s of ``images`` (default the
        H⊗Λ²H → P3 map ``_bracket_p3``) at generator flag g.
        """
        r, start = self.p3.free_rank, gens.start if gens else 0
        bp = (self._bracket_p3 if images is None else images).sparse_rows
        out: dict[int, int] = {}
        for g, s, c in lift:
            base = (g - start) * r
            for t, x in bp[s].items():
                out[base + t] = out.get(base + t, 0) + c * x
        return {t: x for t, x in out.items() if x}

    @cached_property
    def tau_blocks(self) -> tuple[tuple[slice, slice, IntMatrix], ...]:
        """τ̃ = ⊕_p τ̃_p: (A rows, Hom(R2,P3) columns, τ̃_p) for each finite point p, in ``index.p0`` order."""
        n, r, out, flag, gen = self.n, self.p3.free_rank, [], 0, 0
        for p in self.index.p0:
            k = self.config.multiplicity(p)
            rows, gens = slice(flag * n, (flag + k) * n), range(gen, gen + k - 1)
            block = IntMatrix._of([self._to_hom(lift, gens) for lift in self.tau_lift[rows]], len(gens) * r)
            out.append((rows, slice(gen * r, gens.stop * r), block))
            flag, gen = flag + k, gen + k - 1
        return tuple(out)

    @cached_property
    def u_points(self) -> tuple[PointU, ...]:
        """U at each finite point, in ``index.p0`` order, shared by both kernel identities.

        U_p is never reduced: ``_point_quotient`` presents A_p/U_p from U's
        generator rows at p (``_u_generators``) by a spanning forest, and
        ``u_tau`` and ``s_tau`` are computed here once for both identities.
        """
        out = []
        for (_, gen_rows), (rows, cols, block) in zip(_u_generators(self.config), self.tau_blocks, strict=True):
            gens = IntMatrix._of(gen_rows, rows.stop - rows.start)
            quotient = _point_quotient(gens)
            out.append(PointU(rows, cols, block, gens, gens @ block, quotient, quotient.section @ block))
        return tuple(out)

    @cached_property
    def u_projection(self) -> IntMatrix:
        """π = ⊕_p π_p: A → A/U = ⊕_p A_p/U_p, block diagonal (A × Σ f_p), read from ``u_points``.

        Each π_p's columns are a ZZ-basis of U_p⊥ (``QuotientPresentation``),
        so π's columns are a ZZ-basis of U⊥ and rank U = ``a_rank`` - π.cols.
        """
        rows, start = [], 0
        for pt in self.u_points:
            rows += ({start + t: x for t, x in row.items()} for row in pt.quotient.projection.sparse_rows)
            start += pt.quotient.free_rank
        return IntMatrix._of(rows, start)

    @cached_property
    def b(self) -> Lattice:
        """B (``b_lattice``), built once for the preimage identity and ``maclane-report``."""
        return b_lattice(self.config)

    @cached_property
    def pi_b(self) -> Lattice:
        """π(B) ⊆ A/U (``u_projection``), reduced at most once: rank(U + B) = rank U + rank π(B)."""
        pi = self.u_projection
        return Lattice(pi.cols, self.b.basis @ pi)

    @cached_property
    def tau_support(self) -> tuple[tuple[int, dict[int, int]], ...]:
        """τ̃'s nonzero rows as (A coordinate, {Hom(R2,P3) column: coefficient}), in flat A order, read once from ``tau_blocks``."""
        return tuple(
            (rows.start + a, {cols.start + t: x for t, x in row.items()})
            for rows, cols, block in self.tau_blocks
            for a, row in enumerate(block.sparse_rows)
            if row
        )

    @cached_property
    def tau_matrix(self) -> IntMatrix:
        """Matrix of τ̃: A → Hom(R2,P3), rows in flat A order: the rows of ``tau_support``, zero elsewhere."""
        rows: list[dict[int, int]] = [{} for _ in range(self.a_rank)]
        for a, row in self.tau_support:
            rows[a] = row
        return IntMatrix._of(rows, len(self.gens) * self.p3.free_rank)

    def _delta_lift(self, fhat: IntMatrix) -> list[tuple[int, int, int]]:
        """Sparse left-normed lift of δ̄(fhat), ``_flag_terms`` with v = f̂(x_i) at each (i,p): Σ_{j on p, j≠k} x_k⊗f̂(x_j) - x_j⊗f̂(x_k) at (k,p)."""
        np_, nonzero = self.npairs, [list(row.items()) for row in fhat.sparse_rows]
        flags = zip(self.index.pairs, self._flag_terms)
        return [(g, (j - 1) * np_ + w, s * c) for (i, _), terms in flags for g, j, s in terms for w, c in nonzero[i - 1]]

    @cached_property
    def im_delta(self) -> Lattice:
        """Image of δ̄; basis row (i, t) is δ̄ of the unit map x_i ↦ e_t (H → P2), rows ordered by (line i, t).

        Built from one linear map per line: Y_m = ``p2.section`` followed by
        line m's block of ``_bracket_p3`` sends e_t to the P3 value of
        x_m⊗ŝ_t.  Row (i, t) sums ``_flag_terms`` with v = ŝ_t over the
        flags of line i, reading each x_m⊗ŝ_t as Y_m[t]: the δ-lift of that
        unit map (``_delta_lift``).  ``delta_bar`` keeps the lift route, an
        independent check.
        """
        n, np_, f2, r = self.n, self.npairs, self.p2.free_rank, self.p3.free_rank
        bp = self._bracket_p3.sparse_rows
        # row (m-1)·f2 + t is Y_m[t]
        ys = vstack(*(self.p2.section @ IntMatrix._of(bp[m * np_ : (m + 1) * np_], r) for m in range(n)))
        on_line = [[] for _ in range(n + 1)]  # ``_flag_terms`` of each line's flags
        for (i, _), terms in zip(self.index.pairs, self._flag_terms):
            on_line[i] += terms
        rows = [self._to_hom([(g, (m - 1) * f2 + t, s) for g, m, s in on_line[i]], images=ys) for i in range(1, n + 1) for t in range(f2)]
        width = len(self.gens) * r
        return Lattice(width, IntMatrix._of(rows, width))


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

    def _entrywise(self, op, other: "HomR2P3") -> "HomR2P3":
        if self.gens != other.gens:
            raise ConfigMismatchError("values on different generator sets")
        return HomR2P3(self.gens, self.free_rank, tuple(map(op, self.flat, other.flat)))

    def __add__(self, other: "HomR2P3") -> "HomR2P3":
        return self._entrywise(operator.add, other)

    def __sub__(self, other: "HomR2P3") -> "HomR2P3":
        return self._entrywise(operator.sub, other)


def _as_abelian(g: GMap | AbelianGMap) -> AbelianGMap:
    return abelianize(g) if isinstance(g, GMap) else g


def tau_tilde(data: LcsData, a: GMap | AbelianGMap) -> HomR2P3:
    """τ̃a(r̄(i,p)) = [[x_i,a(i,p)], s_p] + [x_i, Σ_j [x_j,a(j,p)]] + R3.

    One accumulation over τ̃'s nonzero rows (``LcsData.tau_support``): only
    the A coordinates with a nonzero row are read (216 of 1104 on C13, 648
    of 28 032 on ``glue_copies(6)``), and κ never builds ``tau_matrix``.
    """
    a = _as_abelian(a)
    if a.config != data.config:
        raise ConfigMismatchError("conjugator data belongs to another configuration")
    vec, flat = a.vector(), [0] * (len(data.gens) * data.p3.free_rank)
    for k, row in data.tau_support:
        x = vec[k]
        if x:
            for j, y in row.items():
                flat[j] += x * y
    return HomR2P3(data.gens, data.p3.free_rank, tuple(flat))


def delta_bar(data: LcsData, f: IntMatrix) -> HomR2P3:
    """δ̄f for f: H → P2 given as an n × rank(P2) coordinate matrix."""
    if f.shape != (data.n, data.p2.free_rank):
        raise ValueError("f must be n x rank(P2)")
    return delta_bar_from_lift(data, f @ data.p2.section)


def delta_bar_from_lift(data: LcsData, fhat: IntMatrix) -> HomR2P3:
    """δ̄ from an explicit Λ²H-lift matrix; independent of the lift mod R2."""
    if fhat.shape != (data.n, data.npairs):
        raise ValueError("lift must be n x dim(L2)")
    width = len(data.gens) * data.p3.free_rank
    return HomR2P3(data.gens, data.p3.free_rank, densify(data._to_hom(data._delta_lift(fhat)), width))


# -- the kernel lattices U and B ---------------------------------------------


def _u_generators(config: Configuration):
    """U's generator rows, (p, rows) for each finite point p in ``index.p0`` order.

    Rows are sparse ``{coordinate: entry}`` in p's A coordinates: x_m at
    p's f-th flag (line order) is f*n + (m-1).  With k lines on p, family
    0 is the first k rows, x_i at the single flag (i,p); family 1 the next
    n, x_i at every flag of p; family 2 the rest, Σ_{j: q on l_j} x_j at
    the single flag (i,p), for every finite point q on l_i (q = p allowed).
    Every entry is 1, and off the family-0 coordinates each A coordinate
    lies in one family-1 row and in at most one family-2 row (two lines
    meet once): the bipartite shape that ``_point_quotient`` presents by a
    spanning forest.
    """
    n, p0set = config.index.n, set(config.index.p0)
    stars = {i: [config.lines_through(q) for q in config.points_on(i) if q in p0set] for i in range(1, n + 1)}
    for p in config.index.p0:
        lines_p = config.lines_through(p)
        rows = [{f * n + i - 1: 1} for f, i in enumerate(lines_p)]
        rows += [{f * n + i - 1: 1 for f in range(len(lines_p))} for i in range(1, n + 1)]
        rows += [{f * n + j - 1: 1 for j in star} for f, i in enumerate(lines_p) for star in stars[i]]
        yield p, rows


def _point_quotient(gens: IntMatrix) -> QuotientPresentation:
    """Present A_p/U_p, U_p spanned by the rows ``gens``, from a spanning forest; rows of other shapes are reduced.

    Drop the coordinates of the unit rows (one entry, 1: family 0).  Say
    every other row has all entries 1, each kept coordinate lies in at
    most two of them, and the rows 2-colour (rows that share a kept
    coordinate differ: family 1 against family 2).  On the kept
    coordinates E those rows are then the incidence matrix M of a
    bipartite graph: a vertex per row, an edge per coordinate in two
    rows, and an edge to a ground vertex per coordinate in one row.

    - A_p/U_p = ZZ^E/(rows of M), as the unit rows kill the dropped
      coordinates.  M is totally unimodular (at most two 1s per column,
      in rows of different colours; Schrijver, *Theory of Linear and
      Integer Programming*, 1986, ch. 19), so every elementary divisor of
      M is 1: the quotient is free and U_p is saturated.
    - φ ∈ (ZZ^E)* kills the rows iff its values on the edges at each row
      vertex sum to 0.  Take a spanning forest, rooted at the ground in
      the ground's component.  For a non-tree edge e, the cycle C_e is 1
      on e and -1, +1, -1, ... along the forest path from each end of e
      up to where the two paths meet.  It sums to 0 at each row vertex
      passed, and where the paths meet unless that is the ground, since
      there the two paths have lengths of different parity (the rows
      2-colour).  So C_e kills the rows; it is 1 on e and 0 on every other
      non-tree edge.
    - If φ kills the rows, so does ψ = φ - Σ_e φ(e)·C_e, which is 0 off
      the forest.  A leaf that is not a root is a row vertex on one
      forest edge, so ψ is 0 on that edge; peeling leaves gives ψ = 0.
      Hence the C_e, with e*_c for each kept c in no row, are a ZZ-basis
      of U_p^⊥.

    They are the rows of π_p, and s_p is the unit vectors at their own
    coordinates, so π_p·s_p = I.  U_p is saturated, so U_p = ker π_p and
    every elementary divisor is 1.  Rows of any other shape, where
    torsion is possible, take ``quotient_presentation``.
    """
    dim, rows = gens.cols, gens.sparse_rows
    dropped = {c for row in rows if len(row) == 1 and 1 in row.values() for c in row}
    rest = [row for row in rows if len(row) > 1 or 1 not in row.values()]
    on = {c: [] for c in range(dim) if c not in dropped}  # the rows of ``rest`` through each kept coordinate
    for r, row in enumerate(rest):
        for c, x in row.items():
            if x != 1:
                return quotient_presentation(Lattice(dim, gens))
            if c in on:
                on[c].append(r)
    ground = len(rest)
    ends, adj, solo = {}, [[] for _ in range(ground)], {}  # solo: each row's first edge to the ground
    for c, rs in on.items():
        if len(rs) > 2:
            return quotient_presentation(Lattice(dim, gens))
        if len(rs) == 2:
            u, v = ends[c] = rs
            adj[u].append((v, c))
            adj[v].append((u, c))
        elif rs:
            ends[c] = (rs[0], ground)
            solo.setdefault(rs[0], c)
    # one search per component of the rows, from a row on a ground edge if it has
    # one (that edge joins the component to the ground), 2-colouring as it goes
    parent, depth, colour = {}, {ground: 0}, {}
    for root in (*solo, *range(ground)):
        if root in depth:
            continue
        if root in solo:
            parent[root], depth[root] = (ground, solo[root]), 1
        else:
            depth[root] = 0
        colour[root], queue = 0, [root]
        for u in queue:
            for v, c in adj[u]:
                if v not in depth:
                    depth[v], parent[v], colour[v] = depth[u] + 1, (u, c), 1 - colour[u]
                    queue.append(v)
                elif colour[v] == colour[u]:
                    return quotient_presentation(Lattice(dim, gens))
    tree = {c for _, c in parent.values()}
    functionals = []
    for c, rs in on.items():
        if not rs:
            functionals.append({c: 1})
        elif c not in tree:
            (a, b), sa, sb, cycle = ends[c], -1, -1, {c: 1}
            while a != b:
                if depth[a] < depth[b]:
                    a, b, sa, sb = b, a, sb, sa
                a, e = parent[a]
                cycle[e], sa = sa, -sa
            functionals.append(cycle)
    f = len(functionals)
    section = IntMatrix._of([{next(iter(phi)): 1} for phi in functionals], dim)
    return QuotientPresentation(dim, (1,) * (dim - f), f, IntMatrix._of(functionals, dim).transpose(), section)


def u_lattice(config: Configuration) -> Lattice:
    """Span of the three generator families known to lie in ker τ̃ (see ``_u_generators``).

    Rows sit at their point's A offset, family-major.  No CLI path reads
    this global lattice: both kernel identities and ``maclane-report`` read
    U per point (``LcsData.u_points``, ``LcsData.u_projection``).  It serves
    perfbench, ``tools/replay.py`` and the tests.  U = ker τ̃ is checked
    (``tau_kernel_equals_u``) on c8 and C13 only; on other configurations
    U may be smaller.  On the 9-line test fixture it is, at point p578, and
    on Hesse (the 12 lines of AG(2,3)) at each of its 6 finite quadruple
    points.
    """
    n, start, families = config.index.n, 0, ([], [], [])
    for p, rows in _u_generators(config):
        k = config.multiplicity(p)
        for family, part in zip(families, (rows[:k], rows[k : k + n], rows[k + n :])):
            family += ({start + c: x for c, x in row.items()} for row in part)
        start += k * n
    return Lattice(start, IntMatrix._of(families[0] + families[1] + families[2], start))


def b_lattice(config: Configuration) -> Lattice:
    """Span of the conjugator data constant in p: a(j,q) = x_i for all q, rows ordered by (j, i)."""
    idx = config.index
    n = idx.n
    flags = {j: [] for j in range(1, n + 1)}  # each line's finite flags, in ``index.p0`` order
    for pos, (j, _) in enumerate(idx.pairs):
        flags[j].append(pos)
    dim = len(idx.pairs) * n
    rows = [{pos * n + (i - 1): 1 for pos in flags[j]} for j in range(1, n + 1) for i in range(1, n + 1)]
    return Lattice(dim, IntMatrix._of(rows, dim))


def tau_kernel(data: LcsData) -> Lattice:
    return Lattice(data.a_rank, kernel_basis(data.tau_matrix))


def tau_kernel_equals_u(data: LcsData) -> bool:
    """ker τ̃ = U, decided point by point from the quotients A_p/U_p of ``LcsData.u_points``.

    Both lattices are direct sums over the finite points p, so the
    equality holds iff ker τ̃_p = U_p at every p, and that holds iff
    τ̃_p kills U_p, A_p/U_p is torsion-free, and τ̃_p∘s_p has rank f_p,
    where π_p: A_p → ZZ^f_p and its section s_p present A_p/U_p.

    Proof: the target of τ̃_p is free, so ker τ̃_p is saturated, and a U_p
    with torsion in A_p/U_p differs from it (only rows outside
    ``_point_quotient``'s forest shape can have torsion).  Otherwise U_p = ker π_p,
    and π_p(a - s_p π_p(a)) = 0 puts a - s_p π_p(a) in U_p for every a.
    If τ̃_p kills U_p, then τ̃_p(a) = τ̃_p(s_p π_p(a)), so
    ker τ̃_p = π_p⁻¹(ker τ̃_p∘s_p); it equals U_p = π_p⁻¹(0) iff τ̃_p∘s_p
    is injective on ZZ^f_p, i.e. has rank f_p.
    """
    return all(
        not any(pt.u_tau.sparse_rows)
        and pt.quotient.is_torsion_free
        and hnf(pt.s_tau).rows == pt.quotient.free_rank
        for pt in data.u_points
    )


def tau_preimage(data: LcsData) -> Lattice:
    """{a : τ̃a ∈ Im δ̄}, via the joint kernel of [τ̃ | δ̄] projected to A."""
    joint = kernel_basis(vstack(data.tau_matrix, data.im_delta.basis))
    return Lattice(data.a_rank, joint.columns(0, data.a_rank))


def tau_preimage_equals_u_plus_b(data: LcsData) -> bool:
    """τ̃⁻¹(Im δ̄) = U + B, decided in A/U = ⊕ A_p/U_p (rank 36 on C13), whether or not ker τ̃ = U.

    Let π: A → A/U be ``LcsData.u_projection``, with section s read from
    ``LcsData.u_points``.  Once τ̃(U) ⊆ Im δ̄, a lies in the preimage iff
    s(π(a)) does, so the equality holds iff π(preimage), the left kernel
    of [τ̃∘s; Im δ̄] cut to its first block, equals π(B).  Im δ̄ enters
    that kernel by the echelon rows κ reads (``Lattice.echelon``): only
    its span matters there.  Raises TorsionError if A/U has torsion,
    where no such section exists; U's own generators never give torsion
    (``_point_quotient``'s forest proves each A_p/U_p free), so only rows
    of another shape reach it.
    """
    width, points = len(data.gens) * data.p3.free_rank, data.u_points

    def spread(start, m):
        """The rows of ``m`` with every column shifted by ``start``."""
        return [{start + t: x for t, x in row.items()} for row in m.sparse_rows]
    images = [v for pt in points for v in spread(pt.cols.start, pt.u_tau)]
    if not all(member(densify(v, width), data.im_delta) for v in images if v):
        return False
    if not all(pt.quotient.is_torsion_free for pt in points):
        raise TorsionError("A/U has torsion")
    tau_s = [v for pt in points for v in spread(pt.cols.start, pt.s_tau)]
    joint = kernel_basis(vstack(IntMatrix._of(tau_s, width), data.im_delta.echelon()[0]))
    f = data.u_projection.cols
    return Lattice(f, joint.columns(0, f)) == data.pi_b


# -- dual elements ------------------------------------------------------------


@dataclass(frozen=True)
class DualElement:
    """A named functional; ``space`` says which coordinates ``coords`` use.

    space = "hwedge" for (H⊗Λ²H)* (dimension n·C(n,2)), "aflags" for
    A* (dimension n·#flags).
    """

    label: str
    tag: str
    space: str
    coords: tuple[int, ...]


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
    return tuple(out)


def _dual_combination(terms: Sequence[tuple[str, int]]) -> tuple[int, ...]:
    """Σ c·coords over (label, c) in ``terms``, each label naming a ``maclane_dual_basis`` element of one space."""
    duals = {e.label: e for e in maclane_dual_basis()}
    return tuple(map(sum, zip(*([c * x for x in duals[label].coords] for label, c in terms))))


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

    Returns the A* functional a ↦ ⟨functional, τ̃a(class)⟩, well defined on
    P3 values whenever the functional lies in R3perp, as Σ_g class_g·φ·Λ_gᵀ
    over the transposed lift (``LcsData.tau_lift_transpose``) where φ ≠ 0.
    """
    if len(gen_coeffs) != len(data.gens) or len(functional) != data.hw_rank:
        raise ValueError(f"tau_star takes {len(data.gens)} class coefficients and a functional of length {data.hw_rank}")
    gens, lift, out = [(g, x) for g, x in enumerate(gen_coeffs) if x], data.tau_lift_transpose, [0] * data.a_rank
    for s, phi in enumerate(functional):
        for g, x in gens if phi else ():
            for a, c in lift.get((g, s), {}).items():
                out[a] += x * phi * c
    return tuple(out)


def _line_entries(data: LcsData, sigma: ConfigAutomorphism):
    """σ acting on row vectors of A and of H⊗Λ²H, entry by entry: two maps, coordinate ↦ (image coordinate, sign).

    x_m at flag (i,p) goes to x_σm at (σi,σp), and x_m⊗(x_a∧x_b) to
    ±x_σm⊗(x_σa∧x_σb).
    """
    if sigma.config != data.config:
        raise ConfigMismatchError("automorphism of another configuration")
    if sigma.line_perm[0] != 0:
        raise ValueError("automorphism must fix the infinity line")
    s, n, np_, wp = sigma.line_perm, data.n, data.npairs, data.wedge_pos
    flags = [data.index.pair_pos[(s[i], sigma.point_image(p))] for i, p in data.index.pairs]
    wedges = [(wp[min(s[a], s[b]), max(s[a], s[b])], 1 if s[a] < s[b] else -1) for a, b in wp]

    def on_hw(k):
        m, (t, sign) = k // np_, wedges[k % np_]
        return (s[m + 1] - 1) * np_ + t, sign
    return lambda k: (flags[k // n] * n + s[k % n + 1] - 1, 1), on_hw


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
    functionals = [{k: x for k, x in enumerate(svec) if x} for *_, svec in base]
    targets = [{k: x for k, x in enumerate(duals[label].coords) if x} for label, *_ in base]

    def act_on(rows, act):  # σ on sparse rows, read through ``act`` at their nonzero entries
        return [{t: sign * x for k, x in row.items() for t, sign in [act(k)]} for row in rows]
    identities, transported_rows, consistent = [], [], True
    for sigma in transport_group(data):
        on_a, on_hw = _line_entries(data, sigma)
        for (label, (i, p), _), moved, target in zip(base, act_on(functionals, on_hw), act_on(targets, on_a)):
            lhs = tau_star(data, rbar_gen_coeffs(data, sigma.line_perm[i], sigma.point_image(p)), densify(moved, data.hw_rank))
            ok = lhs == densify(target, data.a_rank)
            if sigma.is_identity():  # the base identities themselves
                identities.append((label, ok))
            consistent &= ok
            transported_rows.append(lhs)
    span = Lattice(data.a_rank, IntMatrix(transported_rows, data.a_rank))
    uperp = [e for e in duals.values() if e.space == "aflags"]
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
def _t_vector() -> tuple[tuple[int, ...], int]:
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


def glued_g_map(*maps: GMap) -> GMap:
    """Conjugator data on ``glue_copies(k)`` from one MacLane g-map per copy, trivial where copies cross.

    Copy c's flag (i, p) and its word move by the line map ``copy_line(c, ·)``,
    and p goes to the point on the images of its lines.
    """
    c8 = maclane_c8()
    if any(g.config != c8 for g in maps):
        raise ConfigMismatchError("every copy must live on the MacLane configuration")
    glued, assignments = glue_copies(len(maps)), {}
    for c, g in enumerate(maps):
        line_map = {i: copy_line(c, i) for i in range(len(c8.lines))}
        for (i, p), w in g.assignments.items():
            point = glued.point_of(frozenset(line_map[j] for j in c8.lines_through(p)))
            assignments[(line_map[i], point)] = w.relabeled(line_map)
    return GMap(glued, assignments)


def class_of_glued(c13: Configuration, g_first: GMap | AbelianGMap, g_second: GMap | AbelianGMap) -> int:
    """Isomorphism class (0 or 1) of the glued presentation pair.

    The class is κ of the two halves' conjugator maps against each other
    on the 8-line template (0 when κ = 0), not κ computed on C13 itself:
    ``c13`` is only checked to be the glued configuration, and the
    verdict is proved on the 8-line proxy.
    """
    if c13 != glue_c13():
        raise ConfigMismatchError("expected the glued 13-line configuration")
    report = kappa(_maclane_data(), g_first, g_second)
    return 0 if report.zero else 1
