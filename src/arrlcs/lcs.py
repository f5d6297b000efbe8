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
then the P3 projection (``LcsData._bracket_p3``).  R3 brackets H against
the R2 rows.  τ̃, δ̄ and Im δ̄ lift by one rule (``LcsData._lift``): a
Λ²H value v at a flag (i,p) spread over p's generator flags by one
signed pattern (``LcsData._flag_terms``), v = x_i∧x_m, f̂(x_i), or a
section row ŝ_t of P2 over line i's flags, into (generator flag, slot,
coefficient) terms that ``_to_hom`` sends through ``_bracket_p3``.  τ̃ is
one sparse A × Hom(R2,P3) matrix (``LcsData.tau_matrix``); only rows
whose lift meets a nonzero row of ``_bracket_p3`` (a live slot) are
sent, the others are zero and share one empty dict.  The transposed lift
Λᵀ (``LcsData.tau_lift_transpose``) is read only by τ̃* (module
``maclane``).  Each finite point's τ̃_p is its slice of the matrix's
rows, sharing their dicts (``LcsData.u_points``); ``tau_tilde`` reads
the nonzero rows re-keyed to the columns τ̃'s image uses
(``LcsData.tau_support``: 120 of 2 040 on C13), sums into a list of that
length and maps back once.  R3perp is ker d* ∩ H*⊗R2perp, checked
against the columns of ``_bracket_p3``.  Every matrix is built from
sparse rows, so no layer reads or writes their zeros (on C13 under 2%
of entries are nonzero).

U splits over the finite points like τ̃, and both kernel identities
(module ``kernels``, with U's and B's generators) read it from
``LcsData.u_points``.  U's generators are defined once, point by point
(``_u_generators``).  Once the unit rows (family 0) are dropped, the
other generators at p are the unsigned incidence matrix of a bipartite
graph, which is totally unimodular, so A_p/U_p is free and a spanning
forest of that graph, searched on flat lists, presents it
(``_point_quotient``): no U_p is ever reduced.  τ̃_p's products are taken
at its nonzero rows only, so the points whose τ̃_p is zero (25 of 41 on
C13) take none.  The block-diagonal π = ⊕_p π_p: A → A/U is built once
(``LcsData.u_projection``, its zero rows one shared dict), and so are B
and π(B) (``LcsData.b``, ``LcsData.pi_b``, reduced from B·π's distinct
rows up to sign); the preimage identity and ``maclane-report``'s ranks
of U and U + B and its U⊥ comparison all read them.

Im δ̄ is built as a flat basis and never reduced whole.  Every vector κ
and the preimage identity test against it is τ̃ of something, so it lies
on τ̃'s image columns C, and an element of Im δ̄ on C has coefficient 0 on
each basis row that is the only remaining one with an entry at a column
outside C, peeled in a cascade.  Both read only the rows left
(``LcsData.im_delta_core``, a ``SupportCore``: 40 of C13's 180 rows, on
120 of its 2 040 columns), and a κ witness found there is extended along
the peel so that it vanishes on all of Im δ̄ (``_extend_witness``).

Sign conventions: [a,b] = a^-1 b^-1 a b in the group, [x,y] = xy - yx
on graded pieces, and δf(x∧y) = [x,f̂(y)] - [y,f̂(x)] mod R3 for any
Λ²H-lift f̂ of f.  This is the unique sign for which δ̄ agrees with τ̃
on conjugator data constant in p exactly, not merely up to sign: the
data x_m at every flag of line j and f̂(x_j) = ±x_j∧x_m (+ when j < m,
zero elsewhere) have one lift, the pattern with v = x_j∧x_m.

The MacLane-only layer (dual functionals, τ̃* pullbacks and their
transport, the bundled conjugator data and the mod-3 functional t) is
module ``maclane``, which never imports this one.  This module binds
four of its names: ``t_functional`` for κ's ``t_value`` on c8, and
``builtin_g_map``, ``generator_lists_consistent`` and
``tau_star_identities``, which perfbench reads from here.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

from .config import (
    ConfigMismatchError,
    Configuration,
    copy_line,
    glue_c13,
    glue_copies,
    maclane_c8,
    validate,
)
from .exactlin import (
    IntMatrix,
    Lattice,
    MembershipResult,
    QuotientPresentation,
    Witness,
    _peel_owned_rows,
    combine,
    densify,
    kernel_basis,
    member,
    perp,
    quotient_presentation,
    used_columns,
)
from . import kernels
from .kernels import (  # the U and B layer, importable from here too
    TorsionError,
    _point_quotient,
    _u_generators,
    b_lattice,
    tau_kernel,
    tau_kernel_equals_u,
    tau_preimage,
    tau_preimage_equals_u_plus_b,
    u_lattice,
)
from .maclane import (  # t for κ on c8; the other three perfbench reads from here
    builtin_g_map,
    generator_lists_consistent,
    t_functional,
    tau_star_identities,
)
from .words import (
    AbelianGMap,
    GMap,
    _as_abelian,
    lyndon3_index,
    rbar_coords,
    wedge_index,
    wedge_slot,
)


# -- core data ---------------------------------------------------------------


@dataclass(frozen=True)
class PointU:
    """U at one finite point p, as both kernel identities read it.

    ``rows`` is p's slice of A, ``tau`` is τ̃_p, those rows of
    ``LcsData.tau_matrix`` (the same dicts, in Hom(R2,P3)'s columns), ``u``
    holds U's generator rows at p (in p's A coordinates, not reduced),
    ``u_tau`` = ``u @ tau`` holds their images under τ̃_p (rows that meet
    no nonzero row of τ̃_p share one empty dict),
    ``quotient`` presents A_p/U_p (``_point_quotient``: a spanning forest
    for U's own generators, so no Hermite form of U_p is built), and
    ``s_tau`` = s_p·τ̃_p is τ̃_p on its section.
    """

    rows: slice
    tau: IntMatrix
    u: IntMatrix
    u_tau: IntMatrix
    quotient: QuotientPresentation
    s_tau: IntMatrix


class LcsData:
    """Degree-2 and degree-3 graded data of one configuration.

    Degree-2 objects are built eagerly.  The degree-3 objects (the
    bracket map, R3, P3, R3perp, τ̃*'s transposed lift, the τ̃ matrix and its
    nonzero rows for ``tau_tilde``, U per point with τ̃_p and A_p/U_p for
    both kernel identities, π = ⊕_p π_p, Im δ̄ and its core) are cached
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
        self.p2 = quotient_presentation(self.r2)
        if len(self.p2.elementary_divisors) != len(self.gens):  # rank R2, as many divisors as it has
            raise ValueError("degree-2 relator classes are not independent")
        if not self.p2.is_torsion_free:
            raise TorsionError("degree-2 quotient has torsion")

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
        """[H, R2] in L3 Lyndon coordinates (n rows per R2 generator).

        Row (m, r) is Σ_w r_w·(``bracket`` row slot(m, w)), one dict
        comprehension with no sums to collect: bracket row slot(m, (a, b))
        lies on the Lyndon words of the multiset {m, a, b}, and for a
        fixed m distinct wedges {a, b} give distinct multisets, so the
        scaled rows never share a column.
        """
        np_, bracket = self.npairs, self.bracket.sparse_rows
        rows = [
            {j: x * y for w, x in r.items() for j, y in bracket[m * np_ + w].items()}
            for m in range(self.n)
            for r in self.r2.basis.sparse_rows
        ]
        return Lattice(self.dim3, IntMatrix._of(rows, self.dim3))

    @cached_property
    def p3(self) -> QuotientPresentation:
        """P3 = L3/R3; raises ``TorsionError`` if it has torsion.

        ``quotient_presentation`` peels R3's unit rows first, so only the
        residual L′ is reduced: 91 × 112 leaves 77 × 98 on c8, 612 × 572
        leaves 154 × 194 on C13 (147 × 187 relabeled at seed 41), and
        ``glue_copies(6)`` and ``(12)`` leave 462 × 578 of 14 496 × 10 912
        and 924 × 1 154 of 111 972 × 79 422.  R3's rank is
        ``len(p3.elementary_divisors)``; nothing reduces R3 whole.
        """
        pres = quotient_presentation(self.r3)
        if not pres.is_torsion_free:
            raise TorsionError("degree-3 quotient has torsion")
        return pres

    def _r3perp_via_dstar(self) -> Lattice:
        """ker d* restricted to H*⊗R2perp, pushed into (H⊗Λ²H)* coordinates."""
        np_, n, pairs = self.npairs, self.n, list(self.wedge_pos)
        fs = [(m, phi) for m in range(1, n + 1) for phi in perp(self.r2).canonical_form.sparse_rows]
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
        """perp(R3) pulled back through the bracketing map: ``_bracket_p3``ᵀ, as P3's projection is Kᵀ for K = perp(R3)'s canonical form, so (bracket·Kᵀ)ᵀ = K·bracketᵀ."""
        return Lattice(self.hw_rank, self._bracket_p3.transpose())

    @cached_property
    def r3perp(self) -> Lattice:
        """Functionals on H⊗Λ²H vanishing on every left-normed lift of R3.

        Computed as ker d* ∩ H*⊗R2perp and cross-checked against perp(R3) ∘
        bracketing, the columns of the P3 map ``_bracket_p3`` τ̃ and Im δ̄
        read; the exact sequence Λ³H → H⊗L2 → L3 → 0 makes them agree over ZZ.
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

    def _lift(self, terms, v) -> list[tuple[int, int, int]]:
        """The lift of a Λ²H value v, (wedge position w, coefficient c) pairs, over ``terms``, the ``_flag_terms`` of one flag or of every flag on one line: (g, (j-1)·C(n,2) + w, s·c) per term (g, j, s).

        τ̃'s rows lift v = x_i∧x_m, ``_delta_lift`` f̂(x_i) at each flag, and Im δ̄'s row (i, t) ŝ_t over line i's flags.
        """
        np_ = self.npairs
        return [(g, (j - 1) * np_ + w, s * c) for w, c in v for g, j, s in terms]

    @cached_property
    def tau_lift_transpose(self) -> dict[int, dict[int, int]]:
        """Λᵀ, τ̃*'s lift: the lift of every A coordinate (``_lift`` of x_i∧x_m; none for x_i at (i,p)) transposed, its nonzero rows only (1 542 of C13's gens·``hw_rank`` = 40 392), g·``hw_rank`` + s → {A coordinate: coefficient} for generator flag g and H⊗Λ²H slot s."""
        hw, out = self.hw_rank, {}
        for f, ((i, _), terms) in enumerate(zip(self.index.pairs, self._flag_terms)):
            for m in range(1, self.n + 1):
                for g, s, c in self._lift(terms, [wedge_slot(self.wedge_pos, i, m)]) if m != i else ():
                    out.setdefault(g * hw + s, {})[f * self.n + m - 1] = c
        return out

    @cached_property
    def _bracket_p3(self) -> IntMatrix:
        """The bracketing map followed by the P3 projection, H⊗Λ²H → P3."""
        return self.bracket @ self.p3.projection

    def _to_hom(self, lift) -> dict[int, int]:
        """Sparse flat Hom(R2,P3) coordinates of a lift (``_lift``): a term (g, s, c) adds c times row s of ``_bracket_p3`` at generator flag g."""
        r, bp, out = self.p3.free_rank, self._bracket_p3.sparse_rows, {}
        for g, s, c in lift:
            base = g * r
            for t, x in bp[s].items():
                out[base + t] = out.get(base + t, 0) + c * x
        return {t: x for t, x in out.items() if x}

    @cached_property
    def tau_matrix(self) -> IntMatrix:
        """Matrix of τ̃: A → Hom(R2,P3), rows in flat A order: each row's lift (``_lift`` of x_i∧x_m) through ``_to_hom``, never reduced.

        The row of x_m at flag (i,p) reads only the rows of ``_bracket_p3``
        at its lift's slots (j, w), w the wedge position of {i, m} and j a
        line of p's ``_flag_terms``; if all of them are zero, ``_to_hom``
        adds nothing and the row is zero.  So one scan of the nonzero rows
        of ``_bracket_p3`` finds the live slots: (j, w = (a, b)) is live
        for line a with m = b and for line b with m = a, and a flag sends
        through ``_to_hom`` only the m whose live lines j meet its terms'
        lines.  Every other row is one shared empty dict (on C13, 216 of
        1104 rows are nonzero).  Each point's τ̃_p in ``u_points`` shares
        its row dicts; ``tau_support`` re-keys the nonzero rows.
        """
        np_, pairs = self.npairs, list(self.wedge_pos)
        live: list[dict[int, set[int]]] = [{} for _ in range(self.n + 1)]  # line i → {m: live lines j}
        for s, row in enumerate(self._bracket_p3.sparse_rows):
            if row:
                j, (a, b) = s // np_ + 1, pairs[s % np_]
                live[a].setdefault(b, set()).add(j)
                live[b].setdefault(a, set()).add(j)
        empty, rows = {}, []
        for (i, _), terms in zip(self.index.pairs, self._flag_terms):
            lines, flag_rows = {j for _, j, _ in terms}, [empty] * self.n
            for m, js in live[i].items():
                if not lines.isdisjoint(js):
                    flag_rows[m - 1] = self._to_hom(self._lift(terms, [wedge_slot(self.wedge_pos, i, m)])) or empty
            rows += flag_rows
        return IntMatrix._of(rows, len(self.gens) * self.p3.free_rank)

    @cached_property
    def tau_support(self) -> tuple:
        """``(cols, rows)``: the Hom(R2,P3) columns of τ̃'s image, and its nonzero rows in flat A order as (A coordinate, (position in cols, coefficient) pairs), ``used_columns`` of ``tau_matrix`` (C13: 216 rows over 120 of 2 040 columns)."""
        return used_columns(self.tau_matrix.sparse_rows)

    @cached_property
    def u_points(self) -> tuple[PointU, ...]:
        """U at each finite point, in ``index.p0`` order, shared by both kernel identities.

        τ̃ = ⊕_p τ̃_p: τ̃_p is p's slice of rows of ``tau_matrix`` (k·n rows
        for k lines on p), so ``u_tau`` and ``s_tau``, computed here once
        for both identities, come out in Hom(R2,P3)'s columns.  Both
        products read τ̃_p's nonzero rows alone (``_live_product``): a
        point whose τ̃_p is zero (25 of C13's 41, 375 of 423 at k = 6)
        takes no product at all.  U_p is never reduced: ``_point_quotient``
        presents A_p/U_p from U's generator rows at p (``_u_generators``)
        by a spanning forest.
        """
        tau, out, stop = self.tau_matrix, [], 0
        for p, gen_rows in kernels._u_generators(self.config):  # through its module, the one definition ``u_lattice`` reads too
            rows = slice(stop, stop + self.config.multiplicity(p) * self.n)
            block = IntMatrix._of(tau.sparse_rows[rows], tau.cols)
            gens = IntMatrix._of(gen_rows, rows.stop - rows.start)
            quotient, live = _point_quotient(gens), {k for k, row in enumerate(block.sparse_rows) if row}
            out.append(PointU(rows, block, gens, _live_product(gens, block, live), quotient, _live_product(quotient.section, block, live)))
            stop = rows.stop
        return tuple(out)

    @cached_property
    def u_projection(self) -> IntMatrix:
        """π = ⊕_p π_p: A → A/U = ⊕_p A_p/U_p, block diagonal (A × Σ f_p), read from ``u_points``.

        Each π_p's columns are a ZZ-basis of U_p⊥ (``QuotientPresentation``),
        so π's columns are a ZZ-basis of U⊥ and rank U = ``a_rank`` - π.cols.
        Every zero row is one shared empty dict, as in ``tau_matrix``: at a
        point with f_p = 0 that is every row.
        """
        rows, start, empty = [], 0, {}
        for pt in self.u_points:
            rows += ({start + t: x for t, x in row.items()} if row else empty for row in pt.quotient.projection.sparse_rows)
            start += pt.quotient.free_rank
        return IntMatrix._of(rows, start)

    @cached_property
    def b(self) -> Lattice:
        """B (``b_lattice``), built once for the preimage identity and ``maclane-report``."""
        return b_lattice(self.config)

    @cached_property
    def pi_b(self) -> Lattice:
        """π(B) ⊆ A/U (``u_projection``), reduced at most once: rank(U + B) = rank U + rank π(B).

        It reads B·π, but spans it by the distinct nonzero rows up to sign,
        as ±r span the same lattice: 40 of 144 rows on C13, 21 of 49 on
        c8, 116 of 1 024 at k = 6.
        """
        pi, seen, rows = self.u_projection, set(), []
        for row in (self.b.basis @ pi).sparse_rows:
            key = frozenset(row.items())
            if row and key not in seen:
                seen.update((key, frozenset((t, -x) for t, x in row.items())))
                rows.append(row)
        return Lattice(pi.cols, IntMatrix._of(rows, pi.cols))

    def _delta_lift(self, fhat: IntMatrix) -> list[tuple[int, int, int]]:
        """Sparse left-normed lift of δ̄(fhat), ``_lift`` of v = f̂(x_i) at each flag (i,p): Σ_{j on p, j≠k} x_k⊗f̂(x_j) - x_j⊗f̂(x_k) at (k,p)."""
        rows = fhat.sparse_rows
        return [t for (i, _), terms in zip(self.index.pairs, self._flag_terms) for t in self._lift(terms, rows[i - 1].items())]

    @cached_property
    def im_delta(self) -> Lattice:
        """Image of δ̄; basis row (i, t) is δ̄ of the unit map x_i ↦ e_t (H → P2), rows ordered by (line i, t).

        That map's δ-lift (``_delta_lift``) has v = ŝ_t, row t of
        ``p2.section``, at each flag of line i and zero elsewhere, so row
        (i, t) is ``_to_hom`` of ``_lift`` of ŝ_t over line i's flags.

        This flat basis is built, never reduced, on every CLI path: κ and
        both kernel identities test only vectors on τ̃'s image columns C,
        and an element of Im δ̄ on C has coefficient 0 on each row that
        ``im_delta_core`` peels (the only remaining row at a column outside
        C, in a cascade), so they reduce only the core.  perfbench and the
        tests read the flat basis, and check each witness against it.
        """
        on_line = [[] for _ in range(self.n + 1)]  # ``_flag_terms`` of each line's flags
        for (i, _), terms in zip(self.index.pairs, self._flag_terms):
            on_line[i] += terms
        sections = [row.items() for row in self.p2.section.sparse_rows]
        rows = [self._to_hom(self._lift(on_line[i], v)) for i in range(1, self.n + 1) for v in sections]
        width = len(self.gens) * self.p3.free_rank
        return Lattice(width, IntMatrix._of(rows, width))

    @cached_property
    def im_delta_core(self) -> SupportCore:
        """The rows of ``im_delta`` that an element on τ̃'s image columns C (``tau_support``) can need, the only part of Im δ̄ any CLI path reduces.

        A row that is the only remaining one with an entry at a column
        outside C has coefficient 0 in every element of Im δ̄ on C, so
        such rows are peeled in a cascade (``SupportCore``, which proves
        it), and the rest meet Z^C in Im δ̄ ∩ Z^C.  On every MacLane gluing
        the rest lies on C, so it spans Im δ̄ ∩ Z^C: 56 × 273 leaves 21 rows
        on 60 columns on c8,
        180 × 2 040 leaves 40 on 120 (rank 28) on C13, and
        ``glue_copies(6)``'s 1 376 × 52 548 leaves 116 on 360.
        """
        return SupportCore(self.im_delta, self.tau_support[0])


def _live_product(m: IntMatrix, block: IntMatrix, live: set[int]) -> IntMatrix:
    """m·``block`` read at ``live``, the indices of ``block``'s nonzero rows: a row of m that meets none of them is one shared empty dict, with no ``combine``."""
    empty = {}
    return IntMatrix._of(
        [combine(row.items(), block) if not live.isdisjoint(row) else empty for row in m.sparse_rows],
        block.cols,
    )


# -- Im δ̄'s core ----------------------------------------------------------------


class SupportCore:
    """The rows of a lattice L's basis B that a vector on the columns C (``support``) can need.

    Rows are peeled in a cascade (``_peel_owned_rows``): row j_t goes
    when it is the only remaining row with an entry at a column c_t ∉ C.
    The rest, ``lattice``, span exactly the elements of L on C: if
    v = Σ λ_i B_i is zero off C, then at step t every other row with an
    entry at c_t left earlier and has λ = 0 (by induction), so
    0 = v[c_t] = λ_{j_t}·B_{j_t}[c_t] and λ_{j_t} = 0.  Hence v ∈ L iff
    v ∈ span(core), and L ∩ Z^C = span(core) ∩ Z^C, which is span(core)
    when the core lies on C.  ``member`` decides a vector on C from the
    core alone, in L's coordinates: coefficients over all of B (0 on a
    peeled row) and a witness on L's ambient columns (``_extend_witness``).
    """

    __slots__ = ("source", "inside", "rows", "peeled", "lattice", "_witnesses")

    def __init__(self, lat: Lattice, support: Iterable[int]):
        self.source, self.inside, basis = lat, set(support), lat.basis.sparse_rows
        self.rows, self.peeled = _peel_owned_rows(basis, self.inside)
        self.lattice = Lattice(lat.ambient_rank, IntMatrix._of([basis[j] for j in self.rows], lat.ambient_rank))
        self._witnesses: dict[int, tuple] = {}  # id of a core functional → (it, its extension, modulus)

    def member(self, v: dict[int, int]) -> MembershipResult:
        """``member`` of a sparse ``v`` on C in the source lattice, read off the core; raises ValueError off C."""
        if not self.inside.issuperset(v):
            raise ValueError("vector outside the core's support")
        res = member(v, self.lattice)
        if res.ok:
            coeffs = [0] * self.source.basis.rows
            for j, x in zip(self.rows, res.coefficients):
                coeffs[j] = x
            return MembershipResult(True, coefficients=tuple(coeffs))
        w = res.witness
        hit = self._witnesses.get(id(w.functional))
        if hit is None or hit[0] is not w.functional:  # the core lattice caches each functional, so its id names it
            hit = self._witnesses[id(w.functional)] = (w.functional, *_extend_witness(w.functional, w.modulus, self.source.basis.sparse_rows, self.peeled))
        _, f, modulus = hit
        pairing = sum(f[c] * x for c, x in v.items())
        return MembershipResult(False, witness=Witness(f, modulus, pairing % modulus if modulus else pairing))


def _extend_witness(f: Sequence[int], modulus: int, rows: Sequence[dict[int, int]], peeled: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], int]:
    """A core witness ``f`` mod ``modulus`` extended along the peel in reverse, so it vanishes on every row mod the returned modulus.

    At peeled row j with own column c, a = B_j[c] and s = f·B_j (f_c is
    still 0); where a ∤ s, f and the modulus are first multiplied by
    h = |a|/gcd(a, s), and then f_c = -s/a makes f·B_j = 0 exactly.
    This holds to the end: B_j has no entry at the own column of a row
    peeled before it (that row was then the only one there), and later
    steps set only those columns or scale f.  The core's rows have no
    entry at any own column, and the core's witness lives on their pivot
    columns and a column of C, so it starts at 0 on every own column; with
    H the product of the h's the core's rows pair to H·(f·core row) ≡ 0
    mod H·modulus, while a vector on C pairs to H times its core pairing,
    not ≡ 0.  The modulus thus divides H times
    the core's pivot product.  A rational witness (modulus 0) is divided
    by its gcd at the end, so it stays primitive.
    """
    f = list(f)
    for j, c in reversed(peeled):
        row = rows[j]
        a, s = row[c], sum(x * f[k] for k, x in row.items())
        if s % a:
            h = abs(a) // math.gcd(a, s)
            f, modulus, s = [x * h for x in f], modulus * h, s * h
        f[c] = -s // a
    if not modulus:
        g = math.gcd(*f)
        f = [x // g for x in f]
    return tuple(f), modulus


def build_lcs(config: Configuration) -> LcsData:
    """Validate the configuration and assemble its graded data."""
    return LcsData(config)


@lru_cache(maxsize=None)
def _maclane_data() -> LcsData:
    return build_lcs(maclane_c8())


# -- Hom(R2,P3) values -------------------------------------------------------


@dataclass(frozen=True, init=False)
class HomR2P3:
    """Element of Hom(R2,P3): one row of P3 coordinates per generator flag.

    Stored sparse, like ``IntMatrix.sparse_rows``: ``sparse`` maps flat
    column g·free_rank + t to a nonzero coefficient, and ``==``, ``+``,
    ``-``, ``is_zero`` and ``matrix()`` read it alone.  ``flat``, the dense
    row-major tuple that ``HomR2P3(gens, free_rank, flat)`` takes, is a
    view built each time it is read.
    """

    gens: tuple[tuple[int, str], ...]
    free_rank: int
    sparse: dict[int, int] = field(hash=False)

    def __init__(self, gens: tuple[tuple[int, str], ...], free_rank: int, flat: Sequence[int]):
        flat = tuple(flat)
        if len(flat) != len(gens) * free_rank:
            raise ValueError(f"{len(gens)} generator flags of P3 rank {free_rank} take {len(gens) * free_rank} entries, not {len(flat)}")
        self.__dict__.update(gens=gens, free_rank=free_rank, sparse={j: x for j, x in enumerate(flat) if x})

    @classmethod
    def _of(cls, gens: tuple[tuple[int, str], ...], free_rank: int, sparse: dict[int, int]) -> "HomR2P3":
        """Wrap sparse entries without copying; the caller hands them over, zeros dropped."""
        h = object.__new__(cls)
        h.__dict__.update(gens=gens, free_rank=free_rank, sparse=sparse)
        return h

    @property
    def flat(self) -> tuple[int, ...]:
        return densify(self.sparse, len(self.gens) * self.free_rank)

    def matrix(self) -> IntMatrix:
        r, rows = self.free_rank, [{} for _ in self.gens]
        for j, x in self.sparse.items():
            rows[j // r][j % r] = x
        return IntMatrix._of(rows, r)

    def is_zero(self) -> bool:
        return not self.sparse

    def _entrywise(self, op, other: "HomR2P3") -> "HomR2P3":
        if self.gens != other.gens:
            raise ConfigMismatchError("values on different generator sets")
        a, b = self.sparse, other.sparse
        out = {j: op(a.get(j, 0), b.get(j, 0)) for j in a.keys() | b.keys()}
        return HomR2P3._of(self.gens, self.free_rank, {j: x for j, x in out.items() if x})

    def __add__(self, other: "HomR2P3") -> "HomR2P3":
        return self._entrywise(operator.add, other)

    def __sub__(self, other: "HomR2P3") -> "HomR2P3":
        return self._entrywise(operator.sub, other)


def tau_tilde(data: LcsData, a: GMap | AbelianGMap, b: GMap | AbelianGMap | None = None) -> HomR2P3:
    """τ̃(a - b), or τ̃a when ``b`` is None: τ̃a(r̄(i,p)) = [[x_i,a(i,p)], s_p] + [x_i, Σ_j [x_j,a(j,p)]] + R3.

    One accumulation over τ̃'s nonzero rows (``LcsData.tau_support``): ``a``
    and ``b`` are read only at the A coordinates with a nonzero row (216 of
    1104 on C13, 648 of 28 032 on ``glue_copies(6)``), so a - b is never
    built, and the sums go into a list over the columns of τ̃'s image (120
    of 2 040 on C13, 360 of 52 548 at k = 6), mapped back to Hom(R2,P3)'s
    columns once.  The value is sparse.
    """
    a, b = _as_abelian(a), AbelianGMap(data.config) if b is None else _as_abelian(b)
    if a.config != data.config or b.config != data.config:
        raise ConfigMismatchError("conjugator data belongs to another configuration")
    (cols, rows), va, vb = data.tau_support, a.vector(), b.vector()
    out = [0] * len(cols)
    for k, row in rows:
        x = va[k] - vb[k]
        if x:
            for j, y in row:
                out[j] += x * y
    return HomR2P3._of(data.gens, data.p3.free_rank, {cols[j]: z for j, z in enumerate(out) if z})


def delta_bar(data: LcsData, f: IntMatrix) -> HomR2P3:
    """δ̄f for f: H → P2 given as an n × rank(P2) coordinate matrix."""
    if f.shape != (data.n, data.p2.free_rank):
        raise ValueError("f must be n x rank(P2)")
    return delta_bar_from_lift(data, f @ data.p2.section)


def delta_bar_from_lift(data: LcsData, fhat: IntMatrix) -> HomR2P3:
    """δ̄ from an explicit Λ²H-lift matrix; independent of the lift mod R2."""
    if fhat.shape != (data.n, data.npairs):
        raise ValueError("lift must be n x dim(L2)")
    return HomR2P3._of(data.gens, data.p3.free_rank, data._to_hom(data._delta_lift(fhat)))


# -- the isomorphism obstruction ----------------------------------------------


@dataclass(frozen=True)
class KappaReport:
    """κ verdict for one pair of conjugator assignments ``g``, ``gprime``, abelianized.

    ``tau_value`` = τ̃(ḡ - ḡ′) is sparse, and ``to_json_dict`` builds its
    ``flat``; ``difference`` = ḡ - ḡ′ is built on its first read.
    ``certificate`` (on zero) is the n × rank(P2) matrix of an f with
    δ̄f = τ̃(difference), 0 at every row of Im δ̄'s basis that the core
    peels (``LcsData.im_delta_core``); ``witness`` (on nonzero) is a
    dense functional separating the τ̃ value from Im δ̄ in flat
    Hom(R2,P3) coordinates: the core's witness extended along the peel,
    so it vanishes on every basis row of Im δ̄ mod its modulus, which
    divides the core's pivot product times the extension's factors.
    """

    zero: bool
    g: AbelianGMap
    gprime: AbelianGMap
    tau_value: HomR2P3
    certificate: IntMatrix | None
    witness: Witness | None
    t_value: int | None

    @cached_property
    def difference(self) -> AbelianGMap:
        return self.g - self.gprime

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
    """Decide whether τ̃(ḡ - ḡ') ∈ Im δ̄, with an exact certificate either way, from the core of Im δ̄ alone.

    The value lies on τ̃'s image columns C.  Let the core peel rows
    j_1, j_2, … of Im δ̄'s basis B, j_t the only remaining row with an
    entry at its own column c_t ∉ C.  If the value is Σ λ_i B_i, then by
    induction on t every other row with an entry at c_t has λ = 0, so
    λ_{j_t}·B_{j_t}[c_t] = 0 and λ_{j_t} = 0: the value is in Im δ̄ iff it
    is in the span of the core's rows, and their coefficients, with 0 on
    each peeled row, are the certificate.  A core witness f, zero at every
    c_t, is extended in reverse peel order: at j_t, f and the modulus are
    first scaled by B_{j_t}[c_t]/gcd(B_{j_t}[c_t], f·B_{j_t}) if
    B_{j_t}[c_t] does not divide f·B_{j_t}, then f at c_t is set to make
    f·B_{j_t} = 0.  B_{j_t} has no entry at an earlier own column, so later
    steps keep it 0; the core's rows and the value keep their pairings
    times the scale, so f still separates them mod the scaled modulus.  A
    rational witness is divided by its gcd (``exactlin._extend_witness``).
    """
    g, gprime = _as_abelian(g), _as_abelian(gprime)
    value, r = tau_tilde(data, g, gprime), data.p2.free_rank
    res = data.im_delta_core.member(value.sparse)
    certificate = IntMatrix([res.coefficients[i * r : (i + 1) * r] for i in range(data.n)], r) if res.ok else None
    t_val = t_functional(g - gprime) if data.config == maclane_c8() else None
    return KappaReport(zero=res.ok, g=g, gprime=gprime, tau_value=value, certificate=certificate, witness=res.witness, t_value=t_val)


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
