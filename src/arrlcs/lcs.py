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
sent, the others are zero and share one empty dict.  A row lifts one A
coordinate (``LcsData._coordinate_lift``); τ̃* and ``certify`` read the
lift backwards (``LcsData._flag_terms_transpose``).  Each finite point's
τ̃_p is its slice of the matrix's rows, sharing their dicts
(``LcsData.u_points``); ``tau_tilde`` reads the nonzero rows re-keyed to
the columns τ̃'s image uses (``LcsData.tau_support``: 120 of 2 040 on
C13), sums into a list of that length and maps back once.  R3perp is ker d* ∩ H*⊗R2perp, checked
against the columns of ``_bracket_p3``.  Every matrix is built from
sparse rows, so no layer reads or writes their zeros (on C13 under 2%
of entries are nonzero).

U splits over the finite points like τ̃, and both kernel identities,
ker τ̃ = U (``tau_kernel_equals_u``) and τ̃⁻¹(Im δ̄) = U + B
(``tau_preimage_equals_u_plus_b``), read it from ``LcsData.u_points``.
U's generators are defined once, point by point (``_u_generators``), and
the tests tie the peeled form to them.  ``u_points`` reads them peeled
(``_peeled_u``, from one per-line table of meeting classes,
``_meeting_classes``): family 0 and the family-2 rows at double points
are unit rows once family 0 is subtracted, the first step of structured
Gaussian elimination (LaMacchia–Odlyzko, CRYPTO '90) done in closed
form, so U_p = Z^K ⊕ U′_p, and nothing is built for K.
The generators of U′_p, on the surviving coordinates S, are the unsigned
incidence matrix of a bipartite graph, which is totally unimodular, so
A_p/U_p = Z^S/U′_p is free and a spanning forest of that graph, searched
on flat lists over S alone, presents it (``_point_quotient``; 524 of
C13's 1 104 coordinates): no U_p is ever reduced, and A_p/U_p stays
presented on S.  τ̃_p's products read its rows at S, and a point whose
τ̃_p is zero (25 of 41 on C13) takes none; τ̃_p of a unit generator e_c
is its own row.  The block-diagonal π = ⊕_p π_p: A → A/U is built once
(``LcsData.u_projection``, the one place each π_p is spread from S into
A, its zero rows one shared dict), and so are B and π(B) = span of B·π
(``LcsData.b``, ``LcsData.pi_b``); the preimage identity and
``maclane-report``'s ranks of U and U + B and its U⊥ comparison all read
them.  The global lattices ``u_lattice``, ``tau_kernel`` and
``tau_preimage`` are the reference route; no CLI path reads them.

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
    flag_images,
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
    densify,
    hnf,
    kernel_basis,
    member,
    perp,
    quotient_presentation,
    used_columns,
    vstack,
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


class TorsionError(ValueError):
    """A graded quotient has torsion; the dual calculus needs freeness."""


@dataclass(frozen=True)
class PointU:
    """U at one finite point p, as both kernel identities read it, with U_p = Z^K ⊕ U′_p (``_peeled_u``).

    ``rows`` is p's slice of A, ``tau`` is τ̃_p, those rows of
    ``LcsData.tau_matrix`` (the same dicts, in Hom(R2,P3)'s columns),
    ``kept`` the surviving coordinates S of p's A coordinates (K is the
    rest), ``u`` holds U′_p's generator rows on S renumbered along
    ``kept`` (not reduced; ``generators`` spreads U_p whole), ``u_tau``
    the nonzero images under τ̃_p of U_p's generators in ``generators``
    order: τ̃_p's nonzero rows at K (τ̃ of the unit generators e_c), then
    those of ``u``'s rows (no rows where τ̃_p is zero).  ``quotient``
    presents A_p/U_p = Z^S/U′_p on S, as ``_point_quotient`` returns it (a
    spanning forest for U's own generators, so no Hermite form of U_p is
    built): its π_p and s_p are indexed along ``kept``, and
    ``LcsData.u_projection`` spreads π_p into A.  ``s_tau`` = s_p·τ̃_p is
    τ̃_p on its section, s_p times τ̃_p's rows at S.
    """

    rows: slice
    tau: IntMatrix
    kept: tuple[int, ...]
    u: IntMatrix
    u_tau: IntMatrix
    quotient: QuotientPresentation
    s_tau: IntMatrix

    def generators(self) -> list[dict[int, int]]:
        """U_p's generator rows in p's A coordinates: e_c for each c in K, increasing, then ``u``'s rows spread over ``kept``."""
        kept = self.kept
        units = sorted(set(range(self.tau.rows)).difference(kept))
        return [{c: 1} for c in units] + [{kept[c]: x for c, x in row.items()} for row in self.u.sparse_rows]


class LcsData:
    """Degree-2 and degree-3 graded data of one configuration.

    Degree-2 objects are built eagerly.  The degree-3 objects (the
    bracket map, R3, P3, R3perp, the τ̃ matrix and its nonzero rows for
    ``tau_tilde``, U per point with τ̃_p and A_p/U_p for
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

    @cached_property
    def _flag_terms_transpose(self) -> dict[tuple[int, int], list[tuple[int, int]]]:
        """``_flag_terms`` transposed: (generator flag g, line j) → the (flag f, sign s) with a term (g, j, s), f in ``index.pairs`` order; read by τ̃* and the glued certificate."""
        out = {}
        for f, terms in enumerate(self._flag_terms):
            for g, j, s in terms:
                out.setdefault((g, j), []).append((f, s))
        return out

    def _lift(self, terms, v) -> list[tuple[int, int, int]]:
        """The lift of a Λ²H value v, (wedge position w, coefficient c) pairs, over ``terms``, the ``_flag_terms`` of one flag or of every flag on one line: (g, (j-1)·C(n,2) + w, s·c) per term (g, j, s).

        τ̃'s rows lift v = x_i∧x_m (``_coordinate_lift``), ``_delta_lift`` f̂(x_i) at each flag, and Im δ̄'s row (i, t) ŝ_t over line i's flags.
        """
        np_ = self.npairs
        return [(g, (j - 1) * np_ + w, s * c) for w, c in v for g, j, s in terms]

    def _coordinate_lift(self, f: int, m: int) -> list[tuple[int, int, int]]:
        """τ̃'s lift of the A coordinate x_m at flag f (its ``index.pairs`` position), ``_lift`` of x_i∧x_m over f's ``_flag_terms``; empty when m = i."""
        i = self.index.pairs[f][0]
        return self._lift(self._flag_terms[f], [wedge_slot(self.wedge_pos, i, m)]) if m != i else []

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
        for f, ((i, _), terms) in enumerate(zip(self.index.pairs, self._flag_terms)):
            lines, flag_rows = {j for _, j, _ in terms}, [empty] * self.n
            for m, js in live[i].items():
                if not lines.isdisjoint(js):
                    flag_rows[m - 1] = self._to_hom(self._coordinate_lift(f, m)) or empty
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
        for both identities, come out in Hom(R2,P3)'s columns.  U_p is
        never reduced: ``_peeled_u`` peels its unit rows in closed form,
        U_p = Z^K ⊕ U′_p, and ``_point_quotient`` presents
        A_p/U_p = Z^S/U′_p by a spanning forest on the surviving
        coordinates S alone (524 of C13's 1 104, 21 624 of 220 224 at
        k = 12), which is where it stays.  So both products read τ̃_p's
        rows at S (``cut``): ``s_tau`` = s_p·cut and ``u_tau`` = τ̃_p's
        nonzero rows at K, then the nonzero rows of U′_p·cut.  A point
        whose τ̃_p is zero (25 of C13's 41, 375 of 423 at k = 6) takes no
        product at all.
        """
        tau, cols, out, stop = self.tau_matrix.sparse_rows, self.tau_matrix.cols, [], 0
        for p, kept, gen_rows in _peeled_u(self.config):
            rows = slice(stop, stop + self.config.multiplicity(p) * self.n)
            block, gens = IntMatrix._of(tau[rows], cols), IntMatrix._of(gen_rows, len(kept))
            quotient = _point_quotient(gens)
            if any(block.sparse_rows):
                cut, at_s = IntMatrix._of([block.sparse_rows[c] for c in kept], cols), set(kept)
                images = [row for c, row in enumerate(block.sparse_rows) if row and c not in at_s]  # τ̃ of K's unit generators
                images += filter(None, (gens @ cut).sparse_rows)
                u_tau, s_tau = IntMatrix._of(images, cols), quotient.section @ cut
            else:
                u_tau, s_tau = IntMatrix._of((), cols), IntMatrix._of([{}] * quotient.free_rank, cols)
            out.append(PointU(rows, block, kept, gens, u_tau, quotient, s_tau))
            stop = rows.stop
        return tuple(out)

    @cached_property
    def u_projection(self) -> IntMatrix:
        """π = ⊕_p π_p: A → A/U = ⊕_p A_p/U_p, block diagonal (A × Σ f_p), read from ``u_points``.

        The one place each π_p is spread into A from the surviving
        coordinates S, where ``PointU.quotient`` presents A_p/U_p = Z^S/U′_p:
        row c of π_p goes to ``kept[c]``, re-keyed to π's columns, and π_p is
        0 on K.  So π_p's columns are a ZZ-basis of U_p⊥ = 0 ⊕ U′_p⊥, π's a
        ZZ-basis of U⊥, and rank U = ``a_rank`` - π.cols.
        Every zero row is one shared empty dict, as in ``tau_matrix``: at a
        point with f_p = 0 that is every row.
        """
        rows, start, empty = [], 0, {}
        for pt in self.u_points:
            block = [empty] * pt.tau.rows
            for c, row in zip(pt.kept, pt.quotient.projection.sparse_rows):
                if row:
                    block[c] = {start + t: x for t, x in row.items()}
            rows += block
            start += pt.quotient.free_rank
        return IntMatrix._of(rows, start)

    @cached_property
    def b(self) -> Lattice:
        """B (``b_lattice``), built once for the preimage identity and ``maclane-report``."""
        return b_lattice(self.config)

    @cached_property
    def pi_b(self) -> Lattice:
        """π(B) ⊆ A/U (``u_projection``), the span of B·π, reduced at most once: rank(U + B) = rank U + rank π(B)."""
        pi = self.u_projection
        return Lattice(pi.cols, self.b.basis @ pi)

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


# -- U, B and the two kernel identities ----------------------------------------


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
    spanning forest.  These rows define U: ``u_lattice`` reads them as
    they are, and ``LcsData.u_points`` reads the same U_p peeled
    (``_peeled_u``).
    """
    n, p0set = config.index.n, set(config.index.p0)
    stars = {i: [config.lines_through(q) for q in config.points_on(i) if q in p0set] for i in range(1, n + 1)}
    for p in config.index.p0:
        lines_p = config.lines_through(p)
        rows = [{f * n + i - 1: 1} for f, i in enumerate(lines_p)]
        rows += [{f * n + i - 1: 1 for f in range(len(lines_p))} for i in range(1, n + 1)]
        rows += [{f * n + j - 1: 1 for j in star} for f, i in enumerate(lines_p) for star in stars[i]]
        yield p, rows


_KILLED, _GROUND = -1, -2  # ``_meeting_classes``: a unit row kills the coordinate; the coordinate is a ground edge


def _meeting_classes(config: Configuration) -> list[list[int]]:
    """How the finite lines meet, the one table ``_peeled_u`` reads: ``table[i][m - 1]`` for finite lines l_i, l_m.

    It is the position of their meeting point among the finite points of
    multiplicity ≥ 3 on l_i (in ``points_on`` order) when they meet at
    one, ``_KILLED`` when they meet at a finite double point and for
    m = i, and ``_GROUND`` when they are parallel (meet on line 0).
    ``table[0]`` is unused.
    """
    n, p0set, table = config.index.n, set(config.index.p0), [[]]
    for i in range(1, n + 1):
        row, star = [_GROUND] * n, 0
        for q in config.points_on(i):
            if q in p0set:
                lines = config.lines_through(q)
                tag = _KILLED if len(lines) == 2 else star
                for m in lines:
                    row[m - 1] = tag
                star += tag != _KILLED
        row[i - 1] = _KILLED
        table.append(row)
    return table


def _peeled_u(config: Configuration):
    """U at each finite point p after its unit rows are peeled in closed form: (p, kept, rows) in ``index.p0`` order.

    In p's A coordinates (``_u_generators``) write e(i,m) for x_m at the
    flag (i,p).  Family 0 is the unit rows e(i,i), and for every line l_m
    meeting l_i at a finite double point q, the family-2 row at q is
    e(i,i) + e(i,m), a unit row once family 0 is subtracted.  So
    U_p = Z^K ⊕ U′_p, K the diagonal and every such (i,m), and U′_p is
    spanned by the other generators cut to the surviving coordinates S:
    family 1 (x_m at every flag of p) and family 2 at the points of
    multiplicity ≥ 3 on l_i (p itself when p has ≥ 3 lines).  A line
    parallel to l_i lies in no family-2 row at (i,p): its coordinate is in
    family 1 alone, a ground edge.  The cut rows are still 0/1, and each
    coordinate of S lies in one family-1 row and at most one family-2 row
    (two lines meet once), so ``_point_quotient``'s forest presents
    Z^S/U′_p = A_p/U_p unchanged (C13: 524 of 1 104 coordinates survive).

    ``kept`` lists S in increasing order, and ``rows`` holds U′_p's nonzero
    generators on S renumbered along ``kept``, family 1 before family 2
    (the order of ``_u_generators``).  Nothing is built for K.
    """
    n, table = config.index.n, _meeting_classes(config)
    alive = [[(m, s) for m, s in enumerate(row) if s != _KILLED] for row in table]  # each line's surviving x_m, 0-based m
    stars = [max(row, default=-1) + 1 for row in table]
    for p in config.index.p0:
        kept, family1, family2 = [], [{} for _ in range(n)], []
        for f, i in enumerate(config.lines_through(p)):
            own = len(family2)
            family2 += ({} for _ in range(stars[i]))
            for m, s in alive[i]:
                c = len(kept)
                kept.append(f * n + m)
                family1[m][c] = 1
                if s >= 0:
                    family2[own + s][c] = 1
        yield p, tuple(kept), [row for row in family1 if row] + family2


def _point_quotient(gens: IntMatrix) -> QuotientPresentation:
    """Present A_p/U_p, U_p spanned by the rows ``gens``, from a spanning forest; rows of other shapes are reduced.

    ``u_points`` passes U′_p's rows on the surviving coordinates S
    (``_peeled_u``), where K's unit rows are already gone, but the proof
    drops any unit row it meets: a family-1 row cut to S can be one.
    Drop the coordinates of the unit rows (one entry, 1).  Say
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

    The graph is built in one pass over the rows, into one list of row
    vertices per coordinate, and the search runs on lists indexed by row
    vertex; roots, forest and cycles come out in coordinate order.
    """
    dim, ground = gens.cols, 0  # ground: the other rows counted, then the ground vertex's index
    on: list[list[int] | None] = [[] for _ in range(dim)]  # the other rows through each coordinate; None once a unit row drops it
    for row in gens.sparse_rows:
        if len(row) == 1 and 1 in row.values():
            on[next(iter(row))] = None
            continue
        for c, x in row.items():
            if x != 1:
                return quotient_presentation(Lattice(dim, gens))
            if on[c] is not None:
                on[c].append(ground)
        ground += 1
    adj, solo, roots = [[] for _ in range(ground)], [-1] * ground, []  # solo: each row's first edge to the ground
    for c, rs in enumerate(on):
        if not rs:
            continue
        if len(rs) > 2:
            return quotient_presentation(Lattice(dim, gens))
        if len(rs) == 2:
            u, v = rs
            adj[u].append((v, c))
            adj[v].append((u, c))
        elif solo[rs[0]] < 0:
            solo[rs[0]] = c
            roots.append(rs[0])
    # one search per component of the rows, from a row on a ground edge if it has
    # one (that edge joins the component to the ground), 2-colouring as it goes
    depth, parent, colour = [-1] * ground + [0], [None] * ground, [0] * ground
    for root in (*roots, *range(ground)):
        if depth[root] >= 0:
            continue
        if solo[root] >= 0:
            parent[root], depth[root] = (ground, solo[root]), 1
        else:
            depth[root] = 0
        queue = [root]
        for u in queue:
            for v, c in adj[u]:
                if depth[v] < 0:
                    depth[v], parent[v], colour[v] = depth[u] + 1, (u, c), 1 - colour[u]
                    queue.append(v)
                elif colour[v] == colour[u]:
                    return quotient_presentation(Lattice(dim, gens))
    tree = {c for _, c in filter(None, parent)}
    functionals = []
    for c, rs in enumerate(on):
        if rs is None:
            continue
        if not rs:
            functionals.append({c: 1})
        elif c not in tree:
            (a, b), sa, sb, cycle = rs if len(rs) == 2 else (rs[0], ground), -1, -1, {c: 1}
            while a != b:
                if depth[a] < depth[b]:
                    a, b, sa, sb = b, a, sb, sa
                a, e = parent[a]
                cycle[e], sa = sa, -sa
            functionals.append(cycle)
    f = len(functionals)
    section = IntMatrix._of([{next(iter(phi)): 1} for phi in functionals], dim)
    # with no functional every row of π_p is zero: one shared empty dict
    projection = IntMatrix._of(functionals, dim).transpose() if f else IntMatrix._of(({},) * dim, 0)
    return QuotientPresentation(dim, (1,) * (dim - f), f, projection, section)


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
    U_p = Z^K ⊕ U′_p (``_peeled_u``), so τ̃_p kills U_p iff its rows at K,
    τ̃_p of the unit generators e_c, are zero and it kills U′_p's rows:
    ``PointU.u_tau`` holds the nonzero ones among both.  A_p/U_p = Z^S/U′_p,
    so π_p and s_p are read on S (``PointU.quotient``) and s_p·τ̃_p is s_p
    times τ̃_p's rows at S (``PointU.s_tau``).

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
    """{a : τ̃a ∈ Im δ̄}, via the joint kernel of [τ̃; core of Im δ̄] projected to A: τ̃a lies on C, so it is in Im δ̄ iff in the core's span."""
    joint = kernel_basis(vstack(data.tau_matrix, data.im_delta_core.lattice.basis))
    return Lattice(data.a_rank, joint.columns(0, data.a_rank))


def tau_preimage_equals_u_plus_b(data: LcsData) -> bool:
    """τ̃⁻¹(Im δ̄) = U + B, decided in A/U = ⊕ A_p/U_p (rank 36 on C13), whether or not ker τ̃ = U.

    Let π: A → A/U be ``LcsData.u_projection``, each π_p spread from S
    into A, with section s read from ``LcsData.u_points`` (s_p·τ̃_p is
    ``PointU.s_tau``, taken on S).  τ̃(U) ⊆ Im δ̄ is tested on a
    generating set of each U_p = Z^K ⊕ U′_p (``_peeled_u``): τ̃_p's rows at K, which are τ̃
    of the unit generators e_c, and τ̃_p of U′_p's rows, the nonzero ones
    of both in ``PointU.u_tau``.  Once τ̃(U) ⊆ Im δ̄, a lies in the preimage iff
    s(π(a)) does, so the equality holds iff π(preimage), the left kernel
    of [τ̃∘s; Im δ̄] cut to its first block, equals π(B).  Every row of
    τ̃(U) and of τ̃∘s lies on τ̃'s image columns C, and an element of Im δ̄
    on C has coefficient 0 on each row the core peels (the only remaining
    row with an entry at a column outside C; see the module docstring), so
    Im δ̄ enters both the membership tests and that kernel by the core's
    rows alone (``LcsData.im_delta_core``: [τ̃∘s; core] is 76 × 120 on C13,
    not 204 × 2 040).  Raises TorsionError if A/U has torsion,
    where no such section exists; U's own generators never give torsion
    (``_point_quotient``'s forest proves each A_p/U_p = Z^S/U′_p free), so
    only rows of another shape reach it.
    """
    points, core = data.u_points, data.im_delta_core
    if not all(core.member(v) for pt in points for v in pt.u_tau.sparse_rows):
        return False
    if not all(pt.quotient.is_torsion_free for pt in points):
        raise TorsionError("A/U has torsion")
    joint = kernel_basis(vstack(*(pt.s_tau for pt in points), core.lattice.basis))
    f = data.u_projection.cols
    return Lattice(f, joint.columns(0, f)) == data.pi_b


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

    The value lies on τ̃'s image columns C, so it is in Im δ̄ iff it is in
    the span of the core's rows (``SupportCore`` proves it).  On zero the
    certificate is the core's coefficients, 0 on each peeled row; on
    nonzero the witness is the core's, extended along the peel so it
    vanishes on every row of Im δ̄ mod its modulus (``_extend_witness``
    proves it).
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

    Copy c's flags move by ``flag_images`` of the line map ``copy_line(c, ·)``,
    and their words are relabelled by it.
    """
    c8 = maclane_c8()
    if any(g.config != c8 for g in maps):
        raise ConfigMismatchError("every copy must live on the MacLane configuration")
    glued, assignments = glue_copies(len(maps)), {}
    for c, g in enumerate(maps):
        line = {i: copy_line(c, i) for i in range(len(c8.lines))}
        flags = flag_images(c8, glued, line)
        assignments.update((flags[flag], w.relabeled(line)) for flag, w in g.assignments.items())
    return GMap(glued, assignments)

