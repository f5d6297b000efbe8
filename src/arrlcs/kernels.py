"""The kernel lattices U and B, and the two kernel identities of τ̃.

U is spanned by three families of conjugator data that τ̃ kills
(``_u_generators``), B by the data constant in p (``b_lattice``).  κ is a
class of the group only if ker τ̃ = U (``tau_kernel_equals_u``) and
τ̃⁻¹(Im δ̄) = U + B (``tau_preimage_equals_u_plus_b``).  Both identities
are decided point by point from ``LcsData.u_points``.  There U_p is
read in a peeled form (``_peeled_u``): family 0 and each family-2 row at
a double point are unit rows once family 0 is subtracted, the first step
of structured Gaussian elimination (LaMacchia–Odlyzko, CRYPTO '90) done
in closed form from one per-line table of meeting classes
(``_meeting_classes``), so U_p = Z^K ⊕ U′_p.  The rows of U′_p stay 0/1
and 2-colour, so they stay totally unimodular and A_p/U_p = Z^S/U′_p
comes from a spanning forest on the surviving coordinates S alone
(``_point_quotient``: 524 of C13's 1 104 coordinates, 21 624 of 220 224
at k = 12).  A_p/U_p stays presented on S; ``LcsData.u_projection`` is
the one place that spreads π_p from S into A.  U itself stays defined
once, by ``_u_generators``; the tests tie the peeled form to it point by
point.  The global lattices ``u_lattice``, ``tau_kernel`` and
``tau_preimage`` are the reference route; no CLI path reads them.

Every vector the preimage identity tests against Im δ̄ is τ̃ of something,
so it lies on τ̃'s image columns C (``LcsData.tau_support``).  An element
Σ λ_i B_i of Im δ̄ on C has λ = 0 on each basis row B_j that is the only
remaining row with an entry at a column outside C, in a cascade: by
induction every other row there already has λ = 0, and the element is 0
there.  So both the membership tests and the joint kernel read only the
rows left, ``LcsData.im_delta_core`` (40 rows on 120 columns on C13, of
180 × 2 040), and ``tau_preimage`` does too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .config import Configuration
from .exactlin import (
    IntMatrix,
    Lattice,
    QuotientPresentation,
    hnf,
    kernel_basis,
    quotient_presentation,
    vstack,
)

if TYPE_CHECKING:
    from .lcs import LcsData


class TorsionError(ValueError):
    """A graded quotient has torsion; the dual calculus needs freeness."""


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
