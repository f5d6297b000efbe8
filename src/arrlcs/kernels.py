"""The kernel lattices U and B, and the two kernel identities of τ̃.

U is spanned by three families of conjugator data that τ̃ kills
(``_u_generators``), B by the data constant in p (``b_lattice``).  κ is a
class of the group only if ker τ̃ = U (``tau_kernel_equals_u``) and
τ̃⁻¹(Im δ̄) = U + B (``tau_preimage_equals_u_plus_b``).  Both identities
are decided point by point from ``LcsData.u_points``, whose quotients
A_p/U_p come from a spanning forest (``_point_quotient``).  The global
lattices ``u_lattice``, ``tau_kernel`` and ``tau_preimage`` are the
reference route; no CLI path reads them.
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
    member,
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
    points = data.u_points
    if not all(member(v, data.im_delta) for pt in points for v in pt.u_tau.sparse_rows if v):
        return False
    if not all(pt.quotient.is_torsion_free for pt in points):
        raise TorsionError("A/U has torsion")
    joint = kernel_basis(vstack(*(pt.s_tau for pt in points), data.im_delta.echelon()[0]))
    f = data.u_projection.cols
    return Lattice(f, joint.columns(0, f)) == data.pi_b
