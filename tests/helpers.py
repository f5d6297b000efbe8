"""Test-only helpers: oracles and builders that no program path calls."""

from __future__ import annotations

import itertools
import math
import random
import re
from fractions import Fraction
from typing import Iterable, Sequence

from arrlcs.config import ConfigAutomorphism, Configuration, copy_line, maclane_c8
from arrlcs.exactlin import (
    IntMatrix,
    Lattice,
    MembershipResult,
    QuotientPresentation,
    Witness,
    hnf,
    hnf_with_transform,
    kernel_basis,
    member,
    perp,
    quotient_presentation,
    snf,
    vstack,
)
from arrlcs.geom import ZERO, CycloRational, ProjLine, ProjPoint, RealizationReport
from arrlcs.lcs import HomR2P3, LcsData, TorsionError, _as_abelian, _u_generators, tau_tilde
from arrlcs.maclane import _line_entries, rbar_gen_coeffs, t_functional
from arrlcs.words import AbelianGMap, GMap, Word, lie_basis, lie_sparse_coords, wedge_index


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    """Dense dot product of two vectors of one length: the witness tests' pairing."""
    if len(u) != len(v):
        raise ValueError("length mismatch")
    return sum(x * y for x, y in zip(u, v))


def vec_mat(v: Sequence[int], m: IntMatrix) -> tuple[int, ...]:
    """Row vector times matrix, dense: the tests' product (``member`` combines only the rows it uses)."""
    if len(v) != m.rows:
        raise ValueError("length mismatch")
    out = [0] * m.cols
    for x, row in zip(v, m.sparse_rows):
        if x:
            for j, y in row.items():
                out[j] += x * y
    return tuple(out)


def relabel(config, seed):
    """``config`` with line 0 fixed, lines 1..n permuted and points renamed, all from ``seed``."""
    n = len(config.lines)
    rng = random.Random(f"relabel:{seed}")
    images = list(range(1, n))
    rng.shuffle(images)
    line_map = [0, *images]
    names = [f"q{k:02d}" for k in range(len(config.points))]
    rng.shuffle(names)
    point_map = dict(zip(config.points, names))
    lines = [f"l{j}" for j in range(n)]
    incidence = [(lines[line_map[config.line_index(l)]], point_map[p]) for l, p in config.incidence]
    return Configuration(lines, names, incidence)


def seeded_word(rng: random.Random, n: int, maxlen: int = 6) -> Word:
    """A word of 0 to ``maxlen`` letters w_j^(+-1), 1 ≤ j ≤ n, drawn from ``rng``."""
    length = rng.randint(0, maxlen)
    return Word(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(length))


def seeded_g_map(rng: random.Random, config: Configuration, maxlen: int = 3) -> GMap:
    """Each finite flag, in ``index.pairs`` order and with odds 1/2, gets a ``seeded_word`` of up to ``maxlen`` letters."""
    n, assignments = config.index.n, {}
    for flag in config.index.pairs:
        if rng.random() < 0.5:
            assignments[flag] = seeded_word(rng, n, maxlen)
    return GMap(config, assignments)


def hesse():
    """The 12 lines of AG(2,3), 9 quadruple and 12 double points; line 3d + c is a·(x, y) = c for direction d.

    The directions a are (0,1), (1,0), (1,2) and (1,1) (y = c, x = c,
    x + 2y = c and x + y = c).  The 3 lines of one direction pairwise meet
    at double points; line 0 (y = 0) is the line at infinity, so 6
    quadruple points are finite.
    """
    directions = ((0, 1), (1, 0), (1, 2), (1, 1))
    lines = [f"l{i}" for i in range(12)]
    incidence = [
        (lines[3 * d + (a * x + b * y) % 3], f"q{x}{y}") for x in range(3) for y in range(3) for d, (a, b) in enumerate(directions)
    ]
    points = [f"q{x}{y}" for x in range(3) for y in range(3)]
    for d in range(4):
        for c, e in ((0, 1), (0, 2), (1, 2)):
            points.append(f"d{3 * d + c}.{3 * d + e}")
            incidence += [(lines[3 * d + c], points[-1]), (lines[3 * d + e], points[-1])]
    return Configuration(lines, points, incidence)


def pencil4():
    """Four finite lines through one point p1234, each meeting the line at infinity l0 at its own double point."""
    lines = [f"l{i}" for i in range(5)]
    incidence = [(lines[i], "p1234") for i in range(1, 5)] + [(line, f"p0{i}") for i in range(1, 5) for line in (lines[0], lines[i])]
    return Configuration(lines, ["p1234", *(f"p0{i}" for i in range(1, 5))], incidence)


# a 9-line configuration with trivial automorphism group (found by search,
# then frozen): eight triple points plus the forced double points
ASYMMETRIC_9 = {
    "lines": ["l0", "l1", "l2", "l3", "l4", "l5", "l6", "l7", "l8"],
    "infinity": "l0",
    "points": [
        {"name": "p01", "lines": ["l0", "l1"]},
        {"name": "p02", "lines": ["l0", "l2"]},
        {"name": "p03", "lines": ["l0", "l3"]},
        {"name": "p048", "lines": ["l0", "l4", "l8"]},
        {"name": "p056", "lines": ["l0", "l5", "l6"]},
        {"name": "p07", "lines": ["l0", "l7"]},
        {"name": "p12", "lines": ["l1", "l2"]},
        {"name": "p135", "lines": ["l1", "l3", "l5"]},
        {"name": "p14", "lines": ["l1", "l4"]},
        {"name": "p167", "lines": ["l1", "l6", "l7"]},
        {"name": "p18", "lines": ["l1", "l8"]},
        {"name": "p238", "lines": ["l2", "l3", "l8"]},
        {"name": "p245", "lines": ["l2", "l4", "l5"]},
        {"name": "p26", "lines": ["l2", "l6"]},
        {"name": "p27", "lines": ["l2", "l7"]},
        {"name": "p347", "lines": ["l3", "l4", "l7"]},
        {"name": "p36", "lines": ["l3", "l6"]},
        {"name": "p46", "lines": ["l4", "l6"]},
        {"name": "p578", "lines": ["l5", "l7", "l8"]},
        {"name": "p68", "lines": ["l6", "l8"]},
    ],
}


def witt_dimension(n: int, k: int) -> int:
    """Number of Lyndon words of length k over n letters."""

    def mobius(m: int) -> int:
        out = 1
        d = 2
        while d * d <= m:
            if m % d == 0:
                m //= d
                if m % d == 0:
                    return 0
                out = -out
            d += 1
        if m > 1:
            out = -out
        return out

    total = 0
    for d in range(1, k + 1):
        if k % d == 0:
            total += mobius(d) * n ** (k // d)
    return total // k


def magnus_coefficient(letters: Sequence[int], u: tuple[int, ...]) -> int:
    """Oracle for the coefficient of the monomial ``u`` in the Magnus expansion of ``letters``, by brute force.

    Each letter gives one power of its X: wi gives 1 + Xi, wi^-1 gives
    1 - Xi + Xi^2 - Xi^3.  So the coefficient sums, over every split of
    u into runs X_j^e and every strictly increasing choice of one
    position of the word per run, each holding wj or wj^-1, the product
    of those letters' coefficients of X_j^e.  No series is multiplied.
    """

    def coefficient(x: int, e: int) -> int:
        return (-1) ** e if x < 0 else int(e == 1)

    def splits(v):
        if not v:
            yield ()
        for e in range(1, len(v) + 1):
            if v[:e] == (v[0],) * e:
                yield from (((v[0], e), *rest) for rest in splits(v[e:]))

    total = 0
    for runs in splits(u):
        for positions in itertools.combinations(range(len(letters)), len(runs)):
            term = 1
            for (j, e), q in zip(runs, positions):
                term *= coefficient(letters[q], e) if abs(letters[q]) == j else 0
            total += term
    return total


_CYCLO_RE = re.compile(r"^(-?\d+(?:/\d+)?)([+-]\d+(?:/\d+)?)\*w$")


def cyclo_from_str(s: str) -> CycloRational:
    """Parse ``str(CycloRational)`` back, e.g. ``"-1/3+2/7*w"``."""
    m = _CYCLO_RE.match(s.replace(" ", ""))
    if m is None:
        raise ValueError(f"not a Q(w) literal: {s!r}")
    return CycloRational(Fraction(m.group(1)), Fraction(m.group(2)))


def cross(u, v) -> tuple[CycloRational, ...]:
    """Cross product of two triples' coordinates in Q(w)."""
    (a0, a1, a2), (b0, b1, b2) = u.coords, v.coords
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def divide_by_pivot(coords) -> tuple[CycloRational, ...]:
    """Every entry divided in Q(w) by the first nonzero one: the direct normalization."""
    coords = [CycloRational.coerce(c) for c in coords]
    pivot = next((c for c in coords if c), None)
    if pivot is None:
        raise ValueError("homogeneous coordinates must not all vanish")
    return tuple(c / pivot for c in coords)


def clustered_realization(config: Configuration, lines) -> RealizationReport:
    """Oracle for ``check_realization``: cluster every pairwise intersection by location.

    Each intersection is computed by the Q(w) cross product and normalized
    by ``divide_by_pivot``; the clusters' line sets are then compared with
    the configured ones.
    """
    lines = tuple(lines)
    clusters: dict[tuple[CycloRational, ...], set[int]] = {}
    duplicates = []
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            if lines[i] == lines[j]:
                duplicates.append((i, j))
                continue
            clusters.setdefault(divide_by_pivot(cross(lines[i], lines[j])), set()).update((i, j))
    realized = {frozenset(ls): pt for pt, ls in clusters.items()}
    configured = {p: frozenset(config.lines_through(p)) for p in config.points}
    configured_sets = set(configured.values())
    missing = tuple(p for p, ls in configured.items() if ls not in realized)
    extra = tuple(sorted(tuple(sorted(ls)) for ls in realized if ls not in configured_sets))
    locations = {p: ProjPoint(*realized[ls]) for p, ls in configured.items() if ls in realized}
    return RealizationReport(
        ok=not missing and not extra and not duplicates,
        missing=missing,
        extra=extra,
        duplicate_lines=tuple(duplicates),
        locations=locations,
    )


def random_real_arrangement(n: int, bound: int, seed: int) -> tuple[Configuration, tuple[ProjLine, ...]]:
    """n distinct real lines and the configuration they realize.

    Line 0 is z0 = 0, covector (1, 0, 0); lines 1..n-1 are drawn from
    ``random.Random(seed)`` with integer coefficients in [-bound, bound],
    redrawn while proportional to an earlier line.  Points and their line
    sets are read off the integer cross product of every pair, scaled to
    a primitive vector whose first nonzero entry is positive.
    """
    rng = random.Random(seed)

    def primitive(v):
        g = math.gcd(*v) * (1 if next(x for x in v if x) > 0 else -1)
        return tuple(x // g for x in v)

    covectors = [(1, 0, 0)]
    while len(covectors) < n:
        v = tuple(rng.randint(-bound, bound) for _ in range(3))
        if any(v) and primitive(v) not in {primitive(c) for c in covectors}:
            covectors.append(v)
    clusters: dict[tuple[int, ...], set[int]] = {}
    for i, j in itertools.combinations(range(n), 2):
        (a0, a1, a2), (b0, b1, b2) = covectors[i], covectors[j]
        point = primitive((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))
        clusters.setdefault(point, set()).update((i, j))
    names = [f"l{i}" for i in range(n)]
    points = {"p" + "_".join(map(str, sorted(ls))): ls for ls in clusters.values()}
    incidence = [(names[i], p) for p, ls in points.items() for i in ls]
    return Configuration(names, points, incidence), tuple(ProjLine(*v) for v in covectors)


def incident(line: ProjLine, point: ProjPoint) -> bool:
    return not sum((a * z for a, z in zip(line.coords, point.coords)), ZERO)


def line_through(p1: ProjPoint, p2: ProjPoint) -> ProjLine:
    c = cross(p1, p2)
    if not any(c):
        raise ValueError("coincident points have no unique joining line")
    return ProjLine(*c)


def restrict(config: Configuration, line_idxs: Sequence[int]) -> Configuration:
    """Sub-configuration on a subset of lines (points need two survivors)."""
    keep = sorted(set(line_idxs))
    names = [config.lines[i] for i in keep]
    pts = []
    incidence = []
    for p in config.points:
        on = [i for i in config.lines_through(p) if i in set(keep)]
        if len(on) >= 2:
            pts.append(p)
            incidence.extend((config.lines[i], p) for i in on)
    return Configuration(names, pts, incidence)


def saturate(lat: Lattice) -> Lattice:
    """Largest sublattice of the ambient with the same rational span."""
    return perp(perp(lat))


def lattice_sum(a: Lattice, b: Lattice) -> Lattice:
    """Smallest lattice containing both; basis is the two canonical forms stacked."""
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("ambient rank mismatch")
    return Lattice(a.ambient_rank, vstack(a.canonical_form, b.canonical_form))


def kernel_perp(lat: Lattice) -> Lattice:
    """Oracle for ``perp``: the left kernel of the canonical form transposed, for any lattice."""
    return Lattice(lat.ambient_rank, kernel_basis(lat.canonical_form.transpose()))


def reference_quotient(lat: Lattice) -> tuple[tuple[int, ...], IntMatrix, IntMatrix]:
    """Oracle for ``quotient_presentation``: ``(divisors, projection, section)``, with no unit-pivot shortcut.

    The projection is Kᵀ for K the canonical form of ``kernel_perp(lat)``,
    and the section is the head of the transform that reduces Kᵀ.  The
    divisors are all ones iff ``lat`` equals its saturation, the span of
    that transform's tail, and otherwise the ``snf`` divisors of the
    canonical form.
    """
    n = lat.ambient_rank
    projection = kernel_perp(lat).canonical_form.transpose()
    f = projection.cols
    _, u, _ = hnf_with_transform(projection)
    saturation = Lattice(n, IntMatrix._of(u.sparse_rows[f:], n))
    divisors = (1,) * lat.rank if saturation == lat else snf(lat.canonical_form)[0]
    return divisors, projection, IntMatrix._of(u.sparse_rows[:f], n)


def unpeeled_quotient(lat: Lattice) -> QuotientPresentation:
    """``quotient_presentation`` as it ran before unit rows were peeled: the whole basis is reduced.

    perp is read off the canonical form of ``lat`` itself (free columns
    when every pivot is 1, else the left kernel of its transpose), the
    section is the unit rows at perp's pivots or the head of the transform
    that reduces Kᵀ, and the divisors are ones when ``lat``'s own pivots
    are 1, else the ``snf`` divisors of its canonical form.
    """
    n, h, (_, _, pivots, det) = lat.ambient_rank, lat.canonical_form, lat.echelon()
    if det == 1:
        cols, free = [dict() for _ in range(n)], sorted(set(range(n)).difference(pivots))
        for k, row in enumerate(h.sparse_rows):
            for c, x in row.items():
                cols[c][k] = x
        comp = Lattice(n, IntMatrix._of([{c: 1, **{pivots[k]: -x for k, x in cols[c].items()}} for c in free], n))
    else:
        comp = Lattice(n, kernel_basis(h.transpose()))
    projection, (_, _, comp_pivots, comp_det) = comp.canonical_form.transpose(), comp.echelon()
    f = projection.cols
    if comp_det == 1:
        section = IntMatrix._of([{c: 1} for c in comp_pivots], n)
    else:
        section = IntMatrix._of(hnf_with_transform(projection)[1].sparse_rows[:f], n)
    divisors = (1,) * lat.rank if det == 1 else snf(h)[0]
    return QuotientPresentation(ambient_rank=n, elementary_divisors=divisors, free_rank=f, projection=projection, section=section)


def rank_mod_p(rows: Iterable[dict[int, int]], p: int) -> int:
    """Rank over F_p of sparse ``{column: entry}`` rows, by plain Gaussian elimination."""
    pivots: dict[int, dict[int, int]] = {}  # leading column -> a reduced row, led by 1
    for row in rows:
        v = {c: x % p for c, x in row.items() if x % p}
        while v:
            c = min(v)
            if c not in pivots:
                inv = pow(v[c], -1, p)
                pivots[c] = {k: x * inv % p for k, x in v.items()}
                break
            q = v[c]
            for k, x in pivots[c].items():
                y = (v.get(k, 0) - q * x) % p
                if y:
                    v[k] = y
                else:
                    v.pop(k, None)
    return len(pivots)


def reference_u_points(data: LcsData) -> list[tuple[Lattice, QuotientPresentation]]:
    """Oracle for ``LcsData.u_points``: per finite point, in ``index.p0`` order, U_p and A_p/U_p by reduction.

    U_p is the ``Lattice`` of U's generator rows at p (``_u_generators``,
    already in p's A coordinates), and A_p/U_p is its ``quotient_presentation``.
    """
    out = []
    for p, gens in _u_generators(data.config):
        width = data.config.multiplicity(p) * data.n
        u = Lattice(width, IntMatrix._of(gens, width))
        out.append((u, quotient_presentation(u)))
    return out


def dict_point_quotient(gens: IntMatrix) -> QuotientPresentation:
    """Oracle for ``_point_quotient``: the same spanning forest built on dicts keyed by coordinate and a set of dropped coordinates.

    The search and the cycle functionals are those of the flat-list
    version, in the same order, so the two presentations compare equal
    field for field.
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


def tau_lift(data: LcsData) -> list[tuple[tuple[int, int, int], ...]]:
    """The left-normed lift of τ̃, one entry per flat A coordinate: x_i∧x_m spread over its flag (i,p)'s ``_flag_terms``, none if m = i.

    The slot rule is written out here rather than read from ``LcsData._lift``:
    a flag term (g, j, s) gives (g, (j-1)·C(n,2) + w, ±s), w the position of
    {i, m} and - when i > m.
    """
    np_, wp, out = data.npairs, data.wedge_pos, []
    for (i, _), terms in zip(data.index.pairs, data._flag_terms):
        for m in range(1, data.n + 1):
            if m == i:
                out.append(())
                continue
            w, sign = (wp[i, m], 1) if i < m else (wp[m, i], -1)
            out.append(tuple((g, (j - 1) * np_ + w, sign * s) for g, j, s in terms))
    return out


def dense_tau_matrix(data: LcsData) -> IntMatrix:
    """Oracle for ``LcsData.tau_matrix``: the lift of every A coordinate (``tau_lift``) sent through ``_to_hom``.

    It skips no row, so it checks the library's rule that a row reading
    only zero rows of ``_bracket_p3`` is zero.  It shares the lift's term
    rule and ``_to_hom`` with the library, so τ̃'s values themselves are
    checked by independent routes: ``test_tau_rows_equal_the_relator_route``
    and ``test_tau_lift_rows_project_to_tau_value``.
    """
    return IntMatrix._of([data._to_hom(lift) for lift in tau_lift(data)], len(data.gens) * data.p3.free_rank)


def tau_support_rows(data: LcsData) -> list[tuple[int, dict[int, int]]]:
    """``LcsData.tau_support`` mapped back to Hom(R2,P3)'s columns: each nonzero row of τ̃ as (A coordinate, {column: coefficient})."""
    cols, rows = data.tau_support
    return [(a, {cols[j]: x for j, x in row}) for a, row in rows]


def blockwise_tau_tilde(data: LcsData, a: GMap | AbelianGMap) -> HomR2P3:
    """Oracle for ``lcs.tau_tilde``: each point's τ̃_p (``LcsData.u_points``) applied to its rows of A, the values summed."""
    vec = _as_abelian(a).vector()
    flat = map(sum, zip(*(vec_mat(vec[pt.rows], pt.tau) for pt in data.u_points)))
    return HomR2P3(data.gens, data.p3.free_rank, tuple(flat))


def dense_kappa_json(data: LcsData, g: GMap | AbelianGMap, gprime: GMap | AbelianGMap) -> dict:
    """Oracle for ``kappa(data, g, gprime).to_json_dict()``: the full difference, ``blockwise_tau_tilde``'s dense value and ``reference_core_member``."""
    diff = _as_abelian(g) - _as_abelian(gprime)
    value = blockwise_tau_tilde(data, diff).flat
    res, r = reference_core_member(value, data), data.p2.free_rank
    w = res.witness
    return {
        "zero": res.ok,
        "difference": {f"({i},{p})": list(v) for (i, p), v in sorted(diff.values.items(), key=lambda kv: (kv[0][1], kv[0][0]))},
        "tau_value": list(value),
        "certificate": [list(res.coefficients[i * r : (i + 1) * r]) for i in range(data.n)] if res.ok else None,
        "witness": None if w is None else {"functional": list(w.functional), "modulus": w.modulus, "pairing": w.pairing},
        "t_value": t_functional(diff) if data.config == maclane_c8() else None,
    }


def reference_core_member(value: Sequence[int], data: LcsData) -> MembershipResult:
    """Oracle for ``data.im_delta_core.member``: ``reference_member`` on the core's rows, read back in Im δ̄'s basis.

    Coefficients over the core's rows are placed at those rows of Im δ̄'s
    basis, 0 elsewhere; a witness is extended by ``extend_along_peel``
    and paired with the dense ``value``.
    """
    core = data.im_delta_core
    res = reference_member(value, core.lattice)
    if res.ok:
        coeffs = [0] * data.im_delta.basis.rows
        for j, x in zip(core.rows, res.coefficients):
            coeffs[j] = x
        return MembershipResult(True, coefficients=tuple(coeffs))
    f, modulus = extend_along_peel(res.witness.functional, res.witness.modulus, data.im_delta.basis, core.peeled)
    pairing = dot(f, value)
    return MembershipResult(False, witness=Witness(f, modulus, pairing % modulus if modulus else pairing))


def extend_along_peel(f: Sequence[int], modulus: int, basis: IntMatrix, peeled: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], int]:
    """Oracle for ``exactlin._extend_witness``: at each peeled row j with its own column c, last peeled first, scale by h = |B_j[c]|/gcd(B_j[c], f·B_j) (1 when B_j[c] divides f·B_j) and solve f_c; a rational result is divided by its gcd."""
    f = list(f)
    for j, c in reversed(peeled):
        row = basis.sparse_rows[j]
        a, s = row[c], sum(f[k] * x for k, x in row.items())
        h = abs(a) // math.gcd(a, s)
        f, modulus = [x * h for x in f], modulus * h
        f[c] = -(s * h) // a
    g = math.gcd(*f) if not modulus else 1
    return tuple(x // g for x in f), modulus


def peeled_core_rows(rows: Sequence[dict[int, int]], inside: set[int]) -> list[int]:
    """Oracle for the core of ``exactlin._peel_owned_rows``: drop a row alone at a column outside ``inside``, rescanning every remaining row after each drop, until none is; the nonzero rows left."""
    left = {j for j, row in enumerate(rows) if row}
    while True:
        holders: dict[int, list[int]] = {}
        for j in sorted(left):
            for c in rows[j]:
                if c not in inside:
                    holders.setdefault(c, []).append(j)
        alone = next((js[0] for js in holders.values() if len(js) == 1), None)
        if alone is None:
            return sorted(left)
        left.remove(alone)


def on_columns(lat: Lattice, cols: Iterable[int]) -> Lattice:
    """L ∩ Z^C for the columns C = ``cols``, read off the Hermite form of L with C's columns moved last: its rows led by a column of C."""
    n, inside = lat.ambient_rank, set(cols)
    order = [c for c in range(n) if c not in inside] + sorted(inside)
    at = {c: k for k, c in enumerate(order)}
    h = hnf(IntMatrix._of([{at[c]: x for c, x in row.items()} for row in lat.basis.sparse_rows], n))
    first = n - len(inside)
    return Lattice(n, IntMatrix._of([{order[k]: x for k, x in row.items()} for row in h.sparse_rows if min(row) >= first], n))


def flat_kappa_member(data: LcsData, g: GMap | AbelianGMap, gprime: GMap | AbelianGMap) -> MembershipResult:
    """The flat route of κ: ``member`` of τ̃(ḡ − ḡ′) in all of Im δ̄, reduced whole."""
    return member(tau_tilde(data, g, gprime).sparse, data.im_delta)


def flat_preimage_equals_u_plus_b(data: LcsData) -> bool:
    """The flat route of ``kernels.tau_preimage_equals_u_plus_b``: membership in all of Im δ̄ and the joint kernel of [τ̃∘s; Im δ̄'s echelon rows]."""
    points = data.u_points
    if not all(member(v, data.im_delta) for pt in points for v in pt.u_tau.sparse_rows if v):
        return False
    if not all(pt.quotient.is_torsion_free for pt in points):
        raise TorsionError("A/U has torsion")
    joint = kernel_basis(vstack(*(pt.s_tau for pt in points), data.im_delta.echelon()[0]))
    f = data.u_projection.cols
    return Lattice(f, joint.columns(0, f)) == data.pi_b


def flat_tau_preimage(data: LcsData) -> Lattice:
    """The flat route of ``kernels.tau_preimage``: the joint kernel of [τ̃; Im δ̄'s basis] projected to A."""
    joint = kernel_basis(vstack(data.tau_matrix, data.im_delta.basis))
    return Lattice(data.a_rank, joint.columns(0, data.a_rank))


def dense_tau_star(data: LcsData, gen_coeffs: Sequence[int], functional: Sequence[int]) -> tuple[int, ...]:
    """Oracle for ``maclane.tau_star`` of Φ = class ⊗ φ (``class_tensor``): ⟨φ, τ̃a(class)⟩ summed over every lift term of every A coordinate a, dense."""
    return tuple(sum(gen_coeffs[g] * c * functional[s] for g, s, c in terms) for terms in tau_lift(data))


def class_tensor(data: LcsData, gen_coeffs: Sequence[int], functional: Sequence[int]) -> dict[int, int]:
    """Φ = class ⊗ φ, the sparse functional on ⊕_g H⊗Λ²H that ``maclane.tau_star`` takes: class_g·φ_s at g·``hw_rank`` + s."""
    return {g * data.hw_rank + s: c * x for g, c in enumerate(gen_coeffs) if c for s, x in enumerate(functional) if x}


def pulled_back_functional(data: LcsData, c8: LcsData, copy: int, functional: Sequence[int]) -> dict[int, int]:
    """Φ on ⊕_g H⊗Λ²H of ``glue_copies(k)``'s ``data`` from a functional on c8's flat Hom(R2,P3), through MacLane copy c = ``copy``.

    Block g_S of ``functional`` (c8's generator flag (i, p)) composed with
    c8's ``_bracket_p3`` is a functional W[g_S] on c8's H⊗Λ²H.  It is
    placed at the image generator flag g_C = (copy_line(c, i), the point of
    the image lines of p), slot x_m⊗(x_a∧x_b) going to the slot of the
    image lines.  ``copy_line(c, ·)`` is monotone, so a < b stays a′ < b′
    and every sign is +1.  Keys are g_C·``hw_rank`` + slot, as
    ``maclane.tau_star`` takes them.  This is the reference for a certificate
    checker built on C13 (ROADMAP items 9 and 19).
    """
    r8, np8, pairs8 = c8.p3.free_rank, c8.npairs, list(c8.wedge_pos)
    line = [copy_line(copy, i) for i in range(c8.n + 1)]
    out = {}
    for g8, (i, p) in enumerate(c8.gens):
        block = functional[g8 * r8 : (g8 + 1) * r8]
        point = data.config.point_of(frozenset(line[j] for j in c8.config.lines_through(p)))
        base = data.index.gen_pos[line[i], point] * data.hw_rank
        for s8, row in enumerate(c8._bracket_p3.sparse_rows):
            x = sum(block[t] * y for t, y in row.items())
            if x:
                m, (a, b) = s8 // np8 + 1, pairs8[s8 % np8]
                out[base + (line[m] - 1) * data.npairs + data.wedge_pos[line[a], line[b]]] = x
    return out


def certificate_failures(data: LcsData, phi: dict[int, int], modulus: int) -> tuple[int, int]:
    """Failures of checks (a) and (b) of a κ ≠ 0 certificate Φ on ⊕_g H⊗Λ²H (keyed as ``maclane.tau_star``'s), by products alone.

    (a) counts the pairs of a generator flag g where Φ_g ≠ 0 and an
    element that Φ_g must kill exactly: x_m⊗r for each R2 basis row r,
    the lift of the R3 generator [x_m, r], and each Jacobi element
    x_a⊗(x_b∧x_c) + x_b⊗(x_c∧x_a) + x_c⊗(x_a∧x_b), a < b < c, which span
    the kernel of the bracket H⊗Λ²H → L3.  So each Φ_g descends to L3/R3 =
    P3, and Φ to a functional on Hom(R2,P3).  (b) counts the unit maps
    E_{i,t}: H → P2 whose δ-lift (``LcsData._delta_lift``) Φ pairs to
    nonzero mod ``modulus``; those values span Im δ̄.  With no failures, a
    value whose τ̃-lift Φ pairs to nonzero mod ``modulus`` (check (c),
    through ``maclane.tau_star``) lies outside Im δ̄.
    """
    hw, np_, wp, blocks = data.hw_rank, data.npairs, data.wedge_pos, {}
    for k, x in phi.items():
        blocks.setdefault(k // hw, {})[k % hw] = x
    bad_a = 0
    for f in blocks.values():
        for m in range(data.n):
            bad_a += sum(1 for r in data.r2.basis.sparse_rows if sum(f.get(m * np_ + w, 0) * x for w, x in r.items()))
        for a, b, c in itertools.combinations(range(1, data.n + 1), 3):
            bad_a += bool(f.get((a - 1) * np_ + wp[b, c], 0) - f.get((b - 1) * np_ + wp[a, c], 0) + f.get((c - 1) * np_ + wp[a, b], 0))
    r2, bad_b = data.p2.free_rank, 0
    for i in range(data.n):
        for t in range(r2):
            fhat = IntMatrix._of([{t: 1} if k == i else {} for k in range(data.n)], r2) @ data.p2.section
            bad_b += sum(c * phi.get(g * hw + s, 0) for g, s, c in data._delta_lift(fhat)) % modulus != 0
    return bad_a, bad_b


def scanned_b_rows(config: Configuration) -> IntMatrix:
    """Oracle for ``b_lattice``'s basis: row (j, i) scans every finite point q for a flag (j, q)."""
    idx = config.index
    n = idx.n
    dim = len(idx.pairs) * n
    rows = [
        {idx.pair_pos[(j, q)] * n + (i - 1): 1 for q in idx.p0 if (j, q) in idx.pair_pos}
        for j in range(1, n + 1)
        for i in range(1, n + 1)
    ]
    return IntMatrix._of(rows, dim)


def swept_bracket(n: int) -> IntMatrix:
    """Oracle for ``LcsData.bracket``: each [x_m,[x_a,x_b]] expanded to four words and swept into ``lie_basis(n, 3)``."""
    basis, rows = lie_basis(n, 3), []
    for m in range(1, n + 1):
        for (a, b) in wedge_index(n):
            tensor: dict[tuple[int, ...], int] = {}
            for word, c in (((m, a, b), 1), ((m, b, a), -1), ((a, b, m), -1), ((b, a, m), 1)):
                tensor[word] = tensor.get(word, 0) + c
            rows.append(lie_sparse_coords(tensor, basis))
    return IntMatrix._of(rows, len(basis))


def swept_l3_action(n: int, sigma: ConfigAutomorphism) -> IntMatrix:
    """σ acting on L3 row vectors: σ's letters substituted in each Lyndon expansion, swept back into the basis."""
    basis, lp = lie_basis(n, 3), sigma.line_perm
    # lp is a bijection, so the permuted words of one expansion stay distinct
    rows = [lie_sparse_coords({tuple(lp[x] for x in u): c for u, c in e.items()}, basis) for e in basis.expansions]
    return IntMatrix._of(rows, len(basis))


def line_action(data: LcsData, sigma: ConfigAutomorphism) -> tuple[IntMatrix, IntMatrix]:
    """σ on row vectors (v ↦ v·M) of A and of H⊗Λ²H: the signed permutation matrices of ``maclane._line_entries``.

    σ.compose(τ) acts by M_τ @ M_σ.
    """
    acts, sizes = _line_entries(data, sigma), (data.a_rank, data.hw_rank)
    return tuple(IntMatrix._of([dict([act(k)]) for k in range(size)], size) for act, size in zip(acts, sizes))


def check_equivariance(data: LcsData, sigma: ConfigAutomorphism) -> bool:
    """τ̃(σ·a) = σ ∘ τ̃a ∘ σ⁻¹ for every a, as the one sparse identity P_σ·τ̃ = τ̃·K_σ, on any configuration.

    P_σ is σ's action on A (``line_action``, which refuses a σ of
    another configuration or one that moves line 0), and K_σ sends a flat
    Hom(R2,P3) value f to R·f·P3_σ, where row g of R is r̄ at the σ⁻¹-image
    of generator flag g and P3_σ is σ's action on P3 (``swept_l3_action``
    between the P3 section and projection).
    """
    on_a, _ = line_action(data, sigma)
    inv, r, ngens = sigma.inverse(), data.p3.free_rank, len(data.gens)
    p3sigma = (data.p3.section @ swept_l3_action(data.n, sigma) @ data.p3.projection).sparse_rows
    r_t = IntMatrix([rbar_gen_coeffs(data, inv.line_perm[k], inv.point_image(p)) for k, p in data.gens], ngens).transpose()
    # K_σ = Rᵀ ⊗ P3_σ: row (h, q) holds R[g][h]·P3_σ[q][t] at column (g, t)
    k_sigma = [
        {g * r + t: c * y for g, c in r_t.sparse_rows[h].items() for t, y in p3sigma[q].items()}
        for h in range(ngens)
        for q in range(r)
    ]
    return on_a @ data.tau_matrix == data.tau_matrix @ IntMatrix._of(k_sigma, ngens * r)


def lift_rows(data: LcsData, lift) -> list[list[int]]:
    """Dense H⊗Λ²H rows, one per generator flag, of a sparse lift of (generator flag, slot, coefficient) terms."""
    rows = [[0] * data.hw_rank for _ in data.gens]
    for g, s, c in lift:
        rows[g][s] += c
    return rows


def delta_kernel(data: LcsData) -> Lattice:
    """ker δ̄ inside Hom(H,P2) flat coordinates.  Computed, nothing asserted."""
    return Lattice(data.n * data.p2.free_rank, kernel_basis(data.im_delta.basis))


def _solve(a: list[list[Fraction]], b: list[Fraction]) -> tuple[list[Fraction], Fraction]:
    """``(x, det a)`` with a·x = b for square nonsingular ``a``, by Gauss–Jordan elimination.

    Zero entries are skipped, so a sparse triangular ``a`` costs little,
    but nothing assumes its shape.
    """
    m = [row[:] + [x] for row, x in zip(a, b)]
    n, det = len(m), Fraction(1)
    for j in range(n):
        r = next(i for i in range(j, n) if m[i][j])
        if r != j:
            m[j], m[r] = m[r], m[j]
            det = -det
        pivot = m[j][j]
        det *= pivot
        m[j] = [x / pivot if x else x for x in m[j]]
        for i in range(n):
            if i != j and m[i][j]:
                q = m[i][j]
                m[i] = [x - q * y if y else x for x, y in zip(m[i], m[j])]
    return [row[n] for row in m], det


def reference_member(v: Sequence[int], lat: Lattice) -> MembershipResult:
    """Oracle for ``member``: the single-reduction route, one ``hnf_with_transform`` of the basis.

    ``v`` is walked down the Hermite form H; on success its coefficients
    over H are carried to the basis by H's own transform rows.  A failure
    solves y = d·P⁻¹b by back-substitution on the full pivot block P of H
    (d the pivot product): b = e_k for a divisibility failure at row k,
    b = -(column c of H) with f_c = d, divided by the gcd of the entries,
    for a rational failure at column c.
    """
    h, u, pivots = hnf_with_transform(lat.basis)
    rows, rank = h.sparse_rows, len(pivots)
    rem, coeffs, k = {j: x for j, x in enumerate(v) if x}, [], None
    for i, (row, p) in enumerate(zip(rows, pivots)):
        q, r = divmod(rem.get(p, 0), row[p])
        if r:
            k = i
            break
        coeffs.append(q)
        for j, x in row.items():
            rem[j] = rem.get(j, 0) - q * x
        rem = {j: x for j, x in rem.items() if x}
    if k is None and not rem:
        return MembershipResult(True, coefficients=vec_mat(coeffs, IntMatrix._of(u.sparse_rows[:rank], u.cols)))
    c, det = None if k is not None else min(rem), math.prod(row[p] for row, p in zip(rows, pivots))
    b = [det * (i == k) for i in range(rank)] if k is not None else [-det * row.get(c, 0) for row in rows]
    y = [0] * rank
    for i in reversed(range(rank)):
        y[i], r = divmod(b[i] - sum(rows[i].get(pj, 0) * y[j] for j, pj in enumerate(pivots) if j > i), rows[i][pivots[i]])
        if r:
            raise ValueError("the adjugate solution is not integral")
    f = [0] * lat.ambient_rank
    if k is not None:
        for p, x in zip(pivots, y):
            f[p] = x
        return MembershipResult(False, witness=Witness(tuple(f), det, sum(x * v[p] for p, x in zip(pivots, y)) % det))
    g = math.gcd(*y, det)
    for p, x in zip([*pivots, c], [*y, det]):
        f[p] = x // g
    return MembershipResult(False, witness=Witness(tuple(f), 0, sum(a * b for a, b in zip(f, v))))


def reference_witness(lat: Lattice, v: Sequence[int]) -> Witness | None:
    """Oracle for ``member``'s witness: the adjugate system solved with ``Fraction``s.

    ``v`` is reduced by the dense canonical form row by row; the first
    pivot whose entry does not divide is a divisibility failure at that
    row, and a residue left after every row is a rational failure at its
    first nonzero column.  With P the dense pivot block of the canonical
    form and d = det P, the witness is y = d·P⁻¹b on the pivot columns:
    b = e_k, modulus d, pairing f·v mod d for a divisibility failure at
    row k; b = -(column c of the form) and f_c = d, divided by the gcd
    of the entries, modulus 0, pairing f·v for a rational failure at c.
    None when ``v`` is in the lattice.
    """
    h = lat.canonical_form.entries
    pivots = [next(j for j, x in enumerate(row) if x) for row in h]
    rem, k = list(v), None
    for i, (row, p) in enumerate(zip(h, pivots)):
        q, r = divmod(rem[p], row[p])
        if r:
            k = i
            break
        if q:
            rem = [x - q * y for x, y in zip(rem, row)]
    c = None if k is not None else next((j for j, x in enumerate(rem) if x), None)
    if k is None and c is None:
        return None
    if k is not None:
        b = [Fraction(int(i == k)) for i in range(len(h))]
    else:
        b = [Fraction(-row[c]) for row in h]
    block = [[Fraction(row[p]) for p in pivots] for row in h]
    x, det = _solve(block, b)
    y = [det * t for t in x]
    if any(t.denominator != 1 for t in y) or det.denominator != 1:
        raise ValueError("the adjugate solution is not integral")
    f = [0] * lat.ambient_rank
    for p, t in zip(pivots, y):
        f[p] = int(t)
    if k is not None:
        return Witness(tuple(f), int(det), sum(a * b for a, b in zip(f, v)) % int(det))
    f[c] = int(det)
    g = math.gcd(*f)
    f = [a // g for a in f]
    return Witness(tuple(f), 0, sum(a * b for a, b in zip(f, v)))
