"""Test-only helpers: oracles and builders that no program path calls."""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from arrlcs.config import Configuration
from arrlcs.exactlin import Lattice, kernel_basis, perp
from arrlcs.geom import ZERO, CycloRational, ProjLine, ProjPoint, RealizationReport
from arrlcs.lcs import LcsData


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


def delta_kernel(data: LcsData) -> Lattice:
    """ker δ̄ inside Hom(H,P2) flat coordinates.  Computed, nothing asserted."""
    return Lattice(data.n * data.p2.free_rank, kernel_basis(data.im_delta.basis))
