"""Test-only helpers: oracles and builders that no program path calls."""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from arrlcs.config import Configuration
from arrlcs.exactlin import Lattice, kernel_basis, perp
from arrlcs.geom import ZERO, CycloRational, ProjLine, ProjPoint, _cross
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


def incident(line: ProjLine, point: ProjPoint) -> bool:
    return not sum((a * z for a, z in zip(line.coords, point.coords)), ZERO)


def line_through(p1: ProjPoint, p2: ProjPoint) -> ProjLine:
    c = _cross(p1, p2)
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
