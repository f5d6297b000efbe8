"""Exact projective geometry over Q(w) with w^2 + w + 1 = 0.

Verifies that explicit homogeneous line coordinates realize a
configuration.  A ``ProjLine`` or ``ProjPoint`` holds the Z[w] triple
it was built from, as (a, b) int pairs for a + b*w, and is normalized
to ``Fraction`` coordinates only when ``coords`` is read; two are equal
when their cross product vanishes.  For each pair of distinct lines not
yet known to meet, the integral cross product P of their covectors is
taken, and the lines through P are those with Z[w] dot product 0 with
P; every pair among them then meets at P.  The resulting incidence
structure must match the configured one line set for line set.  No
floating point appears anywhere.

Provided realizations:

* ``phi_c8(sign)`` -- the two conjugate realizations of the MacLane
  configuration, with ``w`` read as a primitive cube root of unity
  (``+``) or its complex conjugate (``-``).
* ``glue_realization(sign, psi)`` -- thirteen lines: the ``+``
  realization together with the image of lines 3..7 of the ``sign``
  realization under a projective transformation ``psi`` fixing the
  three shared lines.  For generic ``psi`` the incidence pattern is
  exactly C13, ``config.glue_c13`` (the two-copy case of
  ``glue_copies``); genericity is certified per seed by the incidence
  comparison, never argued symbolically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm

from .config import Configuration, glue_c13


class DegenerateRealization(ValueError):
    """No generic gluing transformation was found in the attempt budget."""


# -- the coefficient field --------------------------------------------------


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


class CycloRational:
    """Element a + b*w of Q(w), reduced by w^2 = -w - 1."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("CycloRational is immutable")

    @staticmethod
    def coerce(x) -> "CycloRational":
        if isinstance(x, CycloRational):
            return x
        return CycloRational(_as_fraction(x))

    def __add__(self, other):
        other = CycloRational.coerce(other)
        return CycloRational(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = CycloRational.coerce(other)
        return CycloRational(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return CycloRational.coerce(other) - self

    def __neg__(self):
        return CycloRational(-self.a, -self.b)

    def __mul__(self, other):
        other = CycloRational.coerce(other)
        a, b, c, d = self.a, self.b, other.a, other.b
        return CycloRational(a * c - b * d, a * d + b * c - b * d)

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        """Field norm to Q: (a+b*w)(a+b*conj(w)) = a^2 - a*b + b^2."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def conjugate(self) -> "CycloRational":
        """The automorphism w -> -1 - w (complex conjugation)."""
        return CycloRational(self.a - self.b, -self.b)

    def inverse(self) -> "CycloRational":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(w)")
        conj = self.conjugate()
        return CycloRational(conj.a / n, conj.b / n)

    def __truediv__(self, other):
        return self * CycloRational.coerce(other).inverse()

    def __rtruediv__(self, other):
        return CycloRational.coerce(other) * self.inverse()

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, CycloRational)):
            other = CycloRational.coerce(other)
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __repr__(self) -> str:
        return f"CycloRational({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        if self.b >= 0:
            return f"{self.a}+{self.b}*w"
        return f"{self.a}-{-self.b}*w"


ZERO = CycloRational(0)
ONE = CycloRational(1)
OMEGA = CycloRational(0, 1)
_ZERO3 = ((0, 0),) * 3

# -- integral coordinates ----------------------------------------------------
#
# A triple over Q(w) scaled by the common denominator of its rational parts
# is a triple over Z[w], stored as (a, b) int pairs for a + b*w.  Scaling
# changes no projective answer, so incidence and coincidence are decided on
# these int pairs, and a triple becomes Fractions only when it is read.


def _integral(coords) -> tuple[tuple[int, int], ...]:
    """``coords`` (``CycloRational``s) scaled into Z[w] by their common denominator."""
    parts = [f for c in coords for f in (c.a, c.b)]
    den = lcm(*(f.denominator for f in parts))
    ints = [f.numerator * (den // f.denominator) for f in parts]
    return tuple(zip(ints[0::2], ints[1::2]))


def _zcross(u, v) -> tuple[tuple[int, int], ...]:
    """Cross product of two Z[w] triples."""
    (a0, b0), (a1, b1), (a2, b2) = u
    (c0, d0), (c1, d1), (c2, d2) = v
    # u_i v_j - u_j v_i, with (a + b*w)(c + d*w) = ac - bd + (ad + bc - bd)*w
    return (
        (a1 * c2 - b1 * d2 - a2 * c1 + b2 * d1, a1 * d2 + b1 * c2 - b1 * d2 - a2 * d1 - b2 * c1 + b2 * d1),
        (a2 * c0 - b2 * d0 - a0 * c2 + b0 * d2, a2 * d0 + b2 * c0 - b2 * d0 - a0 * d2 - b0 * c2 + b0 * d2),
        (a0 * c1 - b0 * d1 - a1 * c0 + b1 * d0, a0 * d1 + b0 * c1 - b0 * d1 - a1 * d0 - b1 * c0 + b1 * d0),
    )


def _incident(line, point) -> bool:
    """Whether the Z[w] dot product of a covector and a point vanishes."""
    (a0, b0), (a1, b1), (a2, b2) = line
    (c0, d0), (c1, d1), (c2, d2) = point
    return not (a0 * c0 - b0 * d0 + a1 * c1 - b1 * d1 + a2 * c2 - b2 * d2) and not (
        a0 * d0 + b0 * c0 - b0 * d0 + a1 * d1 + b1 * c1 - b1 * d1 + a2 * d2 + b2 * c2 - b2 * d2
    )


def _canonical(z) -> tuple[CycloRational, ...]:
    """A nonzero Z[w] triple divided by its first nonzero entry p.

    Each entry x becomes x * conj(p) / N(p), with the norm N(p) =
    p * conj(p) a positive integer, so every ``Fraction`` is built once,
    already in lowest terms.
    """
    pa, pb = next(p for p in z if p != (0, 0))
    ca, cb = pa - pb, -pb
    n = pa * pa - pa * pb + pb * pb
    return tuple(
        CycloRational(Fraction(a * ca - b * cb, n), Fraction(a * cb + b * ca - b * cb, n))
        for a, b in z
    )


# -- projective points and lines --------------------------------------------


class _ProjTriple:
    """Homogeneous coordinate triple held as the Z[w] triple ``z``; equal when cross products vanish.

    ``coords``, scaled so the first nonzero entry is 1, is built on first read and kept.
    """

    def __init__(self, c0, c1, c2):
        z = _integral([CycloRational.coerce(c) for c in (c0, c1, c2)])
        if z == _ZERO3:
            raise ValueError("homogeneous coordinates must not all vanish")
        object.__setattr__(self, "z", z)

    @classmethod
    def _from_integral(cls, z):
        """The triple with Z[w] coordinates ``z``, which must not all vanish."""
        t = object.__new__(cls)
        object.__setattr__(t, "z", z)
        return t

    @cached_property
    def coords(self) -> tuple[CycloRational, ...]:
        return _canonical(self.z)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and _zcross(self.z, other.z) == _ZERO3

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.coords))

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self.coords)
        return f"{type(self).__name__}({inner})"

    def to_json(self) -> list:
        return [str(c) for c in self.coords]


class ProjPoint(_ProjTriple):
    """Point (z0 : z1 : z2) of the projective plane over Q(w)."""


class ProjLine(_ProjTriple):
    """Line {a*z0 + b*z1 + c*z2 = 0} with covector (a, b, c)."""


def intersection(l1: ProjLine, l2: ProjLine) -> ProjPoint:
    c = _zcross(l1.z, l2.z)
    if c == _ZERO3:
        raise ValueError("coincident lines have no unique intersection")
    return ProjPoint._from_integral(c)


# -- the two conjugate MacLane realizations ---------------------------------


def phi_c8(sign: str) -> tuple[ProjLine, ...]:
    """Eight explicit lines realizing the MacLane configuration.

    ``sign`` is ``"+"`` or ``"-"`` and selects which primitive cube
    root of unity the symbol ``w`` denotes; the two realizations are
    coefficient-wise complex conjugates and are not projectively
    equivalent by any configuration-compatible transformation.
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    # w, w + 1 and -(w + 1) as (a, b) pairs for a + b*w; "-" reads w as -1 - w
    w, w1, mw1 = ((0, 1), (1, 1), (-1, -1)) if sign == "+" else ((-1, -1), (0, -1), (0, 1))
    o, i, m = (0, 0), (1, 0), (-1, 0)
    rows = (
        (i, o, o),      # z0 = 0
        (o, i, o),      # z1 = 0
        (m, i, o),      # z1 = z0
        (o, o, i),      # z2 = 0
        (m, o, i),      # z2 = z0
        (o, w, i),      # z2 + w*z1 = 0
        (mw1, w, i),    # z2 + w*z1 = (w+1)*z0
        (m, w1, i),     # (w+1)*z1 + z2 = z0
    )
    return tuple(ProjLine._from_integral(z) for z in rows)


def conjugate_realization(lines) -> tuple[ProjLine, ...]:
    """Apply complex conjugation, a + b*w -> (a - b) - b*w, to every line coefficient."""
    return tuple(ProjLine._from_integral(tuple((a - b, -b) for a, b in l.z)) for l in lines)


# -- incidence check against a configuration --------------------------------


@dataclass
class RealizationReport:
    """Outcome of comparing realized intersection clusters with a configuration.

    ``missing`` lists configured points whose line set is not realized
    as a common intersection; ``extra`` lists realized clusters whose
    line set is not configured; ``duplicate_lines`` lists index pairs
    of coincident lines.  ``locations`` maps each matched point to its
    realized coordinates.
    """

    ok: bool
    missing: tuple[str, ...]
    extra: tuple[tuple[int, ...], ...]
    duplicate_lines: tuple[tuple[int, int], ...]
    locations: dict[str, ProjPoint]

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "missing": list(self.missing),
            "extra": [list(t) for t in self.extra],
            "duplicate_lines": [list(t) for t in self.duplicate_lines],
            "points": {p: pt.to_json() for p, pt in sorted(self.locations.items())},
        }


def check_realization(config: Configuration, lines) -> RealizationReport:
    """Compare the incidence pattern of ``lines`` with ``config``.

    Incidence is decided on the lines' covectors scaled into Z[w]: for
    each pair of distinct lines not yet known to meet at a found point,
    their cross product P is a new point, and its line set is every
    line whose covector has dot product 0 with P.  The set of these line
    sets must equal the set of configured point line sets.  This
    certifies both that every configured point is realized and that no
    unconfigured concurrence (or coincidence of two configured points)
    occurs.  Two lines with zero cross product are duplicates.  Each
    matched point in ``locations`` is its integral cross product.
    """
    lines = tuple(lines)
    if len(lines) != len(config.lines):
        raise ValueError(f"expected {len(config.lines)} lines, got {len(lines)}")
    covectors = [l.z for l in lines]
    realized: dict[frozenset[int], tuple] = {}
    met: set[tuple[int, int]] = set()
    duplicates: list[tuple[int, int]] = []
    for i, j in combinations(range(len(lines)), 2):
        point = _zcross(covectors[i], covectors[j])
        if point == _ZERO3:
            duplicates.append((i, j))
        elif (i, j) not in met:
            on = [k for k, cov in enumerate(covectors) if _incident(cov, point)]
            met.update(combinations(on, 2))
            realized[frozenset(on)] = point
    configured = {p: frozenset(config.lines_through(p)) for p in config.points}
    configured_sets = set(configured.values())
    missing = tuple(p for p, ls in configured.items() if ls not in realized)
    extra = tuple(
        sorted(tuple(sorted(ls)) for ls in realized if ls not in configured_sets)
    )
    locations = {
        p: ProjPoint._from_integral(realized[ls])
        for p, ls in configured.items()
        if ls in realized
    }
    ok = not missing and not extra and not duplicates
    return RealizationReport(
        ok=ok,
        missing=missing,
        extra=extra,
        duplicate_lines=tuple(duplicates),
        locations=locations,
    )


# -- gluing two realizations -------------------------------------------------


def psi_generic(seed: int) -> tuple[tuple[Fraction, ...], ...]:
    """A random projective transformation fixing the three shared lines.

    Returns the transpose of [[1,0,0],[0,1,0],[u,v,w]] with nonzero
    rationals u, v, w drawn deterministically from ``seed``; its
    inverse transpose fixes the covectors (1,0,0), (0,1,0), (-1,1,0),
    i.e. the pencil of lines through the shared triple point that
    contains the three shared lines.
    """
    rng = random.Random(seed)

    def draw() -> Fraction:
        num = 0
        while num == 0:
            num = rng.randint(-9, 9)
        return Fraction(num, rng.randint(1, 9))

    u, v, w = draw(), draw(), draw()
    one, zero = Fraction(1), Fraction(0)
    return ((one, zero, u), (zero, one, v), (zero, zero, w))


def _covector_map(psi) -> tuple[tuple[int, ...], ...]:
    """An integer matrix proportional to psi^{-1}: the adjugate of psi scaled to integers.

    Covectors transform by c -> c . psi^{-T}; up to a nonzero factor,
    which changes no projective line, that is c -> c . adj^T.
    """
    rows = [[_as_fraction(x) for x in row] for row in psi]
    den = lcm(*(x.denominator for row in rows for x in row))
    (a, b, c), (d, e, f), (g, h, i) = ([x.numerator * (den // x.denominator) for x in row] for row in rows)
    adj = (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )
    if a * adj[0][0] + b * adj[1][0] + c * adj[2][0] == 0:
        raise ValueError("singular transformation")
    return adj


def _moved(adj, line: ProjLine) -> ProjLine:
    """Image of ``line`` under the covector map ``adj`` from ``_covector_map``."""
    z = line.z
    return ProjLine._from_integral(
        tuple(
            (sum(a * m for (a, _), m in zip(z, row)), sum(b * m for (_, b), m in zip(z, row)))
            for row in adj
        )
    )


def glue_realization(sign: str, psi) -> tuple[ProjLine, ...]:
    """Thirteen lines: the ``+`` realization plus psi-images of lines 3..7.

    The second copy uses the ``sign`` realization; its lines 3..7
    become lines 8..12 of ``glue_c13``.  ``psi`` must fix the three shared lines.
    """
    adj = _covector_map(psi)
    first, second = phi_c8("+"), phi_c8(sign)
    if any(_moved(adj, line) != line for line in first[:3]):
        raise ValueError("psi must fix the three shared lines")
    return first + tuple(_moved(adj, line) for line in second[3:])


@dataclass
class GluedRealization:
    """A certified-generic glued realization and how it was found."""

    sign: str
    lines: tuple[ProjLine, ...]
    psi: tuple[tuple[Fraction, ...], ...]
    seed: int
    rejected_seeds: tuple[int, ...]
    report: RealizationReport

    def to_json_dict(self) -> dict:
        return {
            "sign": self.sign,
            "lines": [l.to_json() for l in self.lines],
            "psi": [[str(x) for x in row] for row in self.psi],
            "seed": self.seed,
            "rejected_seeds": list(self.rejected_seeds),
            "report": self.report.to_json_dict(),
        }


# seeds ``generic_glued_realization`` tries before it gives up
MAX_GLUING_ATTEMPTS = 64


def generic_glued_realization(sign: str, seed: int) -> GluedRealization:
    """Search seed, seed+1, ... for a gluing transformation that is generic.

    Each candidate is certified by ``check_realization`` against the
    glued 13-line configuration; degenerate candidates are recorded
    and the next seed is tried, up to ``MAX_GLUING_ATTEMPTS`` seeds.
    """
    rejected: list[int] = []
    for k in range(MAX_GLUING_ATTEMPTS):
        s = seed + k
        psi = psi_generic(s)
        lines = glue_realization(sign, psi)
        report = check_realization(glue_c13(), lines)
        if report.ok:
            return GluedRealization(sign, lines, psi, s, tuple(rejected), report)
        rejected.append(s)
    raise DegenerateRealization(
        f"no generic gluing in {MAX_GLUING_ATTEMPTS} attempts starting from seed {seed}"
    )
