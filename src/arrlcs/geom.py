"""Exact projective geometry over Q(w) with w^2 + w + 1 = 0.

Verifies that explicit homogeneous line coordinates realize a
configuration: every pairwise intersection point of the lines is
computed exactly, intersections are clustered by location, and the
resulting incidence structure must match the configured one line set
for line set.  No floating point appears anywhere.

Provided realizations:

* ``phi_c8(sign)`` -- the two conjugate realizations of the MacLane
  configuration, with ``w`` read as a primitive cube root of unity
  (``+``) or its complex conjugate (``-``).
* ``glue_realization(sign, psi)`` -- thirteen lines: the ``+``
  realization together with the image of lines 3..7 of the ``sign``
  realization under a projective transformation ``psi`` fixing the
  three shared lines.  For generic ``psi`` the incidence pattern is
  exactly the glued 13-line configuration; genericity is certified
  per seed by the cluster comparison, never argued symbolically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .config import GLUE_LINE_MAP, Configuration, glue_c13


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

# -- projective points and lines --------------------------------------------


class _ProjTriple:
    """Homogeneous coordinate triple, scaled so the first nonzero entry is 1."""

    __slots__ = ("coords",)

    def __init__(self, c0, c1, c2):
        coords = tuple(CycloRational.coerce(c) for c in (c0, c1, c2))
        pivot = next((c for c in coords if c), None)
        if pivot is None:
            raise ValueError("homogeneous coordinates must not all vanish")
        object.__setattr__(self, "coords", tuple(c / pivot for c in coords))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.coords == other.coords

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


def _cross(u: _ProjTriple, v: _ProjTriple) -> tuple[CycloRational, ...]:
    (a0, a1, a2), (b0, b1, b2) = u.coords, v.coords
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def intersection(l1: ProjLine, l2: ProjLine) -> ProjPoint:
    c = _cross(l1, l2)
    if not any(c):
        raise ValueError("coincident lines have no unique intersection")
    return ProjPoint(*c)


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
    w = OMEGA if sign == "+" else OMEGA.conjugate()
    return (
        ProjLine(1, 0, 0),           # z0 = 0
        ProjLine(0, 1, 0),           # z1 = 0
        ProjLine(-1, 1, 0),          # z1 = z0
        ProjLine(0, 0, 1),           # z2 = 0
        ProjLine(-1, 0, 1),          # z2 = z0
        ProjLine(0, w, 1),           # z2 + w*z1 = 0
        ProjLine(-(w + 1), w, 1),    # z2 + w*z1 = (w+1)*z0
        ProjLine(-1, w + 1, 1),      # (w+1)*z1 + z2 = z0
    )


def conjugate_realization(lines) -> tuple[ProjLine, ...]:
    """Apply complex conjugation to every line coefficient."""
    return tuple(ProjLine(*(c.conjugate() for c in l.coords)) for l in lines)


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

    All pairwise intersections are computed exactly and clustered by
    location; the set of cluster line sets must equal the set of
    configured point line sets.  This certifies both that every
    configured point is realized and that no unconfigured concurrence
    (or coincidence of two configured points) occurs.
    """
    lines = tuple(lines)
    if len(lines) != len(config.lines):
        raise ValueError(f"expected {len(config.lines)} lines, got {len(lines)}")
    clusters: dict[ProjPoint, set[int]] = {}
    duplicates: list[tuple[int, int]] = []
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            if lines[i] == lines[j]:
                duplicates.append((i, j))
                continue
            clusters.setdefault(intersection(lines[i], lines[j]), set()).update((i, j))
    realized = {frozenset(ls): pt for pt, ls in clusters.items()}
    configured = {p: frozenset(config.lines_through(p)) for p in config.points}
    configured_sets = set(configured.values())
    missing = tuple(p for p, ls in configured.items() if ls not in realized)
    extra = tuple(
        sorted(tuple(sorted(ls)) for ls in realized if ls not in configured_sets)
    )
    locations = {p: realized[ls] for p, ls in configured.items() if ls in realized}
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


def _inverse3(m) -> tuple[tuple[Fraction, ...], ...]:
    (a, b, c), (d, e, f), (g, h, i) = m
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if det == 0:
        raise ValueError("singular transformation")
    adj = (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )
    return tuple(tuple(x / det for x in row) for row in adj)


def transform_line(psi, line: ProjLine) -> ProjLine:
    """Image of a line under the point transformation with matrix ``psi``.

    Covectors transform by the inverse transpose: c -> c . psi^{-T}.
    """
    inv = _inverse3(psi)
    c = line.coords
    return ProjLine(*(sum((c[j] * inv[k][j] for j in range(3)), ZERO) for k in range(3)))


def glue_realization(sign: str, psi) -> tuple[ProjLine, ...]:
    """Thirteen lines: the ``+`` realization plus psi-images of lines 3..7.

    The second copy uses the ``sign`` realization; its lines 3..7
    become lines 8..12 (``GLUE_LINE_MAP``).  ``psi`` must fix the three shared lines.
    """
    first = phi_c8("+")
    second = phi_c8(sign)
    for i in range(3):
        if transform_line(psi, first[i]) != first[i]:
            raise ValueError("psi must fix the three shared lines")
    return first + tuple(transform_line(psi, second[i]) for i in GLUE_LINE_MAP)


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


def generic_glued_realization(
    sign: str, seed: int, max_attempts: int = 64
) -> GluedRealization:
    """Search seed, seed+1, ... for a gluing transformation that is generic.

    Each candidate is certified by ``check_realization`` against the
    glued 13-line configuration; degenerate candidates are recorded
    and the next seed is tried.
    """
    rejected: list[int] = []
    for k in range(max_attempts):
        s = seed + k
        psi = psi_generic(s)
        lines = glue_realization(sign, psi)
        report = check_realization(glue_c13(), lines)
        if report.ok:
            return GluedRealization(
                sign=sign,
                lines=lines,
                psi=psi,
                seed=s,
                rejected_seeds=tuple(rejected),
                report=report,
            )
        rejected.append(s)
    raise DegenerateRealization(
        f"no generic gluing in {max_attempts} attempts starting from seed {seed}"
    )
