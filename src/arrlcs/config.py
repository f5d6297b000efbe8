"""Abstract line configurations and their combinatorial symmetries.

A configuration is a finite set of named lines together with named
points and a line/point incidence relation subject to two axioms:
every pair of lines passes through exactly one common point, and every
point lies on at least two lines.  Line index 0 plays the role of the
line at infinity for everything downstream (it carries no group
generator).

The built-in configurations are the MacLane arrangement combinatorics
on 8 lines and its k-fold gluings ``glue_copies(k)``: k copies sharing
lines 0, 1, 2 and their common point, each copy's lines placed by
``copy_line``.  Rybnikov's 13-line C13 is the case k = 2 (``glue_c13``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import combinations, product
from typing import Iterable, Sequence


class ConfigFormatError(ValueError):
    """Structurally malformed configuration data (bad JSON shape, bad names)."""


class ConfigMismatchError(ValueError):
    """Arguments built over different (or unexpected) configurations."""


class Configuration:
    """Immutable incidence structure; axioms are checked by ``validate``."""

    __slots__ = ("lines", "points", "incidence", "_line_index", "_point_lines", "_line_points", "_point_of", "_common", "_index")

    def __init__(
        self,
        lines: Sequence[str],
        points: Sequence[str],
        incidence: Iterable[tuple[str, str]],
    ):
        lines = tuple(lines)
        points = tuple(sorted(points))
        inc = frozenset((l, p) for l, p in incidence)
        if len(set(lines)) != len(lines):
            raise ConfigFormatError("duplicate line names")
        if len(set(points)) != len(points):
            raise ConfigFormatError("duplicate point names")
        line_index = {name: i for i, name in enumerate(lines)}
        point_set = set(points)
        for l, p in inc:
            if l not in line_index:
                raise ConfigFormatError(f"incidence references unknown line {l!r}")
            if p not in point_set:
                raise ConfigFormatError(f"incidence references unknown point {p!r}")
        point_lines, line_points = {p: [] for p in points}, [[] for _ in lines]
        for l, p in inc:
            point_lines[p].append(line_index[l])
        for p in points:  # sorted, so each line's points come in ``points`` order
            for i in point_lines[p]:
                line_points[i].append(p)
        object.__setattr__(self, "lines", lines)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "incidence", inc)
        object.__setattr__(self, "_line_index", line_index)
        object.__setattr__(
            self, "_point_lines", {p: tuple(sorted(ls)) for p, ls in point_lines.items()}
        )
        object.__setattr__(self, "_line_points", tuple(map(tuple, line_points)))
        object.__setattr__(self, "_point_of", None)
        object.__setattr__(self, "_common", None)
        object.__setattr__(self, "_index", None)

    def __setattr__(self, name, value):
        raise AttributeError("Configuration is immutable")

    # -- accessors --------------------------------------------------------

    def line_index(self, name: str) -> int:
        return self._line_index[name]

    def lines_through(self, point: str) -> tuple[int, ...]:
        """Sorted indices of the lines through a point."""
        return self._point_lines[point]

    def points_on(self, line: int) -> tuple[str, ...]:
        """The points on a line, in ``points`` order."""
        return self._line_points[line]

    def multiplicity(self, point: str) -> int:
        return len(self._point_lines[point])

    def point_of(self, lines: frozenset[int]) -> str | None:
        """The point whose lines are exactly ``lines``, or None if there is none."""
        if self._point_of is None:
            object.__setattr__(self, "_point_of", {frozenset(ls): p for p, ls in self._point_lines.items()})
        return self._point_of.get(lines)

    @property
    def index(self) -> "IncidenceIndex":
        """The flag enumeration every coordinate downstream uses, built once."""
        if self._index is None:
            object.__setattr__(self, "_index", IncidenceIndex(self))
        return self._index

    def common_point(self, i: int, j: int) -> str | None:
        """The unique point on both lines, or None if there is none."""
        if self._common is None:
            table: dict[tuple[int, int], str | None] = {}
            for p in self.points:
                for key in combinations(self._point_lines[p], 2):
                    table.setdefault(key, p)  # keep the first; validate() reports duplicates
            object.__setattr__(self, "_common", table)
        key = (i, j) if i < j else (j, i)
        return self._common.get(key)

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, Configuration)
            and self.lines == other.lines
            and self.points == other.points
            and self.incidence == other.incidence
        )

    def __hash__(self) -> int:
        return hash((self.lines, self.points, self.incidence))

    def __repr__(self) -> str:
        return f"Configuration({len(self.lines)} lines, {len(self.points)} points)"

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "lines": list(self.lines),
            "infinity": self.lines[0],
            "points": [
                {"name": p, "lines": [self.lines[i] for i in self.lines_through(p)]}
                for p in self.points
            ],
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def load_configuration(data: dict) -> Configuration:
    """Build a Configuration from the documented JSON shape.

    The named infinity line is moved to index 0; the relative order of
    the remaining lines is preserved.
    """
    if not isinstance(data, dict):
        raise ConfigFormatError("configuration JSON must be an object")
    try:
        lines = data["lines"]
        infinity = data["infinity"]
        points = data["points"]
    except KeyError as exc:
        raise ConfigFormatError(f"missing configuration field: {exc}") from exc
    if not isinstance(lines, list) or not all(isinstance(l, str) for l in lines):
        raise ConfigFormatError("'lines' must be a list of line names")
    if infinity not in lines:
        raise ConfigFormatError("infinity line is not in the line list")
    if len(set(lines)) != len(lines):
        raise ConfigFormatError("duplicate line names")
    if not isinstance(points, list):
        raise ConfigFormatError("'points' must be a list")
    lines = [infinity] + [l for l in lines if l != infinity]
    names = []
    incidence = []
    for entry in points:
        if not isinstance(entry, dict) or "name" not in entry or "lines" not in entry:
            raise ConfigFormatError("each point needs 'name' and 'lines'")
        name, on = entry["name"], entry["lines"]
        if not isinstance(name, str) or not isinstance(on, list):
            raise ConfigFormatError("each point needs a string 'name' and a list of 'lines'")
        if not all(isinstance(l, str) for l in on):
            raise ConfigFormatError(f"point {name!r}: 'lines' must hold line names (strings)")
        twice = next((l for k, l in enumerate(on) if l in on[:k]), None)
        if twice is not None:
            raise ConfigFormatError(f"point {name!r} names line {twice!r} twice")
        names.append(name)
        incidence.extend((l, name) for l in on)
    return Configuration(lines, names, incidence)


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook`` for ``json.load`` that refuses an object repeating a key."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigFormatError(f"JSON object repeats the key {key!r}")
        out[key] = value
    return out


def load_json_file(path: str):
    """The JSON document at ``path``, read with ``unique_keys``; a parse error is a ``ConfigFormatError`` starting ``invalid JSON: ``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=unique_keys)
        except json.JSONDecodeError as exc:
            raise ConfigFormatError(f"invalid JSON: {exc}") from exc


def load_configuration_file(path: str) -> Configuration:
    return load_configuration(load_json_file(path))


def _builtin_json(name: str) -> dict:
    text = resources.files("arrlcs").joinpath(f"data/{name}").read_text("utf-8")
    return json.loads(text)


# -- validation -----------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]
    degenerate: bool

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": list(self.violations),
            "degenerate": self.degenerate,
        }


def validate(config: Configuration) -> ValidationReport:
    """Check the two configuration axioms and flag degeneracy.

    Degenerate means every line passes through one single point (or
    there are no points at all); such inputs are rejected downstream.
    """
    violations: list[str] = []
    nlines = len(config.lines)
    seen: dict[tuple[int, int], list[str]] = {}
    for p in config.points:
        ls = config.lines_through(p)
        if len(ls) < 2:
            violations.append(f"point {p!r} lies on fewer than two lines")
        for key in combinations(ls, 2):
            seen.setdefault(key, []).append(p)
    for i, j in combinations(range(nlines), 2):
        hits = seen.get((i, j), [])
        if not hits:
            violations.append(f"lines {config.lines[i]!r} and {config.lines[j]!r} share no point")
        elif len(hits) > 1:
            violations.append(f"lines {config.lines[i]!r} and {config.lines[j]!r} share points {hits}")
    degenerate = len(config.points) <= 1
    return ValidationReport(ok=not violations, violations=tuple(violations), degenerate=degenerate)


# -- built-in configurations ----------------------------------------------


@lru_cache(maxsize=None)
def maclane_c8() -> Configuration:
    """The MacLane configuration: 8 lines, 8 triple points, 4 double points."""
    return load_configuration(_builtin_json("maclane8.json"))


def copy_line(c: int, i: int) -> int:
    """Line i of MacLane copy c in ``glue_copies``: 0, 1, 2 are shared, and 3..7 become 3+5c..7+5c."""
    return i if i < 3 else i + 5 * c


@lru_cache(maxsize=None)
def glue_copies(k: int) -> Configuration:
    """k MacLane copies glued along lines 0, 1, 2 and their triple point p012.

    Copy c sends line i to ``copy_line(c, i)``, and a point keeps the name
    the first copy gives its line set, so the copies share p012.  Copy c
    writes pX as p, 2c - 1 primes (none for copy 0), X.  Line i of copy a
    meets line j of copy b > a at a double point p, 2b primes, ``{i}{j - 5b}``.
    """
    if k < 1:
        raise ValueError(f"a gluing needs at least one MacLane copy, got k = {k}")
    base, points = maclane_c8(), {}
    for c in range(k):
        for p in base.points:
            on = frozenset(copy_line(c, i) for i in base.lines_through(p))
            points.setdefault(on, "p" + "'" * (2 * c - 1) + p[1:])
        for i, j in product(range(3, copy_line(c, 3)), range(3, 8)):
            points[frozenset((i, copy_line(c, j)))] = "p" + "'" * (2 * c) + f"{i}{j}"
    lines = [f"l{i}" for i in range(copy_line(k - 1, 7) + 1)]
    return Configuration(lines, list(points.values()), [(lines[i], p) for on, p in points.items() for i in on])


def glue_c13() -> Configuration:
    """Rybnikov's C13, ``glue_copies(2)``: 13 lines and 48 points, named p'X and p''ij past the first copy."""
    return glue_copies(2)


# -- incidence bookkeeping used by the group-theoretic layer ---------------


class IncidenceIndex:
    """Fixed enumeration of the finite points and their line flags.

    ``p0`` lists the points off line 0 sorted by name; ``pairs`` lists
    all flags ``(line index, point)`` for those points, ordered by point
    name then line index.  Generator flags drop the minimal line at each
    point (its relator is redundant).
    """

    __slots__ = ("config", "n", "p0", "pairs", "pair_pos", "generator_pairs", "gen_pos")

    def __init__(self, config: Configuration):
        inf = config.lines[0]
        p0 = tuple(p for p in config.points if (inf, p) not in config.incidence)
        pairs = []
        gens = []
        for p in p0:
            ls = config.lines_through(p)
            for i in ls:
                pairs.append((i, p))
                if i != min(ls):
                    gens.append((i, p))
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "n", len(config.lines) - 1)
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "pairs", tuple(pairs))
        object.__setattr__(self, "pair_pos", {f: k for k, f in enumerate(pairs)})
        object.__setattr__(self, "generator_pairs", tuple(gens))
        object.__setattr__(self, "gen_pos", {f: k for k, f in enumerate(gens)})

    def __setattr__(self, name, value):
        raise AttributeError("IncidenceIndex is immutable")


# -- automorphisms ----------------------------------------------------------


@dataclass(frozen=True)
class ConfigAutomorphism:
    """Incidence-preserving permutation of lines; it determines the point map.

    ``line_perm[i]`` is the image index of line i.  ``from_line_perm``
    is the constructor that checks incidence.
    """

    config: Configuration
    line_perm: tuple[int, ...]

    @staticmethod
    def from_line_perm(config: Configuration, line_perm: Sequence[int]) -> "ConfigAutomorphism":
        """The automorphism with the given line permutation; ValueError if it breaks incidence."""
        sigma = ConfigAutomorphism(config, tuple(line_perm))
        if any(sigma.point_image(p) is None for p in config.points):
            raise ValueError("line permutation does not preserve incidence")
        return sigma

    @staticmethod
    def identity(config: Configuration) -> "ConfigAutomorphism":
        return ConfigAutomorphism(config, tuple(range(len(config.lines))))

    def compose(self, other: "ConfigAutomorphism") -> "ConfigAutomorphism":
        """self after other."""
        if self.config != other.config:
            raise ValueError("automorphisms of different configurations")
        return ConfigAutomorphism(self.config, tuple(self.line_perm[j] for j in other.line_perm))

    def inverse(self) -> "ConfigAutomorphism":
        lp = [0] * len(self.line_perm)
        for i, j in enumerate(self.line_perm):
            lp[j] = i
        return ConfigAutomorphism(self.config, tuple(lp))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.line_perm))

    def order(self) -> int:
        k = 1
        cur = self
        ident = ConfigAutomorphism.identity(self.config)
        while cur != ident:
            cur = cur.compose(self)
            k += 1
        return k

    def point_image(self, point: str) -> str | None:
        """The point on the images of ``point``'s lines (None only if incidence breaks)."""
        return self.config.point_of(frozenset(self.line_perm[i] for i in self.config.lines_through(point)))


def _line_maps(a: Configuration, b: Configuration, _fix_line_0: bool = False) -> list[tuple[tuple[int, ...], tuple[str, ...]]]:
    """Every incidence isomorphism a -> b as (line permutation, point images in ``a.points`` order).

    One backtracking search over line indices builds both maps.  Line k
    may go to j only if j is unused and has k's profile (the sorted
    multiplicities of its points).  Sending k to j maps the common point
    p of each earlier pair (i, k) to the common point q of (σi, j): q must
    exist, have p's multiplicity, agree with any image p has, and be the
    image of no other point; backtracking undoes these entries.  Each
    complete map is checked once: every point has an image and every flag
    (i, p) of ``a`` goes to a flag (σi, σp) of ``b``.  Both maps are
    injective and the flag counts equal, so the flags then correspond one
    to one.  The check is not redundant on input that fails ``validate``:
    a point that no pair of its lines names (one on a single line, say)
    gets no image, and the map is rejected.  ``_fix_line_0`` pins 0 → 0.
    """
    nl = len(a.lines)
    if (nl, len(a.points), len(a.incidence)) != (len(b.lines), len(b.points), len(b.incidence)):
        return []
    prof_a, prof_b = ([tuple(sorted(c.multiplicity(p) for p in c.points_on(i))) for i in range(nl)] for c in (a, b))
    cand = [[j for j in range(nl) if prof_b[j] == prof_a[i] and (i or j == 0 or not _fix_line_0)] for i in range(nl)]
    meet_a, meet_b = ([[c.common_point(i, k) for i in range(nl)] for k in range(nl)] for c in (a, b))
    mult_a, mult_b = ({p: c.multiplicity(p) for p in c.points} for c in (a, b))
    flags_a, flags_b = [(a.line_index(l), p) for l, p in a.incidence], {(b.line_index(l), q) for l, q in b.incidence}
    out: list[tuple[tuple[int, ...], tuple[str, ...]]] = []
    sigma, used, image, preimage = [-1] * nl, [False] * nl, {}, {}

    def extend(k: int) -> None:
        if k == nl:
            if len(image) == len(a.points) and all((sigma[i], image[p]) in flags_b for i, p in flags_a):
                out.append((tuple(sigma), tuple(image[p] for p in a.points)))
            return
        for j in cand[k]:
            if used[j]:
                continue
            added = []
            for i in range(k):
                p, q = meet_a[k][i], meet_b[j][sigma[i]]
                if p is None or q is None or mult_a[p] != mult_b[q] or image.get(p, q) != q or preimage.get(q, p) != p:
                    break
                if p not in image:
                    image[p], preimage[q] = q, p
                    added.append(p)
            else:
                sigma[k], used[j] = j, True
                extend(k + 1)
                used[j] = False
            for p in added:
                del preimage[image.pop(p)]

    extend(0)
    return out


def isomorphisms(a: Configuration, b: Configuration) -> list[dict]:
    """All incidence isomorphisms a -> b as line/point name maps (see ``_line_maps``)."""
    return [
        {"lines": {a.lines[i]: b.lines[j] for i, j in enumerate(line_perm)}, "points": dict(zip(a.points, points))}
        for line_perm, points in _line_maps(a, b)
    ]


def automorphisms(config: Configuration) -> list[ConfigAutomorphism]:
    """The full automorphism group, sorted by line permutation."""
    return sorted((ConfigAutomorphism(config, perm) for perm, _ in _line_maps(config, config)), key=lambda s: s.line_perm)


def partition_check(config: Configuration, autos: Sequence[ConfigAutomorphism]) -> bool:
    """True if every automorphism maps the shared-line set {0,1,2} to itself."""
    shared = {0, 1, 2}
    return all({s.line_perm[i] for i in shared} == shared for s in autos)


def is_s3_times_z2(autos: Sequence[ConfigAutomorphism]) -> bool:
    """Recognize S3 x Z2 among groups of order 12.

    A group of order 12 is S3 x Z2 iff it is nonabelian with a center
    of order 2 and exactly seven involutions (the dicyclic group shares
    the center but has a single involution; A4 has trivial center).  The
    12 × 12 table composes the line permutations directly, each ordered
    pair once, with the configurations compared once up front.
    """
    key = {s.line_perm: k for k, s in enumerate(autos)}
    if len(autos) != 12 or len(key) != 12:
        return False
    if any(s.config != autos[0].config for s in autos):
        raise ValueError("automorphisms of different configurations")
    perms = list(key)
    table = [[key.get(tuple([p[j] for j in q])) for q in perms] for p in perms]
    if any(None in row for row in table):
        return False
    # a finite set of permutations closed under composition is a group
    e = key[tuple(range(len(perms[0])))]
    center = [s for s in range(12) if all(table[s][t] == table[t][s] for t in range(12))]
    involutions = [s for s in range(12) if s != e and table[s][s] == e]
    return len(center) == 2 and len(involutions) == 7
