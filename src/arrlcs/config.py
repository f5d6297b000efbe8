"""Abstract line configurations and their combinatorial symmetries.

A configuration is a finite set of named lines together with named
points and a line/point incidence relation subject to two axioms:
every pair of lines passes through exactly one common point, and every
point lies on at least two lines.  Line index 0 plays the role of the
line at infinity for everything downstream (it carries no group
generator).

The two built-in configurations are the MacLane arrangement
combinatorics on 8 lines and the 13-line configuration obtained by
gluing two copies along three shared lines and their common point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable, Sequence


class ConfigFormatError(ValueError):
    """Structurally malformed configuration data (bad JSON shape, bad names)."""


class Configuration:
    """Immutable incidence structure; axioms are checked by ``validate``."""

    __slots__ = ("lines", "points", "incidence", "_line_index", "_point_lines", "_common")

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
        point_lines = {p: [] for p in points}
        for l, p in inc:
            point_lines[p].append(line_index[l])
        object.__setattr__(self, "lines", lines)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "incidence", inc)
        object.__setattr__(self, "_line_index", line_index)
        object.__setattr__(
            self, "_point_lines", {p: tuple(sorted(ls)) for p, ls in point_lines.items()}
        )
        object.__setattr__(self, "_common", None)

    def __setattr__(self, name, value):
        raise AttributeError("Configuration is immutable")

    # -- accessors --------------------------------------------------------

    def line_index(self, name: str) -> int:
        return self._line_index[name]

    def lines_through(self, point: str) -> tuple[int, ...]:
        """Sorted indices of the lines through a point."""
        return self._point_lines[point]

    def points_on(self, line: int) -> tuple[str, ...]:
        name = self.lines[line]
        return tuple(p for p in self.points if (name, p) in self.incidence)

    def multiplicity(self, point: str) -> int:
        return len(self._point_lines[point])

    def common_point(self, i: int, j: int) -> str | None:
        """The unique point on both lines, or None if there is none."""
        if self._common is None:
            table: dict[tuple[int, int], str | None] = {}
            for p in self.points:
                ls = self._point_lines[p]
                for a in range(len(ls)):
                    for b in range(a + 1, len(ls)):
                        key = (ls[a], ls[b])
                        # keep the first; validate() reports duplicates
                        table.setdefault(key, p)
            object.__setattr__(self, "_common", table)
        key = (i, j) if i < j else (j, i)
        return self._common.get(key)

    def __eq__(self, other) -> bool:
        return (
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
        names.append(name)
        incidence.extend((l, name) for l in on)
    return Configuration(lines, names, incidence)


def load_configuration_file(path: str) -> Configuration:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigFormatError(f"invalid JSON: {exc}") from exc
    return load_configuration(data)


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
        for a in range(len(ls)):
            for b in range(a + 1, len(ls)):
                seen.setdefault((ls[a], ls[b]), []).append(p)
    for i in range(nlines):
        for j in range(i + 1, nlines):
            hits = seen.get((i, j), [])
            if not hits:
                violations.append(
                    f"lines {config.lines[i]!r} and {config.lines[j]!r} share no point"
                )
            elif len(hits) > 1:
                violations.append(
                    f"lines {config.lines[i]!r} and {config.lines[j]!r} share points {hits}"
                )
    degenerate = len(config.points) <= 1
    return ValidationReport(ok=not violations, violations=tuple(violations), degenerate=degenerate)


# -- built-in configurations ----------------------------------------------


@lru_cache(maxsize=None)
def maclane_c8() -> Configuration:
    """The MacLane configuration: 8 lines, 8 triple points, 4 double points."""
    return load_configuration(_builtin_json("maclane8.json"))


@lru_cache(maxsize=None)
def glue_c13() -> Configuration:
    """Two MacLane copies glued along lines 0,1,2 and their common triple point.

    The second copy's lines 3..7 become lines 8..12.  Its points other
    than the shared one get a prime in the name; the 25 new crossings
    between old and new lines are double points named ``p''ij`` for the
    intersection of line i with line j+5 (i, j between 3 and 7).
    """
    base = maclane_c8()
    shared = {0, 1, 2}
    lines = [f"l{i}" for i in range(13)]

    def relabel(i: int) -> int:
        return i if i in shared else i + 5

    points: dict[str, set[int]] = {}
    for p in base.points:
        points[p] = set(base.lines_through(p))
    for p in base.points:
        img = {relabel(i) for i in base.lines_through(p)}
        if img == set(base.lines_through(p)):
            continue  # the shared triple point merges with its twin
        points["p'" + p[1:]] = img
    for i in range(3, 8):
        for j in range(3, 8):
            points[f"p''{i}{j}"] = {i, j + 5}
    incidence = [(lines[i], p) for p, ls in points.items() for i in ls]
    return Configuration(lines, list(points), incidence)


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
    """Incidence-preserving permutation of lines with its induced point map.

    ``line_perm[i]`` is the image index of line i; ``point_perm[k]`` is
    the index (into ``config.points``) of the image of point k.
    """

    config: Configuration
    line_perm: tuple[int, ...]
    point_perm: tuple[int, ...]

    @staticmethod
    def identity(config: Configuration) -> "ConfigAutomorphism":
        return ConfigAutomorphism(
            config,
            tuple(range(len(config.lines))),
            tuple(range(len(config.points))),
        )

    def compose(self, other: "ConfigAutomorphism") -> "ConfigAutomorphism":
        """self after other."""
        if self.config != other.config:
            raise ValueError("automorphisms of different configurations")
        return ConfigAutomorphism(
            self.config,
            tuple(self.line_perm[j] for j in other.line_perm),
            tuple(self.point_perm[j] for j in other.point_perm),
        )

    def inverse(self) -> "ConfigAutomorphism":
        n, m = len(self.line_perm), len(self.point_perm)
        lp = [0] * n
        pp = [0] * m
        for i, j in enumerate(self.line_perm):
            lp[j] = i
        for i, j in enumerate(self.point_perm):
            pp[j] = i
        return ConfigAutomorphism(self.config, tuple(lp), tuple(pp))

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

    def point_image(self, point: str) -> str:
        return self.config.points[self.point_perm[self.config.points.index(point)]]


def _line_profiles(config: Configuration) -> list[tuple[int, ...]]:
    return [
        tuple(sorted(config.multiplicity(p) for p in config.points_on(i)))
        for i in range(len(config.lines))
    ]


def isomorphisms(a: Configuration, b: Configuration) -> list[dict]:
    """All incidence isomorphisms a -> b as line/point name maps.

    Backtracking over line images; candidates are pruned by point
    multiplicity profiles and pairwise common-point multiplicities, and
    every leaf is verified against the full incidence relation.
    """
    if len(a.lines) != len(b.lines) or len(a.points) != len(b.points):
        return []
    nl = len(a.lines)
    prof_a, prof_b = _line_profiles(a), _line_profiles(b)
    cand = [
        [j for j in range(nl) if prof_b[j] == prof_a[i]]
        for i in range(nl)
    ]
    b_point_of_lineset = {frozenset(b.lines_through(p)): p for p in b.points}
    out: list[dict] = []
    sigma = [-1] * nl
    used = [False] * nl

    def leaf_check() -> dict | None:
        point_map = {}
        for p in a.points:
            img = frozenset(sigma[i] for i in a.lines_through(p))
            q = b_point_of_lineset.get(img)
            if q is None:
                return None
            point_map[p] = q
        if len(set(point_map.values())) != len(a.points):
            return None
        return {
            "lines": {a.lines[i]: b.lines[sigma[i]] for i in range(nl)},
            "points": point_map,
        }

    def extend(k: int) -> None:
        if k == nl:
            found = leaf_check()
            if found is not None:
                out.append(found)
            return
        for j in cand[k]:
            if used[j]:
                continue
            ok = True
            for i in range(k):
                p = a.common_point(i, k)
                q = b.common_point(sigma[i], j)
                if p is None or q is None or a.multiplicity(p) != b.multiplicity(q):
                    ok = False
                    break
            if ok:
                sigma[k] = j
                used[j] = True
                extend(k + 1)
                used[j] = False
                sigma[k] = -1

    extend(0)
    return out


def automorphisms(config: Configuration) -> list[ConfigAutomorphism]:
    """The full automorphism group, sorted by line permutation."""
    point_pos = {p: k for k, p in enumerate(config.points)}
    line_pos = {l: k for k, l in enumerate(config.lines)}
    autos = []
    for iso in isomorphisms(config, config):
        lp = tuple(line_pos[iso["lines"][l]] for l in config.lines)
        pp = tuple(point_pos[iso["points"][p]] for p in config.points)
        autos.append(ConfigAutomorphism(config, lp, pp))
    autos.sort(key=lambda s: s.line_perm)
    return autos


def partition_check(config: Configuration, autos: Sequence[ConfigAutomorphism]) -> bool:
    """True if every automorphism maps the shared-line set {0,1,2} to itself."""
    shared = {0, 1, 2}
    return all({s.line_perm[i] for i in shared} == shared for s in autos)


def is_s3_times_z2(autos: Sequence[ConfigAutomorphism]) -> bool:
    """Recognize S3 x Z2 among groups of order 12.

    A group of order 12 is S3 x Z2 iff it is nonabelian with a center
    of order 2 and exactly seven involutions (the dicyclic group shares
    the center but has a single involution; A4 has trivial center).
    """
    if len(autos) != 12:
        return False
    elems = list(autos)
    key = {s.line_perm: s for s in elems}
    if len(key) != 12:
        return False
    for s in elems:
        for t in elems:
            if s.compose(t).line_perm not in key:
                return False
    abelian = all(
        s.compose(t).line_perm == t.compose(s).line_perm for s in elems for t in elems
    )
    if abelian:
        return False
    center = [
        s
        for s in elems
        if all(s.compose(t).line_perm == t.compose(s).line_perm for t in elems)
    ]
    involutions = [s for s in elems if not s.is_identity() and s.order() == 2]
    return len(center) == 2 and len(involutions) == 7


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
