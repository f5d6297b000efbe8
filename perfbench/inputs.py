"""Seeded benchmark inputs: relabeled configurations, conjugator maps, κ pairs.

Every input is a function of the workload seed alone, and the program only
ever sees the generated objects or files.  Seed 0 keeps the bundled labels.
Any other seed fixes line 0 (the line at infinity), permutes lines 1..n and
renames the points so that their sorted order, which fixes the flag order
and so the row and column order of every matrix, is shuffled too.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Relabeling:
    """A configuration under new labels, with the maps that produced it."""

    config: object
    line_map: dict
    point_map: dict

    def gmap(self, mods, g):
        """Carry a conjugator map of the original configuration across."""
        return mods.words.GMap(
            self.config,
            {
                (self.line_map[i], self.point_map[p]): w.relabeled(self.line_map)
                for (i, p), w in g.assignments.items()
            },
        )


def relabel(mods, config, seed: int) -> Relabeling:
    n = len(config.lines)
    if seed == 0:
        line_map = {i: i for i in range(n)}
        point_map = {p: p for p in config.points}
    else:
        rng = random.Random(f"relabel:{seed}")
        images = list(range(1, n))
        rng.shuffle(images)
        line_map = {0: 0, **{i: images[i - 1] for i in range(1, n)}}
        names = [f"q{k:02d}" for k in range(len(config.points))]
        rng.shuffle(names)
        point_map = dict(zip(config.points, names))
    lines = [f"l{j}" for j in range(n)]
    incidence = [(lines[line_map[config.line_index(l)]], point_map[p]) for l, p in config.incidence]
    new = mods.config.Configuration(lines, list(point_map.values()), incidence)
    return Relabeling(new, line_map, point_map)


def glued_pairs(mods, relab: Relabeling):
    """(plus, plus) and (plus, minus) glued conjugator maps on relabeled C13."""
    lcs = mods.lcs
    plus, minus = lcs.builtin_g_map("plus"), lcs.builtin_g_map("minus")
    g_pp = relab.gmap(mods, lcs.glued_g_map(plus, plus))
    g_pm = relab.gmap(mods, lcs.glued_g_map(plus, minus))
    return g_pp, g_pm


def write_kappa_files(mods, relab: Relabeling, directory: Path) -> tuple[str, str, str]:
    """Write the relabeled c8 and its plus/minus maps; return the three paths."""
    lcs = mods.lcs
    directory.mkdir(parents=True, exist_ok=True)
    docs = {
        "config.json": relab.config.to_json_dict(),
        "g_plus.json": relab.gmap(mods, lcs.builtin_g_map("plus")).to_json_dict(),
        "g_minus.json": relab.gmap(mods, lcs.builtin_g_map("minus")).to_json_dict(),
    }
    for name, doc in docs.items():
        (directory / name).write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")
    return tuple(str(directory / name) for name in docs)


@dataclass(frozen=True)
class KappaPair:
    g: object
    gprime: object
    kind: str  # "in_UB" (κ must be 0) or "random"
    sparse: bool


def kappa_pair(mods, config, ub_rows, seed: int, index: int, kind: str, sparse: bool) -> KappaPair:
    """The index-th query of a seeded stream of conjugator-map pairs.

    For kind "in_UB" the two maps differ by an element of U+B, so their
    class is zero; for kind "random" they differ by a random vector.  A
    sparse difference touches a few flags, like the bundled plus/minus
    pair; a dense one touches every flag.
    """
    rng = random.Random(f"kappa:{seed}:{index}")
    dim = len(ub_rows[0])
    n = len(config.lines) - 1
    base = [rng.randint(-3, 3) for _ in range(dim)]
    diff = [0] * dim
    if kind == "in_UB":
        rows = rng.sample(ub_rows, 3) if sparse else ub_rows
        for row in rows:
            c = rng.choice((-2, -1, 1, 2))
            for j, x in enumerate(row):
                if x:
                    diff[j] += c * x
    else:
        if sparse:
            for flag in rng.sample(range(dim // n), 3):
                for j in rng.sample(range(n), 2):
                    diff[flag * n + j] = rng.choice((-1, 1))
        else:
            diff = [rng.randint(-2, 2) for _ in range(dim)]
    from_vector = mods.words.AbelianGMap.from_vector
    g = from_vector(config, base)
    gprime = from_vector(config, [a + d for a, d in zip(base, diff)])
    return KappaPair(g, gprime, kind, sparse)
