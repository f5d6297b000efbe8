"""Configuration axioms, built-ins, gluing, and automorphism search."""

import hashlib
import json
import math
from itertools import permutations

import pytest

from arrlcs.config import (
    ConfigAutomorphism,
    ConfigFormatError,
    Configuration,
    _line_maps,
    automorphisms,
    glue_c13,
    glue_copies,
    is_s3_times_z2,
    isomorphisms,
    load_configuration,
    maclane_c8,
    partition_check,
    validate,
)
from arrlcs.maclane import transport_group
from helpers import relabel, restrict

MACLANE_POINTS = {
    "p012": (0, 1, 2),
    "p034": (0, 3, 4),
    "p056": (0, 5, 6),
    "p07": (0, 7),
    "p135": (1, 3, 5),
    "p147": (1, 4, 7),
    "p16": (1, 6),
    "p23": (2, 3),
    "p246": (2, 4, 6),
    "p257": (2, 5, 7),
    "p367": (3, 6, 7),
    "p45": (4, 5),
}


# -- validation -----------------------------------------------------------------


def test_maclane_is_valid():
    rep = validate(maclane_c8())
    assert rep.ok and not rep.degenerate and rep.violations == ()


def test_pencil_is_degenerate_but_valid():
    c = Configuration(["l0", "l1", "l2"], ["p"], [("l0", "p"), ("l1", "p"), ("l2", "p")])
    rep = validate(c)
    assert rep.ok and rep.degenerate


def test_deleted_incidence_breaks_axiom_one():
    base = maclane_c8()
    inc = [(l, p) for (l, p) in base.incidence if (l, p) != ("l7", "p07")]
    broken = Configuration(base.lines, base.points, inc)
    rep = validate(broken)
    assert not rep.ok
    assert any("share no point" in v for v in rep.violations)


def test_point_on_single_line_reported():
    c = Configuration(
        ["l0", "l1"], ["p01", "q"], [("l0", "p01"), ("l1", "p01"), ("l1", "q")]
    )
    rep = validate(c)
    assert not rep.ok
    assert any("fewer than two lines" in v for v in rep.violations)


def test_every_line_pair_has_unique_common_point():
    for config in (maclane_c8(), glue_c13()):
        n = len(config.lines)
        for i in range(n):
            for j in range(i + 1, n):
                p = config.common_point(i, j)
                assert p is not None
                hits = [
                    q
                    for q in config.points
                    if i in config.lines_through(q) and j in config.lines_through(q)
                ]
                assert hits == [p]


# -- built-in MacLane data ---------------------------------------------------------


def test_self_comparison_reads_no_tuples():
    reads = []

    class Watched(Configuration):
        def __getattribute__(self, name):
            if name in ("lines", "points", "incidence"):
                reads.append(name)
            return super().__getattribute__(name)

    c13 = glue_c13()
    watched = Watched(c13.lines, c13.points, c13.incidence)
    reads.clear()
    assert watched == watched and reads == []
    # another object, even an equal one, is compared tuple by tuple
    assert watched == c13 and reads


def test_maclane_counts_and_points():
    c = maclane_c8()
    assert len(c.lines) == 8
    assert len(c.points) == 12
    assert set(c.points) == set(MACLANE_POINTS)
    for p, lines in MACLANE_POINTS.items():
        assert c.lines_through(p) == lines


def test_maclane_incidence_index():
    idx = maclane_c8().index
    assert idx.n == 7
    assert len(idx.p0) == 8
    assert len(idx.pairs) == 21
    assert len(idx.generator_pairs) == 13
    # flags sorted by point then line; generators drop the minimal line
    assert idx.pairs == tuple(sorted(idx.pairs, key=lambda f: (f[1], f[0])))
    for p in idx.p0:
        ls = maclane_c8().lines_through(p)
        gens_at_p = [i for (i, q) in idx.generator_pairs if q == p]
        assert gens_at_p == [i for i in ls if i != min(ls)]


def test_index_is_cached_on_the_configuration():
    fresh = load_configuration(json.loads(maclane_c8().canonical_json()))
    for c in (maclane_c8(), fresh):
        assert c.index is c.index
        assert c.index.config is c


# -- gluing -----------------------------------------------------------------------


def test_glued_counts():
    c = glue_c13()
    assert len(c.lines) == 13
    assert len(c.points) == 48
    assert validate(c).ok
    idx = c.index
    assert len(idx.p0) == 41
    assert len(idx.pairs) == 92
    assert len(idx.generator_pairs) == 51


def test_glued_cross_points():
    c = glue_c13()
    for i in range(3, 8):
        for j in range(3, 8):
            assert c.lines_through(f"p''{i}{j}") == (i, j + 5)


def test_glued_shared_point_merged():
    c = glue_c13()
    assert c.lines_through("p012") == (0, 1, 2)
    assert "p'012" not in c.points
    # second-copy points keep their incidences, relabeled
    assert c.lines_through("p'135") == (1, 8, 10)
    assert c.lines_through("p'07") == (0, 12)


def test_glued_copies_restrict_to_maclane():
    c13 = glue_c13()
    first = restrict(c13, list(range(8)))
    second = restrict(c13, [0, 1, 2, 8, 9, 10, 11, 12])
    assert isomorphisms(first, maclane_c8())
    assert isomorphisms(second, maclane_c8())


# sha256 of ``glue_c13().canonical_json()``, the configuration every C13 report digests
C13_CANONICAL_SHA256 = "09ce2b410e81a38a9a12632282bf840acbe47b234628981552369b4c7fd8e1a0"


def test_one_and_two_copies_are_maclane_and_c13():
    assert glue_copies(1) == maclane_c8()
    assert glue_copies(2) == glue_c13()
    assert hashlib.sha256(glue_c13().canonical_json().encode()).hexdigest() == C13_CANONICAL_SHA256


@pytest.mark.parametrize("k", range(1, 7))
def test_k_copies_count_their_lines_and_points(k):
    c = glue_copies(k)
    assert validate(c).ok
    assert len(set(c.points)) == len(c.points)
    # 12 points per copy, p012 shared, and a double point for each pair of lines from different copies
    assert (len(c.lines), len(c.points)) == (3 + 5 * k, 12 * k - (k - 1) + 25 * math.comb(k, 2))


@pytest.mark.parametrize("k", [0, -1])
def test_glue_copies_refuses_fewer_than_one_copy(k):
    with pytest.raises(ValueError, match=f"k = {k}$"):
        glue_copies(k)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_k_copies_have_6_times_k_factorial_automorphisms(k):
    c = glue_copies(k)
    autos = automorphisms(c)
    assert len(autos) == 6 * math.factorial(k)
    assert partition_check(c, autos)


# -- automorphisms ------------------------------------------------------------------


def _perm_from_cycles(n, cycles):
    perm = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            perm[a] = b
    return tuple(perm)


def test_maclane_automorphism_group():
    c = maclane_c8()
    autos = automorphisms(c)
    assert len(autos) == 48
    perms = {a.line_perm for a in autos}
    assert _perm_from_cycles(8, [(1, 6), (2, 5), (3, 4)]) in perms
    assert _perm_from_cycles(8, [(1, 3, 5), (2, 4, 6)]) in perms


def test_automorphisms_form_a_group():
    autos = automorphisms(maclane_c8())
    perms = {a.line_perm for a in autos}
    for a in autos:
        assert a.inverse().line_perm in perms
        assert a.compose(a).line_perm in perms
    ident = [a for a in autos if a.is_identity()]
    assert len(ident) == 1


def test_automorphism_preserves_incidence():
    for c in (maclane_c8(), glue_c13()):
        for a in automorphisms(c):
            for l, p in c.incidence:
                li = c.line_index(l)
                assert (c.lines[a.line_perm[li]], a.point_image(p)) in c.incidence
            # point_image is a bijection on points carrying each point's lines to its image's
            images = {p: a.point_image(p) for p in c.points}
            assert sorted(images.values()) == list(c.points)
            for p, q in images.items():
                assert c.lines_through(q) == tuple(sorted(a.line_perm[i] for i in c.lines_through(p)))


def test_glued_automorphism_group():
    autos = automorphisms(glue_c13())
    assert len(autos) == 12
    assert is_s3_times_z2(autos)
    assert partition_check(glue_c13(), autos)


def _generated(gens: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """The group of permutations that ``gens`` generate."""
    group = {tuple(range(len(gens[0])))}
    frontier = list(group)
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(g[i] for i in p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    return group


def test_is_s3_times_z2_rejects_the_other_groups_of_order_12():
    def cycles(*cs):  # a permutation of 8 points from disjoint cycles
        p = list(range(8))
        for c in cs:
            for a, b in zip(c, c[1:] + c[:1]):
                p[a] = b
        return tuple(p)

    groups = {
        "Z12": [cycles((0, 1, 2), (3, 4, 5, 6))],
        "Z6xZ2": [cycles((0, 1, 2, 3, 4, 5)), cycles((6, 7))],
        "A4": [cycles((0, 1, 2)), cycles((0, 1), (2, 3))],
        # (1 2)(3 4 5 6) has order 4 and inverts (0 1 2): Z3 ⋊ Z4
        "Dic3": [cycles((0, 1, 2)), cycles((1, 2), (3, 4, 5, 6))],
        "S3xZ2": [cycles((0, 1, 2)), cycles((1, 2)), cycles((3, 4))],
    }
    c13 = glue_c13()
    for name, gens in groups.items():
        group = _generated(gens)
        assert len(group) == 12
        # lines 1..8 carry the permutation; lines 0 and 9..12 stay fixed
        autos = [ConfigAutomorphism(c13, (0, *(1 + i for i in p), 9, 10, 11, 12)) for p in sorted(group)]
        assert is_s3_times_z2(autos) == (name == "S3xZ2"), name
    # S3 x Z2 (the last group) short of one element, and with it swapped for one outside the group
    assert not is_s3_times_z2(autos[:11])
    assert not is_s3_times_z2(autos[:11] + [ConfigAutomorphism(c13, (*range(11), 12, 11))])


def test_partition_preserved_by_every_automorphism():
    c13 = glue_c13()
    pairs = {frozenset((i, i + 5)) for i in range(3, 8)}
    for a in automorphisms(c13):
        assert {a.line_perm[i] for i in (0, 1, 2)} == {0, 1, 2}
        for pair in pairs:
            assert frozenset(a.line_perm[i] for i in pair) in pairs


def test_asymmetric_configuration_has_trivial_group(asymmetric_config):
    assert validate(asymmetric_config).ok
    autos = automorphisms(asymmetric_config)
    assert len(autos) == 1
    assert autos[0].is_identity()


def test_automorphism_order():
    autos = automorphisms(maclane_c8())
    for a in autos:
        k = a.order()
        assert k >= 1
        power = ConfigAutomorphism.identity(a.config)
        for _ in range(k):
            power = power.compose(a)
        assert power.is_identity()


# -- the one isomorphism search against oracles and pinned results ----------------


def test_c8_automorphisms_are_the_brute_force_group(maclane_data):
    c8 = maclane_c8()
    brute = []
    for perm in permutations(range(8)):
        try:
            brute.append(ConfigAutomorphism.from_line_perm(c8, perm))
        except ValueError:
            pass
    assert len(brute) == 48
    assert automorphisms(c8) == brute
    assert transport_group(maclane_data) == [s for s in brute if s.line_perm[0] == 0]


def test_pinned_line_0_search_is_the_line_0_stabiliser(asymmetric_config):
    sizes = {}
    cases = {"c8": maclane_c8(), "c13": glue_c13(), "fixture9": asymmetric_config}
    cases |= {f"{name}@{seed}": relabel(cases[name], seed) for name in ("c8", "c13") for seed in range(5)}
    for name, config in cases.items():
        pinned = _line_maps(config, config, True)
        assert pinned == [m for m in _line_maps(config, config) if m[0][0] == 0], name
        sizes[name] = len(pinned)
    assert sizes["c8"] == 6 and sizes["c13"] == 4
    assert all(sizes[f"{name}@{seed}"] == sizes[name] for name in ("c8", "c13") for seed in range(5))


def test_isomorphisms_from_a_relabeled_c8_are_incidence_bijections():
    c8 = maclane_c8()
    relabeled = relabel(c8, 41)
    isos = isomorphisms(relabeled, c8)
    assert len(isos) == 48
    assert len({tuple(iso["lines"].items()) for iso in isos}) == 48
    for iso in isos:
        assert sorted(iso["lines"]) == sorted(relabeled.lines)
        assert sorted(iso["lines"].values()) == sorted(c8.lines)
        assert sorted(iso["points"]) == list(relabeled.points)
        assert sorted(iso["points"].values()) == list(c8.points)
        assert {(iso["lines"][l], iso["points"][p]) for l, p in relabeled.incidence} == c8.incidence


def test_threefold_gluing_has_6_times_3_factorial_automorphisms():
    c18 = glue_copies(3)
    assert validate(c18).ok
    assert (len(c18.lines), len(c18.points)) == (18, 109)
    autos = automorphisms(c18)
    assert len(autos) == 36
    assert partition_check(c18, autos)
    assert [a.line_perm for a in automorphisms(glue_copies(2))] == [a.line_perm for a in automorphisms(glue_c13())]


def test_search_rejects_a_map_that_leaves_a_point_without_image():
    # q lies on one line only, so no pair of lines names it; validate reports it
    c = Configuration(["l0", "l1"], ["p01", "q"], [("l0", "p01"), ("l1", "p01"), ("l1", "q")])
    assert not validate(c).ok
    assert isomorphisms(c, c) == [] and automorphisms(c) == []


C13_AUTOMORPHISMS = (
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12),
    (0, 1, 2, 8, 9, 10, 11, 12, 3, 4, 5, 6, 7),
    (0, 2, 1, 6, 5, 4, 3, 7, 11, 10, 9, 8, 12),
    (0, 2, 1, 11, 10, 9, 8, 12, 6, 5, 4, 3, 7),
    (1, 0, 2, 3, 5, 4, 7, 6, 8, 10, 9, 12, 11),
    (1, 0, 2, 8, 10, 9, 12, 11, 3, 5, 4, 7, 6),
    (1, 2, 0, 7, 4, 5, 3, 6, 12, 9, 10, 8, 11),
    (1, 2, 0, 12, 9, 10, 8, 11, 7, 4, 5, 3, 6),
    (2, 0, 1, 6, 4, 5, 7, 3, 11, 9, 10, 12, 8),
    (2, 0, 1, 11, 9, 10, 12, 8, 6, 4, 5, 7, 3),
    (2, 1, 0, 7, 5, 4, 6, 3, 12, 10, 9, 11, 8),
    (2, 1, 0, 12, 10, 9, 11, 8, 7, 5, 4, 6, 3),
)

C13_AT_41_AUTOMORPHISMS = (
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12),
    (0, 1, 9, 6, 4, 11, 3, 12, 10, 2, 8, 5, 7),
    (0, 4, 7, 3, 1, 10, 6, 2, 11, 12, 5, 8, 9),
    (0, 4, 12, 6, 1, 8, 3, 9, 5, 7, 11, 10, 2),
    (1, 0, 7, 5, 4, 3, 11, 2, 8, 12, 10, 6, 9),
    (1, 0, 12, 11, 4, 6, 5, 9, 10, 7, 8, 3, 2),
    (1, 4, 2, 5, 0, 10, 11, 7, 6, 9, 3, 8, 12),
    (1, 4, 9, 11, 0, 8, 5, 12, 3, 2, 6, 10, 7),
    (4, 0, 2, 10, 1, 3, 8, 7, 11, 9, 5, 6, 12),
    (4, 0, 9, 8, 1, 6, 10, 12, 5, 2, 11, 3, 7),
    (4, 1, 7, 10, 0, 5, 8, 2, 6, 12, 3, 11, 9),
    (4, 1, 12, 8, 0, 11, 10, 9, 3, 7, 6, 5, 2),
)


def test_automorphisms_are_pinned(asymmetric_config):
    assert tuple(a.line_perm for a in automorphisms(glue_c13())) == C13_AUTOMORPHISMS
    assert tuple(a.line_perm for a in automorphisms(relabel(glue_c13(), 41))) == C13_AT_41_AUTOMORPHISMS
    assert [a.line_perm for a in automorphisms(asymmetric_config)] == [tuple(range(9))]


# -- serialization --------------------------------------------------------------------


def test_json_roundtrip():
    for config in (maclane_c8(), glue_c13()):
        data = json.loads(config.canonical_json())
        assert load_configuration(data) == config


def test_loader_rejects_bad_shapes():
    with pytest.raises(ConfigFormatError):
        load_configuration({"lines": ["l0"], "points": []})
    with pytest.raises(ConfigFormatError):
        load_configuration(
            {"lines": ["l0"], "infinity": "l9", "points": []}
        )
    with pytest.raises(ConfigFormatError):
        load_configuration(
            {"lines": ["l0", "l1", "l1"], "infinity": "l0", "points": []}
        )
    # a repeated infinity line is a duplicate like any other
    c8 = json.loads(maclane_c8().canonical_json())
    with pytest.raises(ConfigFormatError, match="duplicate line names"):
        load_configuration({**c8, "lines": c8["lines"] + [c8["infinity"]]})
    with pytest.raises(ConfigFormatError):
        load_configuration({"lines": "ab", "infinity": "a", "points": [{"name": "p", "lines": ["a", "b"]}]})
    with pytest.raises(ConfigFormatError):
        load_configuration({"lines": ["l0", "l1"], "infinity": "l0", "points": 5})
    with pytest.raises(ConfigFormatError):
        load_configuration(
            {"lines": ["l0", "l1"], "infinity": "l0", "points": [{"name": "p", "lines": 7}]}
        )
    with pytest.raises(ConfigFormatError):
        load_configuration(
            {"lines": ["l0", "l1"], "infinity": "l0", "points": [{"name": ["p"], "lines": ["l0", "l1"]}]}
        )


def test_restrict_keeps_only_inner_points():
    c = restrict(maclane_c8(), [0, 1, 2])
    assert set(c.points) == {"p012"}
