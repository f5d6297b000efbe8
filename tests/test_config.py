"""Configuration axioms, built-ins, gluing, and automorphism search."""

import json

import pytest

from arrlcs.config import (
    ConfigAutomorphism,
    ConfigFormatError,
    Configuration,
    IncidenceIndex,
    automorphisms,
    glue_c13,
    is_s3_times_z2,
    isomorphisms,
    load_configuration,
    maclane_c8,
    partition_check,
    restrict,
    validate,
)

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


def test_maclane_counts_and_points():
    c = maclane_c8()
    assert len(c.lines) == 8
    assert len(c.points) == 12
    assert set(c.points) == set(MACLANE_POINTS)
    for p, lines in MACLANE_POINTS.items():
        assert c.lines_through(p) == lines


def test_maclane_incidence_index():
    idx = IncidenceIndex(maclane_c8())
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


# -- gluing -----------------------------------------------------------------------


def test_glued_counts():
    c = glue_c13()
    assert len(c.lines) == 13
    assert len(c.points) == 48
    assert validate(c).ok
    idx = IncidenceIndex(c)
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
    c = glue_c13()
    for a in automorphisms(c):
        for l, p in c.incidence:
            li = c.line_index(l)
            assert (c.lines[a.line_perm[li]], a.point_image(p)) in c.incidence


def test_glued_automorphism_group():
    autos = automorphisms(glue_c13())
    assert len(autos) == 12
    assert is_s3_times_z2(autos)
    assert partition_check(glue_c13(), autos)


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
