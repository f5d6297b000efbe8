"""Exact projective geometry over Q(w) and the conjugate glued realizations."""

import random
from fractions import Fraction

import pytest

from arrlcs import cli, geom
from arrlcs.config import glue_c13, maclane_c8, validate
from arrlcs.geom import (
    OMEGA,
    ONE,
    ZERO,
    CycloRational,
    DegenerateRealization,
    ProjLine,
    ProjPoint,
    _covector_map,
    _moved,
    check_realization,
    conjugate_realization,
    generic_glued_realization,
    glue_realization,
    intersection,
    phi_c8,
    psi_generic,
)
from helpers import clustered_realization, cyclo_from_str, divide_by_pivot, incident, line_through, random_real_arrangement

IDENTITY_PSI = (
    (Fraction(1), Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(0), Fraction(1)),
)


def random_cyclo(rng: random.Random) -> CycloRational:
    def frac():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))

    return CycloRational(frac(), frac())


# -- the coefficient field ----------------------------------------------------


def test_omega_is_primitive_cube_root():
    assert OMEGA * OMEGA + OMEGA + ONE == ZERO
    assert OMEGA * OMEGA * OMEGA == ONE
    assert OMEGA.conjugate() == -1 - OMEGA
    assert OMEGA.inverse() == OMEGA.conjugate()


def test_cyclo_field_axioms():
    for k in range(300):
        rng = random.Random(k)
        x, y, z = (random_cyclo(rng) for _ in range(3))
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + ZERO == x and x * ONE == x
        assert x - x == ZERO
        if x:
            assert x * x.inverse() == ONE
            assert (y / x) * x == y


def test_cyclo_norm_and_conjugation():
    for k in range(200):
        rng = random.Random(k)
        x, y = random_cyclo(rng), random_cyclo(rng)
        assert x.norm() == (x * x.conjugate()).a
        assert not (x * x.conjugate()).b
        assert (x * y).norm() == x.norm() * y.norm()
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert x.conjugate().conjugate() == x
        assert (x.norm() == 0) == (not x)


def test_cyclo_coercion_and_mixed_arithmetic():
    x = CycloRational(Fraction(1, 2), 3)
    assert x + 1 == CycloRational(Fraction(3, 2), 3)
    assert 1 + x == x + 1
    assert 2 * x == x + x
    assert 1 - x == -(x - 1)
    assert x / Fraction(1, 2) == 2 * x
    assert 1 / OMEGA == OMEGA.conjugate()
    with pytest.raises(ZeroDivisionError):
        x / ZERO


def test_cyclo_str_roundtrip():
    assert str(OMEGA) == "0+1*w"
    assert str(CycloRational(Fraction(-1, 3), Fraction(2, 7))) == "-1/3+2/7*w"
    assert cyclo_from_str("1-2*w") == CycloRational(1, -2)
    for k in range(100):
        rng = random.Random(k)
        x = random_cyclo(rng)
        assert cyclo_from_str(str(x)) == x
    for bad in ("w", "1+w", "2", "1+2*w+3"):
        with pytest.raises(ValueError):
            cyclo_from_str(bad)


# -- projective points and lines ----------------------------------------------


def test_projective_normalization():
    assert ProjPoint(2, 4, 6) == ProjPoint(1, 2, 3)
    assert hash(ProjPoint(2, 4, 6)) == hash(ProjPoint(1, 2, 3))
    assert ProjPoint(0, 5, 5 * OMEGA).coords == (ZERO, ONE, OMEGA)
    assert ProjPoint(1, 0, 0) != ProjLine(1, 0, 0)
    with pytest.raises(ValueError):
        ProjPoint(0, 0, 0)


def test_normalization_matches_division_by_the_pivot():
    rng = random.Random(15)

    def entry(big: bool):
        top = 10**12 if big else 9
        kind = rng.randrange(4)
        if kind == 0:
            return rng.randint(-top, top)
        if kind == 1:
            return Fraction(rng.randint(-top, top), rng.randint(1, top))
        return CycloRational(
            Fraction(rng.randint(-top, top), rng.randint(1, top)),
            Fraction(rng.randint(-top, top), rng.randint(1, top)),
        )

    for k in range(600):
        pivot, big = k % 3, k % 2 == 1
        triple = [rng.choice((0, Fraction(0), ZERO)) for _ in range(pivot)]
        triple += [entry(big) for _ in range(3 - pivot)]
        if not triple[pivot]:
            continue
        if pivot < 2 and rng.random() < 0.3:
            triple[rng.randrange(pivot + 1, 3)] = 0
        expected = divide_by_pivot(triple)
        for cls in (ProjPoint, ProjLine):
            t = cls(*triple)
            assert t.coords == expected
            assert all(type(c.a) is Fraction and type(c.b) is Fraction for c in t.coords)
            scale = random_cyclo(rng)
            if scale:
                assert cls(*(scale * CycloRational.coerce(c) for c in triple)) == t


def test_normalization_rejects_floats_and_zero_triples():
    for bad in ((0.5, 1, 0), (1, 0, 2.0), (0, 0, 0.0)):
        with pytest.raises(TypeError):
            ProjPoint(*bad)
        with pytest.raises(TypeError):
            ProjLine(*bad)
    for zero in ((0, 0, 0), (ZERO, Fraction(0), CycloRational(0, 0))):
        with pytest.raises(ValueError):
            ProjPoint(*zero)
        with pytest.raises(ValueError):
            ProjLine(*zero)


def test_coordinates_are_normalized_once_and_equality_is_projective():
    t = phi_c8("+")[6]
    assert t.coords is t.coords
    scale = CycloRational(3, -2)
    for line in phi_c8("+") + phi_c8("-"):
        scaled = ProjLine(*(scale * CycloRational(a, b) for a, b in line.z))
        assert scaled.z != line.z
        assert scaled == line and hash(scaled) == hash(line)
        assert scaled.coords == line.coords


def test_a_realization_verdict_normalizes_no_coordinates(monkeypatch):
    def refuse(z):
        raise AssertionError(f"normalized {z}")

    monkeypatch.setattr(geom, "_canonical", refuse)
    check = cli._realization_check()
    assert check["status"] == "pass" and check["details"]["clusters"] == 12
    for sign in ("+", "-"):
        glued = generic_glued_realization(sign, 41)
        assert glued.report.ok and len(glued.report.locations) == 48
        rep = check_realization(glue_c13(), glued.lines)
        assert rep.ok and len(rep.locations) == 48
        rep = check_realization(maclane_c8(), phi_c8(sign))
        assert rep.ok and len(rep.locations) == 12


def test_incidence_and_duality():
    for k in range(200):
        rng = random.Random(k)
        p1 = ProjPoint(*(random_cyclo(rng) for _ in range(3))) if rng.random() < 0.9 else ProjPoint(1, 0, 0)
        p2 = ProjPoint(*(random_cyclo(rng) for _ in range(3)))
        if p1 == p2:
            continue
        l = line_through(p1, p2)
        assert incident(l, p1) and incident(l, p2)
        l2 = ProjLine(*(random_cyclo(rng) for _ in range(3)))
        if l == l2:
            continue
        q = intersection(l, l2)
        assert incident(l, q) and incident(l2, q)


def test_coincident_inputs_raise():
    l = ProjLine(1, 2, 3)
    p = ProjPoint(1, 2, 3)
    with pytest.raises(ValueError):
        intersection(l, ProjLine(2, 4, 6))
    with pytest.raises(ValueError):
        line_through(p, ProjPoint(2, 4, 6))


# -- the two MacLane realizations ---------------------------------------------


def test_phi_realizes_maclane_exactly():
    config = maclane_c8()
    for sign in ("+", "-"):
        lines = phi_c8(sign)
        rep = check_realization(config, lines)
        assert rep.ok
        assert not rep.missing and not rep.extra and not rep.duplicate_lines
        assert len(rep.locations) == 12
        for p, loc in rep.locations.items():
            through = set(config.lines_through(p))
            for i in range(8):
                assert incident(lines[i], loc) == (i in through)


def test_phi_intersection_example():
    lines = phi_c8("+")
    pt = intersection(lines[3], lines[5])
    assert pt == ProjPoint(1, 0, 0)
    assert incident(lines[1], pt)
    rep = check_realization(maclane_c8(), lines)
    assert rep.locations["p135"] == pt


def test_phi_rejects_bad_sign():
    with pytest.raises(ValueError):
        phi_c8("x")


def test_conjugation_swaps_realizations():
    plus = phi_c8("+")
    minus = phi_c8("-")
    assert conjugate_realization(plus) == minus
    assert conjugate_realization(minus) == plus
    assert set(plus) != set(minus)


def test_perturbed_line_breaks_three_triples():
    lines = list(phi_c8("+"))
    lines[7] = ProjLine(-2, OMEGA + 1, 1)
    rep = check_realization(maclane_c8(), lines)
    assert not rep.ok
    assert rep.missing == ("p147", "p257", "p367")
    assert rep.extra == (
        (1, 4),
        (1, 7),
        (2, 5),
        (2, 7),
        (3, 6),
        (3, 7),
        (4, 7),
        (5, 7),
        (6, 7),
    )
    assert not rep.duplicate_lines
    # the double point on the infinity line just moves; its line set survives
    assert "p07" in rep.locations


def test_check_realization_requires_matching_length():
    with pytest.raises(ValueError):
        check_realization(maclane_c8(), phi_c8("+")[:7])


def test_realization_report_json():
    rep = check_realization(maclane_c8(), phi_c8("+"))
    d = rep.to_json_dict()
    assert d["ok"] is True
    assert sorted(d["points"]) == sorted(maclane_c8().points)
    for triple in d["points"].values():
        assert [cyclo_from_str(s) for s in triple]


# -- gluing -------------------------------------------------------------------


def test_psi_generic_fixes_shared_pencil():
    first = phi_c8("+")
    for seed in range(20):
        psi = psi_generic(seed)
        assert psi == psi_generic(seed)
        assert psi[0][:2] == (1, 0) and psi[1][:2] == (0, 1) and psi[2][:2] == (0, 0)
        assert psi[0][2] != 0 and psi[1][2] != 0 and psi[2][2] != 0
        assert glue_realization("+", psi)[:3] == first[:3]
        for i in range(3):
            assert _moved(_covector_map(psi), first[i]) == first[i]


def test_transform_preserves_incidence():
    config = maclane_c8()
    for seed in range(5):
        psi = psi_generic(seed)
        adj = _covector_map(psi)
        moved = tuple(_moved(adj, l) for l in phi_c8("+"))
        assert check_realization(config, moved).ok


def test_glue_rejects_psi_moving_shared_lines():
    psi = (
        (Fraction(1), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    )
    with pytest.raises(ValueError):
        glue_realization("+", psi)


def test_identity_psi_duplicates_second_copy():
    lines = glue_realization("+", IDENTITY_PSI)
    rep = check_realization(glue_c13(), lines)
    assert not rep.ok
    assert rep.duplicate_lines == ((3, 8), (4, 9), (5, 10), (6, 11), (7, 12))


def test_integer_psi_gives_the_fraction_psi_lines():
    int_psis = (
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((1, 0, 2), (0, 1, -3), (0, 0, 5)),
        ((1, 0, -7), (0, 1, 1), (0, 0, -2)),
    )
    for int_psi in int_psis:
        frac_psi = tuple(tuple(Fraction(x) for x in row) for row in int_psi)
        for sign in ("+", "-"):
            assert glue_realization(sign, int_psi) == glue_realization(sign, frac_psi)
            for line in phi_c8(sign):
                assert _moved(_covector_map(int_psi), line) == _moved(_covector_map(frac_psi), line)
    assert glue_realization("+", int_psis[0]) == glue_realization("+", IDENTITY_PSI)
    with pytest.raises(TypeError):
        glue_realization("+", ((1.0, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValueError, match="singular"):
        glue_realization("+", ((1, 0, 0), (0, 1, 0), (0, 0, 0)))


def test_check_realization_matches_the_clustering_oracle():
    c8, c13 = maclane_c8(), glue_c13()
    perturbed = list(phi_c8("+"))
    perturbed[7] = ProjLine(-2, OMEGA + 1, 1)
    cases = [(c8, phi_c8("+")), (c8, phi_c8("-")), (c8, perturbed)]
    cases.append((c13, glue_realization("+", IDENTITY_PSI)))
    cases += [
        (c13, glue_realization(sign, psi_generic(seed)))
        for sign in ("+", "-")
        for seed in range(40)
    ]
    not_ok = []
    for k, (config, lines) in enumerate(cases):
        rep = check_realization(config, lines)
        assert rep.to_json_dict() == clustered_realization(config, lines).to_json_dict()
        if not rep.ok:
            not_ok.append(k)
    degenerate_seeds = [17, 20, 24, 28, 36]
    assert not_ok == [2, 3] + [4 + s for s in degenerate_seeds] + [44 + s for s in degenerate_seeds]


def test_random_real_arrangements_realize_their_combinatorics():
    for seed in range(20):
        config, lines = random_real_arrangement(9, 2, seed)
        assert validate(config).ok
        assert lines[0] == ProjLine(1, 0, 0)
        rep = check_realization(config, lines)
        assert rep.ok
        assert rep.to_json_dict() == clustered_realization(config, lines).to_json_dict()
        # line k becomes a multiple of line j, so (j, k) is the only coincident pair
        j, k = random.Random(seed).sample(range(9), 2)
        for scale in (2, OMEGA):
            moved = list(lines)
            moved[k] = ProjLine(*(scale * c for c in lines[j].coords))
            rep = check_realization(config, moved)
            assert rep.duplicate_lines == (tuple(sorted((j, k))),) and not rep.ok
            assert rep.to_json_dict() == clustered_realization(config, moved).to_json_dict()


def test_generic_glued_realizations_certify():
    c13 = glue_c13()
    plus = phi_c8("+")
    for sign in ("+", "-"):
        for seed in range(10):
            gr = generic_glued_realization(sign, seed)
            assert gr.sign == sign
            assert gr.report.ok
            assert len(gr.lines) == 13
            assert gr.lines[:8] == plus
            assert gr.seed == seed + len(gr.rejected_seeds)
            assert all(s >= seed for s in gr.rejected_seeds)
            assert len(gr.report.locations) == len(c13.points) == 48
            assert validate(c13).ok


def test_glued_realization_json():
    gr = generic_glued_realization("-", 0)
    d = gr.to_json_dict()
    assert d["sign"] == "-"
    assert len(d["lines"]) == 13
    assert d["report"]["ok"] is True
    assert d["seed"] == gr.seed


def test_degenerate_search_raises(monkeypatch):
    monkeypatch.setattr(geom, "MAX_GLUING_ATTEMPTS", 0)
    with pytest.raises(DegenerateRealization):
        generic_glued_realization("+", 0)
