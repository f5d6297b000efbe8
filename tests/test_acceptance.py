"""Acceptance gate: the headline verifications, one test per criterion.

Each test prints a single PASS/FAIL line on the live terminal (outside
pytest capture) and then asserts, so a verbose run shows one verdict
per criterion.  Everything is exact integer/rational arithmetic; there
are no tolerances anywhere.
"""

import json
import random
from fractions import Fraction

import pytest

from arrlcs import cli
from arrlcs.config import automorphisms, glue_c13, is_s3_times_z2, maclane_c8
from arrlcs.exactlin import (
    IntMatrix,
    Lattice,
    hnf,
    member,
    perp,
    snf,
)
from arrlcs.geom import (
    check_realization,
    conjugate_realization,
    generic_glued_realization,
    glue_realization,
    phi_c8,
)
from arrlcs.lcs import (
    b_lattice,
    kappa,
    tau_kernel,
    tau_preimage,
    tau_tilde,
    u_lattice,
)
from arrlcs.maclane import (
    builtin_g_difference,
    builtin_g_map,
    maclane_dual_basis,
    t_functional,
    tau_star_identities,
)
from arrlcs.words import (
    AbelianGMap,
    abelianize,
    lie_coords,
    magnus,
    rbar_coords,
    relator_at_flag,
    relators_from_g,
)
from helpers import dot, lattice_sum, saturate, seeded_g_map, seeded_word


@pytest.fixture
def announce(capsys):
    def _announce(num: int, desc: str, subchecks: dict) -> None:
        ok = all(subchecks.values())
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}")
        failed = [k for k, v in subchecks.items() if not v]
        assert ok, f"criterion {num} failed: {failed}"

    return _announce


def test_criterion_1_graded_ranks(maclane_data, announce):
    data = maclane_data
    checks = {
        "dim_L2=21": data.npairs == 21,
        "dim_L3=112": data.dim3 == 112,
        "rank_R2=13": data.r2.rank == 13,
        "rank_P2=8": data.p2.free_rank == 8,
        "rank_R3=91": data.r3.rank == 91,
        "rank_P3=21": data.p3.free_rank == 21,
        "rank_R3perp=21": data.r3perp.rank == 21,
        "P2_torsion_free": data.p2.is_torsion_free,
        "P3_torsion_free": data.p3.is_torsion_free,
        "r3perp_routes_agree": data._r3perp_via_dstar() == data._r3perp_via_lie(),
    }
    announce(1, "graded ranks of the 8-line data, two routes to R3-perp", checks)


def test_criterion_2_dual_bases(maclane_data, announce):
    data = maclane_data
    duals = maclane_dual_basis()
    st = [e.coords for e in duals if e.tag in ("S", "T")]
    ijk = [e.coords for e in duals if e.tag in ("I", "J", "K1", "K2")]
    rep = tau_star_identities(data)
    checks = {
        "S_T_span_R3perp": Lattice(data.hw_rank, IntMatrix._of(st, data.hw_rank)) == data.r3perp,
        "18_functionals": len(ijk) == 18,
        "I_J_K_span_U_perp": Lattice(data.a_rank, IntMatrix._of(ijk, data.a_rank))
        == perp(u_lattice(data.config)),
        "seven_identities": len(rep.identities) == 7 and all(ok for _, ok in rep.identities),
        "transport_consistent": rep.transport_consistent,
        "orbit_coverage": all(ok for _, ok in rep.point_coverage),
    }
    announce(2, "transcribed dual bases span R3-perp and U-perp, pullback identities hold", checks)


def test_criterion_3_kernel_inclusions(maclane_data, announce):
    data = maclane_data
    u_ok = all(
        tau_tilde(data, AbelianGMap.from_vector(data.config, row)).is_zero()
        for row in u_lattice(data.config).basis.entries
    )
    b_ok = all(
        member(tau_tilde(data, AbelianGMap.from_vector(data.config, row)).flat, data.im_delta).ok
        for row in b_lattice(data.config).basis.entries
    )
    diag_ok = True
    for k in range(10):
        g = seeded_g_map(random.Random(k), data.config)
        rep = kappa(data, g, g)
        diag_ok = diag_ok and rep.zero and rep.difference.is_zero()
    additive_ok = True
    for k in range(100):
        rng = random.Random(1000 + k)
        a, b, c = (abelianize(seeded_g_map(rng, data.config)) for _ in range(3))
        lhs = tau_tilde(data, a + b + c)
        rhs = tau_tilde(data, a) + tau_tilde(data, b) + tau_tilde(data, c)
        additive_ok = additive_ok and lhs == rhs
    checks = {
        "U_in_kernel_generator_wise": u_ok,
        "tau_B_in_im_delta_generator_wise": b_ok,
        "kappa_vanishes_on_diagonal": diag_ok,
        "tau_additive_100_triples": additive_ok,
    }
    announce(3, "U kills tau, tau(B) lands in Im delta, kappa(g,g)=0, tau additive", checks)


def test_criterion_4_mod3_functional(maclane_data, announce):
    data = maclane_data
    diff = builtin_g_difference()
    listed = {
        (4, "p45"): (0, 0, -1, 0, 0, -1, 1),
        (2, "p23"): (0, 0, 0, 0, -1, 0, 0),
        (6, "p246"): (0, 0, 0, 0, 0, 0, -1),
    }
    support = {k: v for k, v in diff.values.items() if any(v)}
    checks = {
        "difference_supported_on_three_flags": set(support) == set(listed),
        "difference_matches_listed_values": all(support.get(k) == v for k, v in listed.items()),
        "t_of_difference_is_1_mod_3": t_functional(diff) == 1,
        "t_vanishes_on_B": all(
            t_functional(AbelianGMap.from_vector(data.config, row)) == 0
            for row in b_lattice(data.config).basis.entries
        ),
        "t_vanishes_on_U": all(
            t_functional(AbelianGMap.from_vector(data.config, row)) == 0
            for row in u_lattice(data.config).basis.entries
        ),
    }
    announce(4, "mod-3 functional: t(a0)=1 on the computed difference, t|_U = t|_B = 0", checks)


def test_criterion_5_kernel_equalities(maclane_data, announce):
    data = maclane_data
    u = u_lattice(data.config)
    both = lattice_sum(u, b_lattice(data.config))
    rep = kappa(data, builtin_g_map("plus"), builtin_g_map("minus"))
    checks = {
        "tau_kernel_equals_U": tau_kernel(data) == u,
        "tau_preimage_equals_U_plus_B": tau_preimage(data) == both,
        "membership_says_nonzero": not rep.zero and rep.witness is not None,
        "t_functional_says_nonzero": rep.t_value == 1,
    }
    announce(5, "ker tau = U, preimage of Im delta = U+B, both routes say kappa != 0", checks)


def test_criterion_6_realizations(announce):
    config = maclane_c8()
    c13 = glue_c13()
    plus = phi_c8("+")
    minus = phi_c8("-")
    rep_plus = check_realization(config, plus)
    rep_minus = check_realization(config, minus)
    glued_ok = True
    rejections = 0
    for sign in ("+", "-"):
        for seed in range(20):
            gr = generic_glued_realization(sign, seed)
            glued_ok = glued_ok and gr.report.ok and len(gr.report.locations) == 48
            rejections += len(gr.rejected_seeds)
    identity_psi = tuple(
        tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)
    )
    degenerate = check_realization(c13, glue_realization("+", identity_psi))
    checks = {
        "plus_realizes_12_clusters": rep_plus.ok and len(rep_plus.locations) == 12,
        "minus_realizes_12_clusters": rep_minus.ok and len(rep_minus.locations) == 12,
        "conjugation_swaps_signs": conjugate_realization(plus) == minus,
        "20_seeds_per_sign_generic": glued_ok,
        "degeneracy_auto_detected": not degenerate.ok and bool(degenerate.duplicate_lines),
    }
    announce(6, "exact realizations, conjugation swap, 20 generic gluings per sign", checks)


def test_criterion_7_glued_symmetry(announce):
    c13 = glue_c13()
    autos = automorphisms(c13)
    pairs = {frozenset((i, i + 5)) for i in range(3, 8)}
    partition_ok = all(
        {a.line_perm[i] for i in (0, 1, 2)} == {0, 1, 2}
        and all(frozenset(a.line_perm[i] for i in pair) in pairs for pair in pairs)
        for a in autos
    )
    checks = {
        "automorphism_count_12": len(autos) == 12,
        "s3_times_z2": is_s3_times_z2(autos),
        "partition_preserved": partition_ok,
    }
    announce(7, "Aut of the glued configuration is S3 x Z2 preserving the line partition", checks)


def test_criterion_8_headline_verdict(capsys, announce):
    code = cli.main(["c13-report"])
    payload = json.loads(capsys.readouterr().out)
    by_name = {c["name"]: c for c in payload["checks"]}
    classes = by_name["glued_classes"]["details"]
    checks = {
        "exit_code_0": code == 0,
        "class_plus_plus_0": classes["class_plus_plus"] == 0,
        "class_plus_minus_1": classes["class_plus_minus"] == 1,
        "verdict": payload["verdict"] == "fundamental groups differ mod gamma_4",
        "caveat_stated": "identity on the canonical degree-1 generators" in payload["caveat"],
    }
    announce(8, "glued classes 0 vs 1, report verdict and caveat", checks)


def test_criterion_9_property_suites(asymmetric_config, announce):
    magnus_ok = True
    for k in range(500):
        rng = random.Random(k)
        u, v = seeded_word(rng, 4), seeded_word(rng, 4)
        magnus_ok = magnus_ok and magnus(u * v) == magnus(u) * magnus(v)

    relator_ok = True
    for config in (maclane_c8(), glue_c13(), asymmetric_config):
        n = len(config.lines) - 1
        for k in range(3):
            g = seeded_g_map(random.Random(k), config)
            rels = relators_from_g(config, g)
            for p in config.points:
                lines = config.lines_through(p)
                if 0 in lines:
                    continue
                prod = relator_at_flag(config, g, lines[0], p)
                for i in lines[1:]:
                    prod = prod * rels[(i, p)]
                relator_ok = relator_ok and prod.is_identity()
            for (i, p), r in rels.items():
                relator_ok = relator_ok and lie_coords(magnus(r), 2, n) == rbar_coords(config, i, p)

    lin_ok = True
    for k in range(500):
        rng = random.Random(k)
        rows, cols = rng.randint(0, 5), rng.randint(1, 6)
        m = IntMatrix(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)], cols
        )
        h = hnf(m)
        lin_ok = lin_ok and hnf(h) == h
        lat = Lattice(cols, m)
        lin_ok = lin_ok and all(member(row, Lattice(cols, h)).ok for row in m.entries)
        if k % 2 == 0:
            divisors, left, right = snf(m)
            d = left @ m @ right
            for i, row in enumerate(d.entries):
                for j, x in enumerate(row):
                    expect = divisors[i] if i == j and i < len(divisors) else 0
                    lin_ok = lin_ok and x == expect
            lin_ok = lin_ok and all(b % a == 0 for a, b in zip(divisors, divisors[1:]))
        else:
            pp = perp(lat)
            lin_ok = lin_ok and all(
                dot(f, row) == 0 for f in pp.basis.entries for row in m.entries
            )
            lin_ok = lin_ok and pp.rank + lat.rank == cols
            lin_ok = lin_ok and perp(pp) == saturate(lat)

    checks = {
        "magnus_homomorphism_500_words": magnus_ok,
        "relator_identities_three_configurations": relator_ok,
        "hnf_snf_perp_laws_500_matrices": lin_ok,
    }
    announce(9, "standalone property suites: Magnus, relators, integer lattice laws", checks)
