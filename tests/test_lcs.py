"""Graded degree-2/3 data, the tau/delta calculus, and the kappa obstruction."""

import functools
import hashlib
import itertools
import json
import random
import re

import pytest

from arrlcs import cli, config, exactlin, geom, lcs, maclane, words
from arrlcs.certify import GluedCertificate, certify_glued, failures_a, failures_b, pulled_back_functional, tau_pairing
from arrlcs.config import ConfigAutomorphism, Configuration, IncidenceIndex, automorphisms, copy_line, glue_c13, glue_copies, maclane_c8
from arrlcs.exactlin import IntMatrix, Lattice, densify, member, perp, snf
from arrlcs.lcs import (
    ConfigMismatchError,
    HomR2P3,
    TorsionError,
    b_lattice,
    build_lcs,
    delta_bar,
    delta_bar_from_lift,
    glued_g_map,
    kappa,
    tau_kernel,
    tau_kernel_equals_u,
    tau_preimage,
    tau_preimage_equals_u_plus_b,
    tau_tilde,
    u_lattice,
)
from arrlcs.maclane import (
    builtin_g_difference,
    builtin_g_map,
    builtin_generator_lists,
    generator_lists_consistent,
    maclane_dual_basis,
    rbar_gen_coeffs,
    t_functional,
    tau_star_identities,
    transport_group,
)
from arrlcs.words import AbelianGMap, GMap, Word, abelianize, parse_word, wedge_slot
from helpers import (
    blockwise_tau_tilde,
    certificate_failures,
    class_tensor,
    dot,
    dense_kappa_json,
    check_equivariance,
    dense_tau_matrix,
    dense_tau_star,
    dict_point_quotient,
    wedge_unit_failures,
    rank_mod_p,
    tau_lift,
    delta_kernel,
    hesse,
    lattice_sum,
    lift_rows,
    line_action,
    pencil4,
    random_real_arrangement,
    reference_u_points,
    relabel,
    saturate,
    scanned_b_rows,
    seeded_g_map,
    seeded_word,
    swept_bracket,
    swept_l3_action,
    tau_support_rows,
    unpeeled_quotient,
    vec_mat,
)


def random_abelian(rng: random.Random, data, bound: int = 2) -> AbelianGMap:
    vec = [
        rng.randint(-bound, bound) if rng.random() < 0.3 else 0
        for _ in range(data.a_rank)
    ]
    return AbelianGMap.from_vector(data.config, vec)


# -- graded ranks -------------------------------------------------------------


def test_maclane_graded_ranks(maclane_data):
    data = maclane_data
    assert data.n == 7
    assert data.npairs == 21
    assert data.dim3 == 112
    assert data.r2.rank == 13
    assert data.p2.free_rank == 8
    assert data.p2.is_torsion_free
    assert data.r3.rank == 91
    assert data.p3.free_rank == 21
    assert data.p3.is_torsion_free
    assert data.r3perp.rank == 21
    assert data.a_rank == 147
    assert data.hw_rank == 147
    assert data.tau_matrix.shape == (147, 13 * 21)
    assert data.im_delta.ambient_rank == 13 * 21


def test_r3perp_routes_agree(maclane_data):
    assert maclane_data._r3perp_via_dstar() == maclane_data._r3perp_via_lie()


def test_im_delta_and_r3perp_read_the_p3_map_without_products(monkeypatch):
    """Im δ̄ lifts each section row through ``_bracket_p3``, and R3⊥'s Lie route is its transpose: only the d* route multiplies."""
    data = build_lcs(maclane_c8())
    data.p3, data._bracket_p3  # noqa: B018 - built before counting
    products, stacks, matmul, stack = [], [], IntMatrix.__matmul__, exactlin.vstack

    def counted_matmul(a, b):
        products.append((a.shape, b.shape))
        return matmul(a, b)

    def counted_vstack(*mats):
        stacks.append(len(mats))
        return stack(*mats)

    monkeypatch.setattr(IntMatrix, "__matmul__", counted_matmul)
    monkeypatch.setattr(exactlin, "vstack", counted_vstack)
    assert data.im_delta.basis.shape == (56, 273) and products == stacks == []
    # the d* route's combos @ e_mat, whose columns are H⊗Λ²H's 147 slots
    assert data.r3perp.rank == 21 and len(products) == 1 and products[0][1][1] == data.hw_rank


def test_glued_degree_two(c13_data):
    data = c13_data
    assert data.n == 12
    assert data.npairs == 66
    assert data.r2.rank == 51
    assert data.p2.free_rank == 15
    assert data.p2.is_torsion_free
    assert data.dim3 == 572


def test_glued_degree_three_presentation(c13_data):
    data = c13_data
    assert data.r3.rank == 532
    assert data.p3.free_rank == 40
    assert data.p3.is_torsion_free
    proj, sec = data.p3.projection, data.p3.section
    for row in data.r3.basis.entries:
        assert not any(vec_mat(row, proj))
    assert sec @ proj == IntMatrix.identity(40)


def test_degree_two_on_asymmetric_config(asymmetric_config):
    data = build_lcs(asymmetric_config)
    assert data.n == 8
    assert data.r2.rank == len(data.gens) == 20
    assert data.p2.free_rank == 8
    assert data.p2.is_torsion_free


def _matrix_digest(m: IntMatrix) -> str:
    return hashlib.sha256(json.dumps([m.rows, m.cols, m.to_lists()]).encode()).hexdigest()


# sha256 of the exact degree-3 coordinates, with P3 coordinates from the
# orthogonal-basis presentation (projection = perp(R3)ᵀ).  A change of P3
# coordinates (e.g. a different quotient presentation) must re-pin these on
# purpose; the r3 digests do not depend on the presentation.  The lattice
# digests are of canonical forms, so they do not depend on which basis a
# kernel or a sum is built from.
DEGREE_THREE_DIGESTS = {
    "maclane": {
        "r3": "a4e205183beb32da66b8cfb406ce6daeecb1c97adb3b14b5732f61aae3886dc1",
        "p3_projection": "fa9240009fcd9428fffc2d33a67d0f948c567239fbed73b414023472409c2568",
        "tau_matrix": "dde5829537aadeaba39657bb9f453ca5ce4e6061b78d12358c612a3e123aa992",
        "im_delta": "42267491fb74e796d36d2f5d6356a3c4ec4c9a481ff39212d22d9e0b75a065a8",
        "perp_r3": "c42bc5e1b4b651d5ebd8dfafa63572663d3a83793612c3ebe5c5939061c8721f",
        "r3perp": "ac1ae397a597ee15fa38899a82327378b703ddd517573cc2cf5c6948737ea53f",
        "tau_kernel": "31b31952a4bfcc8d7dfeafa3815efb12dedcea5e36505d647f44dc0f66e0f215",
        "tau_preimage": "0adeff040ab644d1043d6ecbb49356f2ff1be658887761dd379d09da230b133f",
        "u_plus_b": "0adeff040ab644d1043d6ecbb49356f2ff1be658887761dd379d09da230b133f",
        "delta_kernel": "61c47f28efa6af1d840eaa181a2627b49f188a59bcdfb9edde27e26d6c85e50d",
    },
    "asymmetric": {
        "r3": "36e41c6b4ad72c6d8b8a12cf570a88d8655231301904c328b1fcca20a3ee68d3",
        "p3_projection": "9d8e67befd6d1cec28a4b22b295a3b3aab2d17189af867f6bb1e08e1c1355507",
        "tau_matrix": "954d2ff6eae71f266ad1b02156128cc7a949dbbd0247ac1f5092c993b1fa6c76",
        "im_delta": "1446e458617fed76dd45dea75a7914a2ccba237595e369187e94b0fa3c55641c",
        "perp_r3": "52bc3c6461a13dc0e3653fa2ea22197326f39ebadf7d6eb04139158762abc56f",
        "r3perp": "5034d833f3321c9ef08af567f7ab5e3c3519dd1f45fbd8b9a549ff5f9a1bcad7",
        "tau_kernel": "62150f57f1b7d7c33c596a460af2a6b4354cfcfdc9fd1a6651f0a6cfc47b211c",
        "tau_preimage": "4961ab7c57f14ed6b8bca10d5bcf7fcaa65a6759a83139f305ae0170108b9ee0",
        "u_plus_b": "4961ab7c57f14ed6b8bca10d5bcf7fcaa65a6759a83139f305ae0170108b9ee0",
        "delta_kernel": "07e6e8d83ebee774b7aaf3b3f134de94660f8c028dacf04e64d0048c8ca77e13",
    },
}


def test_degree_three_coordinates_are_pinned(maclane_data, asymmetric_config):
    for name, data in (("maclane", maclane_data), ("asymmetric", build_lcs(asymmetric_config))):
        got = {
            "r3": _matrix_digest(data.r3.canonical_form),
            "p3_projection": _matrix_digest(data.p3.projection),
            "tau_matrix": _matrix_digest(data.tau_matrix),
            "im_delta": _matrix_digest(data.im_delta.basis),
            "perp_r3": _matrix_digest(perp(data.r3).canonical_form),
            "r3perp": _matrix_digest(data.r3perp.canonical_form),
            "tau_kernel": _matrix_digest(tau_kernel(data).canonical_form),
            "tau_preimage": _matrix_digest(tau_preimage(data).canonical_form),
            "u_plus_b": _matrix_digest(lattice_sum(u_lattice(data.config), b_lattice(data.config)).canonical_form),
            "delta_kernel": _matrix_digest(delta_kernel(data).canonical_form),
        }
        assert got == DEGREE_THREE_DIGESTS[name], name


def test_reduction_builds_no_dense_identity_or_work_lists(monkeypatch, maclane_data):
    basis = maclane_data.r3.basis

    def no_dense(*args):
        raise AssertionError("the reduction kernel builds dense work rows")

    with monkeypatch.context() as mp:
        mp.setattr(IntMatrix, "identity", staticmethod(no_dense))
        mp.setattr(IntMatrix, "to_lists", no_dense)
        h = exactlin.hnf(basis)
        ht, u, pivots = exactlin.hnf_with_transform(basis)
        perp_r3 = Lattice(basis.cols, exactlin.kernel_basis(basis.transpose()))
    pins = DEGREE_THREE_DIGESTS["maclane"]
    assert _matrix_digest(h) == _matrix_digest(ht) == pins["r3"]
    assert _matrix_digest(perp_r3.canonical_form) == pins["perp_r3"]
    assert u @ basis == exactlin.vstack(h, IntMatrix.zeros(basis.rows - len(pivots), basis.cols))


def test_degree_three_matrices_hold_exact_ints(maclane_data, asymmetric_config):
    # IntMatrix stores entries as given, so a Fraction or float leaking in would stay
    for data in (maclane_data, build_lcs(asymmetric_config)):
        for m in (
            data.r3.canonical_form,
            data.p3.projection,
            data.p3.section,
            data.tau_matrix,
            data.im_delta.basis,
            exactlin.kernel_basis(data.im_delta.basis),
        ):
            assert all(type(x) is int for row in m.entries for x in row)


def generic_arrangement(n: int) -> Configuration:
    """n + 1 lines in general position: one double point per pair."""
    lines = [f"l{i}" for i in range(n + 1)]
    pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    incidence = [(lines[k], f"p{i}_{j}") for i, j in pairs for k in (i, j)]
    return Configuration(lines, [f"p{i}_{j}" for i, j in pairs], incidence)


def test_closed_form_bracket_equals_the_lyndon_sweep():
    # n = 1 has no non-degenerate configuration, and L3 = 0 there
    # (test_degree_three_index_is_the_lyndon_order)
    for n in range(2, 14):
        data = build_lcs(generic_arrangement(n))
        assert data.dim3 == (n**3 - n) // 3
        assert data.bracket == swept_bracket(n)


def test_line_action_commutes_with_the_bracket(maclane_data, c13_data, glued3_data):
    # σ on H⊗Λ²H, then bracketing, equals bracketing, then σ on L3 (the Lyndon sweep); at k = 3
    # the copy permutations reverse pairs of lines from two copies, so ``slot_images`` signs them −1
    def fixing(data):
        return [sigma for sigma in automorphisms(data.config) if sigma.line_perm[0] == 0]

    cases = [(maclane_data, transport_group(maclane_data)), (c13_data, fixing(c13_data)), (glued3_data, fixing(glued3_data))]
    assert [len(group) for _, group in cases] == [6, 4, 12]
    for data, group in cases:
        for sigma in group:
            _, on_hw = line_action(data, sigma)
            assert on_hw @ data.bracket == data.bracket @ swept_l3_action(data.n, sigma)


def test_cold_verification_builds_no_degree_three_lie_basis(monkeypatch, capsys):
    degrees = []
    real = words.lie_basis

    def recording(n, degree):
        degrees.append(degree)
        return real(n, degree)

    # every module-level reference, so a `from .words import lie_basis` caller is seen too
    for module in (config, words, exactlin, lcs, geom, cli):
        for key, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, key, recording)
    # an empty cache, so maclane-report builds the MacLane data cold
    fresh = functools.lru_cache(maxsize=None)(lcs._maclane_data.__wrapped__)
    for module in (lcs, cli):
        monkeypatch.setattr(module, "_maclane_data", fresh)
    data = build_lcs(glue_c13())
    data.r3, data.p3, data.r3perp, data.tau_matrix, data.im_delta  # noqa: B018 - computed in order
    plus, minus = builtin_g_map("plus"), builtin_g_map("minus")
    g_pp, g_pm = glued_g_map(plus, plus), glued_g_map(plus, minus)
    assert tau_kernel_equals_u(data) and tau_preimage_equals_u_plus_b(data)
    assert kappa(data, g_pp, g_pp).zero and not kappa(data, g_pp, g_pm).zero
    assert cli.main(["maclane-report"]) == 0
    capsys.readouterr()
    assert 3 not in degrees


# -- the kernel lattices ------------------------------------------------------


def test_u_generators_lie_in_kernel(maclane_data):
    data = maclane_data
    u = u_lattice(data.config)
    assert u.rank == 129
    for row in u.basis.entries:
        a = AbelianGMap.from_vector(data.config, row)
        assert tau_tilde(data, a).is_zero()


def test_b_generators_map_into_im_delta(maclane_data):
    data = maclane_data
    b = b_lattice(data.config)
    assert b.rank == 49
    for row in b.basis.entries:
        a = AbelianGMap.from_vector(data.config, row)
        value = tau_tilde(data, a)
        res = member(value.flat, data.im_delta)
        assert res.ok
        assert vec_mat(res.coefficients, data.im_delta.basis) == value.flat


def test_kernel_and_preimage_lattices(maclane_data):
    data = maclane_data
    u = u_lattice(data.config)
    b = b_lattice(data.config)
    both = lattice_sum(u, b)
    assert both.rank == 143
    assert tau_kernel(data) == u
    assert tau_kernel_equals_u(data)
    assert tau_preimage(data) == both
    assert tau_preimage_equals_u_plus_b(data)


def test_kernel_callers_do_not_transpose(monkeypatch, maclane_data):
    data = maclane_data
    # built first: P3 and the Lie route of R3perp transpose on purpose
    data.r3perp, data.tau_matrix, data.im_delta  # noqa: B018
    u, b = u_lattice(data.config), b_lattice(data.config)

    def no_transpose(self):
        raise AssertionError("kernel_basis takes the row-vector map as it is")

    monkeypatch.setattr(IntMatrix, "transpose", no_transpose)
    assert tau_kernel(data) == u
    assert tau_preimage(data) == lattice_sum(u, b)
    assert delta_kernel(data).rank == 7
    assert data._r3perp_via_dstar() == data.r3perp


# -- the per-point predicates against the global reference route -------------


def _agree_with_reference(data):
    """Each predicate equals its global comparison, π gives U⊥, rank U and rank U + B as the global lattices do, and τ̃ per point equals the dense matrix."""
    u, b = lcs.u_lattice(data.config), lcs.b_lattice(data.config)
    u_plus_b = lattice_sum(u, b)
    kernel_ok, preimage_ok = tau_kernel(data) == u, tau_preimage(data) == u_plus_b
    assert tau_kernel_equals_u(data) == kernel_ok
    assert tau_preimage_equals_u_plus_b(data) == preimage_ok
    pi = data.u_projection
    assert Lattice(data.a_rank, pi.transpose()) == perp(u)
    assert data.a_rank - pi.cols == u.rank
    assert u.rank + Lattice(pi.cols, b.basis @ pi).rank == u_plus_b.rank
    for k in range(3):
        a = random_abelian(random.Random(k), data)
        assert tau_tilde(data, a).flat == vec_mat(a.vector(), data.tau_matrix)
    return kernel_ok, preimage_ok


def test_predicates_match_the_global_route(maclane_data, asymmetric_config):
    assert _agree_with_reference(maclane_data) == (True, True)
    # on the 9-line fixture ker τ̃ is larger than U (one extra rank at p578)
    # yet still inside U + B, so the preimage identity holds without ker τ̃ = U
    assert _agree_with_reference(build_lcs(asymmetric_config)) == (False, True)


def test_predicates_match_the_global_route_on_c13(c13_data):
    assert _agree_with_reference(c13_data) == (True, True)


def test_point_defects_match_the_kernel_route(maclane_data, asymmetric_config, c13_data):
    # f_p - rank τ̃_p∘s_p from the shared record, against rank ker τ̃_p - rank U_p
    hesse_data, pencil_data = build_lcs(hesse()), build_lcs(pencil4())
    assert (hesse_data.p2.free_rank, hesse_data.p3.free_rank) == (27, 136)
    # ker τ̃ ⊋ U at every finite quadruple point: Hesse's six, and the pencil's one, where the
    # excess still lies in U + B
    quadruple = {p: 2 for p in hesse_data.index.p0 if hesse_data.config.multiplicity(p) == 4}
    assert len(quadruple) == 6
    assert _agree_with_reference(hesse_data) == (False, False)
    assert _agree_with_reference(pencil_data) == (False, True)
    cases = (
        (maclane_data, {}),
        (build_lcs(asymmetric_config), {"p578": 1}),
        (c13_data, {}),
        (hesse_data, quadruple),
        (pencil_data, {"p1234": 2}),
    )
    for data, expected in cases:
        defects = {}
        for p, pt in zip(data.index.p0, data.u_points):
            assert pt.quotient.is_torsion_free
            assert _kernel_on_s(pt) == Lattice(len(pt.kept), pt.u)
            defect, width = pt.quotient.free_rank - exactlin.hnf(_spread_section(pt) @ pt.tau).rows, pt.tau.rows
            assert defect == Lattice(width, exactlin.kernel_basis(pt.tau)).rank - Lattice(width, IntMatrix._of(pt.generators(), width)).rank
            if defect:
                defects[p] = defect
        assert defects == expected


def test_im_delta_rows_equal_the_delta_lift_route(maclane_data, asymmetric_config, c13_data):
    for data in (maclane_data, build_lcs(asymmetric_config), c13_data):
        n, f2, basis = data.n, data.p2.free_rank, data.im_delta.basis
        assert basis.rows == n * f2
        for i in range(n):
            for t in range(f2):
                unit = IntMatrix([[int(j == i and s == t) for s in range(f2)] for j in range(n)], f2)
                assert basis.row(i * f2 + t) == delta_bar(data, unit).flat


def _assert_presents(q, u):
    """``q`` presents ZZ^n/u: ker π is u's saturation, s·π = I, and rank and divisors are the reduced route's."""
    n, ref = u.ambient_rank, exactlin.quotient_presentation(u)
    assert Lattice(n, exactlin.kernel_basis(q.projection)) == saturate(u)
    assert q.section @ q.projection == IntMatrix.identity(q.free_rank)
    assert (q.free_rank, q.elementary_divisors) == (ref.free_rank, ref.elementary_divisors)


def _kernel_on_s(pt) -> Lattice:
    """ker π_p on the surviving coordinates S, where ``PointU.quotient`` presents A_p/U_p = Z^S/U′_p."""
    return Lattice(len(pt.kept), exactlin.kernel_basis(pt.quotient.projection))


def _spread_section(pt) -> IntMatrix:
    """s_p spread from S along ``kept`` over p's A coordinates."""
    return IntMatrix._of([{pt.kept[c]: x for c, x in row.items()} for row in pt.quotient.section.sparse_rows], pt.tau.rows)


def _assert_point_presents(pt, u, q):
    """``pt.quotient`` presents Z^S/U′_p (π_p against U′_p on S), Z^K ⊕ U′_p is U_p = ``u``, and A_p/U_p has the free rank and torsion of its reference presentation ``q``."""
    width = pt.tau.rows
    _assert_presents(pt.quotient, Lattice(len(pt.kept), pt.u))
    assert Lattice(width, IntMatrix._of(pt.generators(), width)) == u
    assert (1,) * (width - len(pt.kept)) + pt.quotient.elementary_divisors == q.elementary_divisors
    assert pt.quotient.free_rank == q.free_rank


def test_u_points_match_the_reference_route(maclane_data, c13_data, asymmetric_config):
    datas = (maclane_data, c13_data, build_lcs(relabel(glue_c13(), 41)), build_lcs(asymmetric_config), build_lcs(glue_copies(3)))
    for data in datas:
        spread = []
        for pt, (u, q) in zip(data.u_points, reference_u_points(data), strict=True):
            assert pt.quotient.is_torsion_free
            assert _kernel_on_s(pt) == Lattice(len(pt.kept), pt.u)
            _assert_point_presents(pt, u, q)
            spread += [{pt.rows.start + k: x for k, x in row.items()} for row in pt.generators()]
        assert Lattice(data.a_rank, IntMatrix._of(spread, data.a_rank)) == u_lattice(data.config)


def _assert_peel_matches_the_generators(data):
    """Each point's Z^K ⊕ U′_p against U's generator rows at p (``_u_generators``), read as the closed form reads them.

    K must be the coordinates of family 0 and of each family-2 row left with
    one coordinate once family 0's are dropped (a double point), Z^K ⊕ U′_p
    must have the canonical form of the rows, π_p on S the kernel U′_p, and
    K's unit divisors with U′_p's those of ``reference_u_points``.
    """
    n = data.n
    for pt, (p, rows), (u, q) in zip(data.u_points, lcs._u_generators(data.config), reference_u_points(data), strict=True):
        k, width = data.config.multiplicity(p), pt.tau.rows
        diag = {c for row in rows[:k] for c in row}
        left = [set(row).difference(diag) for row in rows[k + n :]]
        assert set(range(width)).difference(pt.kept) == diag.union(*(c for c in left if len(c) == 1)), p
        assert _kernel_on_s(pt) == Lattice(len(pt.kept), pt.u), p
        _assert_point_presents(pt, u, q)


PEEL_CONFIGS = {
    "c8": maclane_c8,
    "c13": glue_c13,
    "c13@41": lambda: relabel(glue_c13(), 41),
    "glued3": lambda: glue_copies(3),
    "hesse": hesse,
    "pencil4": pencil4,
    **{f"random{seed}": lambda seed=seed: random_real_arrangement(9, 2, seed)[0] for seed in range(20)},
}


def test_peeled_u_equals_the_generators_at_every_point(asymmetric_config):
    kept = {}
    for name, make in {**PEEL_CONFIGS, "fixture9": lambda: asymmetric_config}.items():
        data = build_lcs(make())
        _assert_peel_matches_the_generators(data)
        kept[name] = (sum(len(pt.kept) for pt in data.u_points), data.a_rank)
    # the forest runs on the surviving coordinates alone
    assert (kept["c8"], kept["c13"], kept["c13@41"], kept["glued3"]) == ((108, 147), (524, 1104), (524, 1104), (1248, 3621))


def _mutated_meetings(monkeypatch, mutate):
    real = lcs._meeting_classes

    def table(config):
        out = real(config)
        mutate(out)
        return out

    monkeypatch.setattr(lcs, "_meeting_classes", table)


def test_the_peel_oracle_catches_a_double_point_read_as_a_triple_point(monkeypatch):
    def triple(table):
        # l_i and l_m meet at a double point; each reads it as a new point of multiplicity ≥ 3
        i, m = next((i, m) for i in range(1, len(table)) for m, s in enumerate(table[i], 1) if s == lcs._KILLED and m != i)
        for a, b in ((i, m), (m, i)):
            table[a][b - 1] = max(table[a]) + 1

    _mutated_meetings(monkeypatch, triple)
    # U_p is unchanged (the new family-2 row is a unit row the forest drops), but K shrinks
    with pytest.raises(AssertionError):
        _assert_peel_matches_the_generators(build_lcs(maclane_c8()))


def test_the_peel_oracle_catches_a_parallel_line_read_as_meeting(monkeypatch):
    def meeting(table):
        # l_m is parallel to l_i; l_i reads it as meeting at its first point of multiplicity ≥ 3
        i, m = next((i, m) for i in range(1, len(table)) for m, s in enumerate(table[i], 1) if s == lcs._GROUND and max(table[i]) >= 0)
        table[i][m - 1] = 0

    _mutated_meetings(monkeypatch, meeting)
    with pytest.raises(AssertionError):
        _assert_peel_matches_the_generators(build_lcs(maclane_c8()))


# sha256 of ``u_lattice(c).basis`` row by row: perfbench's kappa-stream inputs and
# ``tools/replay.py kernel``'s u-lattice records read these rows in this order
U_LATTICE_ROW_DIGESTS = {
    "c8": "9969033ce861d467b9779b226be9e4f5b2458b2661063b71f871d0e8ff5ddffd",
    "c13": "b0076e3c6e2d9b5d8553c53cd0f0fd63cd27a51db6f19c74b04786534618b877",
    "c13@41": "4590e58c70656e74d16e02d4255cbf1db48e259a48580058bfc8e878062534ba",
    "glued3": "39b411f13d26e6fe4f5a3d26a7c10b06691e05e9c619864c002ce82c3691a372",
    "fixture9": "092151e49afced83b91f43033312fea380e74b37bc4a1affb736065d408a30df",
}


def test_u_lattice_rows_keep_their_order(asymmetric_config):
    configs = {
        "c8": maclane_c8(),
        "c13": glue_c13(),
        "c13@41": relabel(glue_c13(), 41),
        "glued3": glue_copies(3),
        "fixture9": asymmetric_config,
    }
    for name, config in configs.items():
        basis = u_lattice(config).basis
        rows = json.dumps([basis.cols, [sorted(row.items()) for row in basis.sparse_rows]])
        assert hashlib.sha256(rows.encode()).hexdigest() == U_LATTICE_ROW_DIGESTS[name], name


def test_cold_u_points_reduce_nothing(monkeypatch, asymmetric_config):
    configs = (maclane_c8(), glue_c13(), relabel(glue_c13(), 41), asymmetric_config, glue_copies(3), hesse(), pencil4())
    for config in configs:
        data = build_lcs(config)  # fresh, so ``u_points`` is built here
        data.tau_matrix  # noqa: B018 - τ̃ reduces P3 first
        with monkeypatch.context() as m:
            m.setattr(exactlin, "_hnf_forward", lambda *args: pytest.fail("a cold u_points ran a Hermite reduction"))
            points = data.u_points
        for pt, (u, q) in zip(points, reference_u_points(data), strict=True):
            _assert_point_presents(pt, u, q)


@pytest.mark.parametrize(
    "dim, gens, divisors",
    [
        # two flags of ZZ^2: the unit row e0, and 2(e1 + e3), which has an entry 2 and
        # so takes the reduction: divisor 2
        (4, [{0: 1}, {1: 2, 3: 2}], (1, 2)),
        # 2·e0 beside the unit rows e0 and e1: an entry 2 again, yet every divisor is 1
        (2, [{0: 2}, {0: 1}, {1: 1}], (1, 1)),
    ],
)
def test_point_quotient_reads_torsion_off_non_unit_pivots(dim, gens, divisors):
    q = lcs._point_quotient(IntMatrix._of(gens, dim))
    assert q.elementary_divisors == divisors
    _assert_presents(q, Lattice(dim, IntMatrix._of(gens, dim)))


def _graph_rows(rng):
    """Rows of 1s on up to 8 coordinates, each coordinate in at most two of them, among up to two unit rows.

    Odd cycles, empty rows, repeated rows and coordinates in no row all occur.
    """
    dim, count = rng.randint(1, 8), rng.randint(1, 5)
    rows = [{} for _ in range(count)]
    for c in range(dim):
        for r in rng.sample(range(count), min(count, rng.randint(0, 2))):
            rows[r][c] = 1
    rows += [{c: 1} for c in rng.sample(range(dim), min(dim, rng.randint(0, 2)))]
    rng.shuffle(rows)
    return IntMatrix._of(rows, dim)


def test_point_quotient_presents_graph_shaped_rows(monkeypatch):
    reduced = []

    def counted(lat):
        reduced.append(lat)
        return exactlin.quotient_presentation(lat)

    monkeypatch.setattr(lcs, "quotient_presentation", counted)
    # a triangle: every entry 1 and each coordinate in two rows, but the rows do not 2-colour
    triangle = IntMatrix._of([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}], 3)
    assert lcs._point_quotient(triangle).elementary_divisors == (1, 1, 2) and len(reduced) == 1
    rng, cases = random.Random(0), 400
    for _ in range(cases):
        gens = _graph_rows(rng)
        _assert_presents(lcs._point_quotient(gens), Lattice(gens.cols, gens))
    # both routes ran: the forest on the bipartite draws, the reduction on the others
    assert 1 < len(reduced) < cases


def test_point_quotient_equals_the_dict_forest(asymmetric_config):
    # the flat lists find the dict version's forest and cycle functionals, in its order, and fall back where it does
    rng = random.Random(0)
    for _ in range(400):
        gens = _graph_rows(rng)
        assert lcs._point_quotient(gens) == dict_point_quotient(gens)
    configs = (maclane_c8(), glue_c13(), relabel(glue_c13(), 41), glue_copies(3), asymmetric_config, hesse(), pencil4())
    for config in configs:
        for p, rows in lcs._u_generators(config):
            gens = IntMatrix._of(rows, config.multiplicity(p) * config.index.n)
            assert lcs._point_quotient(gens) == dict_point_quotient(gens), p
        for p, kept, rows in lcs._peeled_u(config):
            gens = IntMatrix._of(rows, len(kept))
            q = lcs._point_quotient(gens)
            assert q == dict_point_quotient(gens), p
            # with free rank 0 every projection row is one shared empty dict
            assert q.free_rank or len({id(row) for row in q.projection.sparse_rows}) <= 1, p


def test_cold_u_points_multiply_only_at_live_rows(monkeypatch):
    data = build_lcs(glue_c13())  # fresh, so ``u_points`` is built here
    data.tau_matrix  # noqa: B018 - built before counting
    blocks, real = [], exactlin.combine
    monkeypatch.setattr(exactlin, "combine", lambda terms, m: blocks.append(m) or real(terms, m))
    points = data.u_points
    zero = [pt for pt in points if not any(pt.tau.sparse_rows)]
    assert (len(points), len(zero)) == (41, 25) and not any(pt.u_tau.rows for pt in zero)
    # no combine at a point whose τ̃_p is zero; elsewhere one per U′_p and section row, through
    # τ̃_p's rows at S, and none for a unit generator at K, whose image is τ̃_p's own row
    live = [pt for pt in points if any(pt.tau.sparse_rows)]
    assert [m.rows for m in blocks] == [len(pt.kept) for pt in live for _ in range(pt.u.rows + pt.quotient.free_rank)]
    monkeypatch.undo()
    for pt in points:
        images = (IntMatrix._of(pt.generators(), pt.tau.rows) @ pt.tau).sparse_rows
        assert pt.u_tau.sparse_rows == tuple(filter(None, images)) and pt.s_tau == _spread_section(pt) @ pt.tau
        at_k = [row for c, row in enumerate(pt.tau.sparse_rows) if row and c not in pt.kept]
        assert all(a is b for a, b in zip(pt.u_tau.sparse_rows, at_k))


def test_pi_b_spans_b_projected_from_its_distinct_rows(asymmetric_config):
    configs = (maclane_c8(), glue_c13(), relabel(glue_c13(), 41), glue_copies(3), asymmetric_config, hesse(), pencil4())
    shapes = {}
    for config in configs:
        data = build_lcs(config)
        pi = data.u_projection
        assert data.pi_b == Lattice(pi.cols, data.b.basis @ pi)
        shapes[config.index.n] = data.pi_b.basis.shape
    assert shapes[7] == (49, 18) and shapes[12] == (144, 36)


def test_r3_rows_equal_the_combine_route(asymmetric_config):
    # for a fixed m the scaled bracket rows never share a column, so the union is the sum
    for config in (maclane_c8(), glue_c13(), asymmetric_config, hesse(), glue_copies(3)):
        data = build_lcs(config)
        np_, rows = data.npairs, data.r3.basis.sparse_rows
        summed = [
            exactlin.combine(((m * np_ + w, x) for w, x in r.items()), data.bracket)
            for m in range(data.n)
            for r in data.r2.basis.sparse_rows
        ]
        assert list(rows) == summed


def test_point_tau_slices_cover_the_dense_matrix(asymmetric_config):
    # ``tau_matrix`` sends only the rows with a live slot through ``_to_hom``; the oracle sends every row
    configs = (maclane_c8(), glue_c13(), relabel(glue_c13(), 41), asymmetric_config, hesse(), pencil4(), glue_copies(3))
    for config in configs:
        data = build_lcs(config)
        tau, oracle = data.tau_matrix, dense_tau_matrix(data)
        # every zero row is one shared dict
        assert len({id(row) for row in tau.sparse_rows if not row}) == 1
        assert all(pt.tau.cols == oracle.cols for pt in data.u_points)
        assert tuple(row for pt in data.u_points for row in pt.tau.sparse_rows) == oracle.sparse_rows == tau.sparse_rows


def test_point_tau_rows_are_the_tau_matrix_rows(maclane_data, c13_data, asymmetric_config):
    # one τ̃: each point's τ̃_p holds the matrix's own row dicts, and τ̃'s support its nonzero rows re-keyed
    for data in (maclane_data, c13_data, build_lcs(asymmetric_config)):
        tau, stop = data.tau_matrix.sparse_rows, 0
        for pt in data.u_points:
            assert pt.rows.start == stop and pt.tau.rows == pt.rows.stop - pt.rows.start
            assert all(row is tau[pt.rows.start + i] for i, row in enumerate(pt.tau.sparse_rows))
            stop = pt.rows.stop
        assert stop == data.a_rank
        cols, rows = data.tau_support
        assert cols == tuple(sorted(set().union(*tau))) and all(0 <= j < len(cols) for _, row in rows for j, _ in row)
        assert tau_support_rows(data) == [(a, row) for a, row in enumerate(tau) if row]


def test_tau_tilde_equals_the_blockwise_route(maclane_data, c13_data, asymmetric_config):
    rng = random.Random(30)
    datas = (maclane_data, c13_data, build_lcs(relabel(glue_c13(), 41)), build_lcs(asymmetric_config), build_lcs(glue_copies(3)))
    for data in datas:
        oracle = dense_tau_matrix(data)
        assert tau_support_rows(data) == [(a, row) for a, row in enumerate(oracle.sparse_rows) if row]
        for _ in range(4):
            dense = seeded_g_map(rng, data.config)
            sparse = GMap(data.config, dict(rng.sample(sorted(dense.assignments.items()), 3)))
            for g in (dense, sparse):
                assert tau_tilde(data, g) == blockwise_tau_tilde(data, g)
                assert tau_tilde(data, g).flat == vec_mat(abelianize(g).vector(), oracle)
            # τ̃ of a pair is τ̃ of its difference
            for a, b in ((dense, seeded_g_map(rng, data.config)), (sparse, dense)):
                assert tau_tilde(data, a, b) == blockwise_tau_tilde(data, abelianize(a) - abelianize(b))
        # a pair equal at every A coordinate with a nonzero row of τ̃ but not elsewhere
        a = abelianize(seeded_g_map(rng, data.config))
        off = [k for k, row in enumerate(oracle.sparse_rows) if not row]
        vec = list(a.vector())
        for k in rng.sample(off, 3):
            vec[k] += rng.choice((-2, -1, 1, 2))
        b = AbelianGMap.from_vector(data.config, vec)
        assert a != b and tau_tilde(data, a, b).is_zero() and blockwise_tau_tilde(data, a - b).is_zero()
        report = kappa(data, a, b)
        assert report.zero and report.tau_value.is_zero() and report.witness is None
        assert report.certificate.shape == (data.n, data.p2.free_rank) and not any(report.certificate.sparse_rows)
        with pytest.raises(ConfigMismatchError):
            tau_tilde(data, GMap(maclane_c8() if data is not maclane_data else glue_c13()))


def test_b_lattice_rows_equal_the_point_scan(asymmetric_config):
    for config in (maclane_c8(), glue_c13(), glue_copies(3), asymmetric_config):
        assert b_lattice(config).basis == scanned_b_rows(config)


def _point_u_lattice(data) -> Lattice:
    """U read back from ``u_points``: each point's ``generators`` spread over its rows of A."""
    rows = [{pt.rows.start + k: x for k, x in row.items()} for pt in data.u_points for row in pt.generators()]
    return Lattice(data.a_rank, IntMatrix._of(rows, data.a_rank))


def test_predicates_fail_when_u_gains_a_generator_outside_the_kernel(monkeypatch, maclane_data):
    data = maclane_data
    unit = next(
        v
        for v in ([int(k == j) for k in range(data.a_rank)] for j in range(data.a_rank))
        if not tau_tilde(data, AbelianGMap.from_vector(data.config, v)).is_zero()
    )
    point = data.index.pairs[unit.index(1) // data.n][1]
    assert not member(unit, lcs.u_lattice(data.config))
    peeled = lcs._peeled_u
    local = unit.index(1) - data.u_points[data.index.p0.index(point)].rows.start  # in the point's A coordinates

    def with_extra(config):
        for p, kept, rows in peeled(config):
            # τ̃ kills K's unit generators, so the coordinate survives the peel
            yield p, kept, rows + [{kept.index(local): 1}] if p == point else rows

    monkeypatch.setattr(lcs, "_peeled_u", with_extra)
    data = build_lcs(maclane_c8())  # fresh, so its per-point U is built from the patched source
    u, b = _point_u_lattice(data), lcs.b_lattice(data.config)
    assert member(unit, u) and u != lcs.u_lattice(data.config)
    assert tau_kernel(data) != u and not tau_kernel_equals_u(data)
    assert tau_preimage(data) != lattice_sum(u, b) and not tau_preimage_equals_u_plus_b(data)


def test_kernel_predicate_compares_lattices_not_ranks(monkeypatch):
    point = maclane_c8().index.p0[0]
    peeled = lcs._peeled_u

    def doubled_at_point(config):
        for p, kept, rows in peeled(config):
            yield p, kept, [{k: 2 * x for k, x in row.items()} for row in rows] if p == point else rows

    monkeypatch.setattr(lcs, "_peeled_u", doubled_at_point)
    data = build_lcs(maclane_c8())  # fresh, so its per-point U is built from the patched source
    u = _point_u_lattice(data)
    # Z^K ⊕ 2·U′_p has U_p's rank, but is not saturated: ``_point_quotient`` reduces rows of 2s
    assert u.rank == lcs.u_lattice(data.config).rank == 129 and u != lcs.u_lattice(data.config)
    assert not data.u_points[0].quotient.is_torsion_free
    assert tau_kernel(data) != u and not tau_kernel_equals_u(data)
    # A/U has torsion, so the preimage route has no section to work with
    with pytest.raises(TorsionError):
        tau_preimage_equals_u_plus_b(data)


def test_preimage_predicate_fails_when_b_gains_the_builtin_difference(monkeypatch):
    data = build_lcs(maclane_c8())  # fresh, so its cached B is built from the patched ``b_lattice``
    diff = builtin_g_difference()
    assert not kappa(data, builtin_g_map("plus"), builtin_g_map("minus")).zero
    b_lattice_orig = lcs.b_lattice

    def with_difference(config):
        b = b_lattice_orig(config)
        return Lattice(b.ambient_rank, list(b.basis.entries) + [diff.vector()])

    monkeypatch.setattr(lcs, "b_lattice", with_difference)
    u, b = lcs.u_lattice(data.config), lcs.b_lattice(data.config)
    assert tau_kernel_equals_u(data)
    assert tau_preimage(data) != lattice_sum(u, b) and not tau_preimage_equals_u_plus_b(data)


def _row_counter(monkeypatch, names):
    """Wrap exactlin reductions (and the names lcs imported) to record the rows of each call."""
    rows = {name: [] for name in names}
    for name in names:
        real = getattr(exactlin, name)

        def counted(m, _real=real, _name=name):
            rows[_name].append(m.rows)
            return _real(m)

        monkeypatch.setattr(exactlin, name, counted)
        if hasattr(lcs, name):
            monkeypatch.setattr(lcs, name, counted)
    return rows


def _lift_counter(monkeypatch):
    """Wrap ``LcsData._lift`` to record the Λ²H value of each lift it builds."""
    lifts, real = [], lcs.LcsData._lift

    def counted(self, terms, v):
        lifts.append(v)
        return real(self, terms, v)

    monkeypatch.setattr(lcs.LcsData, "_lift", counted)
    return lifts


def test_verdict_path_never_builds_the_dense_tau(monkeypatch):
    data = build_lcs(maclane_c8())
    data.p3, data.im_delta  # noqa: B018 - built before counting
    rows, lifts = _row_counter(monkeypatch, ["hnf", "kernel_basis"]), _lift_counter(monkeypatch)
    assert not kappa(data, builtin_g_map("plus"), builtin_g_map("minus")).zero
    assert tau_kernel_equals_u(data) and tau_preimage_equals_u_plus_b(data)
    # τ̃ is built but never reduced whole: no reduction gets all 147 of A's rows
    assert data.a_rank == 147 and data.a_rank not in rows["hnf"] + rows["kernel_basis"]
    # rank Im τ̃ + rows of Im δ̄'s core = 18 + 21; the dense route reduces 147 and 203
    assert rows["kernel_basis"] and max(rows["kernel_basis"]) <= 18 + 21
    # τ̃'s rows are built from its live slots: one lift per nonzero row, not one for
    # each of the 126 A coordinates x_m at (i,p), m ≠ i; τ̃*'s transposed flag terms are not built
    assert len(lifts) == len(tau_support_rows(data)) == 108 and "_flag_terms_transpose" not in vars(data)
    assert tau_support_rows(data) == [(a, row) for a, row in enumerate(data.tau_matrix.sparse_rows) if row]


def test_c13_verdict_reductions_stay_small(monkeypatch):
    # fresh, so the per-point U record is built inside the count
    data = build_lcs(glue_c13())
    data.p3, data.im_delta  # noqa: B018 - built before counting

    def no_u_lattice(config):
        raise AssertionError("the verdict path builds no global U")

    monkeypatch.setattr(lcs, "u_lattice", no_u_lattice)
    rows, lifts = _row_counter(monkeypatch, ["hnf", "hnf_with_transform", "kernel_basis"]), _lift_counter(monkeypatch)
    forward, back, kernel_calls, backs = exactlin._hnf_forward, exactlin._hnf_back, [], []
    im_delta_rows = list(data.im_delta.basis.sparse_rows)
    core_rows = list(data.im_delta_core.lattice.basis.sparse_rows)

    def counted_forward(a, *args):
        kernel_calls.append("im_delta" if a == im_delta_rows else "core" if a == core_rows else None)
        rows.setdefault("forward", []).append(len(a))
        return forward(a, *args)

    def counted_back(a, pivots, u):
        # a full back-substitution of the core holds its non-pivot columns; a cut to its pivot columns would not
        backs.append((u is not None, tuple(pivots), any(set(row) - set(pivots) for row in a)))
        return back(a, pivots, u)

    monkeypatch.setattr(exactlin, "_hnf_forward", counted_forward)
    monkeypatch.setattr(exactlin, "_hnf_back", counted_back)
    assert tau_kernel_equals_u(data) and tau_preimage_equals_u_plus_b(data)
    # per point only rank τ̃_p∘s_p, over 41 points: A_p/U_p comes from a spanning
    # forest, so neither U_p nor its complement is reduced; then the joint kernel
    # [τ̃∘s; core of Im δ̄] and the two lattices it compares.  τ̃(U) is 0, so no
    # membership test reduces the core
    assert len(kernel_calls) == 41 + 3 and not any(kernel_calls)
    plus, minus = builtin_g_map("plus"), builtin_g_map("minus")
    g_pp, g_pm = glued_g_map(plus, plus), glued_g_map(plus, minus)
    assert kappa(data, g_pp, g_pp).zero and not kappa(data, g_pp, g_pm).zero
    # κ walks the echelon rows of Im δ̄'s core (40 of its 180 rows, rank 28 of 168), and its
    # witness reads the core's Hermite form: one forward pass, one full back-substitution, no pivot-column cut
    assert data.im_delta.basis.shape == (180, 2040) and data.im_delta_core.lattice.rank == 28
    assert kernel_calls.count("core") == 1 and "im_delta" not in kernel_calls and len(kernel_calls) == 41 + 4
    core_pivots = tuple(data.im_delta_core.lattice.echelon()[1])
    assert [(transform, full) for transform, pivots, full in backs if pivots == core_pivots] == [(False, True)]
    # no back-substitution carries a transform: no lattice calls hnf_with_transform
    assert not any(transform for transform, *_ in backs) and rows.pop("hnf_with_transform") == []
    tau_tilde(data, random_abelian(random.Random(0), data))
    assert all(rows.values()) and max(max(r) for r in rows.values()) <= 216
    # one lift per nonzero row of τ̃, of 1104 − 92 A coordinates x_m at (i,p), m ≠ i
    assert len(lifts) == len(tau_support_rows(data)) == 216 and "_flag_terms_transpose" not in vars(data)
    assert tau_support_rows(data) == [(a, row) for a, row in enumerate(data.tau_matrix.sparse_rows) if row]


def test_verdict_path_builds_no_dense_view(monkeypatch, asymmetric_config):
    def no_dense(*args):
        raise AssertionError("the verdict path reads a dense view")

    monkeypatch.setattr(IntMatrix, "entries", property(no_dense))
    monkeypatch.setattr(IntMatrix, "row", no_dense)
    monkeypatch.setattr(IntMatrix, "to_lists", no_dense)
    outcomes = []
    for config in (maclane_c8(), asymmetric_config):
        data = build_lcs(config)
        data.r3, data.p3, data.r3perp, data.tau_matrix, data.im_delta  # noqa: B018 - R3⊥ runs both routes
        outcomes.append((tau_kernel_equals_u(data), tau_preimage_equals_u_plus_b(data)))
        if config == maclane_c8():
            assert not kappa(data, builtin_g_map("plus"), builtin_g_map("minus")).zero
            assert kappa(data, builtin_g_map("plus"), builtin_g_map("plus")).zero
            assert all(check_equivariance(data, sigma) for sigma in transport_group(data))
            assert tau_star_identities(data).all_ok
    assert outcomes == [(True, True), (False, True)]


# -- tau and delta ------------------------------------------------------------


def test_tau_is_additive(maclane_data):
    data = maclane_data
    for k in range(100):
        rng = random.Random(k)
        a = random_abelian(rng, data)
        b = random_abelian(rng, data)
        c = random_abelian(rng, data)
        lhs = tau_tilde(data, a + b) + tau_tilde(data, c)
        rhs = tau_tilde(data, a) + (tau_tilde(data, b) + tau_tilde(data, c))
        assert lhs == rhs


def test_tau_accepts_gmap_via_abelianization(maclane_data):
    data = maclane_data
    g = builtin_g_map("plus")
    assert tau_tilde(data, g) == tau_tilde(data, abelianize(g))


def test_tau_lift_rows_project_to_tau_value(maclane_data):
    data = maclane_data
    proj = data.p3.projection
    for k in range(20):
        rng = random.Random(k)
        a = random_abelian(rng, data)
        lift = lift_rows(data, [(g, s, x * c) for x, terms in zip(a.vector(), tau_lift(data)) for g, s, c in terms])
        flat = []
        for row in lift:
            flat.extend(vec_mat(vec_mat(row, data.bracket), proj))
        assert tuple(flat) == tau_tilde(data, a).flat


def test_tau_rows_equal_the_relator_route(maclane_data, asymmetric_config):
    # a unit perturbation g(i,p) = 1 -> x_m changes only p's relators; at each generator flag of p,
    # the P3 class of the degree-3 Magnus change is that flag's block of τ̃'s row (i,p,m)
    for data in (maclane_data, build_lcs(asymmetric_config)):
        config, n, r, proj = data.config, data.n, data.p3.free_rank, data.p3.projection
        base = words.relators_from_g(config, GMap(config))
        for pos, (i, p) in enumerate(data.index.pairs):
            for m in range(1, n + 1):
                moved = words.relators_from_g(config, GMap(config, {(i, p): Word.gen(m)}))
                row = [0] * (len(data.gens) * r)
                for k in config.lines_through(p):
                    if (k, p) in data.index.gen_pos:
                        g = data.index.gen_pos[k, p]
                        change = words.magnus(moved[k, p]) - words.magnus(base[k, p])
                        row[g * r : (g + 1) * r] = vec_mat(words.lie_coords(change, 3, n), proj)
                assert tuple(row) == data.tau_matrix.row(pos * n + m - 1), (i, p, m)


def test_delta_bar_equals_tau_on_constant_data(maclane_data, asymmetric_config, c13_data):
    # B's row (j, m) is the data x_m at every flag of line j; its τ̃ value is δ̄ of the lift
    # f̂(x_j) = ±x_j∧x_m (+ when j < m), zero elsewhere, exactly and not up to sign
    for data in (maclane_data, build_lcs(asymmetric_config), c13_data):
        n, b = data.n, b_lattice(data.config).basis
        for j in range(1, n + 1):
            for m in range(1, n + 1):
                unit = {data.wedge_pos[min(j, m), max(j, m)]: 1 if j < m else -1} if j != m else {}
                fhat = IntMatrix._of([unit if line == j else {} for line in range(1, n + 1)], data.npairs)
                a = AbelianGMap.from_vector(data.config, b.row((j - 1) * n + m - 1))
                assert tau_tilde(data, a).flat == delta_bar_from_lift(data, fhat).flat, (j, m)


def test_delta_bar_is_lift_independent(maclane_data):
    data = maclane_data
    for k in range(20):
        rng = random.Random(k)
        f = IntMatrix(
            [[rng.randint(-3, 3) for _ in range(data.p2.free_rank)] for _ in range(data.n)],
            data.p2.free_rank,
        )
        fhat = f @ data.p2.section
        assert delta_bar(data, f) == delta_bar_from_lift(data, fhat)
        shifted = [list(fhat.row(i)) for i in range(data.n)]
        for _ in range(3):
            i = rng.randrange(data.n)
            r = rng.choice(data.r2.basis.entries)
            c = rng.randint(-2, 2)
            shifted[i] = [x + c * y for x, y in zip(shifted[i], r)]
        assert delta_bar_from_lift(data, IntMatrix(shifted, data.npairs)) == delta_bar(data, f)


def test_delta_lift_rows_project_to_delta_value(maclane_data):
    data = maclane_data
    proj = data.p3.projection
    for k in range(10):
        rng = random.Random(k)
        fhat = IntMatrix(
            [[rng.randint(-2, 2) for _ in range(data.npairs)] for _ in range(data.n)],
            data.npairs,
        )
        lift = lift_rows(data, data._delta_lift(fhat))
        flat = []
        for row in lift:
            flat.extend(vec_mat(vec_mat(row, data.bracket), proj))
        assert tuple(flat) == delta_bar_from_lift(data, fhat).flat


def test_delta_kernel_complements_image(maclane_data):
    data = maclane_data
    ker = delta_kernel(data)
    assert ker.rank == 7
    assert ker.rank + data.im_delta.rank == data.n * data.p2.free_rank
    for row in ker.basis.entries:
        f = IntMatrix(
            [row[i * data.p2.free_rank : (i + 1) * data.p2.free_rank] for i in range(data.n)],
            data.p2.free_rank,
        )
        assert delta_bar(data, f).is_zero()


def test_pairing_identity_at_shared_points(maclane_data):
    # <S(i,j), lift of delta f(rbar(k,p))> = -<omega_ij, f(x_k)> whenever
    # p is the finite intersection of lines i and k.
    data = maclane_data
    config = data.config
    duals = {e.label: e for e in maclane_dual_basis()}
    gp = data.index.gen_pos
    checked = 0
    for seed in range(3):
        rng = random.Random(seed)
        f = IntMatrix(
            [[rng.randint(-4, 4) for _ in range(data.p2.free_rank)] for _ in range(data.n)],
            data.p2.free_rank,
        )
        fhat = f @ data.p2.section
        lift = lift_rows(data, data._delta_lift(fhat))
        for label, e in duals.items():
            if e.tag != "S":
                continue
            inner = label[2:-1].split(",")
            if len(inner) != 2:
                continue
            i, j = int(inner[0]), int(inner[1])
            lo, hi = min(i, j), max(i, j)
            sign = 1 if i < j else -1
            w = data.wedge_pos[(lo, hi)]  # omega_ij is the unit functional at this wedge coordinate
            for p in data.index.p0:
                lines_p = config.lines_through(p)
                if i not in lines_p:
                    continue
                for k in lines_p:
                    if k == i or (k, p) not in gp:
                        continue
                    lhs = sum(x * lift[gp[(k, p)]][s] for s, x in e.coords.items())
                    assert lhs == -sign * fhat.row(k - 1)[w]
                    checked += 1
    assert checked == 60


# -- dual bases and transport -------------------------------------------------


def test_dual_basis_spans(maclane_data):
    data = maclane_data
    duals = maclane_dual_basis()
    by_tag = {}
    for e in duals:
        by_tag.setdefault(e.tag, []).append(e)
    assert len(by_tag["S"]) == 16  # 6 ordered infinity pairs + 2 per finite triple point
    assert len(by_tag["T"]) == 5
    assert sum(len(by_tag[t]) for t in ("I", "J", "K1", "K2")) == 18
    # each functional is a sparse row, zeros never stored; the tag names its space
    assert all(type(e.coords) is dict and all(e.coords.values()) and not hasattr(e, "space") for e in duals)
    st_rows = [e.coords for e in duals if e.tag in ("S", "T")]
    assert all(0 <= k < data.hw_rank for row in st_rows for k in row)
    assert Lattice(data.hw_rank, IntMatrix._of(st_rows, data.hw_rank)) == data.r3perp
    ijk_rows = [e.coords for e in duals if e.tag in ("I", "J", "K1", "K2")]
    assert all(0 <= k < data.a_rank for row in ijk_rows for k in row)
    assert Lattice(data.a_rank, IntMatrix._of(ijk_rows, data.a_rank)) == perp(
        u_lattice(data.config)
    )


def test_tau_star_identities(maclane_data, monkeypatch):
    pullbacks, real = [], maclane.tau_star
    monkeypatch.setattr(maclane, "tau_star", lambda *args: pullbacks.append(1) or real(*args))
    rep = tau_star_identities(maclane_data)
    # 6 σ × 7 base identities; the base identities are the identity σ's slice, not run again
    assert len(pullbacks) == 42
    assert len(rep.identities) == 7
    assert all(ok for _, ok in rep.identities)
    assert rep.transport_consistent
    assert len(rep.point_coverage) == 8
    assert all(ok for _, ok in rep.point_coverage)
    assert rep.all_ok


def test_tau_star_equals_the_dense_pullback(maclane_data, c13_data, asymmetric_config, monkeypatch):
    # every pullback of the transport loop on c8, 6 σ × 7 base identities, is Φ = class ⊗ φ
    # for the class of r̄ that the loop read just before it
    classes, calls, real, real_class = [], [], maclane.tau_star, maclane.rbar_gen_coeffs
    monkeypatch.setattr(maclane, "rbar_gen_coeffs", lambda *args: classes.append(real_class(*args)) or classes[-1])
    monkeypatch.setattr(maclane, "tau_star", lambda data, phi: calls.append((classes[-1], phi)) or real(data, phi))
    assert tau_star_identities(maclane_data).all_ok
    assert len(calls) == 42
    hw, a_rank = maclane_data.hw_rank, maclane_data.a_rank
    for gen_coeffs, phi in calls:
        g = next(g for g, c in enumerate(gen_coeffs) if c)  # the class's entries are ±1
        functional = [phi.get(g * hw + s, 0) // gen_coeffs[g] for s in range(hw)]
        assert phi == class_tensor(maclane_data, gen_coeffs, functional)
        assert densify(real(maclane_data, phi), a_rank) == dense_tau_star(maclane_data, gen_coeffs, functional)
    # seeded classes and functionals, outside R3perp too: τ̃* is linear either way
    for data in (maclane_data, c13_data, build_lcs(asymmetric_config)):
        rng, outside, ngens = random.Random(f"tau-star:{data.n}"), 0, len(data.gens)
        for _ in range(5):
            gen_coeffs = [rng.choice((0, 0, 1, -1, 2)) for _ in data.gens]
            functional = [rng.choice((0, 0, 0, 1, -1, 3)) for _ in range(data.hw_rank)]
            value = real(data, class_tensor(data, gen_coeffs, functional))
            assert all(value.values()) and densify(value, data.a_rank) == dense_tau_star(data, gen_coeffs, functional)
            outside += not member(functional, data.r3perp).ok
        assert outside
        # a Φ that differs at each generator flag is Σ_g e_g ⊗ φ_g
        blocks = [[rng.choice((0, 0, 0, 1, -1, 3)) for _ in range(data.hw_rank)] for _ in data.gens]
        units = [[int(h == g) for h in range(ngens)] for g in range(ngens)]
        phi = {k: x for unit, block in zip(units, blocks) for k, x in class_tensor(data, unit, block).items()}
        expected = [sum(col) for col in zip(*(dense_tau_star(data, unit, block) for unit, block in zip(units, blocks)))]
        assert densify(real(data, phi), data.a_rank) == tuple(expected)


def test_tau_star_refuses_a_key_out_of_range(maclane_data):
    data = maclane_data
    width = len(data.gens) * data.hw_rank
    assert maclane.tau_star(data, {}) == {}
    assert densify(maclane.tau_star(data, {width - 1: 2}), data.a_rank) == dense_tau_star(data, [0] * (len(data.gens) - 1) + [1], [0] * (data.hw_rank - 1) + [2])
    for key in (-1, width, width + 5):
        with pytest.raises(ValueError, match=f"outside \\[0, {width}\\)"):
            maclane.tau_star(data, {0: 1, key: 2})


def test_rbar_gen_coeffs_refuses_flags_that_are_not_finite(maclane_data):
    data = maclane_data
    # p012 lies on the line at infinity, "p999" on no line, and line 2 misses p135
    for i, p in ((1, "p012"), (0, "p012"), (1, "p999"), (2, "p135")):
        with pytest.raises(ValueError, match=re.escape(f"({i},{p}) is not a finite flag")):
            rbar_gen_coeffs(data, i, p)
    # a generator flag is its unit class; the minimal line's flag is minus the point's others
    gp = data.index.gen_pos
    assert rbar_gen_coeffs(data, 3, "p135") == tuple(int(g == gp[3, "p135"]) for g in range(len(data.gens)))
    assert rbar_gen_coeffs(data, 1, "p135") == tuple(-int(g in (gp[3, "p135"], gp[5, "p135"])) for g in range(len(data.gens)))


def test_tau_star_layer_builds_no_dense_row(monkeypatch):
    # cold: R2 is built first, as LcsData() takes its dense rows; the transposed flag terms, P3, U, B and
    # the decoded dual basis are built inside the count
    data = build_lcs(maclane_c8())
    maclane.maclane_dual_basis.cache_clear()
    maclane._t_vector.cache_clear()
    calls, real_densify, real_init = [], exactlin.densify, IntMatrix.__init__
    for module in (lcs, maclane, words):  # the layer's modules, maclane should it bind densify; exactlin's own, member's coefficients, is not counted
        monkeypatch.setattr(module, "densify", lambda *args: calls.append("densify") or real_densify(*args), raising=False)
    monkeypatch.setattr(IntMatrix, "__init__", lambda self, *args: calls.append("IntMatrix") or real_init(self, *args))
    assert tau_star_identities(data).all_ok
    assert cli._dual_basis_check(data)["status"] == "pass" and cli._t_check(data)["status"] == "pass"
    assert calls == []


def test_transport_group_and_equivariance(maclane_data):
    data = maclane_data
    group = transport_group(data)
    assert len(group) == 6
    for perm in ((0, 6, 5, 4, 3, 2, 1, 7), (0, 3, 4, 5, 6, 1, 2, 7)):
        sigma = ConfigAutomorphism.from_line_perm(data.config, perm)
        assert check_equivariance(data, sigma)
    for sigma in group:
        assert check_equivariance(data, sigma)


def test_equivariance_under_c13_automorphisms(c13_data):
    autos = automorphisms(c13_data.config)
    fixing = [sigma for sigma in autos if sigma.line_perm[0] == 0]
    assert len(fixing) == 4
    for sigma in fixing:
        assert check_equivariance(c13_data, sigma)
    with pytest.raises(ValueError):
        check_equivariance(c13_data, next(sigma for sigma in autos if sigma.line_perm[0] != 0))


def test_line_action_refuses_an_automorphism_of_a_relabelled_config(maclane_data):
    # its point names are not c8's, which read as a bare KeyError
    sigma = ConfigAutomorphism.identity(relabel(maclane_c8(), 41))
    for act in (line_action, check_equivariance):
        with pytest.raises(ConfigMismatchError):
            act(maclane_data, sigma)


def test_line_action_refuses_an_automorphism_of_c13(maclane_data):
    # swapping C13's halves sends c8's flags to primed points; fixing them gave a
    # silent answer from the wrong configuration
    autos = [sigma for sigma in automorphisms(glue_c13()) if sigma.line_perm[0] == 0]
    assert len(autos) == 4
    for sigma in autos:
        for act in (line_action, check_equivariance):
            with pytest.raises(ConfigMismatchError):
                act(maclane_data, sigma)


def test_equivariance_detects_a_changed_tau_entry(maclane_data):
    group = transport_group(maclane_data)
    tau = maclane_data.tau_matrix
    # the twist K_σ matters: σ moves τ̃ itself for every σ but the identity
    for sigma in group:
        on_a, _ = line_action(maclane_data, sigma)
        assert (on_a @ tau == tau) == sigma.is_identity()
    data = build_lcs(maclane_c8())
    rows = [dict(row) for row in tau.sparse_rows]
    k = next(i for i, row in enumerate(rows) if row)
    rows[k][min(rows[k])] *= 2
    data.tau_matrix = IntMatrix._of(rows, tau.cols)
    assert check_equivariance(data, ConfigAutomorphism.identity(data.config))
    assert not all(check_equivariance(data, sigma) for sigma in group if not sigma.is_identity())


def test_line_action_group_laws(maclane_data):
    data = maclane_data
    group = transport_group(data)
    act = {sigma: line_action(data, sigma) for sigma in group}
    identity = ConfigAutomorphism.identity(data.config)
    assert act[identity] == (IntMatrix.identity(data.a_rank), IntMatrix.identity(data.hw_rank))
    order_matters = False
    for sigma in group:
        for m, m_inv in zip(act[sigma], line_action(data, sigma.inverse())):
            assert m @ m_inv == IntMatrix.identity(m.rows)
        for tau in group:
            # σ.compose(τ) is σ after τ; on row vectors it acts by M_τ @ M_σ
            for m_st, m_s, m_t in zip(act[sigma.compose(tau)], act[sigma], act[tau]):
                assert m_st == m_t @ m_s
                order_matters |= m_st != m_s @ m_t
    assert order_matters


def test_transport_group_is_the_line_0_stabiliser(maclane_data):
    stabiliser = [sigma for sigma in automorphisms(maclane_data.config) if sigma.line_perm[0] == 0]
    assert stabiliser == transport_group(maclane_data)


def test_line_perm_must_preserve_incidence(maclane_data):
    with pytest.raises(ValueError):
        ConfigAutomorphism.from_line_perm(maclane_data.config, (0, 2, 1, 3, 4, 5, 6, 7))


# -- bundled conjugator data --------------------------------------------------


def test_builtin_g_maps(maclane_data):
    plus = builtin_g_map("plus")
    minus = builtin_g_map("minus")
    assert plus.value(4, "p45") == parse_word("w6^-1 w3^-1")
    assert minus.value(4, "p45") == parse_word("w7^-1")
    assert plus != minus
    with pytest.raises(ValueError):
        builtin_g_map("other")


def test_builtin_generator_lists_consistent():
    assert generator_lists_consistent("plus")
    assert generator_lists_consistent("minus")
    lists = builtin_generator_lists("plus")
    assert set(lists) == {"p135", "p147", "p16", "p23", "p246", "p257", "p367", "p45"}
    with pytest.raises(ValueError):
        builtin_generator_lists("other")


def test_builtin_difference_values():
    diff = builtin_g_difference()
    assert diff.value(4, "p45") == (0, 0, -1, 0, 0, -1, 1)
    assert diff.value(2, "p23") == (0, 0, 0, 0, -1, 0, 0)
    assert diff.value(6, "p246") == (0, 0, 0, 0, 0, 0, -1)


def test_t_functional_values(maclane_data):
    data = maclane_data
    assert t_functional(builtin_g_difference()) == 1
    for row in u_lattice(data.config).basis.entries:
        assert t_functional(AbelianGMap.from_vector(data.config, row)) == 0
    for row in b_lattice(data.config).basis.entries:
        assert t_functional(AbelianGMap.from_vector(data.config, row)) == 0
    with pytest.raises(ConfigMismatchError):
        t_functional(abelianize(GMap(glue_c13())))


def test_t_functional_reads_its_data_file_once(monkeypatch):
    diff = builtin_g_difference()
    maclane._t_vector.cache_clear()
    reads = []
    real = maclane._builtin_json
    monkeypatch.setattr("arrlcs.maclane._builtin_json", lambda name: reads.append(name) or real(name))
    assert t_functional(diff) == 1
    first = len(reads)
    assert "dual_basis_c8.json" in reads
    for _ in range(4):
        assert t_functional(diff) == 1
    assert len(reads) == first


# -- kappa --------------------------------------------------------------------


def test_kappa_separates_builtin_pair(maclane_data):
    data = maclane_data
    rep = kappa(data, builtin_g_map("plus"), builtin_g_map("minus"))
    assert not rep.zero
    assert rep.certificate is None
    assert rep.t_value == 1
    w = rep.witness
    assert w is not None and w.modulus > 0
    assert w.pairing % w.modulus != 0
    assert dot(w.functional, rep.tau_value.flat) % w.modulus == w.pairing
    for row in data.im_delta.basis.entries:
        assert dot(w.functional, row) % w.modulus == 0


def test_kappa_vanishes_on_equal_arguments(maclane_data):
    data = maclane_data
    for which in ("plus", "minus"):
        g = builtin_g_map(which)
        rep = kappa(data, g, g)
        assert rep.zero
        assert rep.witness is None
        assert rep.t_value == 0
        assert rep.difference.is_zero()
        assert delta_bar(data, rep.certificate) == rep.tau_value


def test_kappa_certificate_reconstructs_value(maclane_data):
    data = maclane_data
    plus = abelianize(builtin_g_map("plus"))
    b = b_lattice(data.config)
    for k in range(5):
        rng = random.Random(k)
        shift = [0] * data.a_rank
        for _ in range(3):
            row = rng.choice(b.basis.entries)
            c = rng.randint(-2, 2)
            shift = [x + c * y for x, y in zip(shift, row)]
        moved = plus + AbelianGMap.from_vector(data.config, shift)
        rep = kappa(data, plus, moved)
        assert rep.zero
        assert delta_bar(data, rep.certificate) == rep.tau_value


def test_kappa_ignores_kernel_shifts(maclane_data):
    data = maclane_data
    plus = abelianize(builtin_g_map("plus"))
    minus = abelianize(builtin_g_map("minus"))
    u = u_lattice(data.config)
    for k in range(5):
        rng = random.Random(k)
        row = rng.choice(u.basis.entries)
        moved = plus + AbelianGMap.from_vector(data.config, row)
        assert kappa(data, plus, moved).zero
        assert not kappa(data, moved, minus).zero


def test_kappa_rejects_foreign_config(maclane_data):
    c13, relabelled = abelianize(GMap(glue_c13())), abelianize(GMap(relabel(maclane_c8(), 41)))
    plus = builtin_g_map("plus")
    assert len(relabelled.vector()) == maclane_data.a_rank  # as long as c8's: only a check of its configuration refuses it
    mixed = [(g, gprime) for foreign in (c13, relabelled) for g, gprime in ((foreign, foreign), (plus, foreign), (foreign, plus))]
    for g, gprime in mixed:
        with pytest.raises(ConfigMismatchError):
            kappa(maclane_data, g, gprime)
    for foreign in (c13, relabelled):
        with pytest.raises(ConfigMismatchError):
            tau_tilde(maclane_data, foreign)
    for g, gprime in mixed:
        with pytest.raises(ConfigMismatchError):
            tau_tilde(maclane_data, g, gprime)


def test_hom_r2p3_algebra(maclane_data):
    data = maclane_data
    a = tau_tilde(data, abelianize(builtin_g_map("plus")))
    b = tau_tilde(data, abelianize(builtin_g_map("minus")))
    assert (a - b) + b == a
    assert (a - a).is_zero()
    for flat in ((0, 5, 7), ()):
        with pytest.raises(ValueError, match="take 1 entries"):
            HomR2P3(((1, "q"),), 1, flat)
    assert a.matrix().shape == (13, 21)
    r = a.free_rank
    assert a.matrix() == IntMatrix([a.flat[g * r : (g + 1) * r] for g in range(len(a.gens))], r)
    assert HomR2P3(a.gens, r, a.flat) == a and a.sparse == {j: x for j, x in enumerate(a.flat) if x}
    assert tau_tilde(data, builtin_g_map("plus"), builtin_g_map("minus")) == a - b
    other = HomR2P3(((1, "q"),), 1, (0,))
    with pytest.raises(ConfigMismatchError):
        a + other
    with pytest.raises(ConfigMismatchError):
        a - other


def test_kappa_json_equals_the_dense_oracle(maclane_data, c13_data, asymmetric_config):
    # the full difference, blockwise τ̃ and the single-reduction member, against kappa's sparse route
    datas = {
        "c8": maclane_data, "c13": c13_data, "c13@41": build_lcs(relabel(glue_c13(), 41)),
        "fixture9": build_lcs(asymmetric_config), "glued3": build_lcs(glue_copies(3)),
    }
    kinds = {name: [] for name in datas}
    for name, data in datas.items():
        cfg, rng = data.config, random.Random(f"kappa-oracle:{name}")
        g = seeded_g_map(rng, cfg)
        near = GMap(cfg, {**g.assignments, **{flag: seeded_word(rng, data.n, 3) for flag in rng.sample(cfg.index.pairs, 2)}})
        b_row = rng.choice(b_lattice(cfg).basis.sparse_rows)
        shifted = abelianize(g) + AbelianGMap.from_vector(cfg, [2 * b_row.get(j, 0) for j in range(data.a_rank)])
        pairs = [(g, seeded_g_map(rng, cfg)), (g, near), (near, g), (g, g), (g, shifted)]
        if name == "c8":
            pairs.append((builtin_g_map("plus"), builtin_g_map("minus")))
        for pair in pairs:
            rep = kappa(data, *pair)
            assert json.dumps(rep.to_json_dict(), sort_keys=True) == json.dumps(dense_kappa_json(data, *pair), sort_keys=True), name
            kinds[name].append("zero" if rep.zero else "divisibility" if rep.witness.modulus else "rational")
    # every outcome is covered: certificates, divisibility witnesses and a rational one (fixture9's first pair)
    assert {kind for seen in kinds.values() for kind in seen} == {"zero", "divisibility", "rational"}


def test_kappa_report_json_shape(maclane_data):
    rep = kappa(maclane_data, builtin_g_map("plus"), builtin_g_map("minus"))
    d = rep.to_json_dict()
    assert d["zero"] is False
    assert d["witness"]["modulus"] == rep.witness.modulus
    assert d["certificate"] is None
    assert "(4,p45)" in d["difference"]
    assert d["t_value"] == 1


# -- glued configurations -----------------------------------------------------


def test_glued_g_map_transports_assignments():
    plus = builtin_g_map("plus")
    minus = builtin_g_map("minus")
    glued = glued_g_map(plus, minus)
    assert glued.config == glue_c13()
    assert glued.value(4, "p45") == plus.value(4, "p45")
    line_map = {i: i + 5 for i in range(3, 8)}
    assert glued.value(9, "p'45") == minus.value(4, "p45").relabeled(line_map)
    assert glued.value(8, "p'135") == minus.value(3, "p135").relabeled(line_map)
    assert glued.value(1, "p'135") == minus.value(1, "p135").relabeled(line_map)
    for p in glue_c13().points:
        if p.startswith("p''"):
            for i in glue_c13().lines_through(p):
                assert glued.value(i, p) == Word.identity()
    with pytest.raises(ConfigMismatchError):
        glued_g_map(GMap(glue_c13()), plus)


def test_glued_g_map_refuses_no_maps():
    with pytest.raises(ValueError, match="k = 0"):
        glued_g_map()


def test_glued_g_map_puts_each_copys_words_at_its_flags():
    plus, minus = builtin_g_map("plus"), builtin_g_map("minus")
    maps = (plus, minus, plus)
    glued, c8, c18 = glued_g_map(*maps), maclane_c8(), glue_copies(3)
    assert glued.config == c18
    # copy 2 sends lines 3..7 to 13..17 and writes pX as p'''X
    to_copy_2 = {3: 13, 4: 14, 5: 15, 6: 16, 7: 17}
    assert glued.value(14, "p'''45") == plus.value(4, "p45").relabeled(to_copy_2)
    assert glued.value(1, "p'''135") == plus.value(1, "p135").relabeled(to_copy_2)
    for c, g in enumerate(maps):
        line_map = {i: copy_line(c, i) for i in range(8)}
        for i, p in c8.index.pairs:
            on = tuple(sorted(line_map[j] for j in c8.lines_through(p)))
            (q,) = [q for q in c18.points if c18.lines_through(q) == on]
            assert glued.value(line_map[i], q) == g.value(i, p).relabeled(line_map)
    crossings = [p for p in c18.points if p.count("'") in (2, 4)]
    assert len(crossings) == 75
    for p in crossings:
        for i in c18.lines_through(p):
            assert glued.value(i, p) == Word.identity()


def test_warm_c13_kappa_builds_no_difference_and_no_dense_value(c13_data, monkeypatch):
    plus, minus = builtin_g_map("plus"), builtin_g_map("minus")
    pp, pm = abelianize(glued_g_map(plus, plus)), abelianize(glued_g_map(plus, minus))
    kappa(c13_data, pp, pm)  # warm: τ̃'s support, Im δ̄'s echelon stage and the witness
    calls, difference = [], pp - pm
    sub, densify = AbelianGMap.__sub__, exactlin.densify
    monkeypatch.setattr(AbelianGMap, "__sub__", lambda a, b: calls.append("sub") or sub(a, b))
    for module in (exactlin, lcs):
        monkeypatch.setattr(module, "densify", lambda row, n: calls.append(n) or densify(row, n))
    rep = kappa(c13_data, pp, pm)
    assert not rep.zero and calls == []
    # only the certificate's coefficients, one per row of Im δ̄'s core; its 140 peeled rows take 0
    assert kappa(c13_data, pp, pp).zero and calls == [40]
    assert rep.difference == difference and calls == [40, "sub"]  # built when read
    assert len(rep.tau_value.sparse) < len(rep.tau_value.flat) == 2040 and calls[-1] == 2040


def test_kappa_on_c13_builds_no_incidence_index(c13_data, monkeypatch):
    plus, minus = builtin_g_map("plus"), builtin_g_map("minus")
    pp, pm = glued_g_map(plus, plus), glued_g_map(plus, minus)
    c13_data.im_delta, c13_data.tau_matrix  # the lazy degree-3 build runs before counting
    built = []
    init = IncidenceIndex.__init__

    def counting_init(self, config):
        built.append(config)
        init(self, config)

    monkeypatch.setattr(IncidenceIndex, "__init__", counting_init)
    assert not kappa(c13_data, pp, pm).zero
    assert kappa(c13_data, pp, pp).zero
    assert built == []


# -- c8's κ witness pulled back to a gluing through one copy -------------------


def _pairing(data, phi, g, gprime, modulus):
    """Check (c): τ̃*Φ, one ``tau_star`` product, paired with ḡ − ḡ′, mod ``modulus``."""
    diff = (abelianize(g) - abelianize(gprime)).vector()
    return sum(x * diff[a] for a, x in maclane.tau_star(data, phi).items()) % modulus


def _checked(data, phi, g, gprime, modulus):
    """Checks (a), (b) and (c) of Φ by ``certify``'s fast forms, asserted equal to the reference forms; returns (a, b, c) of the references.

    (a) and (c) equal ``certificate_failures`` and ``_pairing``.  ``certify``'s
    (b) pairs with the unit maps x_i ↦ x_a∧x_b and equals
    ``wedge_unit_failures``; ``certificate_failures`` pairs with the maps
    E_{i,t} through P2's section, another spanning set of Im δ̄, so with it
    only whether any map fails is compared.
    """
    ref_a, ref_b = certificate_failures(data, phi, modulus)
    pairing = _pairing(data, phi, g, gprime, modulus)
    fast = failures_a(data, phi), failures_b(data, phi, modulus), tau_pairing(data, phi, abelianize(g) - abelianize(gprime), modulus)
    assert fast == (ref_a, wedge_unit_failures(data, phi, modulus), pairing)
    assert bool(fast[1]) == bool(ref_b)
    return ref_a, ref_b, pairing


def test_c8_witness_pulled_back_certifies_every_unequal_c13_pair(maclane_data, c13_data):
    w = kappa(maclane_data, builtin_g_map("plus"), builtin_g_map("minus")).witness
    assert (w.modulus, w.pairing) == (6, 2)
    phis = [pulled_back_functional(c13_data, maclane_data, c, w.functional) for c in range(2)]
    # (a) and (b) read Φ alone, not the pair
    assert [certificate_failures(c13_data, phi, w.modulus) for phi in phis] == [(0, 0), (0, 0)]
    assert [(failures_a(c13_data, phi), failures_b(c13_data, phi, w.modulus)) for phi in phis] == [(0, 0), (0, 0)]
    halves = {"+": builtin_g_map("plus"), "-": builtin_g_map("minus")}
    maps = {a + b: glued_g_map(halves[a], halves[b]) for a in halves for b in halves}
    certified = 0
    for (signs, g), (signs2, g2) in itertools.product(maps.items(), repeat=2):
        pairings = [_pairing(c13_data, phi, g, g2, w.modulus) for phi in phis]
        # copy c pairs to 0 where the halves agree, and to ±2 mod 6 where they differ
        assert pairings == [{"+-": 2, "-+": 4}.get(signs[c] + signs2[c], 0) for c in range(2)]
        assert [tau_pairing(c13_data, phi, abelianize(g) - abelianize(g2), w.modulus) for phi in phis] == pairings
        certified += any(pairings)
        # c13-report's certificate goes through the first copy where the halves differ, and reads ḡ′ abelianized alike
        cert = certify_glued(c13_data, maclane_data, w.functional, w.modulus, g, abelianize(g2))
        if signs == signs2:
            assert cert is None
        else:
            copy = 0 if signs[0] != signs2[0] else 1
            assert cert == GluedCertificate(copy, 6, pairings[copy], 0, 0) and cert.proves_nonzero
        # the full route on C13 agrees: κ ≠ 0 on exactly the certified pairs
        assert kappa(c13_data, g, g2).zero == (not any(pairings)) == (signs == signs2) == (cert is None)
    assert certified == 12


def test_c8_witness_pulled_back_certifies_a_three_copy_gluing(maclane_data):
    w = kappa(maclane_data, builtin_g_map("plus"), builtin_g_map("minus")).witness
    plus, minus = builtin_g_map("plus"), builtin_g_map("minus")
    for k in (3, 4):
        data = build_lcs(glue_copies(k))
        g, g2 = glued_g_map(*[plus] * k), glued_g_map(plus, *[minus] * (k - 1))
        for c, expected in enumerate((0,) + (2,) * (k - 1)):
            phi = pulled_back_functional(data, maclane_data, c, w.functional)
            assert certificate_failures(data, phi, w.modulus) == (0, 0)
            assert _pairing(data, phi, g, g2, w.modulus) == expected
        assert certify_glued(data, maclane_data, w.functional, w.modulus, g, g2) == GluedCertificate(1, 6, 2, 0, 0)


def test_pulled_back_certificate_rejects_mutants(maclane_data, c13_data):
    w = kappa(maclane_data, builtin_g_map("plus"), builtin_g_map("minus")).witness
    plus, minus = builtin_g_map("plus"), builtin_g_map("minus")
    g, g2 = glued_g_map(plus, plus), glued_g_map(plus, minus)
    checked = functools.partial(_checked, c13_data, g=g, gprime=g2, modulus=w.modulus)
    # a witness one off at one entry still factors through P3, so (a) holds, but one δ̄ row fails (b)
    bumped = list(w.functional)
    bumped[0] += 1
    assert checked(pulled_back_functional(c13_data, maclane_data, 0, bumped))[:2] == (0, 1)
    assert checked(pulled_back_functional(c13_data, maclane_data, 1, bumped)) == (0, 1, 2)
    # Φ one off at a slot x_m⊗(x_a∧x_b), m ∉ {a, b}, meets a Jacobi element: (a) fails
    phi, pairs, hw, np_ = pulled_back_functional(c13_data, maclane_data, 0, w.functional), list(c13_data.wedge_pos), c13_data.hw_rank, c13_data.npairs
    k = next(k for k in sorted(phi) if k % hw // np_ + 1 not in pairs[k % np_])
    assert checked({**phi, k: phi[k] + 1})[0]
    # the pair differs in copy 1 only: through copy 0 it pairs to 0, so (c) fails
    assert checked(phi) == (0, 0, 0)
    phi1 = pulled_back_functional(c13_data, maclane_data, 1, w.functional)
    assert checked(phi1) == (0, 0, 2)
    # a line map off by one line: Φ through copy 1 with line 12 (c8's line 7) read as line 11 in every slot
    off = {}
    for key, x in phi1.items():
        flag, slot = divmod(key, hw)
        m, a, b = (11 if line == 12 else line for line in (slot // np_ + 1, *pairs[slot % np_]))
        if a != b:
            pos, sign = wedge_slot(c13_data.wedge_pos, a, b)
            key = flag * hw + (m - 1) * np_ + pos
            off[key] = off.get(key, 0) + sign * x
    fails_a, fails_b, _ = checked({key: x for key, x in off.items() if x})
    assert fails_a and fails_b


def test_certify_glued_reads_c8_as_its_own_copy_and_refuses_other_data(maclane_data, c13_data, asymmetric_config):
    plus, minus = builtin_g_map("plus"), builtin_g_map("minus")
    w = kappa(maclane_data, plus, minus).witness
    # c8 is glue_copies(1): copy 0's line map is the identity, and the witness certifies itself
    assert certify_glued(maclane_data, maclane_data, w.functional, w.modulus, plus, minus) == GluedCertificate(0, 6, 2, 0, 0)
    # c8's conjugator data does not live on C13
    with pytest.raises(ConfigMismatchError):
        certify_glued(c13_data, maclane_data, w.functional, w.modulus, plus, minus)
    # a configuration that holds no MacLane copy is refused, not certified
    rng = random.Random(0)
    g, g2 = seeded_g_map(rng, asymmetric_config), seeded_g_map(rng, asymmetric_config)
    with pytest.raises(ConfigMismatchError):
        certify_glued(build_lcs(asymmetric_config), maclane_data, w.functional, w.modulus, g, g2)


def test_the_glued_certificate_reduces_nothing(maclane_data, c13_data, monkeypatch):
    plus, minus = builtin_g_map("plus"), builtin_g_map("minus")
    w = kappa(maclane_data, plus, minus).witness  # c8's P3 and witness are warm, as c13-report finds them
    g, g2 = glued_g_map(plus, plus), glued_g_map(plus, minus)
    passes, forward = [], exactlin._hnf_forward
    monkeypatch.setattr(exactlin, "_hnf_forward", lambda *args: passes.append(args) or forward(*args))
    assert certify_glued(c13_data, maclane_data, w.functional, w.modulus, g, g2).proves_nonzero
    assert passes == []


@pytest.fixture(scope="module")
def glued3_data():
    return build_lcs(glue_copies(3))


def test_im_delta_torsion_divisors(maclane_data, c13_data, glued3_data):
    # T, the torsion of Hom(R2,P3)/Im δ̄, has one Z/3 per MacLane copy
    for data, expected in ((maclane_data, [3]), (c13_data, [3, 3]), (glued3_data, [3, 3, 3])):
        assert [d for d in snf(data.im_delta.canonical_form)[0] if d != 1] == expected


def test_im_delta_rank_drops_mod_3_by_its_divisors_divisible_by_3(maclane_data, c13_data, glued3_data):
    # rank_Z - rank_F3 of a lattice counts its elementary divisors divisible by 3, so a mod-3
    # elimination reads the 3-rank of T off Im δ̄ without a Smith form
    for data, expected, ranks in ((maclane_data, 1, (49, 48)), (c13_data, 2, (168, 166)), (glued3_data, 3, (357, 354))):
        divisors = snf(data.im_delta.canonical_form)[0]
        rank_f3 = rank_mod_p(data.im_delta.basis.sparse_rows, 3)
        assert (data.im_delta.rank, rank_f3) == ranks
        assert ranks[0] - ranks[1] == sum(1 for d in divisors if d % 3 == 0) == expected


def test_peeled_p2_and_p3_equal_the_whole_reduction(asymmetric_config):
    configs = (maclane_c8(), glue_c13(), relabel(glue_c13(), 41), asymmetric_config, hesse(), pencil4(), glue_copies(3))
    for config in configs:
        data = build_lcs(config)
        assert data.p2 == unpeeled_quotient(Lattice(data.r2.ambient_rank, data.r2.basis))
        assert data.p3 == unpeeled_quotient(Lattice(data.r3.ambient_rank, data.r3.basis))


def test_a_cold_p3_reduces_only_the_residual_of_r3(monkeypatch):
    shapes, forward = [], exactlin._hnf_forward
    monkeypatch.setattr(exactlin, "_hnf_forward", lambda a, ncols, u: shapes.append((len(a), ncols)) or forward(a, ncols, u))
    for config, residual in ((glue_c13(), (154, 194)), (relabel(glue_c13(), 41), (147, 187))):
        data = build_lcs(config)
        data.r3  # noqa: B018 - built, not reduced
        shapes.clear()
        data.p3  # noqa: B018
        # R3 is 612 × 572; the residual's pass comes first and is the largest, then perp's (40 rows)
        assert shapes[0] == residual and max(rows for rows, _ in shapes) == residual[0]
        assert all(rows != 612 for rows, _ in shapes) and len(data.p3.elementary_divisors) == 532
        assert "echelon" not in data.r3._cache


def test_dependent_r2_is_refused_before_its_torsion(monkeypatch):
    # the first two relator rows both become 2·r̄_0: R2 is dependent and ZZ^21/R2 has torsion,
    # and the dependence is what is reported
    rows = []

    def doubled(config, i, p, idx=None):
        rows.append(words.rbar_coords(config, i, p, idx))
        return tuple(2 * x for x in rows[0]) if len(rows) <= 2 else rows[-1]

    monkeypatch.setattr(lcs, "rbar_coords", doubled)
    with pytest.raises(ValueError, match="not independent"):
        build_lcs(maclane_c8())
    doubled_rows = [tuple(2 * x for x in rows[0])] * 2 + rows[2:]
    assert not exactlin.quotient_presentation(Lattice(21, doubled_rows)).is_torsion_free
