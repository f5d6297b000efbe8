"""Im δ̄'s core (``LcsData.im_delta_core``) against the flat route that reduces all of Im δ̄.

κ and the preimage identity test only vectors on τ̃'s image columns C,
and read only the rows of Im δ̄'s basis left after peeling each row that
is the only remaining one at a column outside C.  Every verdict,
certificate, witness and span here is compared with the flat route
(``helpers.flat_kappa_member``, ``helpers.flat_preimage_equals_u_plus_b``,
``helpers.flat_tau_preimage``), and three broken peels are caught.
"""

import random

import pytest

from arrlcs import lcs
from arrlcs.config import glue_c13, glue_copies, maclane_c8
from arrlcs.exactlin import IntMatrix, Lattice, _peel_owned_rows, combine, member
from arrlcs.kernels import TorsionError, b_lattice, tau_preimage, tau_preimage_equals_u_plus_b, u_lattice
from arrlcs.lcs import SupportCore, build_lcs, delta_bar, glued_g_map, kappa
from arrlcs.maclane import builtin_g_map
from arrlcs.words import AbelianGMap
from helpers import (
    flat_kappa_member,
    flat_preimage_equals_u_plus_b,
    flat_tau_preimage,
    hesse,
    on_columns,
    peeled_core_rows,
    pencil4,
    random_real_arrangement,
    relabel,
)


def witness_problems(data, value, witness) -> list[str]:
    """A κ witness must vanish on every row of Im δ̄'s basis mod its modulus, and not on the value."""
    f, m = witness.functional, witness.modulus
    bad = [j for j, row in enumerate(data.im_delta.basis.sparse_rows) if (sum(f[c] * x for c, x in row.items()) % m if m else sum(f[c] * x for c, x in row.items()))]
    pairing = sum(f[c] * x for c, x in value.sparse.items())
    return [f"witness does not vanish on row {j}" for j in bad] + (["witness vanishes on the value"] if (pairing % m if m else pairing) == 0 else [])


def pairs(data, seed):
    """Two pairs differing by an element of U + B, then a dense and a sparse random pair."""
    cfg, rng = data.config, random.Random(f"core-oracle:{seed}")
    ub = [*u_lattice(cfg).basis.sparse_rows, *b_lattice(cfg).basis.sparse_rows]
    out = []
    for kind in ("ub", "ub", "dense", "sparse"):
        base = [rng.randint(-3, 3) for _ in range(data.a_rank)]
        diff = [0] * data.a_rank
        if kind == "ub":
            for row in rng.sample(ub, min(4, len(ub))):
                c = rng.choice((-2, -1, 1, 2))
                for j, x in row.items():
                    diff[j] += c * x
        elif kind == "dense":
            diff = [rng.randint(-2, 2) for _ in range(data.a_rank)]
        else:
            for j in rng.sample(range(data.a_rank), 3):
                diff[j] = rng.choice((-1, 1))
        g = AbelianGMap.from_vector(cfg, base)
        out.append((kind, g, AbelianGMap.from_vector(cfg, [a + d for a, d in zip(base, diff)])))
    return out


def route_problems(data, seed) -> list[str]:
    """Differences between the core route and the flat route on ``data``, and failed certificates and witnesses."""
    problems = []
    for kind, g, gprime in pairs(data, seed):
        rep, flat = kappa(data, g, gprime), flat_kappa_member(data, g, gprime)
        if rep.zero != flat.ok or (kind == "ub" and not rep.zero):
            problems.append(f"{kind}: zero {rep.zero}, flat {flat.ok}")
        elif rep.zero and delta_bar(data, rep.certificate) != rep.tau_value:
            problems.append(f"{kind}: δ̄(certificate) is not the τ̃ value")
        elif not rep.zero:
            problems += [f"{kind}: {p}" for p in witness_problems(data, rep.tau_value, rep.witness)]
    core = data.im_delta_core
    if on_columns(core.lattice, core.inside) != on_columns(data.im_delta, core.inside):
        problems.append("the core's span on C is not Im δ̄ ∩ Z^C")
    return problems


def preimage_outcome(identity, data):
    try:
        return identity(data)
    except TorsionError:
        return "torsion"


INPUTS = {
    "c8": maclane_c8,
    "c13": glue_c13,
    "c13@41": lambda: relabel(glue_c13(), 41),
    "glued3": lambda: glue_copies(3),
    "hesse": hesse,
    "pencil4": pencil4,
    **{f"random{seed}": lambda seed=seed: random_real_arrangement(9, 2, seed)[0] for seed in range(10)},
}


@pytest.mark.parametrize("name", [*INPUTS, "fixture9"])
def test_the_core_route_equals_the_flat_route(name, asymmetric_config):
    data = build_lcs(asymmetric_config if name == "fixture9" else INPUTS[name]())
    assert route_problems(data, name) == []
    assert preimage_outcome(tau_preimage_equals_u_plus_b, data) == preimage_outcome(flat_preimage_equals_u_plus_b, data)
    if data.a_rank <= 2000:  # the flat joint kernel of all of A and all of Im δ̄; Hesse's A has 4 068 rows
        assert tau_preimage(data) == flat_tau_preimage(data)
    # the core is exactly what a full rescan after each peel leaves, and on these inputs it lies on C
    core = data.im_delta_core
    assert core.rows == peeled_core_rows(data.im_delta.basis.sparse_rows, core.inside)
    assert set().union(*core.lattice.basis.sparse_rows) <= core.inside


def test_core_shapes_on_the_maclane_gluings(maclane_data, c13_data):
    # (basis rows, columns), core rows, columns the core uses, core rank, rows peeled
    for data, shape in ((maclane_data, ((56, 273), 21, 60, 14, 35)), (c13_data, ((180, 2040), 40, 120, 28, 140))):
        core = data.im_delta_core
        used = set().union(*core.lattice.basis.sparse_rows)
        assert (data.im_delta.basis.shape, len(core.rows), len(used), core.lattice.rank, len(core.peeled)) == shape
        assert len(core.rows) + len(core.peeled) == data.im_delta.basis.rows and len(core.inside) == len(used)


def test_witness_moduli_are_the_cores_pivot_products(maclane_data, c13_data):
    plus, minus = builtin_g_map("plus"), builtin_g_map("minus")
    w = kappa(maclane_data, plus, minus).witness
    assert (w.modulus, w.pairing) == (6, 2) and maclane_data.im_delta_core.lattice.echelon()[3] == 6
    assert flat_kappa_member(maclane_data, plus, minus).witness.modulus == maclane_data.im_delta.echelon()[3] == 12
    w = kappa(c13_data, glued_g_map(plus, plus), glued_g_map(plus, minus)).witness
    assert w.modulus == c13_data.im_delta_core.lattice.echelon()[3] == 36


def test_the_core_refuses_a_vector_off_its_support(maclane_data):
    core = maclane_data.im_delta_core
    off = min(set(range(core.source.ambient_rank)) - core.inside)
    with pytest.raises(ValueError, match="outside the core's support"):
        core.member({off: 1})


def test_peel_owned_rows_cascades_and_keeps_the_rows_it_cannot_peel():
    # C = {0}: row 2 alone owns column 3, which leaves row 1 alone at column 2; rows 0 and 3 share column 1
    rows = [{0: 1, 1: 2}, {0: 1, 2: 1}, {2: 1, 3: 5}, {1: 1}, {}]
    core, peeled = _peel_owned_rows(rows, {0})
    assert core == [0, 3] and peeled == [(2, 3), (1, 2)]
    assert core == peeled_core_rows(rows, {0})
    # here the core does not lie on C: its rows (1, 2, 0, 0) and (0, 1, 0, 0) reach 3·e_0 with column 1 cancelled
    support = SupportCore(Lattice(4, IntMatrix._of(rows, 4)), {0})
    res = support.member({0: 3})
    assert res.ok and res.coefficients == (3, 0, 0, -6, 0)


def test_the_extended_witness_scales_where_the_own_entry_does_not_divide():
    # L = span{(2, 0, 3)} on C = {0}: the core is empty, so e_0 fails rationally with f = e_0;
    # f·B = 2 is not divisible by B[2] = 3, so f is scaled by 3 and f_2 = -2
    support = SupportCore(Lattice(3, IntMatrix._of([{0: 2, 2: 3}], 3)), {0})
    assert support.rows == [] and support.peeled == [(0, 2)]
    w = support.member({0: 1}).witness
    assert (w.functional, w.modulus, w.pairing) == ((3, 0, -2), 0, 3)
    # L = span{(2, 0, 0), (1, 0, 3)} on C = {0, 1}: e_0 fails mod 2 on the core with f = e_0;
    # f·B_1 = 1 is not divisible by 3, so f and the modulus are scaled by 3 and f_2 = -1
    support = SupportCore(Lattice(3, IntMatrix._of([{0: 2}, {0: 1, 2: 3}], 3)), {0, 1})
    assert support.rows == [0] and support.peeled == [(1, 2)]
    w = support.member({0: 1}).witness
    assert (w.functional, w.modulus, w.pairing) == ((3, 0, -1), 6, 3)


# -- broken peels are caught ------------------------------------------------------------

# L = span{B0, B1, B2} on 5 columns with C = {0, 1}: B2 alone owns column 3, then B1 column 2, and
# the core {B0} spans L ∩ Z^C = span{(1, 1)}.  e_0 fails rationally; its witness is scaled by 3 at B2.
SMALL = Lattice(5, IntMatrix._of([{0: 1, 1: 1}, {1: 2, 2: 1}, {2: 1, 3: 3}], 5))
SMALL_VECTORS = ({0: 1, 1: 1}, {0: -2, 1: -2}, {0: 1}, {1: 2})


def small_problems() -> list[str]:
    """The span oracle, the certificate of each member and the witness of each non-member of ``SMALL``, against ``member`` in all of L."""
    support, problems = SupportCore(SMALL, {0, 1}), []
    if on_columns(support.lattice, support.inside) != on_columns(SMALL, support.inside):
        problems.append("the core's span on C is not L ∩ Z^C")
    rows = SMALL.basis.sparse_rows
    for v in SMALL_VECTORS:
        res = support.member(v)
        if res.ok != member(v, SMALL).ok:
            problems.append(f"{v}: verdict {res.ok}")
        elif res.ok and {c: x for c, x in combine(enumerate(res.coefficients), SMALL.basis).items()} != v:
            problems.append(f"{v}: the certificate does not give the vector")
        elif not res.ok:
            f, m = res.witness.functional, res.witness.modulus
            pair = [sum(f[c] * x for c, x in row.items()) for row in (*rows, v)]
            if any(x % m if m else x for x in pair[:-1]) or not (pair[-1] % m if m else pair[-1]):
                problems.append(f"{v}: the witness fails")
    return problems


def test_the_small_lattice_peels_as_described():
    support = SupportCore(SMALL, {0, 1})
    assert support.rows == [0] and support.peeled == [(2, 3), (1, 2)]
    w = support.member({0: 1}).witness
    assert (w.functional, w.modulus) == ((-3, 3, -6, 2, 0), 0) and small_problems() == []


def test_a_skipped_extension_step_is_caught(monkeypatch):
    extend = lcs._extend_witness
    monkeypatch.setattr(lcs, "_extend_witness", lambda f, m, rows, peeled: extend(f, m, rows, peeled[1:]))
    assert small_problems() == [f"{ {0: 1} }: the witness fails", f"{ {1: 2} }: the witness fails"]
    # on c8 too: κ(plus, minus)'s witness no longer vanishes on the first peeled row of Im δ̄
    data = build_lcs(maclane_c8())
    rep = kappa(data, builtin_g_map("plus"), builtin_g_map("minus"))
    assert witness_problems(data, rep.tau_value, rep.witness) == [f"witness does not vanish on row {data.im_delta_core.peeled[0][0]}"]


def test_a_dropped_core_row_is_caught(monkeypatch):
    peel = lcs._peel_owned_rows

    def dropped(rows, inside):
        core, peeled = peel(rows, inside)
        return core[1:], peeled

    monkeypatch.setattr(lcs, "_peel_owned_rows", dropped)
    assert small_problems() == [
        "the core's span on C is not L ∩ Z^C",
        f"{ {0: 1, 1: 1} }: verdict False",
        f"{ {0: -2, 1: -2} }: verdict False",
        f"{ {0: 1} }: the witness fails",
        f"{ {1: 2} }: the witness fails",
    ]


def test_a_peel_at_a_column_inside_c_is_caught(monkeypatch):
    peel = lcs._peel_owned_rows
    # with no column protected, B0 is alone at column 0 and is peeled too
    monkeypatch.setattr(lcs, "_peel_owned_rows", lambda rows, inside: peel(rows, set()))
    assert SupportCore(SMALL, {0, 1}).rows == [] and "the core's span on C is not L ∩ Z^C" in small_problems()


def test_the_maclane_gluings_give_these_mutants_nothing_to_change(maclane_data):
    # on c8 every kept row lies in the span of the others, and each column of C meets two or more
    # kept rows, so dropping a kept row or peeling at a column of C changes no span there: the
    # mutants above are caught on a lattice where they matter
    core = maclane_data.im_delta_core
    rows, width, inside = core.lattice.basis.sparse_rows, core.source.ambient_rank, core.inside
    full = on_columns(core.lattice, inside)
    for k in range(len(rows)):
        assert on_columns(Lattice(width, IntMatrix._of(rows[:k] + rows[k + 1 :], width)), inside) == full
    assert _peel_owned_rows(rows, set()) == (list(range(len(rows))), [])
