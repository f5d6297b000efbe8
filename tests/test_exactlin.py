"""Randomized laws for the exact integer linear algebra substrate."""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from arrlcs import exactlin
from arrlcs.config import maclane_c8
from arrlcs.exactlin import (
    IntMatrix,
    Lattice,
    MembershipResult,
    hnf,
    hnf_with_transform,
    kernel_basis,
    member,
    perp,
    quotient_presentation,
    Witness,
    snf,
    used_columns,
    vstack,
)
from arrlcs.lcs import tau_tilde, u_lattice
from arrlcs.words import AbelianGMap
from helpers import dot, kernel_perp, lattice_sum, reference_member, reference_quotient, reference_witness, saturate, vec_mat


@st.composite
def matrices(draw, rows=(0, 5), cols=(1, 6), bound=9):
    n = draw(st.integers(*cols))
    row = st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
    return IntMatrix(draw(st.lists(row, min_size=rows[0], max_size=rows[1])), n)


@st.composite
def wide_sparse(draw, max_rows=12, max_cols=60):
    """Few nonzeros per row: zero rows, zero columns and negative leads are common."""
    n = draw(st.integers(1, max_cols))
    entry = st.dictionaries(st.integers(0, n - 1), st.integers(-9, 9).filter(bool), max_size=3)
    rows = draw(st.lists(entry, max_size=max_rows))
    return IntMatrix([[row.get(j, 0) for j in range(n)] for row in rows], n)


@st.composite
def tall_sparse(draw, max_rows=150, max_cols=8):
    """Many rows led by the same 2-3 columns, entries ±1 and ±2: large leading-column
    buckets, row swaps and |entry| ties at nearly every pivot."""
    n = draw(st.integers(3, max_cols))
    leads = draw(st.lists(st.integers(0, n - 2), min_size=2, max_size=3, unique=True))
    value = st.sampled_from((-2, -1, 1, 2))
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        lead = draw(st.sampled_from(leads))
        rows.append({lead: draw(value), **draw(st.dictionaries(st.integers(lead + 1, n - 1), value, max_size=2))})
    return IntMatrix([[row.get(j, 0) for j in range(n)] for row in rows], n)


def lattices(**shape):
    return matrices(**shape).map(lambda m: Lattice(m.cols, m))


@st.composite
def unit_pivot_lattices(draw, max_cols=8):
    """Echelon rows with leading entry 1 and zeros at the other leading columns,
    mixed by adding multiples of one row to another, sometimes with a dependent row:
    every Hermite pivot of the span is 1."""
    n = draw(st.integers(1, max_cols))
    leads = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    entry = st.integers(-9, 9)
    rows = [[int(c == p) if c in leads else draw(entry) if c > p else 0 for c in range(n)] for p in leads]
    if len(rows) >= 2:
        for _ in range(draw(st.integers(0, 6))):
            i, j = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2, unique=True))
            k = draw(st.integers(-3, 3))
            rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
        if draw(st.booleans()):
            rows.append([x - y for x, y in zip(rows[0], rows[1])])
    return Lattice(n, IntMatrix(rows, n))


@st.composite
def permuted_identity_lattices(draw, max_cols=8):
    """Rows [I | B] with the columns permuted: saturated, with Hermite pivots 1 or larger."""
    n = draw(st.integers(1, max_cols))
    r = draw(st.integers(0, n))
    perm = draw(st.permutations(range(n)))
    rows = [[int(i == j) for j in range(r)] + draw(st.lists(st.integers(-9, 9), min_size=n - r, max_size=n - r)) for i in range(r)]
    return Lattice(n, IntMatrix([[row[perm[c]] for c in range(n)] for row in rows], n))


def bareiss_det(m: IntMatrix) -> int:
    """Fraction-free determinant, used as an independent oracle for SNF."""
    n = m.rows
    assert n == m.cols
    if n == 0:
        return 1
    a = [list(r) for r in m.entries]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_unimodular(u: IntMatrix) -> bool:
    return u.rows == u.cols and abs(bareiss_det(u)) == 1


def assert_hnf_shape(h: IntMatrix) -> None:
    last = -1
    for r, row in enumerate(h.entries):
        piv = next((c for c, x in enumerate(row) if x), None)
        assert piv is not None, "canonical form contains a zero row"
        assert piv > last
        last = piv
        assert row[piv] > 0
        for rr in range(r + 1, h.rows):
            assert h.entries[rr][piv] == 0 or next(
                (c for c, x in enumerate(h.entries[rr]) if x), len(row)
            ) > piv
        for rr in range(r):
            assert 0 <= h.entries[rr][piv] < row[piv]


# -- storage -------------------------------------------------------------------


def assert_sparse(m: IntMatrix) -> None:
    assert len(m.sparse_rows) == m.rows
    assert all(x and 0 <= k < m.cols for row in m.sparse_rows for k, x in row.items())


@settings(max_examples=200)
@given(st.one_of(matrices(), wide_sparse()))
def test_dense_and_sparse_construction_agree(m):
    dense = m.to_lists()
    sparse = [{j: x for j, x in enumerate(row) if x} for row in dense]
    # insertion order of a row's entries is not part of its value
    backwards = [dict(reversed(row.items())) for row in sparse]
    a, b, c = IntMatrix(dense, m.cols), IntMatrix._of(sparse, m.cols), IntMatrix._of(backwards, m.cols)
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert a.entries == b.entries == tuple(map(tuple, dense))
    assert [a.row(i) for i in range(a.rows)] == [tuple(row) for row in dense]
    assert a.sparse_rows == tuple(sparse)
    assert_sparse(a)


@settings(max_examples=200)
@given(st.data())
def test_products_stacks_and_column_windows_agree_with_a_dense_reference(data):
    m = data.draw(st.one_of(matrices(), wide_sparse()))
    other = data.draw(matrices(rows=(m.cols, m.cols)))
    below = data.draw(matrices(rows=(0, 3), cols=(m.cols, m.cols)))
    v = data.draw(st.lists(st.integers(-9, 9), min_size=m.rows, max_size=m.rows))
    start = data.draw(st.integers(0, m.cols))
    stop = data.draw(st.integers(start, m.cols))
    a, b = m.to_lists(), other.to_lists()
    rows, inner, cols = m.rows, m.cols, other.cols
    cases = (
        (m.transpose(), [[a[i][j] for i in range(rows)] for j in range(inner)]),
        (m @ other, [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)] for i in range(rows)]),
        (vstack(m, below), a + below.to_lists()),
        (m.columns(start, stop), [row[start:stop] for row in a]),
    )
    for got, expect in cases:
        assert got.rows == len(expect) and got.to_lists() == expect
        assert_sparse(got)
    assert m.transpose().cols == rows and (m @ other).cols == cols and m.columns(start, stop).cols == stop - start
    assert vec_mat(v, m) == tuple(sum(v[i] * a[i][j] for i in range(rows)) for j in range(inner))


def test_construction_rejects_ragged_and_unsized_input():
    for rows, cols in (([[1, 2], [3]], None), ([[1, 2]], 3), ([], None)):
        with pytest.raises(ValueError):
            IntMatrix(rows, cols)
    assert IntMatrix([], 3).shape == (0, 3)
    assert IntMatrix([()] * 2, 0).shape == (2, 0)
    assert IntMatrix([[0, 0], [0, 5]]).sparse_rows == ({}, {1: 5})


# -- HNF ---------------------------------------------------------------------


def test_hnf_fixed_examples():
    assert hnf(IntMatrix([[2, 0], [0, 3]])) == IntMatrix([[2, 0], [0, 3]])
    assert hnf(IntMatrix([[1, 1], [0, 0]])) == IntMatrix([[1, 1]], 2)
    assert hnf(IntMatrix([], 3)) == IntMatrix([], 3)


@settings(max_examples=500)
@given(matrices())
def test_hnf_shape_and_idempotence(m):
    h = hnf(m)
    assert_hnf_shape(h)
    assert hnf(h) == h


@settings(max_examples=200)
@given(matrices(rows=(1, 5), cols=(5, 5)))
def test_hnf_span_preserved_by_mutual_membership(m):
    lat_m = Lattice(5, m)
    lat_h = Lattice(5, hnf(m))
    for row in m.entries:
        assert member(row, lat_h).ok
    for row in hnf(m).entries:
        assert member(row, lat_m).ok


@settings(max_examples=150)
@given(st.data())
def test_hnf_canonical_under_unimodular_row_ops(data):
    m = data.draw(matrices(rows=(1, 4), cols=(2, 5)))
    index = st.integers(0, m.rows - 1)
    op = st.tuples(st.integers(0, 2), index, index, st.integers(-3, 3))
    rows = [list(r) for r in m.entries]
    for kind, i, j, q in data.draw(st.lists(op, min_size=10, max_size=10)):
        if kind == 0:
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 1:
            rows[i] = [-x for x in rows[i]]
        elif i != j:
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    assert hnf(IntMatrix(rows, m.cols)) == hnf(m)


def dense_hnf_core(a, ncols, u):
    """The dense reduction, kept as the oracle whose result the sparse kernel must equal.

    It reduces the rows above each pivot as soon as the pivot is found; the
    kernel does the same forward steps but reduces the rows above in one
    back-substitution at the end.  The Hermite form and its transform are
    unique, so the two results agree even though their step sequences differ.
    """

    def row_sub(rows, i, j, q):
        if q:
            rows[i] = [x - q * y for x, y in zip(rows[i], rows[j])]

    nrows = len(a)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        while True:
            nz = [i for i in range(r, nrows) if a[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(a[i][c]))
            if i0 != r:
                a[r], a[i0] = a[i0], a[r]
                u[r], u[i0] = u[i0], u[r]
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
                u[r] = [-x for x in u[r]]
            clean = True
            for i in range(r + 1, nrows):
                if a[i][c]:
                    q = a[i][c] // a[r][c]
                    row_sub(a, i, r, q)
                    row_sub(u, i, r, q)
                    if a[i][c]:
                        clean = False
            if clean:
                break
        if r < nrows and a[r][c]:
            for i in range(r):
                q = a[i][c] // a[r][c]
                row_sub(a, i, r, q)
                row_sub(u, i, r, q)
            pivots.append(c)
            r += 1
    return pivots


def assert_matches_dense_reduction(m: IntMatrix) -> None:
    a = [list(row) for row in m.entries]
    u = [[int(i == j) for j in range(m.rows)] for i in range(m.rows)]
    pivots = dense_hnf_core(a, m.cols, u)
    h = IntMatrix(a[: len(pivots)], m.cols)
    assert hnf_with_transform(m) == (h, IntMatrix(u, m.rows), pivots)
    assert hnf(m) == h


@settings(max_examples=300)
@given(st.one_of(matrices(), wide_sparse(), tall_sparse()))
@example(IntMatrix([[0, -2, 0, 3, 0], [0, 0, 0, 0, 0], [0, -4, 0, 1, 0], [0, 0, -3, 0, 0]], 5))
# pivots 3, 2, 3: reducing row 0 at column 1 by row 1, which holds 1 at the
# pivot column 2, brings fill into column 2 of row 0, reduced in turn; the
# last row is row 0 + row 1 and leaves a kernel row
@example(IntMatrix([[3, 5, 0], [0, 2, 7], [0, 0, 3], [3, 7, 7]]))
def test_hnf_transform_equals_the_dense_reduction(m):
    assert_matches_dense_reduction(m)


def test_hnf_transform_equals_the_dense_reduction_on_empty_shapes():
    for m in (IntMatrix([], 0), IntMatrix([], 4), IntMatrix([()] * 3, 0)):
        assert_matches_dense_reduction(m)


def test_hnf_transform_equals_the_dense_reduction_on_c13(c13_data):
    # Im δ̄ fills in; R3 and its transpose have large leading-column buckets
    assert_matches_dense_reduction(c13_data.im_delta.basis)
    assert_matches_dense_reduction(c13_data.r3.basis)
    assert_matches_dense_reduction(c13_data.r3.basis.transpose())
    # the basis of U is c8's `_u_generators` rows as they come
    assert_matches_dense_reduction(u_lattice(maclane_c8()).basis)


def assert_hermite_form_is_fixed(h: IntMatrix, pivots: list[int]) -> None:
    assert hnf(h) == h
    assert hnf_with_transform(h) == (h, IntMatrix.identity(h.rows), pivots)


@settings(max_examples=200)
@given(st.one_of(matrices(), wide_sparse(), tall_sparse()))
def test_reducing_a_hermite_form_again_is_a_no_op(m):
    h, _, pivots = hnf_with_transform(m)
    assert hnf(m) == h
    assert_hermite_form_is_fixed(h, pivots)


def test_reducing_c13_canonical_forms_again_is_a_no_op(c13_data):
    r3, im_delta = c13_data.r3.canonical_form, c13_data.im_delta.canonical_form
    assert r3.shape == (532, 572) and im_delta.shape == (168, 2040)
    for h in (r3, im_delta):
        assert_hermite_form_is_fixed(h, [min(row) for row in h.sparse_rows])


# -- SNF ---------------------------------------------------------------------


def test_snf_fixed_examples():
    divisors, _, _ = snf(IntMatrix([[2, 0], [0, 3]]))
    assert divisors == (1, 6)
    divisors, _, _ = snf(IntMatrix.zeros(3, 4))
    assert divisors == ()


@settings(max_examples=300)
@given(matrices())
def test_snf_transform_and_divisibility(m):
    divisors, left, right = snf(m)
    assert is_unimodular(left)
    assert is_unimodular(right)
    d = left @ m @ right
    for i, row in enumerate(d.entries):
        for j, x in enumerate(row):
            expect = divisors[i] if i == j and i < len(divisors) else 0
            assert x == expect
    assert all(x > 0 for x in divisors)
    for a, b in zip(divisors, divisors[1:]):
        assert b % a == 0


@settings(max_examples=100)
@given(st.integers(1, 5).flatmap(lambda n: matrices(rows=(n, n), cols=(n, n))))
def test_snf_preserves_determinant_magnitude(m):
    det = bareiss_det(m)
    assume(det != 0)
    divisors, _, _ = snf(m)
    assert math.prod(divisors) == abs(det)


@settings(max_examples=200)
@given(matrices())
def test_snf_divisor_products_are_minor_gcds(m):
    # d_1...d_k is the gcd of all k x k minors (0 past the rank)
    divisors, _, _ = snf(m)
    for k in range(1, min(m.rows, m.cols) + 1):
        minors = (
            bareiss_det(IntMatrix([[m.entries[i][j] for j in cols] for i in rows], k))
            for rows in itertools.combinations(range(m.rows), k)
            for cols in itertools.combinations(range(m.cols), k)
        )
        expect = math.prod(divisors[:k]) if k <= len(divisors) else 0
        assert math.gcd(*minors) == expect


def test_snf_of_im_delta_has_torsion_three(maclane_data, c13_data):
    for data, torsion in ((maclane_data, (3,)), (c13_data, (3, 3))):
        divisors, _, _ = snf(data.im_delta.canonical_form)
        assert tuple(d for d in divisors if d != 1) == torsion
        assert len(divisors) == data.im_delta.rank


def test_snf_builds_no_dense_work_lists(monkeypatch, maclane_data):
    def no_dense(*args):
        pytest.fail("snf reduces dense lists")

    m = maclane_data.im_delta.canonical_form
    monkeypatch.setattr(IntMatrix, "to_lists", no_dense)
    monkeypatch.setattr(IntMatrix, "identity", no_dense)
    divisors, left, right = snf(m)
    assert divisors[-1] == 3
    # the canonical form has full row rank, so every row keeps a divisor
    assert left @ m @ right == IntMatrix(
        [[d if i == j else 0 for j in range(m.cols)] for i, d in enumerate(divisors)], m.cols
    )


# -- kernels -------------------------------------------------------------------


def test_kernel_fixed_examples(monkeypatch):
    # a basis of the left kernel, left for Lattice to put in canonical form
    monkeypatch.setattr("arrlcs.exactlin.hnf", lambda m: pytest.fail("kernel_basis calls hnf"))
    assert kernel_basis(IntMatrix([[1], [1], [1]])).shape == (2, 3)
    assert kernel_basis(IntMatrix.identity(4)).shape == (0, 4)
    assert kernel_basis(IntMatrix([[1, 1, 1]])).shape == (0, 1)
    k = kernel_basis(IntMatrix([[1, 0], [1, 0], [0, 1]]))
    assert k.rows == 1 and set(k.entries) <= {(1, -1, 0), (-1, 1, 0)}


@settings(max_examples=200)
@given(lattices())
def test_kernel_is_saturated_and_complete(lat):
    m = lat.basis
    k = kernel_basis(m)
    for row in k.entries:
        assert all(x == 0 for x in vec_mat(row, m))
    ker = Lattice(m.rows, k)
    assert ker.rank == k.rows  # a basis, not only a spanning set
    assert ker == saturate(ker)
    assert ker.rank == m.rows - lat.rank


# -- membership ------------------------------------------------------------------


def test_member_fixed_examples():
    lat = Lattice(2, [[1, 1]])
    res = member([2, 2], lat)
    assert res.ok and res.coefficients == (2,)
    res = member([1, 0], lat)
    assert not res.ok and res.witness is not None


def test_member_does_not_truncate_entries():
    # 1/2 is not an integer multiple of the basis, whatever int() makes of it
    assert not member((Fraction(1, 2), 0), Lattice(2, [[1, 0]])).ok


@settings(max_examples=300)
@given(st.data())
def test_member_coefficients_reconstruct(data):
    m = data.draw(matrices(rows=(1, 4), cols=(5, 5)))
    combo = data.draw(st.lists(st.integers(-4, 4), min_size=m.rows, max_size=m.rows))
    v = vec_mat(combo, m)
    res = member(v, Lattice(5, m))
    assert res.ok
    assert vec_mat(res.coefficients, m) == v


@st.composite
def lattices_and_vectors(draw):
    lat = draw(lattices())
    n = lat.ambient_rank
    return lat, tuple(draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)))


@settings(max_examples=300)
@given(lattices_and_vectors())
@example((Lattice(2, [[2, 0]]), (1, 0)))  # divisibility failure
@example((Lattice(3, [[1, 1, 0]]), (0, 0, 1)))  # rational failure
def test_member_witness_separates(case):
    lat, v = case
    res = member(v, lat)
    if res.ok:
        assert vec_mat(res.coefficients, lat.basis) == v
        return
    w = res.witness
    if w.modulus:
        assert w.pairing % w.modulus == w.pairing != 0
        assert dot(w.functional, v) % w.modulus == w.pairing
        for row in lat.basis.entries:
            assert dot(w.functional, row) % w.modulus == 0
    else:
        assert w.pairing == dot(w.functional, v) != 0
        assert math.gcd(*w.functional) == 1
        for row in lat.basis.entries:
            assert dot(w.functional, row) == 0


@settings(max_examples=300)
@given(lattices_and_vectors())
@example((Lattice(2, [[2, 0]]), (1, 0)))  # divisibility failure
@example((Lattice(3, [[1, 1, 0]]), (0, 0, 1)))  # rational failure
def test_member_witness_equals_the_fraction_reference(case):
    lat, v = case
    assert member(v, lat).witness == reference_witness(lat, v)


def test_member_witness_equals_the_fraction_reference_on_c13(c13_data):
    # the first eight failures of each kind among seeded τ̃ values; a
    # rational failure (modulus 0) comes about once in thirty, the eighth at seed 368.
    # Each is also tested against Im δ̄'s core, whose witness reads the core's own Hermite form
    im_delta, core, config = c13_data.im_delta, c13_data.im_delta_core.lattice, c13_data.config
    dim = len(config.index.pairs) * c13_data.n
    wanted = {"divisibility": 8, "rational": 8}
    for seed in range(2000):
        rng = random.Random(f"witness:{seed}")
        value = tau_tilde(c13_data, AbelianGMap.from_vector(config, [rng.randint(-3, 3) for _ in range(dim)])).flat
        res = member(value, im_delta)
        kind = None if res.ok else "divisibility" if res.witness.modulus else "rational"
        if wanted.get(kind):
            wanted[kind] -= 1
            assert res.witness == reference_witness(im_delta, value)
            assert member(value, core).witness == reference_witness(core, value)
            if not any(wanted.values()):
                break
    assert not any(wanted.values())


@st.composite
def lattices_and_probes(draw):
    """A lattice of any shape above and a vector: arbitrary, in the lattice, or one unit off it."""
    m = draw(st.one_of(matrices(), wide_sparse(), tall_sparse()))
    kind, n = draw(st.sampled_from(["any", "in", "off"])), m.cols
    if kind == "any":
        return Lattice(n, m), tuple(draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)))
    v = list(vec_mat(draw(st.lists(st.integers(-3, 3), min_size=m.rows, max_size=m.rows)), m))
    if kind == "off":
        v[draw(st.integers(0, n - 1))] += draw(st.sampled_from([-1, 1]))
    return Lattice(n, m), tuple(v)


# echelon rows [[1, 5, 0], [0, 2, 1]] against Hermite rows [[1, 1, -1], [0, 2, 1]], plus a dependent row
STAGED = Lattice(3, [[1, 5, 0], [0, 2, 1], [1, 7, 1]])
STAGED_CASES = [(STAGED, (1, 5, 0)), (STAGED, (0, 1, 0)), (STAGED, (0, 0, 1)), (Lattice(3, [[2, 4, 6], [0, 3, 3], [2, 1, 3]]), (1, 0, 0))]


def test_used_columns_re_keys_the_nonzero_rows():
    rows = [{}, {5: 2, 1: -1}, {}, {3: 4}]
    assert used_columns(rows) == ((1, 3, 5), ((1, ((2, 2), (0, -1))), (3, ((1, 4),))))
    assert used_columns([{}, {}]) == ((), ())


# edge cases of member's in-order walk; each lattice's basis is its echelon and Hermite form
WALK_L3 = Lattice(3, [[1, 0, 1], [0, 1, 1], [0, 0, 2]])  # every column a pivot, the last 2
WALK_L4 = Lattice(4, [[1, 1, 1, 1], [0, 2, 0, 1]])  # pivots 0 and 1
WALK_CASES = [
    (WALK_L3, (1, 1, 2)),  # pivot 2's entry cancels to 0 before the walk reaches it: in the lattice
    (WALK_L3, (1, 1, 1)),  # pivot 2's entry cancels, then row 1 brings it back as -1: divisibility failure mod 2
    (WALK_L3, (2, 0, 0)),  # pivot 2 enters the residue only through row 0's subtraction: in the lattice
    (WALK_L4, (1, 1, 1, 3)),  # final residue {0: 0, 1: 0, 2: 0, 3: 2}: cancelled zeros beside the rational column 3
    (WALK_L4, (0, 0, 1, 0)),  # no pivot column in the support: nothing subtracted, rational failure at column 2
]


def test_the_heap_walk_edge_cases_equal_the_reference():
    outcomes = []
    for lat, v in WALK_CASES:
        res = member({j: x for j, x in enumerate(v) if x}, Lattice(lat.ambient_rank, lat.basis))
        assert res == member(v, lat) == reference_member(v, lat)
        outcomes.append((res.coefficients, res.witness))
    assert outcomes == [
        ((1, 1, 0), None),
        (None, Witness((-1, -1, 1), 2, 1)),
        ((2, 0, -1), None),
        (None, Witness((-1, -1, 0, 2), 0, 4)),
        (None, Witness((-1, 0, 1, 0), 0, 1)),
    ]


def test_staged_cases_cover_every_outcome():
    assert STAGED.echelon()[0] != STAGED.canonical_form and STAGED.basis.rows > STAGED.rank
    outcomes = [(r.ok, r.witness and r.witness.modulus) for r in (member(v, lat) for lat, v in STAGED_CASES)]
    assert outcomes == [(True, None), (False, 2), (False, 0), (False, 6)]


@settings(max_examples=300)
@given(lattices_and_probes())
@example(STAGED_CASES[0])  # in the lattice: coefficients over the echelon rows differ from the Hermite rows'
@example(STAGED_CASES[1])  # divisibility failure at the non-unit pivot 2
@example(STAGED_CASES[2])  # rational failure
@example(STAGED_CASES[3])  # dependent rows, divisibility failure modulo 6
@example(WALK_CASES[0])  # a later pivot's entry cancels before the walk reaches it
@example(WALK_CASES[3])  # cancelled zeros beside the rational column
@example(WALK_CASES[4])  # no pivot column in the support
def test_staged_lattice_equals_the_single_reduction_route(case):
    lat, v = case
    assert member(v, lat) == reference_member(v, lat)
    assert lat._keep() @ lat.basis == lat.echelon()[0]
    assert lat.canonical_form == hnf(lat.basis)


def shifted(lat, v, combos):
    """``v`` and ``v`` plus lattice elements: if ``v`` fails, each fails at its pivot row or rational column."""
    return [tuple(v), *(tuple(x + y for x, y in zip(v, vec_mat(c, lat.basis))) for c in combos)]


@st.composite
def lattices_and_shared_failures(draw):
    """A lattice, and probes that share a failing key: a vector shifted by lattice elements, then two more."""
    m = draw(st.one_of(matrices(), wide_sparse()))
    n, lat = m.cols, Lattice(m.cols, m)
    vector = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    combos = draw(st.lists(st.lists(st.integers(-3, 3), min_size=m.rows, max_size=m.rows), min_size=1, max_size=3))
    return lat, shifted(lat, draw(vector), combos) + [tuple(draw(vector)) for _ in range(2)]


SHARED_FAILURES = [(lat, shifted(lat, v, [[1, 0, 0], [0, -1, 0], [2, 1, -1]])) for lat, v in STAGED_CASES[1:]]


@settings(max_examples=300)
@given(lattices_and_shared_failures())
@example(SHARED_FAILURES[0])  # divisibility failures at the non-unit pivot 2
@example(SHARED_FAILURES[1])  # rational failures
@example(SHARED_FAILURES[2])  # dependent rows, divisibility failures modulo 6
def test_a_warm_witness_cache_changes_no_result(case):
    lat, probes = case
    for v in probes:
        assert member(v, lat) == member(v, Lattice(lat.ambient_rank, lat.basis)) == reference_member(v, lat)


@settings(max_examples=300)
@given(lattices_and_probes())
@example(STAGED_CASES[0])  # in the lattice
@example(STAGED_CASES[1])  # divisibility failure at the non-unit pivot 2
@example(STAGED_CASES[2])  # rational failure
@example(STAGED_CASES[3])  # dependent rows, divisibility failure modulo 6
@example(WALK_CASES[0])  # a later pivot's entry cancels before the walk reaches it
@example(WALK_CASES[1])  # a cancelled pivot entry brought back by a later row
@example(WALK_CASES[2])  # a pivot column that only a subtraction brings in
@example(WALK_CASES[3])  # cancelled zeros beside the rational column
@example(WALK_CASES[4])  # no pivot column in the support
def test_a_sparse_vector_walks_like_its_dense_form(case):
    lat, v = case
    sparse = {j: x for j, x in enumerate(v) if x}
    padded = {j: v[j] for j in reversed(range(len(v)))}  # zeros stored, keys out of order
    reference = reference_member(v, lat)
    # a sparse and a dense form each first on a fresh lattice (cold), then the others on its warm stages and witness cache
    for first, *rest in ((sparse, v, padded), (v, padded, sparse)):
        fresh = Lattice(lat.ambient_rank, lat.basis)
        assert member(first, fresh) == reference
        assert all(member(w, fresh) == reference for w in rest)
    assert sparse == {j: x for j, x in enumerate(v) if x}  # the walk copies its residue


def test_member_refuses_a_sparse_key_outside_the_ambient_rank():
    for key in (-1, 3, 10):
        for v in ({key: 1}, {0: 1, key: 0}):
            with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
                member(v, STAGED)
    assert member({}, STAGED) == member((0, 0, 0), STAGED) == MembershipResult(True, (0, 0, 0))


def test_a_second_failure_at_one_key_solves_nothing(monkeypatch):
    calls = []

    def counted(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)

        return call

    for name in ("_hnf_back", "_witness_functional"):
        monkeypatch.setattr(exactlin, name, counted(name, getattr(exactlin, name)))
    for (lat, probes), modulus in zip(SHARED_FAILURES, (2, 0, 6)):
        lat = Lattice(lat.ambient_rank, lat.basis)  # cold
        first = member(probes[0], lat).witness
        assert first.modulus == modulus and calls.count("_witness_functional") == 1
        calls.clear()
        for v in probes[1:]:
            w = member(v, lat).witness
            assert (w.functional, w.modulus) == (first.functional, first.modulus)
        assert calls == []
    # another key of a warm lattice solves once
    lat, (v, *_) = SHARED_FAILURES[0]
    lat = Lattice(lat.ambient_rank, lat.basis)
    member(v, lat)
    calls.clear()
    assert member(SHARED_FAILURES[1][1][0], lat).witness.modulus == 0
    assert calls.count("_witness_functional") == 1


def test_member_rational_failure_needs_no_orthogonal_complement(monkeypatch, c13_data):
    im_delta = c13_data.im_delta
    pivots = {next(j for j, x in enumerate(row) if x) for row in im_delta.canonical_form.entries}
    c = min(set(range(im_delta.ambient_rank)) - pivots)
    unit = tuple(int(j == c) for j in range(im_delta.ambient_rank))

    def no_kernel(m):
        raise AssertionError("member must not compute a kernel")

    monkeypatch.setattr("arrlcs.exactlin.kernel_basis", no_kernel)
    for lat, v in ((Lattice(3, [[1, 1, 0]]), (0, 0, 1)), (im_delta, unit)):
        res = member(v, lat)
        assert not res.ok and res.witness.modulus == 0
        assert res.witness.pairing == dot(res.witness.functional, v) != 0
        for row in lat.basis.entries:
            assert dot(res.witness.functional, row) == 0


@settings(max_examples=200)
@given(matrices(rows=(1, 4), cols=(4, 4)), st.lists(st.integers(-6, 6), min_size=4, max_size=4))
def test_member_matches_hnf_extension(m, v):
    lat = Lattice(4, m)
    extended = Lattice(4, vstack(m, IntMatrix([v], 4)))
    assert bool(member(v, lat)) == (extended == lat)


# -- perp / saturate / sums --------------------------------------------------------


def test_perp_fixed_example():
    lat = Lattice(2, [[1, 0]])
    assert perp(lat) == Lattice(2, [[0, 1]])
    assert perp(lat) is perp(lat)


@settings(max_examples=200)
@given(lattices(cols=(6, 6)), lattices(rows=(1, 1), cols=(6, 6), bound=4))
def test_perp_saturate_laws(lat, extra):
    pp = perp(lat)
    for f in pp.basis.entries:
        for row in lat.basis.entries:
            assert dot(f, row) == 0
    assert pp.rank == 6 - lat.rank
    sat = saturate(lat)
    assert perp(pp) == sat
    assert sat.rank == lat.rank
    assert saturate(sat) == sat
    for row in lat.basis.entries:
        assert member(row, sat).ok
    # antitone under adding a generator
    for f in perp(lattice_sum(lat, extra)).basis.entries:
        assert member(f, pp).ok


@settings(max_examples=100)
@given(lattices(rows=(0, 3), cols=(5, 5)), lattices(rows=(0, 3), cols=(5, 5)))
def test_lattice_sum_contains_both(a, b):
    s = lattice_sum(a, b)
    for row in a.basis.entries:
        assert member(row, s).ok
    for row in b.basis.entries:
        assert member(row, s).ok
    assert s == lattice_sum(b, a)
    assert s.rank <= a.rank + b.rank


def test_lattice_sum_ambient_mismatch():
    with pytest.raises(ValueError):
        lattice_sum(Lattice(2, [[1, 0]]), Lattice(3, [[1, 0, 0]]))


# -- quotient presentations ----------------------------------------------------------


@settings(max_examples=200)
@given(lattices())
def test_quotient_presentation_laws(lat):
    n = lat.ambient_rank
    q = quotient_presentation(lat)
    assert q.free_rank == n - len(q.elementary_divisors)
    assert q.is_torsion_free == all(d == 1 for d in q.elementary_divisors)
    assert q.is_torsion_free == (lat == saturate(lat))
    # projection kills the relator lattice
    for row in lat.basis.entries:
        assert all(x == 0 for x in vec_mat(row, q.projection))
    # section is a right inverse of projection
    for i in range(q.free_rank):
        image = vec_mat(q.section.row(i), q.projection)
        assert image == tuple(1 if j == i else 0 for j in range(q.free_rank))


def assert_quotient_matches_the_oracles(lat: Lattice) -> None:
    with mock.patch.object(exactlin, "hnf_with_transform", wraps=exactlin.hnf_with_transform) as transform:
        q = quotient_presentation(lat)
    # unit pivots of perp's Hermite form K make the section the unit rows at K's pivots
    assert transform.call_count == (perp(lat).echelon()[2] != 1)
    assert perp(lat).canonical_form == kernel_perp(lat).canonical_form
    assert (q.elementary_divisors, q.projection, q.section) == reference_quotient(lat)


@settings(max_examples=200)
@given(unit_pivot_lattices())
@example(Lattice(4, [[1, 2, 0, -3], [2, 4, 1, 0]]))  # perp's Hermite pivots are 1 too
def test_unit_pivot_perp_and_quotient_equal_the_kernel_route(lat):
    _, pivots, det = lat.echelon()
    assert det == 1 == math.prod(row[p] for row, p in zip(lat.canonical_form.sparse_rows, pivots))
    assert_quotient_matches_the_oracles(lat)
    assert quotient_presentation(lat).is_torsion_free


@settings(max_examples=200)
@given(st.one_of(lattices(), permuted_identity_lattices()))
@example(Lattice(2, [[2, 3]]))  # saturated although its Hermite pivot is 2; perp's, (3, -2), is 3
@example(Lattice(3, [[2, 0, 0], [0, 3, 0]]))  # torsion Z/6
@example(Lattice(3, [[0, 2, 1]]))  # [I | B] permuted: pivot 2
def test_perp_and_quotient_equal_the_kernel_route(lat):
    assert_quotient_matches_the_oracles(lat)


def test_unit_pivot_quotient_needs_no_kernel_and_no_saturation(monkeypatch):
    lat = Lattice(4, [[1, 2, 0, -3], [2, 4, 1, 0]])  # Hermite form [[1, 2, 0, -3], [0, 0, 1, 6]]
    monkeypatch.setattr("arrlcs.exactlin.kernel_basis", lambda m: pytest.fail("perp reduced Hᵀ"))
    monkeypatch.setattr(Lattice, "__eq__", lambda a, b: pytest.fail("saturation compared"))
    q = quotient_presentation(lat)
    assert q.elementary_divisors == (1, 1) and q.free_rank == 2
    assert perp(lat).basis == IntMatrix([[-2, 1, 0, 0], [3, 0, -6, 1]], 4)


@settings(max_examples=200)
@given(st.one_of(matrices(), wide_sparse(), tall_sparse()), st.booleans())
def test_one_reduction_serves_canonical_form_and_member(m, member_first):
    # one forward pass, without a transform, serves every stage; a second one, with the
    # transform, runs once a membership succeeds with a nonzero value; back-substitutions carry none
    lat, probe = Lattice(m.cols, m), tuple(range(1, m.cols + 1))
    with mock.patch.object(exactlin, "_hnf_forward", wraps=exactlin._hnf_forward) as forward, \
            mock.patch.object(exactlin, "_hnf_back", wraps=exactlin._hnf_back) as back:
        if member_first:
            member(probe, lat)
        h = lat.canonical_form
        res = member(probe, lat)
        assert lat.canonical_form is h and lat.rank == h.rows
        assert member((0,) * m.cols, lat).coefficients == (0,) * m.rows
    # the canonical form's back-substitution, which a witness reads too
    assert forward.call_count == 1 + res.ok and back.call_count == 1
    assert forward.call_args_list[0].args[2] is None and all(call.args[2] is None for call in back.call_args_list)
    assert h == hnf(m)
    e, pivots, _ = lat.echelon()
    assert lat._keep() @ m == e and e.rows == len(pivots) == h.rows


def test_quotient_presentation_divisors():
    q = quotient_presentation(Lattice(3, [[2, 0, 0], [0, 3, 0]]))
    assert q.elementary_divisors == (1, 6)
    assert q.free_rank == 1
    assert not q.is_torsion_free
    # saturated although its Hermite pivot is 2
    q = quotient_presentation(Lattice(2, [[2, 3]]))
    assert q.elementary_divisors == (1,)
    assert q.free_rank == 1
    assert q.is_torsion_free


# -- the unit-row split ------------------------------------------------------------


@st.composite
def peeled_lattices(draw, max_cols=8):
    """Planted unit rows ±e_c, each plus entries at columns planted before it (a cascade:
    it is ±e_c only once those are peeled), over residual rows that may hold torsion,
    zero rows and rows 2·e_c, which must not peel; the rows are shuffled."""
    n = draw(st.integers(1, max_cols))
    order = draw(st.permutations(range(n)))
    planted = order[: draw(st.integers(0, n))]
    rows = []
    for i, c in enumerate(planted):
        earlier = draw(st.dictionaries(st.sampled_from(planted[:i]), st.integers(-3, 3).filter(bool), max_size=2)) if i else {}
        rows.append({**earlier, c: draw(st.sampled_from((1, -1)))})
    entry = st.dictionaries(st.integers(0, n - 1), st.integers(-6, 6).filter(bool), max_size=3)
    rows += draw(st.lists(entry, max_size=4))
    rows += [{c: 2} for c in draw(st.lists(st.integers(0, n - 1), max_size=2))]
    rows += [{}] * draw(st.integers(0, 2))
    rows = draw(st.permutations(rows))
    return Lattice(n, IntMatrix([[row.get(j, 0) for j in range(n)] for row in rows], n))


@settings(max_examples=300)
@given(peeled_lattices())
@example(Lattice(3, [[2, 0, 0], [0, 1, 0]]))  # 2·e_0 does not peel: Z/2 survives
@example(Lattice(3, [[1, 1, 0], [0, 1, 1], [0, 0, 1]]))  # a cascade peels everything
@example(Lattice(3, [[1, 0, 0], [1, 0, 0], [3, 2, 0]]))  # a second e_0 empties; 2·e_1 is left
@example(Lattice(4, [[0, 0, 0, 0], [0, 1, 0, 0], [2, 1, 4, 0]]))  # torsion residual (2, 4) on columns 0 and 2
def test_peeled_perp_and_quotient_equal_the_kernel_route(lat):
    assert_quotient_matches_the_oracles(lat)
    kept, rest = exactlin._peel_unit_rows(lat.basis.sparse_rows, lat.ambient_rank)
    if kept is not None:
        # the span is Z^D ⊕ L′: the unit rows at the peeled columns and the rest spread back over the kept ones
        n, peeled = lat.ambient_rank, set(range(lat.ambient_rank)).difference(kept)
        split = [{d: 1} for d in peeled] + [{kept[c]: x for c, x in row.items()} for row in rest]
        assert Lattice(n, IntMatrix._of(split, n)) == lat
        assert lat._unit_split()[1] == lat.echelon()[2]  # L′'s pivot product is L's


def test_a_row_two_e_c_does_not_peel():
    lat = Lattice(3, [[2, 0, 0], [0, 1, 0], [0, 1, 1]])  # e_1 peels, then e_1 + e_2 as e_2; 2·e_0 stays
    assert exactlin._peel_unit_rows(lat.basis.sparse_rows, 3) == ([0], [{0: 2}])
    q = quotient_presentation(lat)
    assert q.elementary_divisors == (1, 1, 2) and q.free_rank == 0
    # once e_0 peels by a cascade of its own, 2·e_0 is emptied
    assert exactlin._peel_unit_rows(IntMatrix([[2, 0, 0], [1, 1, 0], [0, 1, 0]], 3).sparse_rows, 3) == ([2], [])


@settings(max_examples=100)
@given(peeled_lattices())
def test_a_split_keeps_no_stage_of_the_residual(lat):
    # a lattice with a unit row is never reduced itself, and keeps only the scalars and perp;
    # a lattice with none is its own L′: one forward pass, whose stages it keeps
    has_unit = any(len(row) == 1 and abs(*row.values()) == 1 for row in lat.basis.sparse_rows)
    with mock.patch.object(exactlin, "_hnf_forward", wraps=exactlin._hnf_forward) as forward:
        rank, det, comp = lat._unit_split()
    assert set(lat._cache) == ({"split"} if has_unit else {"split", "echelon", "canonical"})
    # the residual's (or the lattice's) pass, and one for the left kernel when a pivot exceeds 1
    assert forward.call_count == 1 + (det != 1)
    assert rank == lat.rank and comp is perp(lat)
