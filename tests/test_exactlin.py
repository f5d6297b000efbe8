"""Randomized laws for the exact integer linear algebra substrate."""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from arrlcs.exactlin import (
    IntMatrix,
    Lattice,
    dot,
    hnf,
    kernel_basis,
    lattice_sum,
    member,
    perp,
    quotient_presentation,
    saturate,
    snf,
    vec_mat,
    vstack,
)


def random_matrix(rng, rows=None, cols=None, bound=9):
    rows = rng.randint(0, 5) if rows is None else rows
    cols = rng.randint(1, 6) if cols is None else cols
    return IntMatrix(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)], cols
    )


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


# -- HNF ---------------------------------------------------------------------


def test_hnf_fixed_examples():
    assert hnf(IntMatrix([[2, 0], [0, 3]])) == IntMatrix([[2, 0], [0, 3]])
    assert hnf(IntMatrix([[1, 1], [0, 0]])) == IntMatrix([[1, 1]], 2)
    assert hnf(IntMatrix([], 3)) == IntMatrix([], 3)


def test_hnf_shape_and_idempotence():
    rng = random.Random(101)
    for _ in range(500):
        m = random_matrix(rng)
        h = hnf(m)
        assert_hnf_shape(h)
        assert hnf(h) == h


def test_hnf_span_preserved_by_mutual_membership():
    rng = random.Random(102)
    for _ in range(200):
        m = random_matrix(rng, rows=rng.randint(1, 5), cols=5)
        lat_m = Lattice(5, m)
        lat_h = Lattice(5, hnf(m))
        for row in m.entries:
            assert member(row, lat_h).ok
        for row in hnf(m).entries:
            assert member(row, lat_m).ok


def test_hnf_canonical_under_unimodular_row_ops():
    rng = random.Random(103)
    for _ in range(150):
        m = random_matrix(rng, rows=rng.randint(1, 4), cols=rng.randint(2, 5))
        rows = [list(r) for r in m.entries]
        for _ in range(10):
            op = rng.randrange(3)
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
            if op == 0:
                rows[i], rows[j] = rows[j], rows[i]
            elif op == 1:
                rows[i] = [-x for x in rows[i]]
            elif i != j:
                q = rng.randint(-3, 3)
                rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
        assert hnf(IntMatrix(rows, m.cols)) == hnf(m)


# -- SNF ---------------------------------------------------------------------


def test_snf_fixed_examples():
    divisors, _, _ = snf(IntMatrix([[2, 0], [0, 3]]))
    assert divisors == (1, 6)
    divisors, _, _ = snf(IntMatrix.zeros(3, 4))
    assert divisors == ()


def test_snf_transform_and_divisibility():
    rng = random.Random(104)
    for _ in range(300):
        m = random_matrix(rng)
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


def test_snf_preserves_determinant_magnitude():
    rng = random.Random(105)
    done = 0
    while done < 100:
        n = rng.randint(1, 5)
        m = random_matrix(rng, rows=n, cols=n)
        det = bareiss_det(m)
        if det == 0:
            continue
        divisors, _, _ = snf(m)
        prod = 1
        for x in divisors:
            prod *= x
        assert prod == abs(det)
        done += 1


@st.composite
def lattices(draw):
    n = draw(st.integers(1, 6))
    row = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    return Lattice(n, IntMatrix(draw(st.lists(row, max_size=5)), n))


# -- kernels -------------------------------------------------------------------


def test_kernel_fixed_examples(monkeypatch):
    # a basis, left for Lattice to put in canonical form
    monkeypatch.setattr("arrlcs.exactlin.hnf", lambda m: pytest.fail("kernel_basis calls hnf"))
    assert kernel_basis(IntMatrix([[1, 1, 1]])).rows == 2
    assert kernel_basis(IntMatrix.identity(4)).rows == 0


@settings(max_examples=200, derandomize=True, deadline=None)
@given(lattices())
def test_kernel_is_saturated_and_complete(lat):
    m = lat.basis
    k = kernel_basis(m)
    for row in k.entries:
        assert all(x == 0 for x in vec_mat(row, m.transpose()))
    ker = Lattice(m.cols, k)
    assert ker.rank == k.rows  # a basis, not only a spanning set
    assert ker == saturate(ker)
    assert ker.rank == m.cols - lat.rank


# -- membership ------------------------------------------------------------------


def test_member_fixed_examples():
    lat = Lattice(2, [[1, 1]])
    res = member([2, 2], lat)
    assert res.ok and res.coefficients == (2,)
    res = member([1, 0], lat)
    assert not res.ok and res.witness is not None


def test_member_coefficients_reconstruct():
    rng = random.Random(107)
    for _ in range(300):
        m = random_matrix(rng, rows=rng.randint(1, 4), cols=5)
        lat = Lattice(5, m)
        combo = [rng.randint(-4, 4) for _ in range(m.rows)]
        v = vec_mat(combo, m)
        res = member(v, lat)
        assert res.ok
        assert vec_mat(res.coefficients, m) == v


@st.composite
def lattices_and_vectors(draw):
    lat = draw(lattices())
    n = lat.ambient_rank
    return lat, tuple(draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)))


@settings(max_examples=300, derandomize=True, deadline=None)
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


def test_member_matches_hnf_extension():
    rng = random.Random(109)
    for _ in range(200):
        m = random_matrix(rng, rows=rng.randint(1, 4), cols=4)
        lat = Lattice(4, m)
        v = tuple(rng.randint(-6, 6) for _ in range(4))
        extended = Lattice(4, vstack(m, IntMatrix([v], 4)))
        assert bool(member(v, lat)) == (extended == lat)


# -- perp / saturate / sums --------------------------------------------------------


def test_perp_fixed_example():
    lat = Lattice(2, [[1, 0]])
    assert perp(lat) == Lattice(2, [[0, 1]])
    assert perp(lat) is perp(lat)


def test_perp_saturate_laws():
    rng = random.Random(110)
    for _ in range(200):
        m = random_matrix(rng, rows=rng.randint(0, 5), cols=6)
        lat = Lattice(6, m)
        pp = perp(lat)
        for f in pp.basis.entries:
            for row in m.entries:
                assert dot(f, row) == 0
        assert pp.rank == 6 - lat.rank
        sat = saturate(lat)
        assert perp(pp) == sat
        assert sat.rank == lat.rank
        assert saturate(sat) == sat
        for row in m.entries:
            assert member(row, sat).ok
        # antitone under adding a generator
        bigger = lattice_sum(lat, Lattice(6, [[rng.randint(-4, 4) for _ in range(6)]]))
        for f in perp(bigger).basis.entries:
            assert member(f, pp).ok


def test_lattice_sum_contains_both():
    rng = random.Random(111)
    for _ in range(100):
        a = Lattice(5, random_matrix(rng, rows=rng.randint(0, 3), cols=5))
        b = Lattice(5, random_matrix(rng, rows=rng.randint(0, 3), cols=5))
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


@settings(max_examples=200, derandomize=True, deadline=None)
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
