"""Exact linear algebra over the integers.

Everything here works with arbitrary-precision Python ints; no floats
appear anywhere.  Matrices are immutable and row-major.  A lattice is
the set of integer combinations of the rows of a basis matrix, viewed
as a sublattice of ZZ^ambient_rank.

Normal form conventions:

* ``hnf`` is the row-style Hermite normal form: nonzero rows only, each
  pivot positive, zeros below each pivot, and entries above a pivot
  reduced into ``[0, pivot)``.  It is the unique canonical form of the
  row span, so two lattices are equal iff their forms are identical.
* ``snf`` returns ``(divisors, left, right)`` with
  ``left @ m @ right`` diagonal, divisors positive and each dividing
  the next.

``IntMatrix`` stores sparse rows ``{column: entry}`` and nothing else;
its dense ``entries`` is a view built when read.  All elimination,
Hermite and Smith, runs on copies of those rows in one kernel, and its
result rows are wrapped as they are.  The kernel keeps the unfinished
rows in buckets by leading column, so a pivot step touches only the rows
led by its column, and it picks the finished rows holding that column
with one C-level filter; no step scans every row.  It still performs the
dense Hermite algorithm's operations in the dense order, so its
``(h, u, pivots)`` are deterministic and equal to a dense reduction's.
The Smith form alternates that kernel over the rows and the columns.
Products, ``vec_mat`` and membership touch only nonzero entries.

Linear maps act on row vectors (v ↦ v·m).  ``Lattice.__init__`` is the
one place a lattice is put in canonical form: ``kernel_basis(m)``
returns a plain basis of the left kernel {v : v·m = 0}, read off the
transform that reduces ``m``; ``perp``, the one caller that transposes,
caches the orthogonal complement on the lattice; ``lattice_sum`` stacks
two canonical forms.  Membership reduces a vector by the Hermite form;
on failure, one back-substitution on its pivot block gives the witness.

A quotient ``ZZ^n / lattice`` is presented by one path: the projection
is Kᵀ for K the canonical form of ``perp(lattice)``, and the section
comes from the transform of one ``hnf_with_transform(Kᵀ)``.  The Smith
form of the lattice's canonical form runs only when the lattice is not
saturated, to name the torsion divisors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import compress, repeat
from operator import contains
from typing import Iterable, Sequence


class IntMatrix:
    """Immutable integer matrix stored as sparse rows.

    ``sparse_rows`` holds one ``{column: entry}`` dict per row, zeros never
    stored; the dicts are shared, never mutated.  ``entries``, ``row()``
    and ``to_lists()`` are dense views built each time they are read.
    Entries must be Python ``int``s and are stored as given, without
    coercion: a ``float`` or ``Fraction`` passed in would break exactness.
    """

    __slots__ = ("sparse_rows", "rows", "cols")

    def __init__(self, rows: Iterable[Sequence[int]], cols: int | None = None):
        dense = [tuple(row) for row in rows]
        if cols is None:
            if not dense:
                raise ValueError("empty matrix needs an explicit column count")
            cols = len(dense[0])
        if any(len(row) != cols for row in dense):
            raise ValueError("ragged rows")
        self._set([dict(compress(enumerate(row), row)) for row in dense], cols)

    @classmethod
    def _of(cls, rows: Iterable[dict[int, int]], cols: int) -> "IntMatrix":
        """Wrap sparse rows without copying; the caller hands them over, zeros dropped."""
        m = object.__new__(cls)
        m._set(rows, cols)
        return m

    def _set(self, rows, cols: int) -> None:
        object.__setattr__(self, "sparse_rows", tuple(rows))
        object.__setattr__(self, "rows", len(self.sparse_rows))
        object.__setattr__(self, "cols", cols)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix._of([{i: 1} for i in range(n)], n)

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix._of([{} for _ in range(rows)], cols)

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of(_transpose(self.sparse_rows, self.cols), self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        return IntMatrix._of([combine(row.items(), other) for row in self.sparse_rows], other.cols)

    def columns(self, start: int, stop: int) -> "IntMatrix":
        """Columns ``start`` to ``stop - 1``, renumbered from 0."""
        rows = [{k - start: x for k, x in row.items() if start <= k < stop} for row in self.sparse_rows]
        return IntMatrix._of(rows, stop - start)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        return tuple(densify(row, self.cols) for row in self.sparse_rows)

    def row(self, i: int) -> tuple[int, ...]:
        return densify(self.sparse_rows[i], self.cols)

    def to_lists(self) -> list[list[int]]:
        return [list(densify(row, self.cols)) for row in self.sparse_rows]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.cols == other.cols
            and self.sparse_rows == other.sparse_rows
        )

    def __hash__(self) -> int:
        return hash((tuple(frozenset(row.items()) for row in self.sparse_rows), self.cols))

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols})"


def vstack(*mats: IntMatrix) -> IntMatrix:
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("column mismatch in vstack")
    return IntMatrix._of([row for m in mats for row in m.sparse_rows], cols)


def densify(row: dict[int, int], n: int) -> tuple[int, ...]:
    """The dense length-``n`` tuple of a sparse row."""
    out = [0] * n
    for k, x in row.items():
        out[k] = x
    return tuple(out)


def combine(terms: Iterable[tuple[int, int]], m: IntMatrix) -> dict[int, int]:
    """Σ x·(row k of m) over the pairs (k, x) in ``terms``, as a sparse row."""
    out: dict[int, int] = {}
    rows = m.sparse_rows
    for k, x in terms:
        for j, y in rows[k].items():
            out[j] = out.get(j, 0) + x * y
    return {j: z for j, z in out.items() if z}


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise ValueError("length mismatch")
    return sum(x * y for x, y in zip(u, v))


def vec_mat(v: Sequence[int], m: IntMatrix) -> tuple[int, ...]:
    """Row vector times matrix."""
    if len(v) != m.rows:
        raise ValueError("length mismatch")
    out = [0] * m.cols
    for x, row in zip(v, m.sparse_rows):
        if x:
            for j, y in row.items():
                out[j] += x * y
    return tuple(out)


# -- row operation helpers ------------------------------------------------


def _sparse_sub(ri: dict[int, int], rj: dict[int, int], q: int) -> None:
    """``ri -= q·rj`` in place on sparse rows; entries that cancel are dropped."""
    for k, y in rj.items():
        x = ri.get(k, 0) - q * y
        if x:
            ri[k] = x
        else:
            del ri[k]


def _hnf_core(a: list[dict[int, int]], ncols: int, u: list[dict[int, int]] | None) -> list[int]:
    """Reduce sparse rows ``{column: entry}`` to row HNF in place, mirroring ops on ``u``.

    The operation sequence is the dense algorithm's: per column, the pivot
    is the smallest |entry| at or below row ``r`` (lowest row on ties), the
    rows below are reduced by floor quotients until the column is clean,
    the pivot is made positive, then the rows above are reduced into
    ``[0, pivot)``.  So ``a``, ``u`` and the pivots are deterministic and
    equal to a dense run's.

    Rows at or below ``r`` vanish left of the current column.  They sit in
    buckets ``{leading column: row indices}``, with a heap of the occupied
    columns, so a pivot step touches only its column's bucket: a row whose
    entry there cancels moves to the bucket of its new leading column, and
    a swap moves the pivot's index to ``r`` in its bucket and the displaced
    row's index to the pivot's old one in the bucket of its own leading
    column.  The rows above ``r`` that hold the column are picked out by
    one C-level filter.  Within a pass each row receives the dense run's
    operations in its order, so the order in which rows are visited
    changes no result.
    Returns the pivot columns.
    """
    lead = [min(row, default=ncols) for row in a]
    at: dict[int, set[int]] = {}
    for i, c in enumerate(lead):
        if c < ncols:
            at.setdefault(c, set()).add(i)
    heap = list(at)
    heapify(heap)
    pivots: list[int] = []
    for r in range(len(a)):
        if not heap:
            break
        c = heappop(heap)
        bucket = at.pop(c)
        while True:
            i0 = min(bucket, key=lambda i: (abs(a[i][c]), i))
            if i0 != r:
                a[r], a[i0], lead[r], lead[i0] = a[i0], a[r], lead[i0], lead[r]
                if u is not None:
                    u[r], u[i0] = u[i0], u[r]
                lr = lead[i0]
                if lr != c:
                    # the pivot is now row r of this bucket, the displaced row i0 of its own
                    bucket.remove(i0)
                    bucket.add(r)
                    if lr < ncols:
                        at[lr].remove(r)
                        at[lr].add(i0)
            if a[r][c] < 0:
                a[r] = {k: -x for k, x in a[r].items()}
                if u is not None:
                    u[r] = {k: -x for k, x in u[r].items()}
            p = a[r]
            bucket.remove(r)
            left = set()
            for i in bucket:
                q = a[i][c] // p[c]
                _sparse_sub(a[i], p, q)
                if u is not None:
                    _sparse_sub(u[i], u[r], q)
                if c in a[i]:
                    left.add(i)
                else:
                    k = lead[i] = min(a[i], default=ncols)
                    if k in at:
                        at[k].add(i)
                    elif k < ncols:
                        at[k] = {i}
                        heappush(heap, k)
            if not left:
                break
            left.add(r)
            bucket = left
        for i in compress(range(r), map(contains, a, repeat(c, r))):
            q = a[i][c] // p[c]
            if q:
                _sparse_sub(a[i], p, q)
                if u is not None:
                    _sparse_sub(u[i], u[r], q)
        pivots.append(c)
    return pivots


def _transpose(rows: Sequence[dict[int, int]], ncols: int) -> list[dict[int, int]]:
    out: list[dict[int, int]] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for k, x in row.items():
            out[k][i] = x
    return out


def hnf(m: IntMatrix) -> IntMatrix:
    """Row Hermite normal form with zero rows dropped (canonical)."""
    a = [dict(row) for row in m.sparse_rows]
    pivots = _hnf_core(a, m.cols, None)
    return IntMatrix._of(a[: len(pivots)], m.cols)


def hnf_with_transform(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, list[int]]:
    """Return ``(h, u, pivots)`` with ``u @ m`` equal to ``h`` stacked on zero rows.

    ``u`` is square unimodular of size ``m.rows``; ``h`` has the zero rows
    dropped, so ``len(pivots) == h.rows`` is the rank.
    """
    a = [dict(row) for row in m.sparse_rows]
    u = [{i: 1} for i in range(m.rows)]
    pivots = _hnf_core(a, m.cols, u)
    return IntMatrix._of(a[: len(pivots)], m.cols), IntMatrix._of(u, m.rows), pivots


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """A basis of the left kernel ``{v in ZZ^rows : v·m = 0}``; ``Lattice`` canonicalizes.

    The rows are the tail of the unimodular transform that reduces ``m``.
    """
    _, u, pivots = hnf_with_transform(m)
    return IntMatrix._of(u.sparse_rows[len(pivots):], m.rows)


def snf(m: IntMatrix) -> tuple[tuple[int, ...], IntMatrix, IntMatrix]:
    """Smith normal form: ``(divisors, left, right)``, ``left @ m @ right`` diagonal.

    Hermite passes alternate between the rows and the columns, each
    applying its row operations to ``left`` or to the rows of ``right``ᵀ,
    until every row holds one entry.  A pair of entries where the smaller
    does not divide the larger is merged by adding one row to the other,
    and the other orientation is reduced next (the same one would undo
    the addition).  Finally the entries are moved to the diagonal in
    ascending order.
    """
    a, ncols = [dict(row) for row in m.sparse_rows], m.cols
    ops = [[{i: 1} for i in range(m.rows)], [{j: 1} for j in range(m.cols)]]
    side = 0
    while True:
        _hnf_core(a, ncols, ops[side])
        if all(len(row) < 2 for row in a):
            diag = sorted((x, i, c) for i, row in enumerate(a) for c, x in row.items())
            bad = next(((i, j) for (x, i, _), (y, j, _) in zip(diag, diag[1:]) if y % x), None)
            if bad is None:
                break
            i, j = bad
            _sparse_sub(a[i], a[j], -1)
            _sparse_sub(ops[side][i], ops[side][j], -1)
        a, ncols, side = _transpose(a, ncols), len(a), 1 - side
    # working row i holds its one entry x in column c: move each to (k, k)
    order = [i for _, i, _ in diag], [c for *_, c in diag]
    if side:
        order = order[::-1]
    for u, first in zip(ops, order):
        taken = set(first)
        u[:] = [u[k] for k in first] + [row for k, row in enumerate(u) if k not in taken]
    left, right = ops
    return tuple(x for x, *_ in diag), IntMatrix._of(left, m.rows), IntMatrix._of(_transpose(right, m.cols), m.cols)


# -- lattices -------------------------------------------------------------


class Lattice:
    """Integer row span of ``basis`` inside ZZ^ambient_rank."""

    __slots__ = ("ambient_rank", "basis", "canonical_form", "_reduction", "_perp")

    def __init__(self, ambient_rank: int, basis: IntMatrix | Iterable[Sequence[int]]):
        if not isinstance(basis, IntMatrix):
            basis = IntMatrix(basis, ambient_rank)
        if basis.cols != ambient_rank:
            raise ValueError("basis width does not match ambient rank")
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "canonical_form", hnf(basis))
        object.__setattr__(self, "_reduction", None)
        object.__setattr__(self, "_perp", None)

    def __setattr__(self, name, value):
        raise AttributeError("Lattice is immutable")

    @property
    def rank(self) -> int:
        return self.canonical_form.rows

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Lattice)
            and self.ambient_rank == other.ambient_rank
            and self.canonical_form == other.canonical_form
        )

    def __hash__(self) -> int:
        return hash((self.ambient_rank, self.canonical_form))

    def __repr__(self) -> str:
        return f"Lattice(rank {self.rank} in ZZ^{self.ambient_rank})"

    def _reduction_data(self):
        if self._reduction is None:
            h, u, pivots = hnf_with_transform(self.basis)
            keep = IntMatrix._of(u.sparse_rows[: len(pivots)], u.cols)
            object.__setattr__(self, "_reduction", (h, keep, pivots))
        return self._reduction


@dataclass(frozen=True)
class Witness:
    """Functional separating a vector from a lattice.

    ``functional . w ≡ 0 (mod modulus)`` for every lattice element ``w``
    while ``functional . v`` is not.  ``modulus == 0`` means honest
    integer orthogonality: the functional kills the lattice exactly but
    not the vector, so the failure is already rational; such a functional
    is primitive (its entries have gcd 1).
    """

    functional: tuple[int, ...]
    modulus: int
    pairing: int


@dataclass(frozen=True)
class MembershipResult:
    ok: bool
    coefficients: tuple[int, ...] | None = None
    witness: Witness | None = None

    def __bool__(self) -> bool:
        return self.ok


def member(v: Sequence[int], lat: Lattice) -> MembershipResult:
    """Decide ``v in lat``; return combination coefficients or a witness.

    On success ``coefficients`` expresses ``v`` over ``lat.basis`` rows.
    On failure the witness has ``modulus == 0`` (rational failure) or a
    positive modulus dividing the pivot product (divisibility failure);
    either comes from the Hermite pivot block alone.  Entries of ``v``
    must be Python ``int``s; they are used as given, without coercion.
    """
    if len(v) != lat.ambient_rank:
        raise ValueError("vector length does not match ambient rank")
    h, keep, pivots = lat._reduction_data()
    rem = dict(compress(enumerate(v), v))
    coeffs: list[int] = []
    for k, (hk, c) in enumerate(zip(h.sparse_rows, pivots)):
        q, r = divmod(rem.get(c, 0), hk[c])
        if r:
            return MembershipResult(False, witness=_pivot_witness(h, pivots, v, k=k))
        coeffs.append(q)
        if q:
            _sparse_sub(rem, hk, q)
    if rem:
        return MembershipResult(False, witness=_pivot_witness(h, pivots, v, c=min(rem)))
    return MembershipResult(True, coefficients=vec_mat(coeffs, keep))


def _pivot_witness(h: IntMatrix, pivots: list[int], v: Sequence[int], *, k=None, c=None) -> Witness:
    """Witness from one back-substitution on the pivot block P of ``h``.

    P, the pivot columns of ``h``, is upper triangular with determinant
    d, the pivot product, so y = d·P⁻¹b is integral (the adjugate).  A
    divisibility failure at pivot row ``k`` solves for b = e_k: y on the
    pivot coordinates maps every row of ``h`` into dZZ and ``v`` outside
    it.  A rational failure at the non-pivot column ``c`` solves for
    b = -h[:, c] and sets f_c = d, so f kills every row of ``h`` exactly
    but not ``v``, whose residue is nonzero at ``c`` and zero at every
    pivot; f is then divided by the gcd of its entries.
    """
    rank, rows = len(pivots), h.sparse_rows
    det = math.prod(row[p] for row, p in zip(rows, pivots))
    if c is None:
        b = [det if i == k else 0 for i in range(rank)]
    else:
        b = [-det * row.get(c, 0) for row in rows]
    pos = {p: j for j, p in enumerate(pivots)}
    y = [0] * rank
    for i in range(rank - 1, -1, -1):
        # row i is zero left of its pivot, and y[i] is still 0
        s = b[i] - sum(x * y[pos[col]] for col, x in rows[i].items() if col in pos)
        y[i], r = divmod(s, rows[i][pivots[i]])
        if r:
            raise AssertionError("adjugate witness is not integral")
    f = [0] * h.cols
    for p, x in zip(pivots, y):
        f[p] = x
    if c is None:
        return Witness(tuple(f), det, dot(f, v) % det)
    f[c] = det
    g = math.gcd(*f)
    f = [x // g for x in f]
    return Witness(tuple(f), 0, dot(f, v))


def lattice_sum(a: Lattice, b: Lattice) -> Lattice:
    """Smallest lattice containing both; basis is the two canonical forms stacked."""
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("ambient rank mismatch")
    return Lattice(a.ambient_rank, vstack(a.canonical_form, b.canonical_form))


def perp(lat: Lattice) -> Lattice:
    """Integer functionals vanishing on the lattice (ambient dual, same coords).

    The left kernel of the canonical form transposed: it depends only on
    the span, and the canonical form has no more rows than the basis (532
    against 612 for C13's R3).  Computed once per lattice and cached on
    it, so ``perp(lat) is perp(lat)``.
    """
    if lat._perp is None:
        object.__setattr__(lat, "_perp", Lattice(lat.ambient_rank, kernel_basis(lat.canonical_form.transpose())))
    return lat._perp


@dataclass(frozen=True)
class QuotientPresentation:
    """Integer presentation of ``ZZ^ambient_rank / lattice``.

    ``projection`` (ambient x free_rank) is Kᵀ for K the canonical form
    of ``perp(lattice)``, the functionals vanishing on it, so it kills the lattice;
    ``section`` (free_rank x ambient) is a right inverse, read off the
    transform that reduces Kᵀ to its Hermite form ``I``.  The quotient is
    torsion-free iff the lattice is saturated; ``elementary_divisors`` is
    then all ones, otherwise the ``snf`` divisors of the canonical form,
    whose entries above 1 are the torsion.
    """

    ambient_rank: int
    elementary_divisors: tuple[int, ...]
    free_rank: int
    projection: IntMatrix
    section: IntMatrix

    @property
    def is_torsion_free(self) -> bool:
        return all(d == 1 for d in self.elementary_divisors)


def quotient_presentation(lat: Lattice) -> QuotientPresentation:
    n = lat.ambient_rank
    projection = perp(lat).canonical_form.transpose()
    f = projection.cols
    h, u, _ = hnf_with_transform(projection)
    if h != IntMatrix.identity(f):
        raise AssertionError("the orthogonal complement is not primitive")
    saturation = Lattice(n, IntMatrix._of(u.sparse_rows[f:], n))
    divisors = (1,) * lat.rank if saturation == lat else snf(lat.canonical_form)[0]
    return QuotientPresentation(
        ambient_rank=n,
        elementary_divisors=divisors,
        free_rank=f,
        projection=projection,
        section=IntMatrix._of(u.sparse_rows[:f], n),
    )
