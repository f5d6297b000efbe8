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

All elimination, Hermite and Smith, runs on sparse rows
``{column: entry}`` in one kernel.  It skips the columns no working row
reaches, but performs the dense Hermite algorithm's operations in its
order, so its transforms are deterministic and equal to a dense
reduction's.  The Smith form alternates that kernel over the rows and
the columns.  Results come back as dense ``IntMatrix``es.

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
from itertools import compress
from typing import Iterable, Sequence


class IntMatrix:
    """Immutable integer matrix; entries stored as a tuple of row tuples.

    Entries must be Python ``int``s and are stored as given, without
    coercion: a ``float`` or ``Fraction`` passed in would break exactness.
    """

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, rows: Iterable[Sequence[int]], cols: int | None = None):
        ents = tuple(tuple(row) for row in rows)
        if ents:
            ncols = len(ents[0]) if cols is None else cols
            for row in ents:
                if len(row) != ncols:
                    raise ValueError("ragged rows")
        else:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            ncols = cols
        object.__setattr__(self, "entries", ents)
        object.__setattr__(self, "rows", len(ents))
        object.__setattr__(self, "cols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix([[0] * cols for _ in range(rows)], cols)

    def transpose(self) -> "IntMatrix":
        if not self.entries:
            return IntMatrix([()] * self.cols, 0)
        return IntMatrix(list(zip(*self.entries)), self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        if self.cols == 0:
            return IntMatrix.zeros(self.rows, other.cols)
        bt = list(zip(*other.entries))
        out = [
            [sum(x * y for x, y in zip(ra, cb)) for cb in bt]
            for ra in self.entries
        ]
        return IntMatrix(out, other.cols)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.entries, self.cols))

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols})"


def vstack(*mats: IntMatrix) -> IntMatrix:
    cols = mats[0].cols
    rows: list[Sequence[int]] = []
    for m in mats:
        if m.cols != cols:
            raise ValueError("column mismatch in vstack")
        rows.extend(m.entries)
    return IntMatrix(rows, cols)


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise ValueError("length mismatch")
    return sum(x * y for x, y in zip(u, v))


def vec_mat(v: Sequence[int], m: IntMatrix) -> tuple[int, ...]:
    """Row vector times matrix."""
    if len(v) != m.rows:
        raise ValueError("length mismatch")
    out = [0] * m.cols
    for x, row in zip(v, m.entries):
        if x:
            for j, y in enumerate(row):
                if y:
                    out[j] += x * y
    return tuple(out)


# -- row operation helpers ------------------------------------------------


def _sparse_sub(a: list[dict[int, int]], i: int, j: int, q: int) -> None:
    """``a[i] -= q·a[j]`` on sparse rows; entries that cancel are dropped."""
    ri = a[i]
    for k, y in a[j].items():
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
    equal to a dense run's.  Rows at or below ``r`` vanish left of the
    current column, so the loop tracks each one's leading column and jumps
    to the least, skipping the empty columns.  Returns the pivot columns.
    """
    nrows = len(a)
    lead = [min(row, default=ncols) for row in a]
    pivots: list[int] = []
    for r in range(nrows):
        c = min(lead[r:])
        if c == ncols:
            break
        while True:
            i0 = min((i for i in range(r, nrows) if lead[i] == c), key=lambda i: abs(a[i][c]))
            if i0 != r:
                a[r], a[i0], lead[r], lead[i0] = a[i0], a[r], lead[i0], lead[r]
                if u is not None:
                    u[r], u[i0] = u[i0], u[r]
            if a[r][c] < 0:
                a[r] = {k: -x for k, x in a[r].items()}
                if u is not None:
                    u[r] = {k: -x for k, x in u[r].items()}
            clean = True
            for i in range(r + 1, nrows):
                if lead[i] == c:
                    q = a[i][c] // a[r][c]
                    _sparse_sub(a, i, r, q)
                    if u is not None:
                        _sparse_sub(u, i, r, q)
                    if c in a[i]:
                        clean = False
                    else:
                        lead[i] = min(a[i], default=ncols)
            if clean:
                break
        for i in range(r):
            q = a[i].get(c, 0) // a[r][c]
            if q:
                _sparse_sub(a, i, r, q)
                if u is not None:
                    _sparse_sub(u, i, r, q)
        pivots.append(c)
    return pivots


def _sparse(m: IntMatrix) -> list[dict[int, int]]:
    return [dict(compress(enumerate(row), row)) for row in m.entries]


def _dense(rows: list[dict[int, int]], n: int) -> IntMatrix:
    out = [[0] * n for _ in rows]
    for d, row in zip(out, rows):
        for k, x in row.items():
            d[k] = x
    return IntMatrix(out, n)


def _transpose(rows: list[dict[int, int]], ncols: int) -> list[dict[int, int]]:
    out: list[dict[int, int]] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for k, x in row.items():
            out[k][i] = x
    return out


def hnf(m: IntMatrix) -> IntMatrix:
    """Row Hermite normal form with zero rows dropped (canonical)."""
    a = _sparse(m)
    pivots = _hnf_core(a, m.cols, None)
    return _dense(a[: len(pivots)], m.cols)


def hnf_with_transform(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, list[int]]:
    """Return ``(h, u, pivots)`` with ``u @ m`` equal to ``h`` stacked on zero rows.

    ``u`` is square unimodular of size ``m.rows``; ``h`` has the zero rows
    dropped, so ``len(pivots) == h.rows`` is the rank.
    """
    a = _sparse(m)
    u = [{i: 1} for i in range(m.rows)]
    pivots = _hnf_core(a, m.cols, u)
    return _dense(a[: len(pivots)], m.cols), _dense(u, m.rows), pivots


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """A basis of the left kernel ``{v in ZZ^rows : v·m = 0}``; ``Lattice`` canonicalizes.

    The rows are the tail of the unimodular transform that reduces ``m``.
    """
    _, u, pivots = hnf_with_transform(m)
    return IntMatrix(u.entries[len(pivots):], m.rows)


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
    a, ncols = _sparse(m), m.cols
    ops = [[{i: 1} for i in range(m.rows)], [{j: 1} for j in range(m.cols)]]
    side = 0
    while True:
        _hnf_core(a, ncols, ops[side])
        if all(len(row) < 2 for row in a):
            diag = sorted((x, i, c) for i, row in enumerate(a) for c, x in row.items())
            bad = next(((i, j) for (x, i, _), (y, j, _) in zip(diag, diag[1:]) if y % x), None)
            if bad is None:
                break
            _sparse_sub(a, *bad, -1)
            _sparse_sub(ops[side], *bad, -1)
        a, ncols, side = _transpose(a, ncols), len(a), 1 - side
    # working row i holds its one entry x in column c: move each to (k, k)
    order = [i for _, i, _ in diag], [c for *_, c in diag]
    if side:
        order = order[::-1]
    for u, first in zip(ops, order):
        taken = set(first)
        u[:] = [u[k] for k in first] + [row for k, row in enumerate(u) if k not in taken]
    left, right = ops
    return tuple(x for x, *_ in diag), _dense(left, m.rows), _dense(_transpose(right, m.cols), m.cols)


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
            keep = IntMatrix(u.entries[: len(pivots)], u.cols)
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
    rem = list(v)
    coeffs: list[int] = []
    for k, c in enumerate(pivots):
        hk = h.entries[k]
        q, r = divmod(rem[c], hk[c])
        if r:
            return MembershipResult(False, witness=_pivot_witness(h, pivots, v, k=k))
        coeffs.append(q)
        if q:
            rem = [x - q * y for x, y in zip(rem, hk)]
    c = next((j for j, x in enumerate(rem) if x), None)
    if c is not None:
        return MembershipResult(False, witness=_pivot_witness(h, pivots, v, c=c))
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
    rank = len(pivots)
    det = math.prod(row[p] for row, p in zip(h.entries, pivots))
    if c is None:
        b = [det if i == k else 0 for i in range(rank)]
    else:
        b = [-det * row[c] for row in h.entries]
    y = [0] * rank
    for i in range(rank - 1, -1, -1):
        row = h.entries[i]
        s = b[i] - sum(row[pivots[j]] * y[j] for j in range(i + 1, rank) if y[j])
        y[i], r = divmod(s, row[pivots[i]])
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

    The left kernel of the basis transposed.  Computed once per lattice
    and cached on it, so ``perp(lat) is perp(lat)``.
    """
    if lat._perp is None:
        object.__setattr__(lat, "_perp", Lattice(lat.ambient_rank, kernel_basis(lat.basis.transpose())))
    return lat._perp


def saturate(lat: Lattice) -> Lattice:
    """Largest sublattice of the ambient with the same rational span."""
    return perp(perp(lat))


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
    saturation = Lattice(n, IntMatrix(u.entries[f:], n))
    divisors = (1,) * lat.rank if saturation == lat else snf(lat.canonical_form)[0]
    return QuotientPresentation(
        ambient_rank=n,
        elementary_divisors=divisors,
        free_rank=f,
        projection=projection,
        section=IntMatrix(u.entries[:f], n),
    )
