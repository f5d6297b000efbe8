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
result rows are wrapped as they are.  The kernel's forward pass keeps
the unfinished rows in buckets by leading column, so a pivot step
touches only the rows led by its column; one back-substitution then
reduces each finished row by the rows below it, visiting only the pivot
columns the row holds.  No step scans every row.  The echelon rows are
the dense Hermite algorithm's, and the Hermite form of their span and
its transform are unique, so ``(h, u, pivots)`` are deterministic and
equal to a dense reduction's.  The Smith form alternates that kernel
over the rows and the columns.  Products, ``vec_mat`` and membership
touch only nonzero entries.

Linear maps act on row vectors (v ↦ v·m).  A lattice reduces its basis
once, on first use, by ``hnf_with_transform``: the Hermite form is its
canonical form, and the transform and the pivot block serve membership,
so comparing a lattice and testing membership in it cost one reduction.
``kernel_basis(m)`` returns a plain basis of the left kernel
{v : v·m = 0}, read off the transform that reduces ``m``.  ``perp``
caches the orthogonal complement on the lattice; when every Hermite
pivot is 1 it reads the complement's basis off the canonical form, and
otherwise takes the left kernel of its transpose.  Membership reduces a
vector by the Hermite form; on failure, one back-substitution on its
pivot block gives the witness, so a warm failed query reads only the
pivot entries and pairs the witness with the vector over the witness's
support.

``quotient_presentation`` presents a quotient ``ZZ^n / lattice`` from
the lattice alone: the projection is Kᵀ for K the canonical form of
``perp(lattice)``, and the section comes from the transform of one
``hnf_with_transform(Kᵀ)``.  Unit pivots prove the lattice saturated;
any other lattice takes the Smith divisors of its canonical form, which
are all 1 exactly when it is saturated and otherwise name the torsion.
A caller that knows K from the lattice's structure builds the same
``QuotientPresentation`` from these functions without reducing the
lattice (``lcs`` does so for U at each point).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import compress
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

    A forward pass brings the rows to echelon form.  Per column, the pivot
    is the smallest |entry| at or below row ``r`` (lowest row on ties), the
    rows below are reduced by floor quotients until the column is clean,
    and the pivot is made positive; row ``r`` is then finished.  Rows at
    or below ``r`` vanish left of the current column.  They sit in buckets
    ``{leading column: row indices}``, with a heap of the occupied columns,
    so a pivot step touches only its column's bucket: a row whose entry
    there cancels moves to the bucket of its new leading column, and a swap
    moves the pivot's index to ``r`` in its bucket and the displaced row's
    index to the pivot's old one in the bucket of its own leading column.
    Each row of a bucket receives the dense run's operations in its order,
    so the order in which the bucket's rows are visited changes no result.

    One back-substitution then reduces the entries above each pivot into
    ``[0, pivot)``, from the last finished row up.  Row i walks its entries
    at pivot columns right of its own pivot in increasing column order,
    from a heap of those columns, and at column c_j subtracts
    ⌊a[i][c_j] / p_j⌋ times row j, already reduced; the pivot columns of
    row j that the subtraction brings into row i join the heap.  Row j is
    zero left of c_j, so later steps leave column c_j alone.  Only entries
    the rows hold are visited; no step scans every row.

    The result is the dense algorithm's, which reduces the rows above at
    each pivot instead.  The forward pass never reads a finished row, so
    the echelon rows a⁰ (full row rank), their transform rows u⁰, the
    pivots and the zero rows of ``a`` with their rows of ``u`` (the
    kernel tail) do not depend on when the rows above are reduced.  Every
    such reduction subtracts a finished row from a finished row, so the
    head ends as T·a⁰ and its transform as T·u⁰ for one integer T.  The
    HNF T·a⁰ is unique, and so is T since a⁰ has full row rank: ``a``,
    ``u`` and the pivots equal a dense run's, up to the insertion order of
    entries within a row, which ``IntMatrix`` equality ignores.
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
        pivots.append(c)
    row_of = {c: j for j, c in enumerate(pivots)}
    later: list[list[int]] = [[]] * len(pivots)  # each reduced row's pivot columns but its own
    for i in reversed(range(len(pivots))):
        ai = a[i]
        todo = [k for k in ai if k in row_of]
        heapify(todo)
        heappop(todo)  # the row's own pivot, its leftmost entry
        while todo:
            c = heappop(todo)
            if c not in ai:
                continue
            j = row_of[c]
            q = ai[c] // a[j][c]
            if q:
                for k in later[j]:
                    if k not in ai:
                        heappush(todo, k)
                _sparse_sub(ai, a[j], q)
                if u is not None:
                    _sparse_sub(u[i], u[j], q)
        later[i] = [k for k in ai if k in row_of and k != pivots[i]]
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
    """Integer row span of ``basis`` inside ZZ^ambient_rank.

    Building one reduces nothing: the canonical form, and with it the
    transform and pivot block that ``member`` reads, come from one
    reduction of the basis the first time any of them is asked for.
    """

    __slots__ = ("ambient_rank", "basis", "_reduction", "_perp")

    def __init__(self, ambient_rank: int, basis: IntMatrix | Iterable[Sequence[int]]):
        if not isinstance(basis, IntMatrix):
            basis = IntMatrix(basis, ambient_rank)
        if basis.cols != ambient_rank:
            raise ValueError("basis width does not match ambient rank")
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_reduction", None)
        object.__setattr__(self, "_perp", None)

    def __setattr__(self, name, value):
        raise AttributeError("Lattice is immutable")

    @property
    def canonical_form(self) -> IntMatrix:
        """The Hermite form of the basis, from the lattice's one reduction (``_reduction_data``)."""
        return self._reduction_data()[0]

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
        """``(h, keep, pivots, block)``, from one ``hnf_with_transform`` of the basis on first use.

        ``h`` is the Hermite form of the basis, ``keep`` the transform rows
        that make it, and ``block`` the pivot block P of ``h`` for
        ``_pivot_witness``: per row of ``h``, its ``(pivot index, entry)``
        pairs at the other pivot columns, and the pivot product d = det P.
        It is the lattice's only reduction: ``canonical_form`` is this
        ``h``, so comparing a lattice and then testing membership in it
        reduces its basis once.  d = 1 iff every pivot is 1.
        """
        if self._reduction is None:
            h, u, pivots = hnf_with_transform(self.basis)
            keep = IntMatrix._of(u.sparse_rows[: len(pivots)], u.cols)
            pos = {p: j for j, p in enumerate(pivots)}
            above = tuple(
                tuple((pos[col], x) for col, x in row.items() if col in pos and col != p)
                for row, p in zip(h.sparse_rows, pivots)
            )
            det = math.prod(row[p] for row, p in zip(h.sparse_rows, pivots))
            object.__setattr__(self, "_reduction", (h, keep, pivots, (above, det)))
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
    either comes from the Hermite pivot block alone, which the lattice
    prepares once with its Hermite form.  Entries of ``v`` must be Python
    ``int``s; they are used as given, without coercion.
    """
    if len(v) != lat.ambient_rank:
        raise ValueError("vector length does not match ambient rank")
    h, keep, pivots, block = lat._reduction_data()
    rem = dict(compress(enumerate(v), v))
    coeffs: list[int] = []
    for k, (hk, c) in enumerate(zip(h.sparse_rows, pivots)):
        q, r = divmod(rem.get(c, 0), hk[c])
        if r:
            return MembershipResult(False, witness=_pivot_witness(h, pivots, block, v, k=k))
        coeffs.append(q)
        if q:
            _sparse_sub(rem, hk, q)
    if rem:
        return MembershipResult(False, witness=_pivot_witness(h, pivots, block, v, c=min(rem)))
    return MembershipResult(True, coefficients=vec_mat(coeffs, keep))


def _pivot_witness(h: IntMatrix, pivots: list[int], block, v: Sequence[int], *, k=None, c=None) -> Witness:
    """Witness from one back-substitution on the pivot block P of ``h``.

    P, the pivot columns of ``h``, is upper triangular with determinant
    d, the pivot product, so y = d·P⁻¹b is integral (the adjugate).  A
    divisibility failure at pivot row ``k`` solves for b = e_k: y on the
    pivot coordinates maps every row of ``h`` into dZZ and ``v`` outside
    it.  A rational failure at the non-pivot column ``c`` solves for
    b = -h[:, c] and sets f_c = d, so f kills every row of ``h`` exactly
    but not ``v``, whose residue is nonzero at ``c`` and zero at every
    pivot; f is then divided by the gcd of its entries.

    ``block`` is the lattice's pivot block, prepared once by
    ``Lattice._reduction_data``: each row's ``(pivot index, entry)`` pairs
    right of its pivot, and d.  The back-substitution reads only those,
    and the pairing f·v runs over the support of f, at most rank + 1
    entries.
    """
    above, det = block
    rank, rows = len(pivots), h.sparse_rows
    if c is None:
        b = [det if i == k else 0 for i in range(rank)]
        top = k  # b and so y vanish below row k
    else:
        b = [-det * row.get(c, 0) for row in rows]
        top = rank - 1
    y = [0] * rank
    for i in range(top, -1, -1):
        s = b[i] - sum(x * y[j] for j, x in above[i])
        y[i], r = divmod(s, rows[i][pivots[i]])
        if r:
            raise AssertionError("adjugate witness is not integral")
    if c is None:
        support, coeffs = pivots, y
    else:
        g = math.gcd(*y, det)
        support, coeffs = [*pivots, c], [x // g for x in (*y, det)]
    f = [0] * h.cols
    for p, x in zip(support, coeffs):
        f[p] = x
    pairing = sum(x * v[p] for p, x in zip(support, coeffs))
    if c is None:
        return Witness(tuple(f), det, pairing % det)
    return Witness(tuple(f), 0, pairing)


def perp(lat: Lattice) -> Lattice:
    """Integer functionals vanishing on the lattice (ambient dual, same coords).

    The right kernel {x : Hx = 0} of the canonical form H: it depends
    only on the span.  When every pivot of H is 1, the pivot columns p_k
    of H are the identity columns (zeros below a pivot, entries above it
    reduced into [0, 1)), so row k of Hx = 0 reads
    x_{p_k} = -Σ_c H[k][c]·x_c over the non-pivot columns c, which are
    free: the rows e_c - Σ_k H[k][c]·e_{p_k}, one per non-pivot column,
    are a basis, and no reduction builds them.  Any other lattice takes
    the left kernel of Hᵀ.  Computed once per lattice and cached on it,
    so ``perp(lat) is perp(lat)``.
    """
    if lat._perp is None:
        n, (h, _, pivots, (_, det)) = lat.ambient_rank, lat._reduction_data()
        if det == 1:
            cols, free = _transpose(h.sparse_rows, n), sorted(set(range(n)).difference(pivots))
            basis = IntMatrix._of([{c: 1, **{pivots[k]: -x for k, x in cols[c].items()}} for c in free], n)
        else:
            basis = kernel_basis(h.transpose())
        object.__setattr__(lat, "_perp", Lattice(n, basis))
    return lat._perp


@dataclass(frozen=True)
class QuotientPresentation:
    """Integer presentation of ``ZZ^ambient_rank / lattice``.

    ``projection`` (ambient x free_rank) is Kᵀ for K a basis of
    ``perp(lattice)``, the functionals vanishing on it, so it kills the
    lattice; ``quotient_presentation`` takes K as the canonical form.
    ``section`` (free_rank x ambient) is a right inverse, read off the
    transform that reduces Kᵀ to its Hermite form ``I``.
    ``elementary_divisors`` are the lattice's: the ``snf`` divisors of
    its canonical form, as many as its rank, however they were found
    (``quotient_presentation`` needs no Smith form when every Hermite
    pivot is 1).  Those above 1 are the torsion, so the quotient is
    torsion-free iff the lattice is saturated.
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
    """Present ``ZZ^n / lat``; see ``QuotientPresentation``.

    The torsion of the quotient is decided once.  When every Hermite
    pivot of ``lat`` is 1, ``lat`` is saturated and the divisors are all
    1 without a Smith form: if m·v ∈ lat, the coefficients of m·v over
    the rows of the canonical form H are its entries at H's pivot
    columns, which are identity columns, so each is divisible by m and
    v ∈ lat.  Any other lattice takes the ``snf`` divisors of H; the
    torsion of the quotient is ⊕ Z/d over them, so they are all 1
    exactly when ``lat`` is saturated.
    """
    n = lat.ambient_rank
    projection = perp(lat).canonical_form.transpose()
    f = projection.cols
    h, u, _ = hnf_with_transform(projection)
    if h != IntMatrix.identity(f):
        raise AssertionError("the orthogonal complement is not primitive")
    _, _, _, (_, det) = lat._reduction_data()
    divisors = (1,) * lat.rank if det == 1 else snf(lat.canonical_form)[0]
    return QuotientPresentation(
        ambient_rank=n,
        elementary_divisors=divisors,
        free_rank=f,
        projection=projection,
        section=IntMatrix._of(u.sparse_rows[:f], n),
    )
